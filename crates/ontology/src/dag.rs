//! Synthetic GO-like directed acyclic graph of functional terms.
//!
//! Every term's ancestors are computed once, when the DAG is generated,
//! and stored flat: each term owns a slice of `(ancestor, minimum up-edge
//! distance)` pairs sorted by ancestor id, the term itself included at
//! distance 0. A deepest-common-parent query is then a merge-join of two
//! such slices, with no traversal and no allocation. The join keeps the
//! best common ancestor under one total order (deeper first, then
//! smaller breadth, then smaller id), so its answer equals that of a
//! search over the DAG.
//!
//! Generation appends terms level by level, so every parent has a
//! smaller id than its children. One pass in id order therefore builds
//! each ancestor slice from its parents' finished slices: the distance to
//! an ancestor is one more than the smallest distance from any parent.
//! For the experiments' DAG shape (`generate(8, 4, 0.25, _)`: 317 terms,
//! ~3,400 ancestor entries) the table is about 30 KB.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::cmp::Ordering;

/// Term identifier; term 0 is always the ROOT.
pub type TermId = u32;

/// A rooted DAG of functional terms with parent links.
///
/// Structure mirrors a GO namespace: a single ROOT, `levels` depth levels
/// with geometric fan-out, each non-root term holding one primary parent
/// in the previous level and (with probability `extra_parent_p`) one
/// secondary parent — making it a genuine DAG, not a tree. Term *depth*
/// is the shortest distance to the ROOT, exactly the "distance from the
/// ROOT node to the DCP" of the paper's scoring.
#[derive(Clone, Debug)]
pub struct GoDag {
    parents: Vec<Vec<TermId>>,
    depth: Vec<u32>,
    /// `ancestors[anc_start[t]..anc_start[t + 1]]` is term `t`'s ancestor
    /// slice (see the module docs).
    anc_start: Vec<usize>,
    ancestors: Vec<(TermId, u32)>,
}

impl GoDag {
    /// Generate a DAG with `levels` levels below the root; level `l`
    /// contains roughly `branching^min(l, 4)`-ish terms grown per level
    /// by `width_factor`, capped to keep the term count tractable.
    pub fn generate(levels: usize, width_factor: usize, extra_parent_p: f64, seed: u64) -> Self {
        assert!(levels >= 1, "need at least one level below the root");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut parents: Vec<Vec<TermId>> = vec![Vec::new()]; // root
        let mut depth: Vec<u32> = vec![0];
        let mut prev_level: Vec<TermId> = vec![0];
        let mut width = width_factor.max(2);
        for l in 1..=levels {
            let mut this_level = Vec::with_capacity(width);
            for _ in 0..width {
                let id = parents.len() as TermId;
                let primary = prev_level[rng.gen_range(0..prev_level.len())];
                let mut ps = vec![primary];
                if prev_level.len() > 1 && rng.gen_bool(extra_parent_p) {
                    let second = prev_level[rng.gen_range(0..prev_level.len())];
                    if second != primary {
                        ps.push(second);
                    }
                }
                parents.push(ps);
                depth.push(l as u32);
                this_level.push(id);
            }
            prev_level = this_level;
            // widen geometrically but cap level width at 4× the factor²
            width = (width * 2).min(width_factor * width_factor * 4);
        }
        let (anc_start, ancestors) = ancestor_table(&parents);
        GoDag {
            parents,
            depth,
            anc_start,
            ancestors,
        }
    }

    /// Number of terms (including the root).
    pub fn n_terms(&self) -> usize {
        self.parents.len()
    }

    /// Depth of `t` (root = 0).
    #[inline]
    pub fn depth(&self, t: TermId) -> u32 {
        self.depth[t as usize]
    }

    /// Parents of `t`.
    #[inline]
    pub fn parents(&self, t: TermId) -> &[TermId] {
        &self.parents[t as usize]
    }

    /// Terms at depth exactly `d`.
    pub fn terms_at_depth(&self, d: u32) -> Vec<TermId> {
        (0..self.n_terms() as TermId)
            .filter(|&t| self.depth(t) == d)
            .collect()
    }

    /// Maximum depth in the DAG.
    pub fn max_depth(&self) -> u32 {
        *self.depth.iter().max().unwrap_or(&0)
    }

    /// All ancestors of `t` (including `t` itself) with their minimum
    /// up-edge distance from `t`, sorted by ancestor id.
    #[inline]
    pub fn ancestor_distances(&self, t: TermId) -> &[(TermId, u32)] {
        let t = t as usize;
        &self.ancestors[self.anc_start[t]..self.anc_start[t + 1]]
    }

    /// Deepest common parent of `t1` and `t2` and the *term breadth*
    /// (shortest `t1`–`t2` path through a common ancestor). Ties on depth
    /// break toward smaller breadth, then smaller id.
    ///
    /// Returns `(dcp, depth(dcp), breadth)`. Always succeeds: the root is
    /// a common ancestor of everything.
    pub fn deepest_common_parent(&self, t1: TermId, t2: TermId) -> (TermId, u32, u32) {
        let (a1, a2) = (self.ancestor_distances(t1), self.ancestor_distances(t2));
        let (mut i, mut j) = (0, 0);
        let mut best: Option<(TermId, u32, u32)> = None;
        while i < a1.len() && j < a2.len() {
            let ((t, d1), (u, d2)) = (a1[i], a2[j]);
            match t.cmp(&u) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                    let depth = self.depth(t);
                    let breadth = d1 + d2;
                    best = match best {
                        Some((bt, bd, bb))
                            if depth > bd
                                || (depth == bd && (breadth < bb || (breadth == bb && t < bt))) =>
                        {
                            Some((t, depth, breadth))
                        }
                        None => Some((t, depth, breadth)),
                        keep => keep,
                    };
                }
            }
        }
        best.expect("root is a common ancestor")
    }

    /// The paper's edge enrichment score for a term pair:
    /// `depth(DCP) − breadth`, as a signed value ("scores at or below 0
    /// are more likely to represent noise").
    pub fn enrichment_score(&self, t1: TermId, t2: TermId) -> i64 {
        let (_, depth, breadth) = self.deepest_common_parent(t1, t2);
        depth as i64 - breadth as i64
    }
}

/// Every term's ancestor slice, built in one pass in id order (parents
/// precede their children). Returns the slice offsets and the flat
/// `(ancestor, distance)` array.
fn ancestor_table(parents: &[Vec<TermId>]) -> (Vec<usize>, Vec<(TermId, u32)>) {
    let mut start = Vec::with_capacity(parents.len() + 1);
    start.push(0);
    let mut ancestors: Vec<(TermId, u32)> = Vec::new();
    let mut row: Vec<(TermId, u32)> = Vec::new();
    for (t, ps) in parents.iter().enumerate() {
        row.clear();
        row.push((t as TermId, 0));
        for &p in ps {
            let p = p as usize;
            assert!(p < t, "parent {p} of term {t} must precede it");
            row.extend(
                ancestors[start[p]..start[p + 1]]
                    .iter()
                    .map(|&(a, d)| (a, d + 1)),
            );
        }
        // sorted by (id, distance): the first entry of each id is its
        // minimum distance
        row.sort_unstable();
        row.dedup_by_key(|e| e.0);
        ancestors.extend_from_slice(&row);
        start.push(ancestors.len());
    }
    (start, ancestors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dag() -> GoDag {
        GoDag::generate(6, 3, 0.3, 42)
    }

    #[test]
    fn root_is_term_zero_depth_zero() {
        let d = small_dag();
        assert_eq!(d.depth(0), 0);
        assert!(d.parents(0).is_empty());
    }

    #[test]
    fn depths_match_levels() {
        let d = small_dag();
        assert_eq!(d.max_depth(), 6);
        for t in 0..d.n_terms() as TermId {
            for &p in d.parents(t) {
                assert_eq!(d.depth(p) + 1, d.depth(t), "parent depth must be one less");
            }
        }
    }

    #[test]
    fn every_nonroot_has_a_parent() {
        let d = small_dag();
        for t in 1..d.n_terms() as TermId {
            assert!(!d.parents(t).is_empty());
        }
    }

    #[test]
    fn ancestor_distances_include_self_and_root() {
        let d = small_dag();
        let deep = d.terms_at_depth(6)[0];
        let anc = d.ancestor_distances(deep);
        assert!(anc.windows(2).all(|w| w[0].0 < w[1].0), "sorted by id");
        assert!(anc.contains(&(deep, 0)));
        assert_eq!(anc[0], (0, 6), "root reached in exactly depth steps");
    }

    #[test]
    fn dcp_of_identical_terms_is_self() {
        let d = small_dag();
        let t = d.terms_at_depth(4)[0];
        let (dcp, depth, breadth) = d.deepest_common_parent(t, t);
        assert_eq!(dcp, t);
        assert_eq!(depth, 4);
        assert_eq!(breadth, 0);
        assert_eq!(d.enrichment_score(t, t), 4);
    }

    #[test]
    fn dcp_of_parent_child() {
        let d = small_dag();
        let t = d.terms_at_depth(5)[0];
        let p = d.parents(t)[0];
        let (dcp, depth, breadth) = d.deepest_common_parent(t, p);
        assert_eq!(dcp, p);
        assert_eq!(depth, 4);
        assert_eq!(breadth, 1);
        assert_eq!(d.enrichment_score(t, p), 3);
    }

    #[test]
    fn siblings_score_positive_when_deep() {
        let d = small_dag();
        // two children of the same deep parent
        let parent = d.terms_at_depth(5)[0];
        let kids: Vec<TermId> = (0..d.n_terms() as TermId)
            .filter(|&t| d.parents(t).contains(&parent))
            .collect();
        if kids.len() >= 2 {
            let s = d.enrichment_score(kids[0], kids[1]);
            assert!(s >= 3, "deep siblings score {s}");
        }
    }

    #[test]
    fn unrelated_deep_terms_score_at_or_below_zero() {
        let d = small_dag();
        let deep = d.terms_at_depth(6);
        // scan for a pair whose DCP is the root
        let mut found = false;
        'outer: for &a in &deep {
            for &b in &deep {
                if a >= b {
                    continue;
                }
                let (dcp, _, _) = d.deepest_common_parent(a, b);
                if dcp == 0 {
                    assert!(d.enrichment_score(a, b) <= -(2 * 6) + 6);
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(
            found,
            "expected at least one root-DCP pair among deep terms"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GoDag::generate(5, 3, 0.2, 7);
        let b = GoDag::generate(5, 3, 0.2, 7);
        assert_eq!(a.n_terms(), b.n_terms());
        assert_eq!(a.depth, b.depth);
        assert_eq!(a.parents, b.parents);
    }

    #[test]
    fn score_symmetry() {
        let d = small_dag();
        let xs = d.terms_at_depth(3);
        let ys = d.terms_at_depth(5);
        for &a in xs.iter().take(3) {
            for &b in ys.iter().take(3) {
                assert_eq!(d.enrichment_score(a, b), d.enrichment_score(b, a));
            }
        }
    }
}
