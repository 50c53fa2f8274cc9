//! Cluster-overlap evaluation (paper §IV-A, "Cluster overlap" and "Lost
//! and Found clusters").
//!
//! Original-network clusters are compared against filtered-network
//! clusters by **node overlap** and **edge overlap** (shared fraction of
//! the original cluster). Each filtered cluster is paired with its best
//! original match; the (AEES, overlap) plane is then cut into quadrants:
//!
//! * High AEES, high overlap → **true positive** (kept biology),
//! * Low AEES, high overlap → **false positive** (kept noise),
//! * High AEES, low overlap → **false negative** (meaningful but
//!   poorly-overlapping cluster — typically one *uncovered* by noise
//!   removal),
//! * Low AEES, low overlap → **true negative** (noise correctly absent).
//!
//! Sensitivity = TP/(TP+FN), specificity = TN/(TN+FP) (Fig. 8). Clusters
//! with *no* overlap at all are "lost" (original-only) or "found"
//! (filtered-only) — Fig. 5 bottom.
//!
//! # Index
//!
//! [`overlap_table`] and [`lost_and_found`] share one inverted index
//! from each vertex the original clusters *touch* (list in `vertices`
//! or use as an edge endpoint) to the ascending indices of the clusters
//! touching it. Vertex ids are remapped densely, so the index is
//! O(total cluster size), never O(largest vertex id). A filtered
//! cluster is scored only against the original clusters that touch a
//! vertex it touches. Skipping the rest is exact: an original cluster
//! sharing no touched vertex shares no listed vertex and no edge, so
//! both its overlaps are 0 and a full scan would pass over it too.
//! Candidates are scored in ascending index order, which keeps the
//! lower-index tie-break, and shared nodes and edges are counted per
//! occurrence in the original cluster exactly as [`node_overlap`] and
//! [`edge_overlap`] count them, so every ratio is the same integer
//! quotient bit for bit.

use casbn_graph::VertexId;
use casbn_mcode::Cluster;

/// Overlap of one filtered cluster with its best-matching original
/// cluster.
#[derive(Clone, Debug)]
pub struct ClusterComparison {
    /// Index into the filtered cluster list.
    pub filtered_idx: usize,
    /// Index of the best original match (`None` if no overlap with any
    /// original cluster — a "found" cluster).
    pub best_original: Option<usize>,
    /// Shared nodes / original cluster size (0 when unmatched).
    pub node_overlap: f64,
    /// Shared edges / original cluster edge count (0 when unmatched).
    pub edge_overlap: f64,
}

/// Quadrant classification of a cluster in the (AEES, overlap) plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quadrant {
    /// High AEES, high overlap.
    TruePositive,
    /// Low AEES, high overlap.
    FalsePositive,
    /// High AEES, low overlap.
    FalseNegative,
    /// Low AEES, low overlap.
    TrueNegative,
}

/// Counts per quadrant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuadrantCounts {
    /// High AEES, high overlap.
    pub tp: usize,
    /// Low AEES, high overlap.
    pub fp: usize,
    /// High AEES, low overlap.
    pub fn_: usize,
    /// Low AEES, low overlap.
    pub tn: usize,
}

/// Sensitivity/specificity derived from quadrant counts (Fig. 8).
#[derive(Clone, Copy, Debug, Default)]
pub struct SensitivitySpecificity {
    /// TP / (TP + FN).
    pub sensitivity: f64,
    /// TN / (TN + FP).
    pub specificity: f64,
}

/// `shared / of_len`, and 0 for an empty side (the overlap of an empty
/// cluster is 0, not NaN).
fn ratio(shared: usize, of_len: usize) -> f64 {
    if of_len == 0 {
        0.0
    } else {
        shared as f64 / of_len as f64
    }
}

/// Fraction of `of`'s nodes shared with `with` (duplicates in `of` count
/// once per occurrence).
pub fn node_overlap(of: &Cluster, with: &Cluster) -> f64 {
    let mut set = with.vertices.clone();
    set.sort_unstable();
    let shared = of
        .vertices
        .iter()
        .filter(|v| set.binary_search(v).is_ok())
        .count();
    ratio(shared, of.vertices.len())
}

/// Fraction of `of`'s edges shared with `with` (duplicates in `of` count
/// once per occurrence).
pub fn edge_overlap(of: &Cluster, with: &Cluster) -> f64 {
    let mut set = with.edges.clone();
    set.sort_unstable();
    let shared = of
        .edges
        .iter()
        .filter(|e| set.binary_search(e).is_ok())
        .count();
    ratio(shared, of.edges.len())
}

/// Every vertex a cluster touches: its `vertices`, then both endpoints
/// of each of its `edges` (repeats included).
fn touched(c: &Cluster) -> impl Iterator<Item = VertexId> + '_ {
    c.vertices
        .iter()
        .copied()
        .chain(c.edges.iter().flat_map(|&(u, v)| [u, v]))
}

/// Inverted index over the original clusters, from each vertex they
/// touch to the ascending indices of the clusters touching it.
///
/// Vertex ids are remapped densely (sorted, deduplicated), so every
/// array here is O(total original cluster size), whatever the largest
/// vertex id.
struct TouchIndex {
    /// Sorted, deduplicated ids touched by some original cluster; a
    /// vertex's position here is its dense id.
    ids: Vec<VertexId>,
    /// `touching[start[x]..start[x + 1]]` lists, ascending, the original
    /// clusters touching dense vertex `x`.
    start: Vec<usize>,
    touching: Vec<usize>,
    /// Whether dense vertex `x` is listed in some original cluster's
    /// `vertices` (an edge endpoint alone does not count).
    listed: Vec<bool>,
    /// Original cluster `c`'s `vertices` as dense ids, repeats kept:
    /// `vertices[vstart[c]..vstart[c + 1]]`.
    vstart: Vec<usize>,
    vertices: Vec<usize>,
}

impl TouchIndex {
    fn new(original: &[Cluster]) -> Self {
        // (vertex, cluster) pairs, deduplicated per cluster first: an
        // MCODE cluster touches each vertex again for every edge
        let mut pairs: Vec<(VertexId, usize)> = Vec::new();
        let mut row: Vec<VertexId> = Vec::new();
        for (ci, c) in original.iter().enumerate() {
            row.clear();
            row.extend(touched(c));
            row.sort_unstable();
            row.dedup();
            pairs.extend(row.iter().map(|&v| (v, ci)));
        }
        // sorting by (vertex, cluster) makes each vertex's run ascending
        pairs.sort_unstable();
        let mut ids = Vec::new();
        let mut start = Vec::new();
        for (i, &(v, _)) in pairs.iter().enumerate() {
            if ids.last() != Some(&v) {
                ids.push(v);
                start.push(i);
            }
        }
        start.push(pairs.len());
        let dense = |v: VertexId| ids.binary_search(&v).expect("every touched id is indexed");

        let mut listed = vec![false; ids.len()];
        let mut vstart = Vec::with_capacity(original.len() + 1);
        vstart.push(0);
        let mut vertices = Vec::new();
        for c in original {
            for &v in &c.vertices {
                let x = dense(v);
                listed[x] = true;
                vertices.push(x);
            }
            vstart.push(vertices.len());
        }
        TouchIndex {
            touching: pairs.into_iter().map(|(_, ci)| ci).collect(),
            ids,
            start,
            listed,
            vstart,
            vertices,
        }
    }

    /// Dense id of `v`, if some original cluster touches it.
    fn dense(&self, v: VertexId) -> Option<usize> {
        self.ids.binary_search(&v).ok()
    }

    /// Ascending indices of the original clusters touching dense `x`.
    fn touching(&self, x: usize) -> &[usize] {
        &self.touching[self.start[x]..self.start[x + 1]]
    }

    /// Original cluster `c`'s `vertices` as dense ids.
    fn vertices_of(&self, c: usize) -> &[usize] {
        &self.vertices[self.vstart[c]..self.vstart[c + 1]]
    }
}

/// For every filtered cluster, find the original cluster with the highest
/// node overlap (ties: higher edge overlap, then lower index). Overlap
/// fractions are measured **relative to the original cluster**, matching
/// the paper's "% of original retained" reading.
///
/// Only the original clusters touching a vertex the filtered cluster
/// touches are scored (see the module docs for why that is exact); the
/// number scored is charged to `analysis.overlap_candidates`.
pub fn overlap_table(original: &[Cluster], filtered: &[Cluster]) -> Vec<ClusterComparison> {
    let index = TouchIndex::new(original);
    // stamps are `fi + 1`, so 0 never matches a filtered cluster
    let mut mark = vec![0usize; index.ids.len()];
    let mut seen = vec![0usize; original.len()];
    let mut candidates: Vec<usize> = Vec::new();
    let mut edges = Vec::new();
    let mut scored = 0u64;
    let table = filtered
        .iter()
        .enumerate()
        .map(|(fi, fc)| {
            let stamp = fi + 1;
            for x in fc.vertices.iter().filter_map(|&v| index.dense(v)) {
                mark[x] = stamp;
            }
            candidates.clear();
            for x in touched(fc).filter_map(|v| index.dense(v)) {
                for &oi in index.touching(x) {
                    if seen[oi] != stamp {
                        seen[oi] = stamp;
                        candidates.push(oi);
                    }
                }
            }
            candidates.sort_unstable();
            scored += candidates.len() as u64;
            edges.clear();
            edges.extend_from_slice(&fc.edges);
            edges.sort_unstable();

            let mut best: Option<(usize, f64, f64)> = None;
            for &oi in &candidates {
                let oc = &original[oi];
                let nodes = index
                    .vertices_of(oi)
                    .iter()
                    .filter(|&&x| mark[x] == stamp)
                    .count();
                let shared_edges = oc
                    .edges
                    .iter()
                    .filter(|e| edges.binary_search(e).is_ok())
                    .count();
                let no = ratio(nodes, oc.vertices.len());
                let eo = ratio(shared_edges, oc.edges.len());
                if no == 0.0 && eo == 0.0 {
                    continue;
                }
                best = match best {
                    Some((_, bn, be)) if no > bn || (no == bn && eo > be) => Some((oi, no, eo)),
                    None => Some((oi, no, eo)),
                    keep => keep,
                };
            }
            let (best_original, node_overlap, edge_overlap) = match best {
                Some((oi, no, eo)) => (Some(oi), no, eo),
                None => (None, 0.0, 0.0),
            };
            ClusterComparison {
                filtered_idx: fi,
                best_original,
                node_overlap,
                edge_overlap,
            }
        })
        .collect();
    casbn_obs::counter_add("analysis.overlap_candidates", scored);
    table
}

/// Classify clusters into quadrants. `aees[i]` is the AEES of filtered
/// cluster `i`; `overlaps[i]` the chosen overlap measure (node or edge).
/// Thresholds per the paper: AEES ≥ 3.0 is "high", overlap > 50 % is
/// "high".
pub fn classify_quadrants(
    aees: &[f64],
    overlaps: &[f64],
    aees_cut: f64,
    overlap_cut: f64,
) -> (Vec<Quadrant>, QuadrantCounts) {
    assert_eq!(aees.len(), overlaps.len());
    let mut counts = QuadrantCounts::default();
    let quads = aees
        .iter()
        .zip(overlaps)
        .map(|(&a, &o)| {
            let high_a = a >= aees_cut;
            let high_o = o > overlap_cut;
            match (high_a, high_o) {
                (true, true) => {
                    counts.tp += 1;
                    Quadrant::TruePositive
                }
                (false, true) => {
                    counts.fp += 1;
                    Quadrant::FalsePositive
                }
                (true, false) => {
                    counts.fn_ += 1;
                    Quadrant::FalseNegative
                }
                (false, false) => {
                    counts.tn += 1;
                    Quadrant::TrueNegative
                }
            }
        })
        .collect();
    (quads, counts)
}

impl QuadrantCounts {
    /// Sensitivity/specificity of these counts.
    pub fn rates(&self) -> SensitivitySpecificity {
        let sens_den = self.tp + self.fn_;
        let spec_den = self.tn + self.fp;
        SensitivitySpecificity {
            sensitivity: if sens_den == 0 {
                0.0
            } else {
                self.tp as f64 / sens_den as f64
            },
            specificity: if spec_den == 0 {
                0.0
            } else {
                self.tn as f64 / spec_den as f64
            },
        }
    }
}

/// Clusters appearing only on one side: `lost` = indices of original
/// clusters sharing no node with any filtered cluster; `found` = indices
/// of filtered clusters sharing no node with any original cluster.
pub fn lost_and_found(original: &[Cluster], filtered: &[Cluster]) -> (Vec<usize>, Vec<usize>) {
    let index = TouchIndex::new(original);
    // `hit[x]`: dense vertex `x` is listed in some filtered cluster
    let mut hit = vec![false; index.ids.len()];
    let found = filtered
        .iter()
        .enumerate()
        .filter_map(|(fi, fc)| {
            let mut shares = false;
            for x in fc.vertices.iter().filter_map(|&v| index.dense(v)) {
                hit[x] = true;
                shares |= index.listed[x];
            }
            (!shares).then_some(fi)
        })
        .collect();
    let lost = (0..original.len())
        .filter(|&oi| !index.vertices_of(oi).iter().any(|&x| hit[x]))
        .collect();
    (lost, found)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(verts: &[VertexId], edges: &[(VertexId, VertexId)]) -> Cluster {
        Cluster {
            vertices: verts.to_vec(),
            edges: edges.to_vec(),
            score: 0.0,
            seed: verts.first().copied().unwrap_or(0),
        }
    }

    #[test]
    fn identical_clusters_overlap_fully() {
        let c = mk(&[1, 2, 3], &[(1, 2), (2, 3)]);
        assert_eq!(node_overlap(&c, &c), 1.0);
        assert_eq!(edge_overlap(&c, &c), 1.0);
    }

    #[test]
    fn partial_overlap_fractions() {
        let orig = mk(&[1, 2, 3, 4], &[(1, 2), (2, 3), (3, 4)]);
        let filt = mk(&[1, 2, 9], &[(1, 2)]);
        assert!((node_overlap(&orig, &filt) - 0.5).abs() < 1e-12);
        assert!((edge_overlap(&orig, &filt) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_clusters_zero_overlap() {
        let a = mk(&[1, 2], &[(1, 2)]);
        let b = mk(&[3, 4], &[(3, 4)]);
        assert_eq!(node_overlap(&a, &b), 0.0);
        assert_eq!(edge_overlap(&a, &b), 0.0);
    }

    #[test]
    fn overlap_table_picks_best_match() {
        let originals = vec![
            mk(&[1, 2, 3], &[(1, 2), (2, 3)]),
            mk(&[10, 11, 12, 13], &[(10, 11), (11, 12), (12, 13)]),
        ];
        let filtered = vec![mk(&[10, 11, 12], &[(10, 11), (11, 12)])];
        let table = overlap_table(&originals, &filtered);
        assert_eq!(table.len(), 1);
        assert_eq!(table[0].best_original, Some(1));
        assert!((table[0].node_overlap - 0.75).abs() < 1e-12);
        assert!((table[0].edge_overlap - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unmatched_filtered_cluster_has_none() {
        let originals = vec![mk(&[1, 2, 3], &[(1, 2)])];
        let filtered = vec![mk(&[50, 51], &[(50, 51)])];
        let table = overlap_table(&originals, &filtered);
        assert_eq!(table[0].best_original, None);
        assert_eq!(table[0].node_overlap, 0.0);
    }

    #[test]
    fn quadrants_classify_all_four() {
        let aees = [5.0, 1.0, 4.0, 0.5];
        let over = [0.9, 0.8, 0.1, 0.2];
        let (quads, counts) = classify_quadrants(&aees, &over, 3.0, 0.5);
        assert_eq!(
            quads,
            vec![
                Quadrant::TruePositive,
                Quadrant::FalsePositive,
                Quadrant::FalseNegative,
                Quadrant::TrueNegative
            ]
        );
        assert_eq!(
            counts,
            QuadrantCounts {
                tp: 1,
                fp: 1,
                fn_: 1,
                tn: 1
            }
        );
        let rates = counts.rates();
        assert!((rates.sensitivity - 0.5).abs() < 1e-12);
        assert!((rates.specificity - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rates_handle_empty_denominators() {
        let counts = QuadrantCounts::default();
        let r = counts.rates();
        assert_eq!(r.sensitivity, 0.0);
        assert_eq!(r.specificity, 0.0);
    }

    #[test]
    fn perfect_filter_rates() {
        let counts = QuadrantCounts {
            tp: 10,
            fp: 0,
            fn_: 0,
            tn: 5,
        };
        let r = counts.rates();
        assert_eq!(r.sensitivity, 1.0);
        assert_eq!(r.specificity, 1.0);
    }

    #[test]
    fn lost_and_found_basic() {
        let originals = vec![
            mk(&[1, 2, 3], &[(1, 2)]),
            mk(&[20, 21], &[(20, 21)]), // will be lost
        ];
        let filtered = vec![
            mk(&[1, 2], &[(1, 2)]),
            mk(&[30, 31], &[(30, 31)]), // newly found
        ];
        let (lost, found) = lost_and_found(&originals, &filtered);
        assert_eq!(lost, vec![1]);
        assert_eq!(found, vec![1]);
    }

    #[test]
    fn no_lost_found_on_identical_sets() {
        let cs = vec![mk(&[1, 2, 3], &[(1, 2), (2, 3)])];
        let (lost, found) = lost_and_found(&cs, &cs);
        assert!(lost.is_empty());
        assert!(found.is_empty());
    }

    #[test]
    fn aees_boundary_is_inclusive_overlap_exclusive() {
        // AEES exactly at the cut counts as high (paper: "3.0 or higher");
        // overlap exactly 50% counts as low (paper: ">50%")
        let (quads, _) = classify_quadrants(&[3.0], &[0.5], 3.0, 0.5);
        assert_eq!(quads[0], Quadrant::FalseNegative);
    }
}
