//! The cluster-overlap evaluation as first written: a `BTreeSet` per
//! (original, filtered) cluster pair and a scan over every original
//! cluster. Kept as the oracle the indexed `overlap_table` and
//! `lost_and_found` must match bit for bit.

use casbn_analysis::ClusterComparison;
use casbn_mcode::Cluster;
use std::collections::BTreeSet;

fn node_overlap(of: &Cluster, with: &Cluster) -> f64 {
    if of.vertices.is_empty() {
        return 0.0;
    }
    let set: BTreeSet<_> = with.vertices.iter().collect();
    let shared = of.vertices.iter().filter(|v| set.contains(v)).count();
    shared as f64 / of.vertices.len() as f64
}

fn edge_overlap(of: &Cluster, with: &Cluster) -> f64 {
    if of.edges.is_empty() {
        return 0.0;
    }
    let set: BTreeSet<_> = with.edges.iter().collect();
    let shared = of.edges.iter().filter(|e| set.contains(e)).count();
    shared as f64 / of.edges.len() as f64
}

pub fn overlap_table(original: &[Cluster], filtered: &[Cluster]) -> Vec<ClusterComparison> {
    filtered
        .iter()
        .enumerate()
        .map(|(fi, fc)| {
            let mut best: Option<(usize, f64, f64)> = None;
            for (oi, oc) in original.iter().enumerate() {
                let no = node_overlap(oc, fc);
                let eo = edge_overlap(oc, fc);
                if no == 0.0 && eo == 0.0 {
                    continue;
                }
                best = match best {
                    None => Some((oi, no, eo)),
                    Some((bi, bn, be)) => {
                        if no > bn || (no == bn && eo > be) {
                            Some((oi, no, eo))
                        } else {
                            Some((bi, bn, be))
                        }
                    }
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
        .collect()
}

pub fn lost_and_found(original: &[Cluster], filtered: &[Cluster]) -> (Vec<usize>, Vec<usize>) {
    let lost = original
        .iter()
        .enumerate()
        .filter(|(_, oc)| filtered.iter().all(|fc| node_overlap(oc, fc) == 0.0))
        .map(|(i, _)| i)
        .collect();
    let found = filtered
        .iter()
        .enumerate()
        .filter(|(_, fc)| original.iter().all(|oc| node_overlap(oc, fc) == 0.0))
        .map(|(i, _)| i)
        .collect();
    (lost, found)
}

/// Panic unless `got` equals `want` row for row, overlaps compared by
/// their bits.
pub fn assert_same_table(got: &[ClusterComparison], want: &[ClusterComparison], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: row count");
    for (g, w) in got.iter().zip(want) {
        let row = w.filtered_idx;
        assert_eq!(g.filtered_idx, w.filtered_idx, "{what}: row order");
        assert_eq!(g.best_original, w.best_original, "{what}: row {row} match");
        assert_eq!(
            g.node_overlap.to_bits(),
            w.node_overlap.to_bits(),
            "{what}: row {row} node overlap"
        );
        assert_eq!(
            g.edge_overlap.to_bits(),
            w.edge_overlap.to_bits(),
            "{what}: row {row} edge overlap"
        );
    }
}
