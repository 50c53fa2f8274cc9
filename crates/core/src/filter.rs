//! The adaptive-sampling [`Filter`] abstraction and its output/statistics
//! types.

use casbn_graph::Graph;
use std::time::Duration;

/// An adaptive network sampling filter (paper §III).
///
/// A filter consumes a network and produces a sampled subgraph over the
/// same vertex set. Filters are deterministic given the `seed`.
pub trait Filter {
    /// Human-readable name used in figure output.
    fn name(&self) -> String;

    /// Apply the filter to `g`.
    fn filter(&self, g: &Graph, seed: u64) -> FilterOutput;
}

/// Execution statistics of one filter application.
#[derive(Clone, Debug, Default)]
pub struct FilterStats {
    /// Ranks (simulated processors) used.
    pub nranks: usize,
    /// Edges in the input network.
    pub original_edges: usize,
    /// Edges retained by the filter (after deduplication).
    pub retained_edges: usize,
    /// Border edges under the partition used (0 for sequential).
    pub border_edges: usize,
    /// Border edges kept by more than one rank and merged during assembly
    /// (the paper's "≤ b duplications" removed in the sequential pass).
    pub duplicate_border_edges: usize,
    /// Simulated makespan in seconds (cost-model time; Fig. 10's y-axis).
    pub sim_makespan: f64,
    /// Per-rank simulated completion times.
    pub sim_times: Vec<f64>,
    /// Real wall-clock time of the threaded execution.
    pub wall: Duration,
    /// Total message payload bytes exchanged.
    pub bytes_sent: u64,
    /// Total messages exchanged.
    pub messages: u64,
}

/// Result of applying a [`Filter`].
#[derive(Clone, Debug)]
pub struct FilterOutput {
    /// The sampled network (same vertex set as the input).
    pub graph: Graph,
    /// Execution statistics.
    pub stats: FilterStats,
}

impl FilterOutput {
    /// Fraction of original edges retained.
    pub fn retention(&self) -> f64 {
        if self.stats.original_edges == 0 {
            return 1.0;
        }
        self.stats.retained_edges as f64 / self.stats.original_edges as f64
    }

    /// The paper's noise estimate: the size reduction achieved by the
    /// filter ("ideally, if the data is noise free, no reduction should
    /// occur").
    pub fn noise_estimate(&self) -> f64 {
        1.0 - self.retention()
    }
}

/// Merge per-rank edge lists into one graph over `n` vertices, counting
/// duplicates (same canonical edge contributed by more than one rank).
pub(crate) fn assemble(n: usize, mut edges: Vec<(u32, u32)>) -> (Graph, usize) {
    for e in edges.iter_mut() {
        if e.0 > e.1 {
            *e = (e.1, e.0);
        }
    }
    edges.sort_unstable();
    let before = edges.len();
    edges.dedup();
    let dups = before - edges.len();
    (Graph::from_edges(n, &edges), dups)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_dedups_and_counts() {
        let (g, dups) = assemble(5, vec![(0, 1), (1, 0), (2, 3), (3, 4)]);
        assert_eq!(g.m(), 3);
        assert_eq!(dups, 1);
    }

    #[test]
    fn retention_and_noise() {
        let out = FilterOutput {
            graph: Graph::new(2),
            stats: FilterStats {
                original_edges: 10,
                retained_edges: 7,
                ..Default::default()
            },
        };
        assert!((out.retention() - 0.7).abs() < 1e-12);
        assert!((out.noise_estimate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn empty_input_retention_is_one() {
        let out = FilterOutput {
            graph: Graph::new(0),
            stats: FilterStats::default(),
        };
        assert_eq!(out.retention(), 1.0);
    }
}
