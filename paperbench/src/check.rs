//! Output checks shared by the workloads.

use casbn_chordal::is_chordal;
use casbn_graph::{Graph, Partition, PartitionKind, VertexId};

/// Every edge of `h` is an edge of `g`, over the same vertex set.
pub fn is_subgraph(g: &Graph, h: &Graph) -> bool {
    g.n() == h.n() && h.edges().all(|(u, v)| g.has_edge(u, v))
}

/// The block partition the no-comm filter used on a graph relabeled by
/// `perm` (`perm[old] = new`), expressed in the original labels.
pub fn filter_partition(n: usize, perm: &[VertexId], ranks: usize) -> Partition {
    let block = Partition::new(&Graph::new(n), ranks, PartitionKind::Block);
    Partition::from_assignment(perm.iter().map(|&new| block.part(new)).collect(), ranks)
}

/// What the paper's communication-free filter guarantees: `filtered` is
/// a *quasi-chordal* subgraph of `network` under `part`.
///
/// * it is a subgraph of the network;
/// * within every part, the kept edges form a chordal graph (each rank
///   keeps the maximal chordal subgraph of its internal edges);
/// * every kept border edge closes a triangle through a kept internal
///   edge of one of its endpoints' parts (the triangle rule).
///
/// Cycles through several parts may survive, so the whole graph need
/// not be chordal; [`is_chordal`] reports whether it happens to be.
pub fn quasi_chordal_subgraph(network: &Graph, filtered: &Graph, part: &Partition) -> bool {
    if !is_subgraph(network, filtered) {
        return false;
    }
    let locals_chordal = (0..part.nparts() as u32).all(|p| {
        let (local, _) = filtered.induced_subgraph(&part.vertices_of(p));
        is_chordal(&local)
    });
    locals_chordal
        && filtered.edges().all(|(u, v)| {
            let (pu, pv) = (part.part(u), part.part(v));
            pu == pv
                || filtered
                    .neighbors(u)
                    .iter()
                    .any(|&w| filtered.has_edge(v, w) && (part.part(w) == pu || part.part(w) == pv))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_parts(n: usize) -> Partition {
        filter_partition(n, &(0..n as VertexId).collect::<Vec<_>>(), 2)
    }

    #[test]
    fn accepts_chordal_parts_and_triangulated_borders() {
        // parts {0,1,2} and {3,4,5}; border edges (2,3) and (1,3) close
        // a triangle through the internal edge (1,2)
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (3, 4), (4, 5)]);
        assert!(quasi_chordal_subgraph(&g, &g, &two_parts(6)));
    }

    #[test]
    fn rejects_foreign_edges_local_cycles_and_lone_borders() {
        let part = two_parts(8);
        let net = Graph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (3, 4), (4, 5)]);
        let foreign = Graph::from_edges(8, &[(1, 3)]);
        assert!(
            !quasi_chordal_subgraph(&net, &foreign, &part),
            "(1,3) is not in the network"
        );
        let square = Graph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        assert!(
            !quasi_chordal_subgraph(&net, &square, &part),
            "4-cycle inside part 0"
        );
        let lone = Graph::from_edges(8, &[(3, 4), (4, 5)]);
        assert!(
            !quasi_chordal_subgraph(&net, &lone, &part),
            "(3,4) closes no triangle"
        );
    }

    #[test]
    fn partition_follows_the_relabeling() {
        // reversing 4 vertices swaps the two blocks
        let part = filter_partition(4, &[3, 2, 1, 0], 2);
        assert_eq!(part.part(0), 1);
        assert_eq!(part.part(3), 0);
    }
}
