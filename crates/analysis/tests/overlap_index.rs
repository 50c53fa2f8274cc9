//! The indexed `overlap_table` and `lost_and_found` against the
//! `BTreeSet` reference on random and hand-made cluster sets: equal best
//! matches, overlaps equal bit for bit, equal lost/found lists.
//!
//! The generators draw ids from a small pool split between the bottom
//! and the top of the `u32` range, so clusters collide often (ties,
//! duplicate vertices, shared edges) and ids sit next to `u32::MAX`.
//! Edge endpoints are drawn apart from the vertex list, so many edges
//! touch vertices their cluster does not list.

mod reference;

use casbn_analysis::{lost_and_found, overlap_table};
use casbn_graph::VertexId;
use casbn_mcode::Cluster;
use proptest::collection::vec;
use proptest::prelude::*;

fn mk(vertices: &[VertexId], edges: &[(VertexId, VertexId)]) -> Cluster {
    Cluster {
        vertices: vertices.to_vec(),
        edges: edges.to_vec(),
        score: 0.0,
        seed: vertices.first().copied().unwrap_or(0),
    }
}

fn check(original: &[Cluster], filtered: &[Cluster]) {
    reference::assert_same_table(
        &overlap_table(original, filtered),
        &reference::overlap_table(original, filtered),
        "overlap_table",
    );
    assert_eq!(
        lost_and_found(original, filtered),
        reference::lost_and_found(original, filtered),
        "lost_and_found"
    );
}

/// An id from a pool of `2 * pool` values: `0..pool` and the top `pool`
/// values below and at `u32::MAX`.
fn id(pool: u32) -> impl Strategy<Value = VertexId> {
    (0u32..2, 0..pool).prop_map(|(top, off)| if top == 1 { u32::MAX - off } else { off })
}

fn cluster(pool: u32) -> impl Strategy<Value = Cluster> {
    (vec(id(pool), 0..9), vec((id(pool), id(pool)), 0..12))
        .prop_map(|(vertices, edges)| mk(&vertices, &edges))
}

fn cluster_sets() -> impl Strategy<Value = (Vec<Cluster>, Vec<Cluster>)> {
    (1u32..12).prop_flat_map(|pool| (vec(cluster(pool), 0..9), vec(cluster(pool), 0..9)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn indexed_tables_match_the_reference((original, filtered) in cluster_sets()) {
        check(&original, &filtered);
    }

    #[test]
    fn a_cluster_set_against_itself_matches_the_reference((original, _) in cluster_sets()) {
        check(&original, &original);
    }
}

#[test]
fn empty_sides_and_empty_clusters() {
    let some = vec![mk(&[1, 2], &[(1, 2)]), mk(&[], &[])];
    check(&[], &[]);
    check(&some, &[]);
    check(&[], &some);
    check(&[mk(&[], &[])], &[mk(&[], &[])]);
    check(&some, &[mk(&[], &[]), mk(&[2], &[])]);
    let (lost, found) = lost_and_found(&some, &[]);
    assert_eq!((lost, found), (vec![0, 1], vec![]));
}

#[test]
fn duplicate_vertices_count_per_occurrence() {
    let original = vec![mk(&[1, 1, 2], &[(1, 2), (1, 2), (2, 3)])];
    let filtered = vec![mk(&[1, 1], &[(1, 2)])];
    check(&original, &filtered);
    let row = &overlap_table(&original, &filtered)[0];
    assert_eq!(row.node_overlap, 2.0 / 3.0);
    assert_eq!(row.edge_overlap, 2.0 / 3.0);
}

#[test]
fn edges_alone_make_a_match() {
    // the shared edge's endpoints are listed by neither cluster
    let original = vec![mk(&[1], &[(7, 8)]), mk(&[2], &[(8, 7)])];
    let filtered = vec![mk(&[3], &[(7, 8)])];
    check(&original, &filtered);
    let row = &overlap_table(&original, &filtered)[0];
    assert_eq!(row.best_original, Some(0));
    assert_eq!((row.node_overlap, row.edge_overlap), (0.0, 1.0));
    // no listed vertex is shared, so both sides still count as lost/found
    assert_eq!(lost_and_found(&original, &filtered), (vec![0, 1], vec![0]));
}

#[test]
fn ties_go_to_the_lower_index() {
    let twin = mk(&[5, 6, 7], &[(5, 6)]);
    let original = vec![mk(&[9], &[]), twin.clone(), twin.clone(), twin];
    let filtered = vec![mk(&[5, 6], &[(5, 6)])];
    check(&original, &filtered);
    assert_eq!(
        overlap_table(&original, &filtered)[0].best_original,
        Some(1)
    );
}

#[test]
fn ids_at_the_top_of_the_range() {
    let top = u32::MAX;
    let original = vec![
        mk(&[top, top - 1, 0], &[(top, top - 1), (0, top)]),
        mk(&[top - 2], &[(top - 2, top)]),
    ];
    let filtered = vec![mk(&[top, 0], &[(0, top)]), mk(&[top - 3], &[])];
    check(&original, &filtered);
    let table = overlap_table(&original, &filtered);
    assert_eq!(table[0].best_original, Some(0));
    assert_eq!(table[1].best_original, None);
}
