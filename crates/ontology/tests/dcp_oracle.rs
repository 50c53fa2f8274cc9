//! The precomputed ancestor slices and the merge-join
//! `deepest_common_parent` against the per-query depth-first search they
//! replace: every ordered term pair of the experiments' DAG shape
//! (`GoDag::generate(8, 4, 0.25, s)`, several seeds) and of the unit-test
//! DAGs gives the same `(dcp, depth, breadth)`, and `annotate_cluster`
//! gives the same annotation, bit for bit, on every cluster of a
//! scale-0.1 YNG pipeline.

use casbn_core::{Filter, ParallelChordalNoCommFilter};
use casbn_expr::DatasetPreset;
use casbn_graph::{Edge, PartitionKind, VertexId};
use casbn_mcode::{mcode_cluster, McodeParams};
use casbn_ontology::{AnnotatedOntology, ClusterAnnotation, EnrichmentScorer, GoDag, TermId};
use std::collections::BTreeMap;

/// Ancestors of `t` with minimum up-edge distances, by depth-first
/// search (the original `GoDag::ancestor_distances`).
fn reference_ancestors(dag: &GoDag, t: TermId) -> BTreeMap<TermId, u32> {
    let mut dist: BTreeMap<TermId, u32> = BTreeMap::new();
    let mut frontier = vec![(t, 0u32)];
    while let Some((x, d)) = frontier.pop() {
        match dist.get(&x) {
            Some(&old) if old <= d => continue,
            _ => {}
        }
        dist.insert(x, d);
        for &p in dag.parents(x) {
            frontier.push((p, d + 1));
        }
    }
    dist
}

/// The original `GoDag::deepest_common_parent`.
fn reference_dcp(dag: &GoDag, t1: TermId, t2: TermId) -> (TermId, u32, u32) {
    let a1 = reference_ancestors(dag, t1);
    let a2 = reference_ancestors(dag, t2);
    let mut best: Option<(TermId, u32, u32)> = None;
    for (&t, &d1) in &a1 {
        if let Some(&d2) = a2.get(&t) {
            let depth = dag.depth(t);
            let breadth = d1 + d2;
            best = match best {
                None => Some((t, depth, breadth)),
                Some((bt, bd, bb)) => {
                    if depth > bd || (depth == bd && (breadth < bb || (breadth == bb && t < bt))) {
                        Some((t, depth, breadth))
                    } else {
                        Some((bt, bd, bb))
                    }
                }
            };
        }
    }
    best.expect("root is a common ancestor")
}

/// The original `EnrichmentScorer::edge_score`, on the reference DCP.
fn reference_edge_score(
    onto: &AnnotatedOntology,
    u: VertexId,
    v: VertexId,
) -> Option<(TermId, i64)> {
    let mut best: Option<(TermId, i64)> = None;
    for &a in onto.terms_of(u) {
        for &b in onto.terms_of(v) {
            let (dcp, depth, breadth) = reference_dcp(&onto.dag, a, b);
            let s = depth as i64 - breadth as i64;
            best = match best {
                None => Some((dcp, s)),
                Some((bt, bs)) if s > bs || (s == bs && dcp < bt) => Some((dcp, s)),
                keep => keep,
            };
        }
    }
    best
}

/// The original `EnrichmentScorer::annotate_cluster`, on the reference
/// edge score.
fn reference_annotation(onto: &AnnotatedOntology, edges: &[Edge]) -> ClusterAnnotation {
    let mut total = 0.0f64;
    let mut dcp_count: BTreeMap<TermId, usize> = BTreeMap::new();
    let mut scored = 0usize;
    let mut max_depth = 0u32;
    for &(u, v) in edges {
        if let Some((dcp, s)) = reference_edge_score(onto, u, v) {
            total += s as f64;
            scored += 1;
            *dcp_count.entry(dcp).or_default() += 1;
            max_depth = max_depth.max(onto.dag.depth(dcp));
        }
    }
    let aees = if edges.is_empty() {
        0.0
    } else {
        total / edges.len() as f64
    };
    let dominant_term = dcp_count
        .iter()
        .max_by_key(|&(t, c)| (*c, std::cmp::Reverse(*t)))
        .map(|(&t, _)| t);
    ClusterAnnotation {
        aees,
        dominant_term,
        dominant_depth: dominant_term.map(|t| onto.dag.depth(t)).unwrap_or(0),
        max_depth,
        scored_edges: scored,
    }
}

fn check_dag(dag: &GoDag, what: &str) {
    let n = dag.n_terms() as TermId;
    for t in 0..n {
        let want: Vec<(TermId, u32)> = reference_ancestors(dag, t).into_iter().collect();
        assert_eq!(
            dag.ancestor_distances(t),
            &want[..],
            "{what}: ancestors of {t}"
        );
    }
    for a in 0..n {
        for b in 0..n {
            assert_eq!(
                dag.deepest_common_parent(a, b),
                reference_dcp(dag, a, b),
                "{what}: DCP of ({a}, {b})"
            );
        }
    }
}

#[test]
fn merge_join_dcp_matches_the_search_on_every_term_pair() {
    let experiment_seeds = [
        0,
        5,
        DatasetPreset::Yng.seed() ^ 0x60,
        DatasetPreset::Cre.seed() ^ 0x60,
    ];
    for seed in experiment_seeds {
        let dag = GoDag::generate(8, 4, 0.25, seed);
        check_dag(&dag, &format!("generate(8, 4, 0.25, {seed})"));
    }
    for (levels, width, p, seed) in [
        (6, 3, 0.3, 42),
        (7, 3, 0.25, 5),
        (4, 3, 0.2, 1),
        (5, 3, 0.2, 7),
    ] {
        let dag = GoDag::generate(levels, width, p, seed);
        check_dag(&dag, &format!("generate({levels}, {width}, {p}, {seed})"));
    }
}

#[test]
fn cluster_annotations_match_the_reference_on_a_yng_pipeline() {
    let preset = DatasetPreset::Yng;
    let ds = preset.build_scaled(0.1);
    // the experiments' ontology (`casbn_bench::pipeline::Experiment`)
    let dag = GoDag::generate(8, 4, 0.25, preset.seed() ^ 0x60);
    let onto = AnnotatedOntology::synthetic(
        ds.network.n(),
        &ds.modules,
        dag,
        6,
        2,
        preset.seed() ^ 0xA11,
    );
    let filtered = ParallelChordalNoCommFilter::new(8, PartitionKind::Block)
        .filter(&ds.network, 0)
        .graph;
    let params = McodeParams::default();
    let mut clusters = mcode_cluster(&ds.network, &params);
    clusters.extend(mcode_cluster(&filtered, &params));
    assert!(clusters.len() > 10, "only {} clusters", clusters.len());

    let scorer = EnrichmentScorer::new(&onto);
    for (i, c) in clusters.iter().enumerate() {
        for &(u, v) in &c.edges {
            assert_eq!(
                scorer.edge_score(u, v),
                reference_edge_score(&onto, u, v),
                "cluster {i} edge ({u}, {v})"
            );
        }
        let got = scorer.annotate_cluster(&c.edges);
        let want = reference_annotation(&onto, &c.edges);
        assert_eq!(got.aees.to_bits(), want.aees.to_bits(), "cluster {i}: aees");
        assert_eq!(
            got.dominant_term, want.dominant_term,
            "cluster {i}: dominant term"
        );
        assert_eq!(
            got.dominant_depth, want.dominant_depth,
            "cluster {i}: dominant depth"
        );
        assert_eq!(got.max_depth, want.max_depth, "cluster {i}: max depth");
        assert_eq!(
            got.scored_edges, want.scored_edges,
            "cluster {i}: scored edges"
        );
    }
}
