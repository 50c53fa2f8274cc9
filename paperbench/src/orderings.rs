//! `orderings-yng`: the paper's vertex-permutation sensitivity sweep on
//! YNG, one ordering per operation.
//!
//! Set-up builds the YNG network and its original MCODE clusters. Each
//! operation takes the next ordering — the four paper orderings, then
//! seeded random permutations — and runs `filter_with_ordering` (no-comm
//! filter, 8 ranks), MCODE, enrichment of every cluster and
//! `overlap_table` against the original clusters. The Pearson kernel
//! does no work inside an operation.

use crate::batch::{RANKS, RELEVANT_AEES};
use crate::check::{filter_partition, quasi_chordal_subgraph};
use crate::stats::{fnv_mix, FNV_OFFSET};
use crate::{
    closed_loop, inputs, obs_delta, repeated_setup, span_ms_per_op, trace, Config, OpClock, Outcome,
};
use casbn_analysis::overlap_table;
use casbn_core::{filter_with_ordering, FilterOutput, ParallelChordalNoCommFilter};
use casbn_expr::{CorrelationNetwork, DatasetPreset};
use casbn_graph::{ordering_permutation, Graph, OrderingKind, PartitionKind};
use casbn_mcode::{mcode_cluster, Cluster, McodeParams};
use casbn_ontology::{AnnotatedOntology, EnrichmentScorer};

/// Checksum over the four paper orderings at seed 0, paper scale.
const PINNED_PAPER_SET: u64 = 16_506_077_920_460_732_593;
/// Orderings per chunk of the latency percentiles.
const CHUNK: usize = 32;

const PRESET: DatasetPreset = DatasetPreset::Yng;

struct State {
    network: Graph,
    original: Vec<Cluster>,
    onto: AnnotatedOntology,
}

fn setup(scale: f64) -> State {
    // the sweep's random input is the orderings; the network is the
    // preset's, so every seed sweeps the same graph
    let arr = inputs::microarray(PRESET, scale, None, 0);
    let network = CorrelationNetwork::from_expression(&arr.matrix, PRESET.network_params()).graph;
    let original = mcode_cluster(&network, &McodeParams::default());
    let onto = inputs::ontology(PRESET, network.n(), &arr.modules, 0);
    State {
        network,
        original,
        onto,
    }
}

/// The `i`-th ordering of the sweep under `seed`.
pub fn ordering(i: usize, seed: u64) -> OrderingKind {
    let paper = OrderingKind::paper_set();
    match paper.get(i) {
        Some(&k) => k,
        None => OrderingKind::Random(fnv_mix(fnv_mix(FNV_OFFSET, seed), i as u64)),
    }
}

struct Sweep {
    filtered: FilterOutput,
    clusters: Vec<Cluster>,
    relevant: usize,
    checksum: u64,
}

fn one_ordering(st: &State, kind: OrderingKind) -> Sweep {
    let _op = trace::span("orderings.op");
    let filter = ParallelChordalNoCommFilter::new(RANKS, PartitionKind::Block);
    let filtered = trace::within("core.filter", || {
        filter_with_ordering(&st.network, kind, &filter, 0)
    });
    let clusters = trace::within("mcode.cluster", || {
        mcode_cluster(&filtered.graph, &McodeParams::default())
    });
    let annotations = trace::within("ontology.enrich", || {
        let scorer = EnrichmentScorer::new(&st.onto);
        clusters
            .iter()
            .map(|c| scorer.annotate_cluster(&c.edges))
            .collect::<Vec<_>>()
    });
    let table = trace::within("analysis.overlap", || {
        overlap_table(&st.original, &clusters)
    });
    drop(_op);

    let relevant = annotations
        .iter()
        .filter(|a| a.aees >= RELEVANT_AEES)
        .count();
    let mut h = FNV_OFFSET;
    for x in [filtered.graph.m(), clusters.len(), relevant] {
        h = fnv_mix(h, x as u64);
    }
    for row in &table {
        h = fnv_mix(h, row.best_original.map_or(0, |i| i as u64 + 1));
        h = fnv_mix(h, row.node_overlap.to_bits());
    }
    Sweep {
        filtered,
        clusters,
        relevant,
        checksum: h,
    }
}

#[derive(Default)]
struct Counts {
    retained_ratio: Vec<f64>,
    makespan_ms: Vec<f64>,
    dsw_ops: Vec<f64>,
    clusters: Vec<f64>,
    relevant_ratio: Vec<f64>,
}

/// Run `orderings-yng` for `cfg.seconds`.
pub fn run(cfg: &Config) -> Outcome {
    let (setup_s, st) = repeated_setup(|| setup(crate::PAPER_SCALE));
    let mut out = Outcome {
        setup_s,
        chunk: CHUNK,
        ..Outcome::default()
    };
    let mut paper_set = FNV_OFFSET;
    let mut chordal = 0usize;
    let mut counts = Counts::default();
    let times = closed_loop(cfg, &mut out, |i, traced| {
        let kind = ordering(i, cfg.seed);
        let before = traced.then(casbn_obs::snapshot);
        let clock = OpClock::start();
        let s = one_ordering(&st, kind);
        let t = clock.stop();
        if let Some(before) = before {
            let after = casbn_obs::snapshot();
            counts
                .retained_ratio
                .push(s.filtered.graph.m() as f64 / st.network.m().max(1) as f64);
            counts.makespan_ms.push(s.filtered.stats.sim_makespan * 1e3);
            counts
                .dsw_ops
                .push(obs_delta(&before, &after, "dsw.ops") as f64);
            counts
                .clusters
                .push(obs_delta(&before, &after, "mcode.clusters") as f64);
            counts
                .relevant_ratio
                .push(s.relevant as f64 / s.clusters.len().max(1) as f64);
        }
        let perm = ordering_permutation(&st.network, kind);
        let part = filter_partition(st.network.n(), &perm, RANKS);
        chordal += usize::from(casbn_chordal::is_chordal(&s.filtered.graph));
        let mut ok = quasi_chordal_subgraph(&st.network, &s.filtered.graph, &part);
        if i < 4 {
            paper_set = fnv_mix(paper_set, s.checksum);
            if i == 3 {
                ok &= crate::pinned_ok(cfg, paper_set, PINNED_PAPER_SET);
            }
        }
        (t, ok)
    });
    out.report
        .push(format!("orderings-yng paper-set checksum {paper_set}"));
    out.report.push(format!(
        "filtered graph chordal as a whole in {chordal} of {} orderings (quasi-chordal is the guarantee)",
        out.attempted
    ));

    if cfg.trace {
        let spans = trace::take();
        let ops = times.traced_ms.len();
        let med = crate::stats::median;
        out.layer("core.filter_ms", span_ms_per_op(&spans, "core.filter", ops));
        out.layer("core.retained_ratio", med(&counts.retained_ratio));
        out.layer("distsim.sim_makespan_ms", med(&counts.makespan_ms));
        out.layer("chordal.dsw_ops", med(&counts.dsw_ops));
        out.layer(
            "mcode.cluster_ms",
            span_ms_per_op(&spans, "mcode.cluster", ops),
        );
        out.layer("mcode.clusters", med(&counts.clusters));
        out.layer(
            "ontology.enrich_ms",
            span_ms_per_op(&spans, "ontology.enrich", ops),
        );
        out.layer("ontology.relevant_ratio", med(&counts.relevant_ratio));
        out.layer(
            "analysis.overlap_ms",
            span_ms_per_op(&spans, "analysis.overlap", ops),
        );
        crate::finish_trace(&mut out, spans, "orderings.op", &times);
    }
    out
}

/// Deterministic counts of the four paper orderings and two random ones.
pub fn fingerprint(seed: u64, scale: f64) -> Vec<(String, u64)> {
    let st = setup(scale);
    casbn_obs::set_enabled(true);
    let before = casbn_obs::snapshot();
    let mut fp = vec![
        ("network_edges".to_string(), st.network.m() as u64),
        ("original_clusters".to_string(), st.original.len() as u64),
    ];
    for i in 0..6 {
        let s = one_ordering(&st, ordering(i, seed));
        fp.push((
            format!("ordering{i}.filtered_edges"),
            s.filtered.graph.m() as u64,
        ));
        fp.push((format!("ordering{i}.clusters"), s.clusters.len() as u64));
        fp.push((format!("ordering{i}.checksum"), s.checksum));
    }
    fp.extend(crate::obs_fingerprint(&before));
    casbn_obs::set_enabled(false);
    fp
}
