//! `batch-cre`: the paper's batch pipeline, once per operation, on the
//! full CRE array.
//!
//! One operation: `CorrelationNetwork::from_expression` →
//! `ParallelChordalNoCommFilter` at 8 ranks → `mcode_cluster` on the
//! original and on the filtered graph → `EnrichmentScorer::
//! annotate_cluster` on every cluster → `overlap_table`. Set-up
//! generates the array (the CRE preset, genes shuffled by the seed) and
//! its GO annotations.

use crate::check::{filter_partition, quasi_chordal_subgraph};
use crate::stats::{fnv_mix, FNV_OFFSET};
use crate::{
    closed_loop, inputs, obs_delta, repeated_setup, span_ms_per_op, trace, Config, OpClock, Outcome,
};
use casbn_analysis::overlap_table;
use casbn_core::{Filter, FilterOutput, ParallelChordalNoCommFilter};
use casbn_expr::{CorrelationNetwork, DatasetPreset, ExpressionMatrix};
use casbn_graph::{PartitionKind, VertexId};
use casbn_mcode::{mcode_cluster, Cluster, McodeParams};
use casbn_ontology::{AnnotatedOntology, EnrichmentScorer};

/// Ranks of the paper's no-comm filter.
pub const RANKS: usize = 8;

/// AEES at or above which a cluster counts as biologically relevant.
pub const RELEVANT_AEES: f64 = 3.0;

/// Pipeline checksum at seed 0, paper scale.
const PINNED_CHECKSUM: u64 = 4_101_102_343_158_977_742;

const PRESET: DatasetPreset = DatasetPreset::Cre;

struct State {
    matrix: ExpressionMatrix,
    onto: AnnotatedOntology,
}

fn setup(seed: u64, scale: f64) -> State {
    let arr = inputs::relabeled_microarray(PRESET, scale, seed);
    let onto = inputs::ontology(PRESET, arr.matrix.genes(), &arr.modules, 0);
    State {
        matrix: arr.matrix,
        onto,
    }
}

struct Pipeline {
    network: CorrelationNetwork,
    filtered: FilterOutput,
    original: Vec<Cluster>,
    clusters: Vec<Cluster>,
    relevant: usize,
    checksum: u64,
}

fn pipeline(st: &State) -> Pipeline {
    let _op = trace::span("batch.pipeline");
    let network = trace::within("expr.pearson", || {
        CorrelationNetwork::from_expression(&st.matrix, PRESET.network_params())
    });
    let filtered = trace::within("core.filter", || {
        ParallelChordalNoCommFilter::new(RANKS, PartitionKind::Block).filter(&network.graph, 0)
    });
    let params = McodeParams::default();
    let original = trace::within("mcode.cluster", || mcode_cluster(&network.graph, &params));
    let clusters = trace::within("mcode.cluster", || mcode_cluster(&filtered.graph, &params));
    let annotations = trace::within("ontology.enrich", || {
        let scorer = EnrichmentScorer::new(&st.onto);
        original
            .iter()
            .chain(&clusters)
            .map(|c| scorer.annotate_cluster(&c.edges))
            .collect::<Vec<_>>()
    });
    let table = trace::within("analysis.overlap", || overlap_table(&original, &clusters));
    drop(_op);

    let relevant = annotations
        .iter()
        .filter(|a| a.aees >= RELEVANT_AEES)
        .count();
    let mut h = FNV_OFFSET;
    for x in [
        network.graph.m(),
        filtered.graph.m(),
        original.len(),
        clusters.len(),
        relevant,
    ] {
        h = fnv_mix(h, x as u64);
    }
    for row in &table {
        h = fnv_mix(h, row.best_original.map_or(0, |i| i as u64 + 1));
        h = fnv_mix(h, row.node_overlap.to_bits());
    }
    Pipeline {
        network,
        filtered,
        original,
        clusters,
        relevant,
        checksum: h,
    }
}

/// Per-operation counts of the traced operations.
#[derive(Default)]
struct Counts {
    pairs: Vec<f64>,
    edges: Vec<f64>,
    retained_ratio: Vec<f64>,
    makespan_ms: Vec<f64>,
    dsw_ops: Vec<f64>,
    clusters: Vec<f64>,
    relevant_ratio: Vec<f64>,
}

/// Run `batch-cre` for `cfg.seconds`.
pub fn run(cfg: &Config) -> Outcome {
    let (setup_s, st) = repeated_setup(|| setup(cfg.seed, crate::PAPER_SCALE));
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let genes = st.matrix.genes();
    let part = filter_partition(genes, &(0..genes as VertexId).collect::<Vec<_>>(), RANKS);
    let mut first: Option<u64> = None;
    let mut chordal = 0usize;
    let mut counts = Counts::default();
    let times = closed_loop(cfg, &mut out, |_, traced| {
        let before = traced.then(casbn_obs::snapshot);
        let clock = OpClock::start();
        let p = pipeline(&st);
        let t = clock.stop();
        if let Some(before) = before {
            let after = casbn_obs::snapshot();
            let m = p.network.graph.m().max(1) as f64;
            counts
                .pairs
                .push(obs_delta(&before, &after, "expr.tile_pairs") as f64);
            counts
                .edges
                .push(obs_delta(&before, &after, "expr.edges_retained") as f64);
            counts.retained_ratio.push(p.filtered.graph.m() as f64 / m);
            counts.makespan_ms.push(p.filtered.stats.sim_makespan * 1e3);
            counts
                .dsw_ops
                .push(obs_delta(&before, &after, "dsw.ops") as f64);
            counts
                .clusters
                .push(obs_delta(&before, &after, "mcode.clusters") as f64);
            let annotated = (p.original.len() + p.clusters.len()).max(1) as f64;
            counts.relevant_ratio.push(p.relevant as f64 / annotated);
        }
        chordal += usize::from(casbn_chordal::is_chordal(&p.filtered.graph));
        let ok = quasi_chordal_subgraph(&p.network.graph, &p.filtered.graph, &part)
            && *first.get_or_insert(p.checksum) == p.checksum
            && crate::pinned_ok(cfg, p.checksum, PINNED_CHECKSUM);
        (t, ok)
    });
    if let Some(h) = first {
        out.report.push(format!("batch-cre pipeline checksum {h}"));
    }
    out.report.push(format!(
        "filtered graph chordal as a whole in {chordal} of {} pipelines (quasi-chordal is the guarantee)",
        out.attempted
    ));

    if cfg.trace {
        let spans = trace::take();
        let ops = times.traced_ms.len();
        let med = crate::stats::median;
        let pearson_ms = span_ms_per_op(&spans, "expr.pearson", ops);
        out.layer("expr.pearson_ms", pearson_ms);
        out.layer(
            "expr.pairs_per_s",
            med(&counts.pairs) / (pearson_ms / 1e3).max(1e-9),
        );
        out.layer("expr.edges_retained", med(&counts.edges));
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
        crate::finish_trace(&mut out, spans, "batch.pipeline", &times);
    }
    out
}

/// Deterministic counts of one pipeline at `seed` and `scale`.
pub fn fingerprint(seed: u64, scale: f64) -> Vec<(String, u64)> {
    let st = setup(seed, scale);
    casbn_obs::set_enabled(true);
    let before = casbn_obs::snapshot();
    let p = pipeline(&st);
    let mut fp = crate::obs_fingerprint(&before);
    casbn_obs::set_enabled(false);
    fp.extend([
        ("network_edges".to_string(), p.network.graph.m() as u64),
        ("filtered_edges".to_string(), p.filtered.graph.m() as u64),
        ("original_clusters".to_string(), p.original.len() as u64),
        ("filtered_clusters".to_string(), p.clusters.len() as u64),
        ("relevant_clusters".to_string(), p.relevant as u64),
        ("checksum".to_string(), p.checksum),
    ]);
    fp
}
