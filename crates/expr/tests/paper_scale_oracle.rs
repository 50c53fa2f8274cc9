//! The pruned Pearson kernel on the paper's full-size arrays: the YNG
//! (5,348 genes × 8 samples) and CRE (27,896 × 9) networks must equal
//! the sequential all-pairs oracle bit for bit, and on CRE at most 1% of
//! all gene pairs may reach the dot product, so a silent fall-back to
//! dense scoring fails.
//!
//! The CRE half scores 389M pairs through the oracle: it runs in release
//! builds only (`cargo test --release -p casbn_expr --test
//! paper_scale_oracle`) and is skipped under `debug_assertions`.
//!
//! One `#[test]` only: the telemetry registry is process-global.

use casbn_expr::{CorrelationNetwork, DatasetPreset, SyntheticMicroarray};

/// Build `preset` at full scale with both kernels; returns the pruned
/// kernel's `expr.pairs_scored` and the number of gene pairs.
fn check_preset(preset: DatasetPreset) -> (u64, u64) {
    let arr = SyntheticMicroarray::generate(&preset.params(), preset.seed());
    let params = preset.network_params();
    casbn_obs::reset();
    casbn_obs::set_enabled(true);
    let par = CorrelationNetwork::from_expression(&arr.matrix, params);
    casbn_obs::set_enabled(false);
    let scored = casbn_obs::snapshot().counters["expr.pairs_scored"];
    let seq = CorrelationNetwork::from_expression_seq(&arr.matrix, params);
    let name = preset.name();
    assert!(!seq.weights.is_empty(), "{name}: empty reference network");
    assert_eq!(par.weights.len(), seq.weights.len(), "{name}: edge count");
    for (a, b) in par.weights.iter().zip(&seq.weights) {
        assert_eq!(a.0, b.0, "{name}: edge order");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "{name}: ρ bits of {:?}", a.0);
    }
    let genes = arr.matrix.genes() as u64;
    (scored, genes * (genes - 1) / 2)
}

#[test]
fn pruned_kernel_matches_the_oracle_at_paper_scale() {
    let (scored, pairs) = check_preset(DatasetPreset::Yng);
    assert!(scored < pairs, "YNG: scored {scored} of {pairs} pairs");
    if cfg!(debug_assertions) {
        eprintln!("debug build: CRE half skipped (run with --release)");
        return;
    }
    let (scored, pairs) = check_preset(DatasetPreset::Cre);
    assert!(
        scored * 100 <= pairs,
        "CRE: scored {scored} of {pairs} pairs, above the 1% bound"
    );
}
