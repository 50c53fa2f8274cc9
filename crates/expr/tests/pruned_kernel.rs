//! Differential sweep of the pruned Pearson kernel against the
//! sequential oracle over the inputs where a pruning bound could break:
//! every threshold from `ρ ≥ 0` to `ρ ≥ 1`, sample counts from 0 to 64,
//! constant, duplicate and negated rows (`ρ = ±1` exactly), NaN and ±∞
//! values, and magnitudes whose variance overflows or underflows. Each
//! case must match bit for bit at 1, 2, 4 and 8 worker threads.
//!
//! One `#[test]` only: the rayon thread override is process-global.

use casbn_expr::{CorrelationNetwork, ExpressionMatrix, NetworkParams};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// 120 noise rows, 24 rows in three tight modules, then one row of each
/// edge case. Module rows are a shared factor plus small noise, so
/// high thresholds still retain edges.
fn edge_case_matrix(samples: usize, seed: u64) -> ExpressionMatrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for _ in 0..120 {
        rows.push((0..samples).map(|_| rng.gen_range(-1.0..1.0)).collect());
    }
    for _ in 0..3 {
        let factor: Vec<f64> = (0..samples).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for _ in 0..8 {
            rows.push(
                factor
                    .iter()
                    .map(|f| f + rng.gen_range(-0.02..0.02))
                    .collect(),
            );
        }
    }
    let base = rows[0].clone();
    let ramp: Vec<f64> = (0..samples).map(|s| s as f64).collect();
    let with = |v: f64| {
        let mut r = base.clone();
        if let Some(x) = r.get_mut(samples / 2) {
            *x = v;
        }
        r
    };
    rows.extend([
        vec![3.5; samples],                                 // constant
        vec![0.0; samples],                                 // constant zero
        base.clone(),                                       // duplicate
        base.iter().map(|x| -x).collect(),                  // negated
        base.iter().map(|x| 4.0 * x + 7.0).collect(),       // affine copy
        ramp.clone(),                                       // exact line
        ramp.iter().map(|x| 1.0 - 2.0 * x).collect(),       // its negation
        with(f64::NAN),                                     // NaN
        with(f64::INFINITY),                                // +inf
        with(f64::NEG_INFINITY),                            // -inf
        base.iter().map(|x| x * 1e200).collect(),           // variance overflows
        base.iter().map(|x| x * 1e307 + 1.5e308).collect(), // mean overflows
        base.iter().map(|x| x * 1e-200).collect(),          // variance underflows
    ]);
    let genes = rows.len();
    ExpressionMatrix::from_rows(genes, samples, rows.concat())
}

fn assert_bitwise(par: &CorrelationNetwork, seq: &CorrelationNetwork, ctx: &str) {
    assert_eq!(par.weights.len(), seq.weights.len(), "{ctx}: edge count");
    for (a, b) in par.weights.iter().zip(&seq.weights) {
        assert_eq!(a.0, b.0, "{ctx}: edge order");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "{ctx}: ρ bits of {:?}", a.0);
    }
    assert!(par.graph.same_edges(&seq.graph), "{ctx}: graph");
}

#[test]
fn pruned_kernel_is_bitwise_sequential_on_edge_cases_at_any_thread_count() {
    let mut retained = 0usize;
    for samples in [0usize, 1, 2, 3, 8, 9, 16, 64] {
        let m = edge_case_matrix(samples, samples as u64);
        for min_rho in [0.0, 0.5, 0.8, 0.95, 1.0, -0.5, 1.0 + 1e-12, f64::NAN] {
            for max_p in [1.0, 0.0005] {
                let params = NetworkParams { min_rho, max_p };
                let seq = CorrelationNetwork::from_expression_seq(&m, params);
                retained += seq.weights.len();
                for threads in [1usize, 2, 4, 8] {
                    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
                    let par = CorrelationNetwork::from_expression(&m, params);
                    let ctx = format!(
                        "samples={samples} min_rho={min_rho} max_p={max_p} threads={threads}"
                    );
                    assert_bitwise(&par, &seq, &ctx);
                }
                std::env::remove_var("RAYON_NUM_THREADS");
            }
        }
    }
    assert!(retained > 0, "the sweep must retain edges somewhere");
}
