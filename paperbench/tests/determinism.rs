//! Two runs with one seed give identical deterministic counts — edges,
//! clusters, checksums and obs counters — on every workload.

use paperbench::{fingerprint, Workload};
use std::path::Path;

fn assert_repeats(scale: f64) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for w in Workload::ALL {
        let a = fingerprint(w, 7, scale, dir);
        let b = fingerprint(w, 7, scale, dir);
        assert!(!a.is_empty(), "{}: empty fingerprint", w.name());
        assert_eq!(a, b, "{}: counts differ between two runs", w.name());
        let other = fingerprint(w, 8, scale, dir);
        assert_ne!(a, other, "{}: the seed does not reach the inputs", w.name());
    }
}

// The obs registry is process-global, so every workload runs from one
// test, one after another.
#[test]
fn same_seed_same_counts_on_every_workload() {
    assert_repeats(0.1);
}

/// The same at paper scale; run with
/// `cargo test --release --manifest-path paperbench/Cargo.toml -- --ignored`.
#[test]
#[ignore = "paper scale: minutes in a debug build"]
fn same_seed_same_counts_at_paper_scale() {
    assert_repeats(1.0);
}
