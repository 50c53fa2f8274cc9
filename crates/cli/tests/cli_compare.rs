//! `casbn compare` output is pinned byte for byte: the lost/found line
//! and every `filtered # ~ original #` row, for a generated network
//! against its filtered graph. The fixtures were written by the binary
//! that scanned every original cluster with per-pair `BTreeSet`s, so
//! they also pin the indexed overlap table to that scan.

use std::path::PathBuf;
use std::process::{Command, Output};

fn casbn(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_casbn"))
        .args(args)
        .output()
        .expect("run casbn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "casbn {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn tmp(name: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    p.push(format!("cli_compare_{name}"));
    p.to_str().unwrap().to_string()
}

/// `generate --preset … --scale …`, `filter` with `filter_args`, then
/// `compare`; returns compare's stdout.
fn compare_output(name: &str, preset: &str, scale: &str, filter_args: &[&str]) -> String {
    let (net, filt) = (tmp(&format!("{name}.tsv")), tmp(&format!("{name}_f.tsv")));
    casbn(&[
        "generate", "--preset", preset, "--scale", scale, "--out", &net,
    ]);
    let mut args = vec!["filter", "--in", &net, "--out", &filt];
    args.extend_from_slice(filter_args);
    casbn(&args);
    let out = casbn(&["compare", "--original", &net, "--filtered", &filt]);
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn compare_of_a_random_edge_sample_is_byte_stable() {
    // half the edges dropped: partial overlaps and lost clusters
    let got = compare_output("cre", "cre", "0.1", &["--algo", "randomedge"]);
    assert_eq!(got, include_str!("fixtures/compare_cre_randomedge.txt"));
}

#[test]
fn compare_of_the_no_comm_chordal_filter_is_byte_stable() {
    let got = compare_output(
        "yng",
        "yng",
        "0.2",
        &[
            "--algo",
            "chordal-nocomm",
            "--ranks",
            "8",
            "--partition",
            "block",
        ],
    );
    assert_eq!(got, include_str!("fixtures/compare_yng_nocomm.txt"));
}
