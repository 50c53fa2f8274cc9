//! The indexed overlap evaluation on the paper's full-size networks:
//! for YNG (5,348 genes) and CRE (27,896 genes), the MCODE clusters of
//! the original network against those of its no-comm chordal filtrate
//! (8 ranks, block partition) must give the `BTreeSet` reference's
//! table and lost/found lists exactly.
//!
//! The CRE half runs in release builds only (`cargo test --release -p
//! casbn_analysis --test paper_scale_overlap`) and is skipped under
//! `debug_assertions`.

mod reference;

use casbn_analysis::{lost_and_found, overlap_table};
use casbn_core::{Filter, ParallelChordalNoCommFilter};
use casbn_expr::DatasetPreset;
use casbn_graph::PartitionKind;
use casbn_mcode::{mcode_cluster, McodeParams};

fn check_preset(preset: DatasetPreset) {
    let network = preset.build().network;
    let filtered = ParallelChordalNoCommFilter::new(8, PartitionKind::Block)
        .filter(&network, 0)
        .graph;
    let params = McodeParams::default();
    let original = mcode_cluster(&network, &params);
    let clusters = mcode_cluster(&filtered, &params);
    let name = preset.name();
    assert!(
        !original.is_empty() && !clusters.is_empty(),
        "{name}: no clusters"
    );
    let table = overlap_table(&original, &clusters);
    reference::assert_same_table(
        &table,
        &reference::overlap_table(&original, &clusters),
        name,
    );
    assert!(table.iter().any(|r| r.best_original.is_some()), "{name}");
    assert_eq!(
        lost_and_found(&original, &clusters),
        reference::lost_and_found(&original, &clusters),
        "{name}: lost and found"
    );
}

#[test]
fn indexed_overlap_matches_the_reference_at_paper_scale() {
    check_preset(DatasetPreset::Yng);
    if cfg!(debug_assertions) {
        eprintln!("debug build: CRE half skipped (run with --release)");
        return;
    }
    check_preset(DatasetPreset::Cre);
}
