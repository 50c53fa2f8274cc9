//! Acceptance gate: a pinned query script replayed against a pinned
//! artifact yields byte-identical responses on every replay, with a
//! pinned response checksum.

use casbn_expr::DatasetPreset;
use casbn_serve::{parse_script, run_script, ServeEngine};
use casbn_stream::{synthesize_replay, StreamConfig};

/// The pinned script: every query kind, with ingest requests between
/// runs of queries of uneven length.
const SCRIPT: &str = "
stats
ingest 1
stats
neigh 0
neigh 1
neigh 2
cluster 0
cluster 7
rho 0 1
rho 2 3
enrich 0 1 2 3
ingest 1
stats
neigh 3
rho 1 2
enrich 4 5 6 7 8
ingest 2
stats
neigh 4
cluster 4
";

/// FNV-1a checksum of the script's response bytes.
const PINNED_CHECKSUM: u64 = 3_724_272_230_277_752_947;

fn fresh_engine() -> ServeEngine {
    let replay = synthesize_replay(DatasetPreset::Yng, 0.02, Some(8));
    ServeEngine::from_replay(replay, StreamConfig::default())
}

#[test]
fn pinned_script_is_byte_identical_across_replays() {
    let script = parse_script(SCRIPT).unwrap();
    let (first, first_bytes) = run_script(&mut fresh_engine(), &script).unwrap();
    let (second, second_bytes) = run_script(&mut fresh_engine(), &script).unwrap();
    assert_eq!(first.requests, script.len() as u64);
    assert_eq!(first, second);
    assert_eq!(first_bytes, second_bytes);
    assert_eq!(first.responses_checksum, PINNED_CHECKSUM);
}
