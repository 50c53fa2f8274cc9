//! `stream-yng`: `StreamDriver::ingest_window` over a full-scale YNG
//! replay, one window per operation, no checkpoints.
//!
//! The replay has [`SAMPLES`] samples (the preset's native 8 would give
//! only 4 windows) in windows of [`BATCH`]. When a pass over the replay
//! ends, a fresh driver starts the next pass, untimed. A fresh driver's
//! first windows are slow (the first one touches all of the co-moment
//! memory), so a pass is long enough for them to be a small share, as
//! in a long-running stream.
//!
//! The traced run feeds every window to the driver (without spans)
//! and, in lockstep, to a second pipeline built from the driver's public
//! steps — `OnlineCorrelation::ingest`, `DeltaGraph::apply`,
//! `IncrementalChordal::apply`, `mcode_cluster_into` — with a span
//! around each; the two must agree on every window's edge and cluster
//! counts.

use crate::stats::median;
use crate::{inputs, obs_delta, repeated_setup, trace, Config, LoopTimes, OpClock, Outcome};
use casbn_chordal::ChordalConfig;
use casbn_core::IncrementalChordal;
use casbn_expr::{CorrelationNetwork, DatasetPreset, ExpressionMatrix};
use casbn_graph::DeltaGraph;
use casbn_mcode::{mcode_cluster_into, Cluster, McodeScratch};
use casbn_stream::{OnlineCorrelation, StreamConfig, StreamDriver, WindowReport};
use std::time::Instant;

/// Samples in the replay.
pub const SAMPLES: usize = 256;
/// Samples per window.
pub const BATCH: usize = 2;
/// Windows per chunk of the latency percentiles.
const CHUNK: usize = 32;

/// Driver checksum after one full pass at seed 0, paper scale.
const PINNED_PASS: u64 = 2_671_245_924_889_684_837;

const PRESET: DatasetPreset = DatasetPreset::Yng;

fn config() -> StreamConfig {
    StreamConfig {
        batch: BATCH,
        ..StreamConfig::default()
    }
}

struct State {
    replay: ExpressionMatrix,
    windows: Vec<ExpressionMatrix>,
    driver: StreamDriver,
}

fn setup(seed: u64, scale: f64) -> State {
    let replay = inputs::microarray(PRESET, scale, Some(SAMPLES), seed).matrix;
    let windows = (0..replay.samples())
        .step_by(BATCH)
        .map(|lo| replay.columns(lo, (lo + BATCH).min(replay.samples())))
        .collect();
    let driver = StreamDriver::new(replay.genes(), config());
    State {
        replay,
        windows,
        driver,
    }
}

/// The driver's per-window steps, called one by one with a span each.
struct Steps {
    online: OnlineCorrelation,
    net: DeltaGraph,
    chordal: IncrementalChordal,
    scratch: McodeScratch,
    clusters: Vec<Cluster>,
}

impl Steps {
    fn new(genes: usize) -> Steps {
        let cfg = config();
        Steps {
            online: OnlineCorrelation::new(genes, cfg.network),
            net: DeltaGraph::new(genes),
            chordal: IncrementalChordal::with_config(genes, ChordalConfig::default(), cfg.cost),
            scratch: McodeScratch::new(genes),
            clusters: Vec::new(),
        }
    }

    /// One window; true when its counts equal the driver's `report`.
    fn window(&mut self, batch: &ExpressionMatrix, report: &WindowReport) -> bool {
        let _op = trace::span("stream.window");
        let delta = trace::within("stream.ingest", || self.online.ingest(batch));
        trace::within("graph.delta_apply", || self.net.apply(&delta));
        trace::within("core.inc_chordal", || self.chordal.apply(&delta, &self.net));
        trace::within("mcode.cluster", || {
            mcode_cluster_into(
                self.chordal.subgraph(),
                &config().mcode,
                &mut self.scratch,
                &mut self.clusters,
            )
        });
        drop(_op);
        delta.inserts.len() == report.inserts
            && delta.removes.len() == report.removes
            && self.net.m() == report.network_edges
            && self.chordal.retained_edges() == report.chordal_edges
            && self.clusters.len() == report.clusters
    }
}

/// The driver's network equals a batch network over the samples it has
/// seen.
fn matches_batch(driver: &StreamDriver, replay: &ExpressionMatrix) -> bool {
    let seen = replay.columns(0, driver.samples_ingested());
    let batch = CorrelationNetwork::from_expression(&seen, config().network).graph;
    driver.network().snapshot().same_edges(&batch)
}

/// Run `stream-yng` for `cfg.seconds`.
pub fn run(cfg: &Config) -> Outcome {
    let (setup_s, st) = repeated_setup(|| setup(cfg.seed, crate::PAPER_SCALE));
    let State {
        replay,
        windows,
        driver,
    } = st;
    let genes = replay.genes();
    let mut out = Outcome {
        setup_s,
        chunk: CHUNK,
        ..Outcome::default()
    };
    let mut driver = Some(driver);
    let mut steps = cfg.trace.then(|| Steps::new(genes));
    let mut times = LoopTimes::default();
    let mut first_pass: Option<u64> = None;
    let mut batch_checked = false;
    let mut w = 0usize;
    let (mut comoments, mut scans, mut clusters) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while out.attempted == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        if w == windows.len() {
            // end of a pass: untimed checks, then a fresh stream
            let d = driver.take().expect("driver present between passes");
            let sum = d.checksum();
            let pass_ok =
                *first_pass.get_or_insert(sum) == sum && crate::pinned_ok(cfg, sum, PINNED_PASS);
            out.record_check("stream pass checksum", pass_ok);
            if !batch_checked {
                out.record_check(
                    "final window equals batch network",
                    matches_batch(&d, &replay),
                );
                batch_checked = true;
            }
            drop(d);
            driver = Some(StreamDriver::new(genes, config()));
            if steps.take().is_some() {
                steps = Some(Steps::new(genes));
            }
            w = 0;
        }
        let d = driver.as_mut().expect("driver present");
        let clock = OpClock::start();
        let report = d.ingest_window(&windows[w]);
        let t = clock.stop();
        times.untraced_ms.push(t.cpu_ms);
        let mut ok = report.samples_seen == ((w + 1) * BATCH).min(replay.samples());
        if let Some(s) = steps.as_mut() {
            trace::set_enabled(true);
            casbn_obs::set_enabled(true);
            let before = casbn_obs::snapshot();
            let clock = OpClock::start();
            ok &= s.window(&windows[w], &report);
            times.traced_ms.push(clock.stop().cpu_ms);
            let after = casbn_obs::snapshot();
            casbn_obs::set_enabled(false);
            trace::set_enabled(false);
            comoments.push(obs_delta(&before, &after, "stream.comoment_updates") as f64);
            scans.push(obs_delta(&before, &after, "stream.scan_pairs") as f64);
            clusters.push(obs_delta(&before, &after, "mcode.clusters") as f64);
        }
        out.record(t, ok);
        w += 1;
    }
    if !batch_checked {
        let d = driver.as_ref().expect("driver present");
        out.record_check(
            "final window equals batch network",
            matches_batch(d, &replay),
        );
    }
    if let Some(sum) = first_pass {
        out.report.push(format!("stream-yng pass checksum {sum}"));
    }

    if cfg.trace {
        let spans = trace::take();
        let med_of = |name: &str| median(&trace::durations_ms(&spans, name));
        out.layer("stream.ingest_ms", med_of("stream.ingest"));
        out.layer("graph.delta_apply_ms", med_of("graph.delta_apply"));
        out.layer("core.inc_chordal_ms", med_of("core.inc_chordal"));
        out.layer("mcode.cluster_ms", med_of("mcode.cluster"));
        out.layer("mcode.clusters", median(&clusters));
        out.layer("stream.comoment_updates", median(&comoments));
        out.layer("stream.scan_pairs", median(&scans));
        crate::finish_trace(&mut out, spans, "stream.window", &times);
    }
    out
}

/// Deterministic counts of one full pass at `seed` and `scale`.
pub fn fingerprint(seed: u64, scale: f64) -> Vec<(String, u64)> {
    let st = setup(seed, scale);
    let mut driver = st.driver;
    casbn_obs::set_enabled(true);
    let before = casbn_obs::snapshot();
    for w in &st.windows {
        driver.ingest_window(w);
    }
    let mut fp = crate::obs_fingerprint(&before);
    casbn_obs::set_enabled(false);
    fp.extend([
        ("network_edges".to_string(), driver.network().m() as u64),
        ("chordal_edges".to_string(), driver.chordal().m() as u64),
        ("clusters".to_string(), driver.clusters().len() as u64),
        ("checksum".to_string(), driver.checksum()),
    ]);
    fp
}
