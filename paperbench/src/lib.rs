//! Paper-scale benchmark of the CASBN pipeline.
//!
//! Four workloads, each run by [`run`] for a fixed number of seconds on
//! inputs made from a seed:
//!
//! * `batch-cre` — the paper's batch pipeline on the full CRE array;
//! * `orderings-yng` — the vertex-permutation sweep on YNG;
//! * `stream-yng` — streaming windows over a YNG replay;
//! * `serve-yng` — the live daemon: a checkpointing writer beside TCP
//!   readers.
//!
//! The untraced run reports the end-to-end metrics ([`E2E_METRICS`]);
//! the traced run records spans around every call into a layer crate
//! and reports the per-layer metrics ([`LAYER_METRICS`]). See
//! `paperbench/README.md` for what each metric means on each workload.

pub mod batch;
pub mod check;
pub mod inputs;
pub mod orderings;
pub mod serve;
pub mod stats;
pub mod stream;
pub mod trace;

use std::path::PathBuf;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Batch pipeline on the full CRE array.
    BatchCre,
    /// Ordering sweep on YNG.
    OrderingsYng,
    /// Streaming windows over a YNG replay.
    StreamYng,
    /// Live daemon: writer plus TCP readers.
    ServeYng,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 4] = [
        Workload::BatchCre,
        Workload::OrderingsYng,
        Workload::StreamYng,
        Workload::ServeYng,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchCre => "batch-cre",
            Workload::OrderingsYng => "orderings-yng",
            Workload::StreamYng => "stream-yng",
            Workload::ServeYng => "serve-yng",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds of measured operations.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Directory for checkpoints and the trace file.
    pub workdir: PathBuf,
}

/// What one run measured.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (pipelines, orderings, windows or queries).
    pub attempted: u64,
    /// Operations whose output check failed or that got no answer. A
    /// late but correct answer is not a failure; it only misses
    /// [`Outcome::ok_ops`].
    pub failed: u64,
    /// Output-check failures alone (an unanswered query is not one).
    pub check_failures: u64,
    /// Cost of every answered operation, ms, in the order run: its CPU
    /// time ([`OpTime::cpu_ms`]) on the compute workloads, its wall
    /// latency on `serve-yng`.
    pub op_ms: Vec<f64>,
    /// Wall time of every operation of a compute workload, ms, for the
    /// report on standard error.
    pub wall_ms: Vec<f64>,
    /// Operations of one chunk of [`Outcome::op_ms`] for the latency
    /// percentiles; 0 takes the run as one chunk.
    pub chunk: usize,
    /// Operations that passed their check within the limit.
    pub ok_ops: u64,
    /// Seconds of the measured phase: the sum of [`Outcome::op_ms`] on
    /// the compute workloads, the wall time on `serve-yng`.
    pub measured_s: f64,
    /// CPU seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<(&'static str, f64)>,
    /// Human-readable lines for standard error.
    pub report: Vec<String>,
    /// Recorded spans (traced run only), written out when the run ends.
    pub spans: Vec<trace::SpanRecord>,
}

impl Outcome {
    /// Record one operation's result.
    pub fn record(&mut self, t: OpTime, check_ok: bool) {
        self.attempted += 1;
        self.op_ms.push(t.cpu_ms);
        self.wall_ms.push(t.wall_ms);
        self.measured_s += t.cpu_ms / 1e3;
        if check_ok {
            self.ok_ops += 1;
        } else {
            self.failed += 1;
            self.check_failures += 1;
        }
    }

    /// Record a failed output check outside any timed operation (the
    /// untimed end-of-run checks); it counts as one failed operation.
    pub fn record_check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.attempted += 1;
            self.failed += 1;
            self.check_failures += 1;
            self.report.push(format!("CHECK FAILED: {what}"));
        }
    }

    /// Set per-layer metric `name`.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYER_METRICS.iter().any(|m| m.0 == name),
            "undeclared layer metric {name}"
        );
        self.layers.retain(|m| m.0 != name);
        self.layers.push((name, value));
    }
}

/// Dataset fraction of every benchmark run: the paper's sizes. The
/// determinism tests run the same code on smaller arrays.
pub const PAPER_SCALE: f64 = 1.0;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Run `f` `SETUP_REPEATS` times, timing each by CPU time, and keep
/// the last result. Earlier results are dropped before the next
/// repetition so peak memory holds one set-up.
pub fn repeated_setup<T>(mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let clock = OpClock::start();
        let v = f();
        times.push(clock.stop().cpu_ms / 1e3);
        last = Some(v);
    }
    (times, last.expect("at least one set-up"))
}

/// The time one operation took.
#[derive(Clone, Copy, Debug)]
pub struct OpTime {
    /// CPU time of the whole process, all threads summed, ms. The
    /// compute workloads report this: on a shared host, wall time also
    /// holds the time other tenants had the vCPUs, which moved medians
    /// of the same code by a third between runs.
    pub cpu_ms: f64,
    /// Wall time, ms.
    pub wall_ms: f64,
}

/// Clocks started at the beginning of an operation.
pub struct OpClock {
    cpu_ms: f64,
    wall: Instant,
}

impl OpClock {
    /// Start both clocks.
    pub fn start() -> OpClock {
        OpClock {
            cpu_ms: stats::process_cpu_ms(),
            wall: Instant::now(),
        }
    }

    /// Both clocks' readings since [`OpClock::start`].
    pub fn stop(&self) -> OpTime {
        OpTime {
            wall_ms: self.wall.elapsed().as_secs_f64() * 1e3,
            cpu_ms: stats::process_cpu_ms() - self.cpu_ms,
        }
    }
}

/// `(name, unit, better)` of every end-to-end metric; printed on every
/// workload by the untraced run.
pub const E2E_METRICS: &[(&str, &str, &str)] = &[
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("success_rate", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric; printed on every
/// workload by the traced run, 0 where the workload does not reach the
/// layer.
pub const LAYER_METRICS: &[(&str, &str, &str)] = &[
    ("expr.pearson_ms", "ms", "lower"),
    ("expr.pairs_per_s", "1/s", "higher"),
    ("expr.edges_retained", "count", "higher"),
    ("core.filter_ms", "ms", "lower"),
    ("core.retained_ratio", "ratio", "higher"),
    ("distsim.sim_makespan_ms", "ms", "lower"),
    ("chordal.dsw_ops", "count", "lower"),
    ("mcode.cluster_ms", "ms", "lower"),
    ("mcode.clusters", "count", "higher"),
    ("ontology.enrich_ms", "ms", "lower"),
    ("ontology.relevant_ratio", "ratio", "higher"),
    ("analysis.overlap_ms", "ms", "lower"),
    ("stream.ingest_ms", "ms", "lower"),
    ("graph.delta_apply_ms", "ms", "lower"),
    ("core.inc_chordal_ms", "ms", "lower"),
    ("stream.comoment_updates", "count", "lower"),
    ("stream.scan_pairs", "count", "lower"),
    ("store.checkpoint_ms", "ms", "lower"),
    ("store.checkpoint_bytes", "bytes", "lower"),
    ("store.file_bytes", "bytes", "lower"),
    ("store.fsyncs", "count", "lower"),
    ("serve.window_p50_ms", "ms", "lower"),
    ("serve.window_p90_ms", "ms", "lower"),
    ("serve.rotation_ms", "ms", "lower"),
    ("serve.answer_us.neighborhood", "us", "lower"),
    ("serve.answer_us.cluster", "us", "lower"),
    ("serve.answer_us.rho", "us", "lower"),
    ("serve.answer_us.enrich", "us", "lower"),
    ("serve.answer_us.stats", "us", "lower"),
    ("serve.burst_rtt_ms", "ms", "lower"),
    ("serve.timeouts", "count", "lower"),
    ("serve.reconnects", "count", "lower"),
    ("trace.layer_coverage", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "higher"),
];

/// Run one workload.
pub fn run(cfg: &Config) -> Outcome {
    match cfg.workload {
        Workload::BatchCre => batch::run(cfg),
        Workload::OrderingsYng => orderings::run(cfg),
        Workload::StreamYng => stream::run(cfg),
        Workload::ServeYng => serve::run(cfg),
    }
}

/// The deterministic counts of a fixed amount of `workload` work at
/// `seed` and `scale`: what two runs with one seed must agree on.
pub fn fingerprint(
    workload: Workload,
    seed: u64,
    scale: f64,
    workdir: &std::path::Path,
) -> Vec<(String, u64)> {
    match workload {
        Workload::BatchCre => batch::fingerprint(seed, scale),
        Workload::OrderingsYng => orderings::fingerprint(seed, scale),
        Workload::StreamYng => stream::fingerprint(seed, scale),
        Workload::ServeYng => serve::fingerprint(seed, scale, workdir),
    }
}

/// Latencies of the traced and the untraced operations of a
/// [`closed_loop`].
#[derive(Clone, Debug, Default)]
pub struct LoopTimes {
    /// Operations run with spans and obs counters on.
    pub traced_ms: Vec<f64>,
    /// Operations run with both off.
    pub untraced_ms: Vec<f64>,
}

impl LoopTimes {
    /// Tracing overhead: traced median over untraced median, in percent.
    pub fn overhead_pct(&self) -> f64 {
        let base = stats::median(&self.untraced_ms);
        if base > 0.0 {
            (stats::median(&self.traced_ms) / base - 1.0) * 100.0
        } else {
            0.0
        }
    }
}

/// Closed loop with one client: run `op(i, traced)` back to back until
/// `cfg.seconds` have passed. `op` times its own operation with an
/// [`OpClock`] (so its output check stays untimed) and returns
/// `(time, check_ok)`.
///
/// In a traced run, operations alternate untraced and traced (spans and
/// obs counters on), so both halves see the same drift and their
/// medians give the tracing overhead.
pub fn closed_loop(
    cfg: &Config,
    out: &mut Outcome,
    mut op: impl FnMut(usize, bool) -> (OpTime, bool),
) -> LoopTimes {
    let start = Instant::now();
    let mut times = LoopTimes::default();
    let mut i = 0usize;
    loop {
        let traced = cfg.trace && i % 2 == 1;
        trace::set_enabled(traced);
        casbn_obs::set_enabled(traced);
        let (t, ok) = op(i, traced);
        trace::set_enabled(false);
        casbn_obs::set_enabled(false);
        out.record(t, ok);
        if traced {
            times.traced_ms.push(t.cpu_ms);
        } else {
            times.untraced_ms.push(t.cpu_ms);
        }
        i += 1;
        let enough = !cfg.trace || i >= 2;
        if enough && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    times
}

/// Close a traced run: the layer coverage of the `root` operation spans,
/// the tracing overhead, and the spans themselves.
pub fn finish_trace(
    out: &mut Outcome,
    spans: Vec<trace::SpanRecord>,
    root: &str,
    times: &LoopTimes,
) {
    out.layer(
        "trace.layer_coverage",
        stats::median(&trace::child_coverage(&spans, root)),
    );
    out.layer("trace.overhead_pct", times.overhead_pct());
    out.layer("trace.spans", spans.len() as f64);
    out.spans = spans;
}

/// Total duration (ms) of the spans named `name`, per operation.
pub fn span_ms_per_op(spans: &[trace::SpanRecord], name: &str, ops: usize) -> f64 {
    trace::durations_ms(spans, name).iter().sum::<f64>() / ops.max(1) as f64
}

/// Counter growth of `key` in the obs registry since `before`.
pub fn obs_delta(before: &casbn_obs::Snapshot, after: &casbn_obs::Snapshot, key: &str) -> u64 {
    let a = after.counters.get(key).copied().unwrap_or(0);
    let b = before.counters.get(key).copied().unwrap_or(0);
    a.wrapping_sub(b)
}

/// Every obs counter's growth since `before`, prefixed `obs.`, for a
/// fingerprint.
pub fn obs_fingerprint(before: &casbn_obs::Snapshot) -> Vec<(String, u64)> {
    casbn_obs::snapshot()
        .counter_delta(before)
        .into_iter()
        .map(|(k, v)| (format!("obs.{k}"), v))
        .collect()
}

/// Compare `got` against the value pinned for the default seed; other
/// seeds have nothing pinned.
pub fn pinned_ok(cfg: &Config, got: u64, pinned: u64) -> bool {
    cfg.seed != 0 || got == pinned
}
