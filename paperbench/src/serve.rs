//! `serve-yng`: the live daemon, writes beside reads, in the shape of
//! `casbn serve --preset yng --listen --checkpoint`.
//!
//! * A writer thread calls `ServeEngine::ingest_windows(1)` per window
//!   through the checkpoint sink the CLI wires: `save_atomic` for the
//!   first window, `append_durable` for later ones. Checkpoints go to a
//!   per-run directory that is deleted when the run ends.
//! * Meanwhile one closed-loop TCP client per available core queries
//!   the registry through `serve_tcp`. Bursts come in seeded pairs of
//!   one single query and one [`BURST`]-query burst (which comes first
//!   is seeded), so exactly half the bursts are single queries; opcodes
//!   and genes are seeded.
//! * Every query has a [`LIMIT`] latency limit. When a burst misses it,
//!   its client closes its side of the connection, which makes the
//!   session answer what it holds, reads the late answers and
//!   reconnects. A late answer is checked like any other but does not
//!   count as a success.
//!
//! One operation is one query; its latency runs from the burst's send
//! to that query's response. A query fails only when its answer is
//! wrong or never comes.

use crate::stats::{fnv_mix, median, percentile, SplitMix, FNV_OFFSET};
use crate::{inputs, obs_delta, repeated_setup, trace, Config, Outcome};
use casbn_expr::DatasetPreset;
use casbn_serve::{
    serve_tcp, Request, Response, ServeEngine, ServeSnapshot, SessionConfig, SnapshotRegistry,
};
use casbn_store::io::{append_durable, save_atomic, RealFs, RetryPolicy};
use casbn_store::is_store_bytes;
use casbn_stream::StreamConfig;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Samples in the replay: YNG's native 8 (batch 2, so 4 windows), as
/// `casbn serve --preset yng` serves by default.
pub const SAMPLES: Option<usize> = None;
/// Queries in a full burst: the dispatch size the server batches.
pub const BURST: usize = 16;
/// Per-query latency limit.
pub const LIMIT: Duration = Duration::from_millis(100);
/// How long after its send a late burst's answers are still awaited;
/// a query unanswered by then fails.
pub const GIVE_UP: Duration = Duration::from_secs(2);
/// Seeded queries per opcode for the in-process answer timings and the
/// final-snapshot checksum.
const PROBES: usize = 200;

/// Final-snapshot probe checksum at seed 0, paper scale.
const PINNED_PROBES: u64 = 5_808_324_645_865_569_934;

const PRESET: DatasetPreset = DatasetPreset::Yng;

/// One checkpoint written by the sink.
#[derive(Clone, Copy, Debug)]
struct Checkpoint {
    ms: f64,
    bytes: u64,
}

type CheckpointLog = Arc<Mutex<Vec<Checkpoint>>>;

struct Setup {
    engine: ServeEngine,
    listener: TcpListener,
    genes: usize,
}

/// Does `path` hold a `.csbn` container? (The CLI's test for choosing
/// append over a fresh atomic write.)
fn is_csbn_file(path: &Path) -> bool {
    let mut magic = [0u8; 8];
    std::fs::File::open(path)
        .and_then(|mut f| f.read_exact(&mut magic))
        .is_ok()
        && is_store_bytes(&magic)
}

fn engine(seed: u64, scale: f64, checkpoint: &Path, log: &CheckpointLog) -> ServeEngine {
    let replay = inputs::microarray(PRESET, scale, SAMPLES, seed).matrix;
    let mut engine = ServeEngine::from_replay(replay, StreamConfig::default());
    let path = checkpoint.to_path_buf();
    let log = log.clone();
    let policy = RetryPolicy::default();
    engine.set_checkpoint_sink(Box::new(move |w| {
        let _s = trace::span("store.checkpoint");
        let p = path.to_str().ok_or("checkpoint path is not UTF-8")?;
        let t = Instant::now();
        let prior = std::fs::metadata(&path).map_or(0, |m| m.len());
        let result = if is_csbn_file(&path) {
            append_durable(&RealFs, p, w, policy).map(drop)
        } else {
            save_atomic(&RealFs, p, w, policy)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let now = std::fs::metadata(&path).map_or(0, |m| m.len());
        log.lock().expect("checkpoint log lock").push(Checkpoint {
            ms,
            bytes: now.saturating_sub(prior),
        });
        result.map_err(|e| format!("checkpoint {p}: {e}"))
    }));
    engine
}

fn setup(seed: u64, scale: f64, checkpoint: &Path, log: &CheckpointLog) -> Setup {
    let engine = engine(seed, scale, checkpoint, log);
    let genes = engine.snapshot().network().n();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    Setup {
        engine,
        listener,
        genes,
    }
}

/// The in-process answer-time metric of each opcode of the seeded mix,
/// in [`request`]'s opcode order.
const ANSWER_METRICS: [&str; 5] = [
    "serve.answer_us.neighborhood",
    "serve.answer_us.cluster",
    "serve.answer_us.rho",
    "serve.answer_us.enrich",
    "serve.answer_us.stats",
];

fn request(op: usize, rng: &mut SplitMix, genes: usize) -> Request {
    let mut gene = || rng.below(genes as u64) as u32;
    match op {
        0 => Request::Neighborhood { gene: gene() },
        1 => Request::ClusterOf { gene: gene() },
        2 => Request::Rho {
            u: gene(),
            v: gene(),
        },
        3 => Request::Enrich {
            genes: (0..8).map(|_| gene()).collect(),
        },
        _ => Request::Stats,
    }
}

fn random_request(rng: &mut SplitMix, genes: usize) -> Request {
    let op = rng.below(ANSWER_METRICS.len() as u64) as usize;
    request(op, rng, genes)
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    answered_ok: u64,
    late: u64,
    failed: u64,
    undecodable: u64,
    latencies_ms: Vec<f64>,
    rtt_traced_ms: Vec<f64>,
    rtt_untraced_ms: Vec<f64>,
    timeouts: u64,
    reconnects: u64,
    /// Queries sent after the final snapshot published, with the raw
    /// response payloads and whether they came within the limit, for
    /// checking against `ServeSnapshot::answer`.
    final_answers: Vec<(Request, Vec<u8>, bool)>,
}

/// Read one response frame's payload. When [`LIMIT`] passes, set
/// `late` and close the write side once: a session answers the queries
/// it holds when its input ends. `None` when [`GIVE_UP`] passes or the
/// connection breaks.
fn read_response(stream: &mut TcpStream, sent: Instant, late: &mut bool) -> Option<Vec<u8>> {
    let mut read = |buf: &mut [u8]| -> Option<()> {
        let mut filled = 0;
        while filled < buf.len() {
            let wait = if *late { GIVE_UP } else { LIMIT };
            let Some(left) = wait.checked_sub(sent.elapsed()) else {
                if *late {
                    return None;
                }
                *late = true;
                stream.shutdown(Shutdown::Write).ok()?;
                continue;
            };
            stream
                .set_read_timeout(Some(left.max(Duration::from_micros(1))))
                .ok()?;
            match stream.read(&mut buf[filled..]) {
                Ok(0) => return None,
                Ok(n) => filled += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::Interrupted
                            | std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => return None,
            }
        }
        Some(())
    };
    let mut header = [0u8; 4];
    read(&mut header)?;
    let mut payload = vec![0u8; u32::from_le_bytes(header) as usize];
    read(&mut payload)?;
    Some(payload)
}

struct ClientCtx<'a> {
    id: u64,
    addr: SocketAddr,
    genes: usize,
    seed: u64,
    deadline: Instant,
    registry: &'a SnapshotRegistry,
    final_epoch: u64,
    traced: bool,
}

fn client(ctx: &ClientCtx<'_>) -> ClientLog {
    let mut log = ClientLog::default();
    let mut rng = SplitMix::new(ctx.seed ^ (ctx.id + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut conn: Option<TcpStream> = None;
    let mut connected_once = false;
    let mut sizes: Vec<usize> = Vec::new();
    let mut pair = 0u64;
    let mut burst = 0u64;
    while Instant::now() < ctx.deadline {
        if conn.is_none() {
            match TcpStream::connect(ctx.addr) {
                Ok(s) => {
                    if connected_once {
                        log.reconnects += 1;
                    }
                    connected_once = true;
                    conn = Some(s);
                }
                Err(_) => {
                    log.attempted += 1;
                    log.failed += 1;
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            }
        }
        let stream = conn.as_mut().expect("connected above");
        if sizes.is_empty() {
            pair += 1;
            sizes = if rng.below(2) == 0 {
                vec![BURST, 1]
            } else {
                vec![1, BURST]
            };
        }
        let size = sizes.pop().expect("refilled above");
        let reqs: Vec<Request> = (0..size)
            .map(|_| random_request(&mut rng, ctx.genes))
            .collect();
        let frames: Vec<u8> = reqs.iter().flat_map(|r| r.encode_frame()).collect();
        let at_final = ctx.registry.epoch() == ctx.final_epoch;
        burst += 1;
        // tracing alternates by pair, so both halves see the same mix
        let traced = ctx.traced && pair.is_multiple_of(2);
        let _span = traced.then(|| trace::span_request("serve.burst", (ctx.id << 32) | burst));
        log.attempted += size as u64;
        let sent = Instant::now();
        if stream.write_all(&frames).is_err() {
            log.failed += size as u64;
            conn = None;
            continue;
        }
        let mut answered = 0usize;
        let mut late = false;
        for req in reqs {
            let Some(payload) = read_response(stream, sent, &mut late) else {
                break;
            };
            let ms = sent.elapsed().as_secs_f64() * 1e3;
            answered += 1;
            log.latencies_ms.push(ms);
            if Response::decode_payload(&payload).is_err() {
                log.undecodable += 1;
                continue;
            }
            let in_time = ms <= LIMIT.as_secs_f64() * 1e3;
            if in_time {
                log.answered_ok += 1;
            } else {
                log.late += 1;
            }
            if at_final {
                log.final_answers.push((req, payload, in_time));
            }
        }
        log.failed += (size - answered) as u64;
        if late || answered < size {
            log.timeouts += u64::from(late);
            conn = None;
        } else if size == BURST {
            let rtt = sent.elapsed().as_secs_f64() * 1e3;
            if traced {
                log.rtt_traced_ms.push(rtt);
            } else {
                log.rtt_untraced_ms.push(rtt);
            }
        }
    }
    log
}

/// One writer window as measured from outside the engine.
struct Window {
    ms: f64,
    driver_ms: f64,
    comoments: u64,
    scans: u64,
}

/// Ingest every window, window `k` due at `start + k · period`: arrays
/// arrive over the run rather than all at once.
fn writer(
    engine: &mut ServeEngine,
    start: Instant,
    period: Duration,
    traced: bool,
) -> Result<Vec<Window>, String> {
    let mut windows = Vec::new();
    while engine.remaining_windows() > 0 {
        let due = start + period * windows.len() as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let before = traced.then(casbn_obs::snapshot);
        let span = trace::span("serve.window");
        let t = Instant::now();
        engine.ingest_windows(1)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        drop(span);
        let (driver_ms, comoments, scans) = match before {
            Some(before) => {
                let after = casbn_obs::snapshot();
                let wall = |s: &casbn_obs::Snapshot| {
                    s.spans.get("stream.window").map_or(0, |a| a.wall_nanos)
                };
                (
                    wall(&after).saturating_sub(wall(&before)) as f64 / 1e6,
                    obs_delta(&before, &after, "stream.comoment_updates"),
                    obs_delta(&before, &after, "stream.scan_pairs"),
                )
            }
            None => (0.0, 0, 0),
        };
        windows.push(Window {
            ms,
            driver_ms,
            comoments,
            scans,
        });
    }
    Ok(windows)
}

/// FNV checksum of the final snapshot's answers to the seeded probes,
/// and the median in-process answer time (µs) per opcode.
fn probe(snap: &ServeSnapshot, seed: u64, genes: usize) -> (u64, Vec<f64>) {
    let mut rng = SplitMix::new(seed ^ 0x5E_12E5);
    let mut h = FNV_OFFSET;
    let mut per_op = Vec::new();
    for op in 0..ANSWER_METRICS.len() {
        let mut us = Vec::with_capacity(PROBES);
        for _ in 0..PROBES {
            let req = request(op, &mut rng, genes);
            let t = Instant::now();
            let resp = std::hint::black_box(snap.answer(std::hint::black_box(&req)));
            us.push(t.elapsed().as_secs_f64() * 1e6);
            for b in resp.encode_frame() {
                h = fnv_mix(h, b as u64);
            }
        }
        per_op.push(median(&us));
    }
    (h, per_op)
}

fn run_dir(cfg: &Config) -> PathBuf {
    cfg.workdir
        .join(format!("serve-{}-{}", std::process::id(), cfg.seed))
}

/// Run `serve-yng` for `cfg.seconds`.
pub fn run(cfg: &Config) -> Outcome {
    let dir = run_dir(cfg);
    std::fs::create_dir_all(&dir).expect("create the run's checkpoint directory");
    let checkpoint = dir.join("checkpoint.csbn");
    let log: CheckpointLog = Arc::default();
    let (setup_s, su) = repeated_setup(|| setup(cfg.seed, crate::PAPER_SCALE, &checkpoint, &log));
    let Setup {
        mut engine,
        listener,
        genes,
    } = su;
    let mut out = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let registry = engine.registry();
    let total_windows = engine.remaining_windows();
    let final_epoch = registry.epoch() + total_windows as u64;
    let period = Duration::from_secs_f64(cfg.seconds / total_windows.max(1) as f64);
    let addr = listener.local_addr().expect("listener address");
    let clients = std::thread::available_parallelism().map_or(2, |n| n.get());
    let shutdown = AtomicBool::new(false);
    if cfg.trace {
        trace::set_enabled(true);
        casbn_obs::set_enabled(true);
    }
    let fsyncs_before = casbn_obs::snapshot();

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let (logs, windows, served) = std::thread::scope(|s| {
        let server = s.spawn(|| {
            serve_tcp(
                registry.clone(),
                listener,
                &SessionConfig::default(),
                &shutdown,
            )
        });
        let writer = s.spawn(|| writer(&mut engine, start, period, cfg.trace));
        let readers: Vec<_> = (0..clients as u64)
            .map(|id| {
                let ctx = ClientCtx {
                    id,
                    addr,
                    genes,
                    seed: cfg.seed,
                    deadline,
                    registry: &registry,
                    final_epoch,
                    traced: cfg.trace,
                };
                s.spawn(move || client(&ctx))
            })
            .collect();
        let logs: Vec<ClientLog> = readers
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        let windows = writer.join().expect("writer thread");
        shutdown.store(true, Ordering::Relaxed);
        let served = server.join().expect("server thread");
        (logs, windows, served)
    });
    let measured = start.elapsed().as_secs_f64();
    let fsyncs = obs_delta(&fsyncs_before, &casbn_obs::snapshot(), "io.fsyncs");
    trace::set_enabled(false);
    casbn_obs::set_enabled(false);

    let file_bytes = std::fs::metadata(&checkpoint).map_or(0, |m| m.len());
    // the append path grows the file by a full checkpoint per window
    if let Err(e) = std::fs::remove_dir_all(&dir) {
        out.report
            .push(format!("could not remove {}: {e}", dir.display()));
    }

    out.record_check("server ran", served.is_ok());
    let windows = match windows {
        Ok(w) => w,
        Err(e) => {
            out.record_check(&format!("writer: {e}"), false);
            Vec::new()
        }
    };
    out.record_check(
        "writer ingested every window",
        registry.epoch() == final_epoch,
    );

    // untimed output checks against the final snapshot
    let snap = registry.acquire();
    let (mut mismatches, mut mismatched_in_time) = (0u64, 0u64);
    for l in &logs {
        for (req, payload, in_time) in &l.final_answers {
            if snap.answer(req).encode_payload() != *payload {
                mismatches += 1;
                mismatched_in_time += u64::from(*in_time);
            }
        }
    }
    let (probe_sum, answer_us) = probe(&snap, cfg.seed, genes);
    out.record_check(
        "final-snapshot probe checksum",
        crate::pinned_ok(cfg, probe_sum, PINNED_PROBES),
    );
    out.report.push(format!(
        "serve-yng probe checksum {probe_sum}, stream checksum {}",
        engine.stream_checksum()
    ));

    for l in &logs {
        out.attempted += l.attempted;
        out.ok_ops += l.answered_ok;
        out.failed += l.failed + l.undecodable;
        out.check_failures += l.undecodable;
        out.op_ms.extend_from_slice(&l.latencies_ms);
    }
    // a mismatch turns an answer into a failure, and one that came in
    // time had counted as a success
    out.ok_ops -= mismatched_in_time;
    out.failed += mismatches;
    out.check_failures += mismatches;
    out.measured_s = measured;
    let timeouts: u64 = logs.iter().map(|l| l.timeouts).sum();
    let reconnects: u64 = logs.iter().map(|l| l.reconnects).sum();
    let late: u64 = logs.iter().map(|l| l.late).sum();
    let checked: usize = logs.iter().map(|l| l.final_answers.len()).sum();
    out.report.push(format!(
        "serve-yng {clients} clients, {} windows, {timeouts} timeouts, {late} late answers, \
         {reconnects} reconnects, {checked} final-snapshot answers checked ({mismatches} mismatched)",
        windows.len()
    ));

    if cfg.trace {
        let spans = trace::take();
        let ckpts = log.lock().expect("checkpoint log lock").clone();
        let window_ms: Vec<f64> = windows.iter().map(|w| w.ms).collect();
        let rotation: Vec<f64> = windows
            .iter()
            .zip(&ckpts)
            .map(|(w, c)| w.ms - w.driver_ms - c.ms)
            .collect();
        let coverage: Vec<f64> = windows
            .iter()
            .zip(&ckpts)
            .map(|(w, c)| (w.driver_ms + c.ms) / w.ms)
            .collect();
        out.layer("serve.window_p50_ms", median(&window_ms));
        out.layer("serve.window_p90_ms", percentile(&window_ms, 90.0));
        out.layer("serve.rotation_ms", median(&rotation));
        out.layer(
            "store.checkpoint_ms",
            median(&ckpts.iter().map(|c| c.ms).collect::<Vec<_>>()),
        );
        out.layer(
            "store.checkpoint_bytes",
            median(&ckpts.iter().map(|c| c.bytes as f64).collect::<Vec<_>>()),
        );
        out.layer("store.file_bytes", file_bytes as f64);
        out.layer("store.fsyncs", fsyncs as f64);
        out.layer(
            "stream.comoment_updates",
            median(
                &windows
                    .iter()
                    .map(|w| w.comoments as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        out.layer(
            "stream.scan_pairs",
            median(&windows.iter().map(|w| w.scans as f64).collect::<Vec<_>>()),
        );
        for (name, us) in ANSWER_METRICS.into_iter().zip(answer_us) {
            out.layer(name, us);
        }
        let traced: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.rtt_traced_ms.iter().copied())
            .collect();
        let untraced: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.rtt_untraced_ms.iter().copied())
            .collect();
        let all: Vec<f64> = traced.iter().chain(&untraced).copied().collect();
        out.layer("serve.burst_rtt_ms", median(&all));
        out.layer("serve.timeouts", timeouts as f64);
        out.layer("serve.reconnects", reconnects as f64);
        let times = crate::LoopTimes {
            traced_ms: traced,
            untraced_ms: untraced,
        };
        crate::finish_trace(&mut out, spans, "serve.window", &times);
        // the driver's part of a window is an obs span inside the
        // engine, not a benchmark span, so coverage is taken from it
        out.layer("trace.layer_coverage", median(&coverage));
    }
    out
}

/// Deterministic counts of ingesting every window with checkpoints,
/// without the TCP front: stream checksum, checkpoint file size, the
/// final snapshot's probe checksum and the obs counters.
pub fn fingerprint(seed: u64, scale: f64, workdir: &Path) -> Vec<(String, u64)> {
    let dir = workdir.join(format!("serve-fp-{}-{seed}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the fingerprint directory");
    let checkpoint = dir.join("checkpoint.csbn");
    let log: CheckpointLog = Arc::default();
    let mut engine = engine(seed, scale, &checkpoint, &log);
    let genes = engine.snapshot().network().n();
    casbn_obs::set_enabled(true);
    let before = casbn_obs::snapshot();
    let n = engine.remaining_windows();
    engine.ingest_windows(n).expect("ingest every window");
    let (probe_sum, _) = probe(&engine.snapshot(), seed, genes);
    let mut fp = crate::obs_fingerprint(&before);
    casbn_obs::set_enabled(false);
    let file_bytes = std::fs::metadata(&checkpoint).map_or(0, |m| m.len());
    let _ = std::fs::remove_dir_all(&dir);
    fp.extend([
        ("stream_checksum".to_string(), engine.stream_checksum()),
        ("checkpoint_file_bytes".to_string(), file_bytes),
        ("probe_checksum".to_string(), probe_sum),
    ]);
    fp
}
