//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer crate. A span has a name, start and end (nanoseconds
//! since the recorder's origin), the id of the span that was open on
//! the same thread when it started (its parent), and an optional
//! request id (serve bursts). Records stay in memory until [`take`],
//! and the run writes them to a file when it ends.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Unique id (1-based).
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// Layer-qualified name, e.g. `expr.pearson`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Request id shared by the spans of one serve burst.
    pub request: Option<u64>,
}

impl SpanRecord {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

// Relaxed suffices: the flag publishes no data, and records are handed
// over through the `SPANS` mutex.
static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// Turn recording on or off; returns the previous state.
pub fn set_enabled(on: bool) -> bool {
    origin();
    ON.swap(on, Ordering::Relaxed)
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// An open span; it is recorded when dropped. Inert while recording is
/// off.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    request: Option<u64>,
}

/// Open a span named `name`.
pub fn span(name: &'static str) -> Span {
    open(name, None)
}

/// Open a span that carries request id `request`.
pub fn span_request(name: &'static str, request: u64) -> Span {
    open(name, Some(request))
}

fn open(name: &'static str, request: Option<u64>) -> Span {
    if !enabled() {
        return Span {
            id: 0,
            parent: 0,
            name,
            start_ns: 0,
            request,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Span {
        id,
        parent,
        name,
        start_ns: now_ns(),
        request,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == self.id) {
                s.truncate(pos);
            }
        });
        let rec = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            request: self.request,
        };
        // a poisoned lock only means another thread panicked mid-push;
        // the vector itself is still valid
        let mut spans = SPANS.lock().unwrap_or_else(|e| e.into_inner());
        spans.push(rec);
    }
}

/// Run `f` inside a span named `name`.
pub fn within<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _s = span(name);
    f()
}

/// Remove and return every recorded span, ordered by start.
pub fn take() -> Vec<SpanRecord> {
    let mut spans = std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Durations (ms) of every span named `name`.
pub fn durations_ms(spans: &[SpanRecord], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ms())
        .collect()
}

/// For every span named `root`: the share of its duration covered by
/// its direct children.
pub fn child_coverage(spans: &[SpanRecord], root: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == root && s.end_ns > s.start_ns)
        .map(|r| {
            let covered: u64 = spans
                .iter()
                .filter(|c| c.parent == r.id)
                .map(|c| c.end_ns - c.start_ns)
                .sum();
            covered as f64 / (r.end_ns - r.start_ns) as f64
        })
        .collect()
}

/// Render spans as a JSON array, one object per line.
pub fn to_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let request = s.request.map_or("null".to_string(), |r| r.to_string());
        out.push_str(&format!(
            "  {{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}{}\n",
            s.id,
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent,
            request,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out.push('\n');
    out
}
