//! Zero-dependency observability for the chebymc workspace.
//!
//! The crate exposes a process-wide event sink that records **spans**
//! (RAII-guarded intervals with monotonic nanosecond timestamps),
//! **counters** (monotone `u64` accumulators), **values** (raw `f64`
//! samples, e.g. per-generation GA fitness) and **histograms** (`f64`
//! samples bucketed into fixed log-scale, power-of-two buckets), and
//! writes them as schema-versioned JSONL — one self-contained JSON
//! object per line.
//!
//! # No-op mode
//!
//! Until [`init_file`] or [`init_writer`] installs a writer, every
//! recording call short-circuits on a single `Relaxed` atomic load and
//! allocates nothing, so instrumentation left in hot paths costs nothing
//! measurable when tracing is off.
//!
//! # Thread safety
//!
//! Events land in per-thread buffers (registered in a global registry on
//! first use), so the unit lanes of `mc-par` record without contending
//! on a shared lock. Buffers drain through a single writer — on
//! [`flush`], on [`shutdown`], or when a thread's buffer crosses an
//! internal threshold — so emitted lines never interleave. Per-thread
//! event order is preserved; events from different threads are ordered
//! only by their timestamps.
//!
//! # Quickstart
//!
//! ```
//! let sink = mc_obs::SharedBuffer::default();
//! mc_obs::init_writer(Box::new(sink.clone())).unwrap();
//! {
//!     let _span = mc_obs::span("demo.work");
//!     mc_obs::counter("demo.items", 3);
//!     mc_obs::record_f64("demo.latency_ns", 1500.0);
//! }
//! mc_obs::shutdown().unwrap();
//! let summary = mc_obs::summary::TraceSummary::parse(&sink.take_string()).unwrap();
//! assert_eq!(summary.counter_total("demo.items"), 3);
//! assert_eq!(summary.span_count("demo.work"), 1);
//! ```

#![warn(missing_docs)]

pub mod summary;

use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Version stamped into the `meta` record at the head of every trace.
///
/// Bump when the line format changes incompatibly; [`summary::TraceSummary::parse`]
/// rejects traces with a different major schema.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Number of fixed log-scale histogram buckets.
///
/// Bucket `0` holds samples below `1.0` (and any non-finite or negative
/// sample); bucket `i >= 1` holds samples in `[2^(i-1), 2^i)`, with the
/// last bucket open-ended.
pub const HIST_BUCKETS: usize = 64;

/// Flush a thread's buffer to the writer once it holds this many events.
const AUTO_FLUSH_EVENTS: usize = 4096;

/// Errors from the observability layer.
#[derive(Debug)]
pub enum ObsError {
    /// The underlying writer failed.
    Io(std::io::Error),
    /// `init_*` was called while a writer is already installed.
    AlreadyInstalled,
    /// A trace file could not be parsed; carries the 1-based line number
    /// and a reason.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of the problem.
        reason: String,
    },
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::Io(e) => write!(f, "trace i/o error: {e}"),
            ObsError::AlreadyInstalled => {
                write!(
                    f,
                    "a trace writer is already installed; call shutdown() first"
                )
            }
            ObsError::Parse { line, reason } => {
                write!(f, "trace parse error at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ObsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ObsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ObsError {
    fn from(e: std::io::Error) -> Self {
        ObsError::Io(e)
    }
}

/// Maps a sample to its log-scale bucket: `0` for anything below `1.0`
/// (including negatives and non-finite values), else `floor(log2(v)) + 1`
/// clamped to the last bucket.
#[must_use]
pub fn bucket_index(v: f64) -> usize {
    // NaN, negatives and sub-1.0 samples all land in the underflow bucket.
    if v.is_nan() || v < 1.0 {
        return 0;
    }
    if v == f64::INFINITY {
        return HIST_BUCKETS - 1;
    }
    let exp = v.log2().floor() as i64 + 1;
    exp.clamp(1, (HIST_BUCKETS - 1) as i64) as usize
}

/// Inclusive lower edge of bucket `i`: `0.0` for the underflow bucket,
/// else `2^(i-1)`.
#[must_use]
pub fn bucket_floor(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        2f64.powi((i - 1) as i32)
    }
}

/// One buffered event. Counters and histograms are pre-aggregated per
/// thread (see [`ThreadEvents`]) rather than buffered per call.
enum Event {
    Span {
        name: &'static str,
        t0: u64,
        t1: u64,
    },
    Value {
        name: &'static str,
        t: u64,
        v: f64,
    },
}

/// Per-thread event storage. Spans/values keep arrival order; counters
/// and histograms accumulate into small linear-scan tables (the
/// instrumentation uses a handful of distinct names, so a `Vec` beats a
/// hash map here and keeps the crate dependency-free).
#[derive(Default)]
struct ThreadEvents {
    events: Vec<Event>,
    counters: Vec<(&'static str, u64)>,
    hists: Vec<(&'static str, Box<[u64; HIST_BUCKETS]>)>,
}

impl ThreadEvents {
    fn is_empty(&self) -> bool {
        self.events.is_empty() && self.counters.is_empty() && self.hists.is_empty()
    }
}

struct ThreadBuf {
    tid: u64,
    events: Mutex<ThreadEvents>,
}

struct Global {
    start: Instant,
    /// Lock order: `writer` before any `ThreadBuf::events`. Threads
    /// recording events take only their own `events` lock, so recording
    /// never contends with other threads except during a drain.
    writer: Mutex<Option<Box<dyn Write + Send>>>,
    threads: Mutex<Vec<Arc<ThreadBuf>>>,
    next_tid: AtomicU64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Global> = OnceLock::new();

fn global() -> &'static Global {
    GLOBAL.get_or_init(|| Global {
        start: Instant::now(),
        writer: Mutex::new(None),
        threads: Mutex::new(Vec::new()),
        next_tid: AtomicU64::new(0),
    })
}

/// A poisoned mutex only means an instrumented thread panicked mid-record;
/// the protected data is plain event storage, so keep going.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    static LOCAL: Arc<ThreadBuf> = {
        let g = global();
        let buf = Arc::new(ThreadBuf {
            tid: g.next_tid.fetch_add(1, Ordering::Relaxed),
            events: Mutex::new(ThreadEvents::default()),
        });
        lock(&g.threads).push(Arc::clone(&buf));
        buf
    };
}

/// True while a writer is installed. Hot paths may use this to skip
/// computing event payloads; every recording call also checks it.
#[inline(always)]
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the process-wide trace clock started (first use of
/// the sink). Monotonic; shared by every thread.
#[must_use]
pub fn now_ns() -> u64 {
    global().start.elapsed().as_nanos() as u64
}

/// Installs a writer and enables recording. Writes the schema `meta`
/// header line. Fails with [`ObsError::AlreadyInstalled`] if a writer is
/// active; stale events buffered since the last [`shutdown`] are
/// discarded so a new trace starts clean.
pub fn init_writer(w: Box<dyn Write + Send>) -> Result<(), ObsError> {
    let g = global();
    let mut writer = lock(&g.writer);
    if writer.is_some() {
        return Err(ObsError::AlreadyInstalled);
    }
    for buf in lock(&g.threads).iter() {
        let mut ev = lock(&buf.events);
        *ev = ThreadEvents::default();
    }
    let mut w = w;
    writeln!(w, "{{\"k\":\"meta\",\"schema\":{TRACE_SCHEMA_VERSION}}}")?;
    *writer = Some(w);
    ENABLED.store(true, Ordering::SeqCst);
    Ok(())
}

/// Creates (truncates) `path` and installs a buffered file writer.
pub fn init_file(path: &Path) -> Result<(), ObsError> {
    let file = File::create(path)?;
    init_writer(Box::new(BufWriter::new(file)))
}

/// Drains every thread buffer through the writer and flushes it.
/// A no-op when no writer is installed.
pub fn flush() -> Result<(), ObsError> {
    let g = global();
    let mut writer = lock(&g.writer);
    if let Some(w) = writer.as_mut() {
        drain_all(g, w)?;
        w.flush()?;
    }
    Ok(())
}

/// Disables recording, drains every buffer, flushes and drops the
/// writer. After shutdown a new trace may be started with `init_*`.
pub fn shutdown() -> Result<(), ObsError> {
    ENABLED.store(false, Ordering::SeqCst);
    let g = global();
    let mut writer = lock(&g.writer);
    let res = match writer.as_mut() {
        Some(w) => drain_all(g, w).and_then(|()| w.flush().map_err(ObsError::from)),
        None => Ok(()),
    };
    *writer = None;
    res
}

fn drain_all(g: &Global, w: &mut (dyn Write + Send)) -> Result<(), ObsError> {
    let threads = lock(&g.threads);
    for buf in threads.iter() {
        let drained = {
            let mut ev = lock(&buf.events);
            if ev.is_empty() {
                continue;
            }
            std::mem::take(&mut *ev)
        };
        write_events(w, buf.tid, &drained)?;
    }
    Ok(())
}

fn write_events(w: &mut (dyn Write + Send), tid: u64, ev: &ThreadEvents) -> Result<(), ObsError> {
    let mut line = String::with_capacity(128);
    for e in &ev.events {
        line.clear();
        match e {
            Event::Span { name, t0, t1 } => {
                line.push_str("{\"k\":\"span\",\"name\":");
                push_json_str(&mut line, name);
                line.push_str(&format!(",\"tid\":{tid},\"t0\":{t0},\"t1\":{t1}}}"));
            }
            Event::Value { name, t, v } => {
                line.push_str("{\"k\":\"val\",\"name\":");
                push_json_str(&mut line, name);
                line.push_str(&format!(",\"tid\":{tid},\"t\":{t},\"v\":"));
                push_json_f64(&mut line, *v);
                line.push('}');
            }
        }
        writeln!(w, "{line}")?;
    }
    for (name, n) in &ev.counters {
        line.clear();
        line.push_str("{\"k\":\"ctr\",\"name\":");
        push_json_str(&mut line, name);
        line.push_str(&format!(",\"tid\":{tid},\"n\":{n}}}"));
        writeln!(w, "{line}")?;
    }
    for (name, buckets) in &ev.hists {
        line.clear();
        line.push_str("{\"k\":\"hist\",\"name\":");
        push_json_str(&mut line, name);
        line.push_str(&format!(",\"tid\":{tid},\"buckets\":["));
        let mut first = true;
        for (i, &count) in buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if !first {
                line.push(',');
            }
            first = false;
            line.push_str(&format!("[{i},{count}]"));
        }
        line.push_str("]}");
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Appends `s` as a JSON string literal. Instrumentation names are plain
/// ASCII identifiers, but escape defensively so the output always parses.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number. Rust's shortest-roundtrip `{}` format
/// for finite doubles is valid JSON except that integral values print
/// without a fraction — which JSON also allows.
fn push_json_f64(out: &mut String, v: f64) {
    debug_assert!(
        v.is_finite(),
        "non-finite values are filtered before buffering"
    );
    out.push_str(&format!("{v}"));
}

/// Runs `f` against the calling thread's buffer, then auto-flushes the
/// buffer if it grew past the threshold. Never panics during thread
/// teardown (events recorded from TLS destructors are dropped).
fn with_local(f: impl FnOnce(&mut ThreadEvents)) {
    let _ = LOCAL.try_with(|buf| {
        let over = {
            let mut ev = lock(&buf.events);
            f(&mut ev);
            ev.events.len() >= AUTO_FLUSH_EVENTS
        };
        if over {
            // Respect the writer -> events lock order: re-acquire under
            // the writer lock. I/O errors here cannot propagate (we may
            // be inside a Drop); the final flush()/shutdown() reports them.
            let g = global();
            let mut writer = lock(&g.writer);
            if let Some(w) = writer.as_mut() {
                let drained = std::mem::take(&mut *lock(&buf.events));
                let _ = write_events(w.as_mut(), buf.tid, &drained);
            }
        }
    });
}

/// RAII span guard: measures from [`span`] to drop and records one
/// `span` event on the calling thread. Safe to create on any thread,
/// including `mc-par` lanes. If tracing is disabled when the guard is
/// created — or shut down before it drops — nothing is recorded.
#[must_use = "a span measures until dropped; binding it to `_` ends it immediately"]
pub struct Scope {
    open: Option<(&'static str, u64)>,
}

impl Scope {
    /// A guard that records nothing; what [`span`] returns when disabled.
    pub const fn disabled() -> Self {
        Scope { open: None }
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if let Some((name, t0)) = self.open.take() {
            if !is_enabled() {
                return;
            }
            let t1 = now_ns();
            with_local(|ev| ev.events.push(Event::Span { name, t0, t1 }));
        }
    }
}

/// Opens a span named `name`, closed when the returned guard drops.
#[inline]
pub fn span(name: &'static str) -> Scope {
    if !is_enabled() {
        return Scope::disabled();
    }
    Scope {
        open: Some((name, now_ns())),
    }
}

/// Adds `delta` to the process-wide counter `name`.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !is_enabled() || delta == 0 {
        return;
    }
    with_local(|ev| {
        if let Some(slot) = ev.counters.iter_mut().find(|(n, _)| *n == name) {
            slot.1 += delta;
        } else {
            ev.counters.push((name, delta));
        }
    });
}

/// Records one raw `f64` sample under `name` (a `val` event with its own
/// timestamp). Non-finite samples are dropped — JSON cannot carry them.
#[inline]
pub fn value(name: &'static str, v: f64) {
    if !is_enabled() || !v.is_finite() {
        return;
    }
    let t = now_ns();
    with_local(|ev| ev.events.push(Event::Value { name, t, v }));
}

/// Adds one sample to the log-scale histogram `name` (see
/// [`bucket_index`] for the bucket layout).
#[inline]
pub fn record_f64(name: &'static str, v: f64) {
    if !is_enabled() {
        return;
    }
    let idx = bucket_index(v);
    with_local(|ev| {
        if let Some((_, buckets)) = ev.hists.iter_mut().find(|(n, _)| *n == name) {
            buckets[idx] += 1;
        } else {
            let mut buckets = Box::new([0u64; HIST_BUCKETS]);
            buckets[idx] += 1;
            ev.hists.push((name, buckets));
        }
    });
}

/// A cloneable in-memory `Write` sink, for capturing traces in tests and
/// benchmarks without touching the filesystem.
#[derive(Clone, Default)]
pub struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the buffered bytes as a string, leaving the buffer empty.
    /// Non-UTF-8 bytes are replaced (the sink only ever writes ASCII).
    #[must_use]
    pub fn take_string(&self) -> String {
        let bytes = std::mem::take(&mut *lock(&self.0));
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        lock(&self.0).extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::TraceSummary;

    /// The sink is process-global; tests that install a writer must not
    /// overlap. (Library users get the same guarantee from
    /// `AlreadyInstalled`; tests want determinism, not errors.)
    fn sink_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock(&LOCK)
    }

    #[test]
    fn bucket_index_layout() {
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(0.999), 0);
        assert_eq!(bucket_index(1.0), 1);
        assert_eq!(bucket_index(1.999), 1);
        assert_eq!(bucket_index(2.0), 2);
        assert_eq!(bucket_index(1024.0), 11);
        assert_eq!(bucket_index(f64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_index(f64::INFINITY), HIST_BUCKETS - 1);
        for i in 0..HIST_BUCKETS {
            assert_eq!(
                bucket_index(bucket_floor(i)),
                i,
                "floor of bucket {i} maps back"
            );
        }
    }

    #[test]
    fn disabled_mode_records_nothing() {
        let _guard = sink_lock();
        assert!(!is_enabled());
        {
            let _span = span("noop.section");
            counter("noop.counter", 7);
            record_f64("noop.hist", 3.5);
            value("noop.val", 1.0);
        }
        // Install a writer afterwards: the trace must start clean.
        let sink = SharedBuffer::new();
        init_writer(Box::new(sink.clone())).unwrap();
        shutdown().unwrap();
        let text = sink.take_string();
        assert_eq!(text.lines().count(), 1, "only the meta header: {text}");
        assert!(text.contains("\"schema\":1"));
    }

    #[test]
    fn events_round_trip_through_the_summary_parser() {
        let _guard = sink_lock();
        let sink = SharedBuffer::new();
        init_writer(Box::new(sink.clone())).unwrap();
        {
            let _outer = span("rt.outer");
            for i in 0..10 {
                let _inner = span("rt.inner");
                counter("rt.count", 2);
                record_f64("rt.hist_ns", 1000.0 * (i + 1) as f64);
            }
            value("rt.best", 0.75);
            value("rt.best", f64::NAN); // dropped
        }
        shutdown().unwrap();
        let text = sink.take_string();
        let s = TraceSummary::parse(&text).unwrap();
        assert_eq!(s.schema, TRACE_SCHEMA_VERSION);
        assert_eq!(s.span_count("rt.inner"), 10);
        assert_eq!(s.span_count("rt.outer"), 1);
        assert!(s.span_total_ns("rt.outer") >= s.span_total_ns("rt.inner"));
        assert_eq!(s.counter_total("rt.count"), 20);
        let hist = s.hists.iter().find(|h| h.name == "rt.hist_ns").unwrap();
        assert_eq!(hist.count, 10);
        let val = s.values.iter().find(|v| v.name == "rt.best").unwrap();
        assert_eq!(val.count, 1, "non-finite samples never reach the trace");
        assert!((val.last - 0.75).abs() < 1e-12);
    }

    #[test]
    fn double_init_is_rejected_and_reinit_after_shutdown_works() {
        let _guard = sink_lock();
        let first = SharedBuffer::new();
        init_writer(Box::new(first.clone())).unwrap();
        assert!(matches!(
            init_writer(Box::new(SharedBuffer::new())),
            Err(ObsError::AlreadyInstalled)
        ));
        shutdown().unwrap();
        let second = SharedBuffer::new();
        init_writer(Box::new(second.clone())).unwrap();
        counter("reinit.count", 1);
        shutdown().unwrap();
        let text = second.take_string();
        assert!(
            text.contains("reinit.count"),
            "second trace records: {text}"
        );
    }

    #[test]
    fn worker_threads_flush_through_one_writer_without_interleaving() {
        let _guard = sink_lock();
        let sink = SharedBuffer::new();
        init_writer(Box::new(sink.clone())).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..2000 {
                        let _s = span("mt.task");
                        counter("mt.done", 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        shutdown().unwrap();
        let text = sink.take_string();
        for (i, line) in text.lines().enumerate() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "line {} is a whole JSON object: {line:?}",
                i + 1
            );
        }
        let s = TraceSummary::parse(&text).unwrap();
        assert_eq!(s.span_count("mt.task"), 8000);
        assert_eq!(s.counter_total("mt.done"), 8000);
        let tids: std::collections::BTreeSet<u64> = s
            .spans
            .iter()
            .flat_map(|st| st.tids.iter().copied())
            .collect();
        assert!(
            tids.len() >= 4,
            "each worker thread got its own tid: {tids:?}"
        );
    }
}
