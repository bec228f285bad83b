//! The timing `UnitRunner` wrapper and the process watchdog.
//!
//! [`Timed`] wraps any runner: it stamps each unit's entry and exit on the
//! session clock, turns a panicking unit into an `ExpError` with
//! `catch_unwind`, and fails a unit that ran past its wall limit. The
//! [`Watchdog`] covers the case the wrapper cannot: a unit that never
//! returns. It then prints a failed result and ends the process.

use mc_exp::{ExpError, Metric, UnitRunner, WorkUnit};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Wall limit of one unit. A known mc-sched defect (see NOTES.md) makes
/// `easwaran_demand` admission spin past 20 s on some `policy_arena` sets.
pub const UNIT_LIMIT: Duration = Duration::from_secs(20);

/// Wall limit of the whole process, below the 180 s a run may take.
pub const PROCESS_LIMIT: Duration = Duration::from_secs(165);

/// One unit as the wrapper saw it, on the session clock.
#[derive(Debug, Clone, Copy)]
pub struct UnitTiming {
    /// Dense index of the worker thread that ran the unit.
    pub thread: usize,
    /// Nanoseconds from session start to entering `run_unit`.
    pub entry_ns: u64,
    /// Nanoseconds from session start to returning from it.
    pub exit_ns: u64,
}

impl UnitTiming {
    /// Time spent inside `run_unit`.
    pub fn busy_ns(&self) -> u64 {
        self.exit_ns - self.entry_ns
    }
}

/// A `UnitRunner` that times, and fails safely, every unit of `inner`.
pub struct Timed<'a> {
    inner: &'a dyn UnitRunner,
    watch: &'a Watchdog,
    limit: Duration,
    origin: Instant,
    threads: Mutex<Vec<ThreadId>>,
    log: Mutex<Vec<UnitTiming>>,
    failures: Mutex<Vec<String>>,
}

impl<'a> Timed<'a> {
    /// Wraps `inner`; the session clock starts now.
    pub fn new(inner: &'a dyn UnitRunner, watch: &'a Watchdog, limit: Duration) -> Self {
        Timed {
            inner,
            watch,
            limit,
            origin: Instant::now(),
            threads: Mutex::new(Vec::new()),
            log: Mutex::new(Vec::new()),
            failures: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the session clock started.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The per-unit timings and failure messages, in completion order.
    pub fn finish(self) -> (Vec<UnitTiming>, Vec<String>) {
        (
            self.log.into_inner().expect("timing log poisoned"),
            self.failures.into_inner().expect("failure log poisoned"),
        )
    }

    fn thread_index(&self) -> usize {
        let id = std::thread::current().id();
        let mut threads = self.threads.lock().expect("thread table poisoned");
        threads.iter().position(|&t| t == id).unwrap_or_else(|| {
            threads.push(id);
            threads.len() - 1
        })
    }
}

impl UnitRunner for Timed<'_> {
    fn run_unit(&self, unit: &WorkUnit, inner_threads: usize) -> Result<Vec<Metric>, ExpError> {
        let thread = self.thread_index();
        let token = self.watch.enter(unit.index);
        let entry_ns = self.now_ns();
        let result = catch_unwind(AssertUnwindSafe(|| {
            self.inner.run_unit(unit, inner_threads)
        }));
        let exit_ns = self.now_ns();
        self.watch.leave(token);
        self.log
            .lock()
            .expect("timing log poisoned")
            .push(UnitTiming {
                thread,
                entry_ns,
                exit_ns,
            });
        let result = match result {
            Ok(r) => r,
            Err(payload) => Err(ExpError::Config(format!(
                "unit {} panicked: {}",
                unit.index,
                panic_message(payload.as_ref())
            ))),
        };
        let result = if Duration::from_nanos(exit_ns - entry_ns) > self.limit {
            Err(ExpError::Config(format!(
                "unit {} exceeded its wall limit of {:?}",
                unit.index, self.limit
            )))
        } else {
            result
        };
        if let Err(e) = &result {
            self.watch.failed.fetch_add(1, Ordering::Relaxed);
            self.failures
                .lock()
                .expect("failure log poisoned")
                .push(e.to_string());
        }
        result
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Process-wide unit accounting plus the hung-unit escape hatch.
pub struct Watchdog {
    start: Instant,
    next: AtomicU64,
    inflight: Mutex<BTreeMap<u64, (usize, Instant)>>,
    /// Units entered, across every session of the process.
    pub attempted: AtomicU64,
    /// Units that failed (error, panic or wall limit), across sessions.
    pub failed: AtomicU64,
    /// Metric names and units of the result line, printed as zeros when
    /// the watchdog ends the process.
    metrics: Vec<(&'static str, &'static str)>,
    work_dir: PathBuf,
}

impl Watchdog {
    /// An idle watchdog: it counts units but watches nothing until
    /// [`Watchdog::spawn`].
    pub fn new(metrics: Vec<(&'static str, &'static str)>, work_dir: PathBuf) -> Self {
        Watchdog {
            start: Instant::now(),
            next: AtomicU64::new(0),
            inflight: Mutex::new(BTreeMap::new()),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            metrics,
            work_dir,
        }
    }

    /// Starts a watchdog thread. It runs until the process ends; when a
    /// unit exceeds [`UNIT_LIMIT`] or the process exceeds
    /// [`PROCESS_LIMIT`], it prints a failed result, removes `work_dir`
    /// and exits, which also ends the stuck worker.
    pub fn spawn(metrics: Vec<(&'static str, &'static str)>, work_dir: PathBuf) -> Arc<Self> {
        let watch = Arc::new(Watchdog::new(metrics, work_dir));
        let w = Arc::clone(&watch);
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(50));
            if let Some(reason) = w.verdict() {
                w.abandon(&reason);
            }
        });
        watch
    }

    fn enter(&self, unit: usize) -> u64 {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        let token = self.next.fetch_add(1, Ordering::Relaxed);
        self.inflight
            .lock()
            .expect("in-flight table poisoned")
            .insert(token, (unit, Instant::now()));
        token
    }

    fn leave(&self, token: u64) {
        self.inflight
            .lock()
            .expect("in-flight table poisoned")
            .remove(&token);
    }

    /// Why the process must stop now, if it must.
    fn verdict(&self) -> Option<String> {
        let inflight = self.inflight.lock().expect("in-flight table poisoned");
        let stuck: Vec<usize> = inflight
            .values()
            .filter(|(_, t)| t.elapsed() > UNIT_LIMIT)
            .map(|&(u, _)| u)
            .collect();
        if !stuck.is_empty() {
            self.failed.fetch_add(stuck.len() as u64, Ordering::Relaxed);
            return Some(format!(
                "unit(s) {stuck:?} did not return within the {UNIT_LIMIT:?} unit wall limit"
            ));
        }
        (self.start.elapsed() > PROCESS_LIMIT).then(|| {
            self.failed
                .fetch_add(inflight.len() as u64, Ordering::Relaxed);
            format!("the run exceeded its {PROCESS_LIMIT:?} wall limit")
        })
    }

    fn abandon(&self, reason: &str) -> ! {
        println!("perfbench: FAILED: {reason}; abandoning the run");
        println!(
            "{}",
            result_line(
                false,
                self.attempted.load(Ordering::Relaxed).max(1),
                self.failed.load(Ordering::Relaxed),
                &self
                    .metrics
                    .iter()
                    .map(|&(name, unit)| (name, 0.0, unit))
                    .collect::<Vec<_>>(),
            )
        );
        let _ = std::fs::remove_dir_all(&self.work_dir);
        std::process::exit(0);
    }
}

/// The final JSON result line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
