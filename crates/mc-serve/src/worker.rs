//! The worker loop: connect (with retry), execute assigned leases through
//! [`mc_exp::run_units`], stream records back in unit order, survive
//! coordinator restarts by reconnecting.
//!
//! A worker is stateless between sessions: every `Assign` carries the
//! full spec (the runner is rebuilt from it) and the lease's
//! already-complete units, so a worker that reconnects — to the same
//! coordinator or a restarted one — needs no local history. The only
//! state that spans reconnects is the retry budget and the
//! simulated-death record counter.

use crate::wire::{read_frame, write_frame, Message};
use crate::ServeError;
use mc_exp::run::{run_units, Shard};
use mc_exp::spec::WorkUnit;
use mc_exp::{CampaignSpec, ExpError, UnitRunner};
use std::collections::BTreeSet;
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Builds the unit runner for a spec received in an `Assign`. The CLI
/// uses [`CatalogFactory`] (specs must name catalog campaigns); tests
/// hand in seed-pure closures.
pub trait RunnerFactory: Sync {
    /// Builds a runner that will compute this spec's units.
    ///
    /// # Errors
    ///
    /// Specs this factory cannot reconstruct a runner for.
    fn runner_for(
        &self,
        spec: &CampaignSpec,
    ) -> Result<Box<dyn UnitRunner + Send + Sync>, ExpError>;
}

/// The production factory: rebuilds catalog campaigns via
/// [`mc_exp::catalog::rebuild`], which verifies the received spec is
/// fingerprint-identical to what the catalog produces.
#[derive(Debug, Clone, Copy, Default)]
pub struct CatalogFactory;

impl RunnerFactory for CatalogFactory {
    fn runner_for(
        &self,
        spec: &CampaignSpec,
    ) -> Result<Box<dyn UnitRunner + Send + Sync>, ExpError> {
        Ok(mc_exp::catalog::rebuild(spec)?.runner)
    }
}

/// Where the coordinator lives. `File` re-reads the path on every
/// connection attempt, so a restarted coordinator on a new port is found
/// by rewriting one file; `Shared` is the in-process equivalent for the
/// cluster harness.
///
/// A source that resolves to *nothing* (missing/empty file, blank cell)
/// means the address has been withdrawn: the worker exits cleanly rather
/// than burning its retry budget — emptying the address file is how an
/// operator decommissions a worker fleet.
#[derive(Debug, Clone)]
pub enum AddrSource {
    /// A fixed `host:port`.
    Fixed(String),
    /// A file whose (trimmed) contents are the current `host:port`.
    File(PathBuf),
    /// A shared cell the test harness updates across coordinator
    /// generations.
    Shared(Arc<Mutex<String>>),
}

impl AddrSource {
    /// The current address, if resolvable.
    #[must_use]
    pub fn current(&self) -> Option<String> {
        match self {
            AddrSource::Fixed(addr) => Some(addr.clone()),
            AddrSource::File(path) => {
                let text = std::fs::read_to_string(path).ok()?;
                let addr = text.trim();
                (!addr.is_empty()).then(|| addr.to_string())
            }
            AddrSource::Shared(cell) => {
                let addr = cell.lock().expect("address cell poisoned").clone();
                (!addr.is_empty()).then_some(addr)
            }
        }
    }
}

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Display name sent in `Hello`.
    pub name: String,
    /// Threads a lease's units fan out over (0 = all cores), via
    /// [`mc_exp::run_units`].
    pub threads: usize,
    /// Heartbeat send interval.
    pub heartbeat: Duration,
    /// Total budget of consecutive failed connection attempts before the
    /// worker gives up (spans coordinator restarts).
    pub retry: Duration,
    /// Pause between connection attempts.
    pub retry_interval: Duration,
    /// Per-unit pacing delay — stretches tiny campaigns so CI can kill
    /// processes mid-run. Zero in production.
    pub throttle: Duration,
    /// Test knob: slam the connection shut (the in-process stand-in for
    /// SIGKILL) after streaming this many records, counted across
    /// sessions. `None` in production.
    pub die_after_records: Option<u64>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            name: "worker".into(),
            threads: 1,
            heartbeat: Duration::from_millis(500),
            retry: Duration::from_secs(5),
            retry_interval: Duration::from_millis(50),
            throttle: Duration::ZERO,
            die_after_records: None,
        }
    }
}

/// What one worker did before exiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerSummary {
    /// Leases fully streamed (`LeaseDone` sent).
    pub leases: u64,
    /// Records streamed to a coordinator.
    pub records: u64,
    /// Sessions re-established after a lost connection.
    pub reconnects: u64,
    /// Whether the simulated-death knob fired.
    pub died: bool,
}

enum SessionEnd {
    /// Coordinator said `Shutdown`: the campaign is complete.
    Shutdown,
    /// The connection died; reconnect and continue.
    Disconnected,
    /// The simulated-death knob fired.
    Died,
}

/// Runs a worker until the coordinator shuts it down, the address is
/// withdrawn, the retry budget runs out, or the simulated-death knob
/// fires.
///
/// # Errors
///
/// Exhausted connection retries, unreconstructable specs, or a failing
/// unit runner. Lost connections are not errors — the worker reconnects.
pub fn run_worker(
    addr: &AddrSource,
    cfg: &WorkerConfig,
    factory: &dyn RunnerFactory,
) -> Result<WorkerSummary, ServeError> {
    let mut summary = WorkerSummary::default();
    let mut sent_total: u64 = 0;
    let mut first = true;
    loop {
        let Some(stream) = connect_with_retry(addr, cfg)? else {
            // Withdrawn address: the cluster is over and no coordinator
            // is coming back. Not an error.
            return Ok(summary);
        };
        if !first {
            summary.reconnects += 1;
        }
        first = false;
        match session(stream, cfg, factory, &mut summary, &mut sent_total)? {
            SessionEnd::Shutdown => return Ok(summary),
            SessionEnd::Died => {
                summary.died = true;
                return Ok(summary);
            }
            SessionEnd::Disconnected => {}
        }
    }
}

/// Connects to the coordinator, retrying for the configured budget —
/// which is what lets workers outlive a coordinator restart. `Ok(None)`
/// means the address was withdrawn (see [`AddrSource`]).
fn connect_with_retry(
    addr: &AddrSource,
    cfg: &WorkerConfig,
) -> Result<Option<TcpStream>, ServeError> {
    let deadline = Instant::now() + cfg.retry;
    loop {
        let Some(target) = addr.current() else {
            return Ok(None);
        };
        if let Ok(stream) = TcpStream::connect(&target) {
            let _ = stream.set_nodelay(true);
            return Ok(Some(stream));
        }
        if Instant::now() >= deadline {
            return Err(ServeError::Config(format!(
                "could not reach a coordinator within {:?}",
                cfg.retry
            )));
        }
        std::thread::sleep(cfg.retry_interval);
    }
}

/// One connected session: register, heartbeat, execute assignments.
fn session(
    stream: TcpStream,
    cfg: &WorkerConfig,
    factory: &dyn RunnerFactory,
    summary: &mut WorkerSummary,
    sent_total: &mut u64,
) -> Result<SessionEnd, ServeError> {
    let mut reader = stream.try_clone()?;
    let writer = Arc::new(Mutex::new(stream));
    let alive = Arc::new(AtomicBool::new(true));

    let hb_writer = Arc::clone(&writer);
    let hb_alive = Arc::clone(&alive);
    let hb_interval = cfg.heartbeat;
    let heartbeat = std::thread::spawn(move || {
        let step = (hb_interval / 4).max(Duration::from_millis(5));
        let mut since_beat = Duration::ZERO;
        while hb_alive.load(Ordering::SeqCst) {
            std::thread::sleep(step);
            since_beat += step;
            if since_beat < hb_interval {
                continue;
            }
            since_beat = Duration::ZERO;
            let mut w = hb_writer.lock().expect("writer poisoned");
            if write_frame(&mut *w, &Message::Heartbeat).is_err() {
                break;
            }
        }
    });

    let end = session_inner(&mut reader, &writer, cfg, factory, summary, sent_total);

    alive.store(false, Ordering::SeqCst);
    {
        let w = writer.lock().expect("writer poisoned");
        let _ = w.shutdown(Shutdown::Both);
    }
    let _ = heartbeat.join();
    end
}

fn session_inner(
    reader: &mut TcpStream,
    writer: &Arc<Mutex<TcpStream>>,
    cfg: &WorkerConfig,
    factory: &dyn RunnerFactory,
    summary: &mut WorkerSummary,
    sent_total: &mut u64,
) -> Result<SessionEnd, ServeError> {
    {
        let mut w = writer.lock().expect("writer poisoned");
        if write_frame(
            &mut *w,
            &Message::Hello {
                worker: cfg.name.clone(),
                threads: cfg.threads,
            },
        )
        .is_err()
        {
            return Ok(SessionEnd::Disconnected);
        }
    }
    loop {
        match read_frame(reader) {
            Ok(Some(Message::Welcome { .. } | Message::Heartbeat)) => {}
            Ok(Some(Message::Shutdown)) => return Ok(SessionEnd::Shutdown),
            Ok(Some(Message::Assign {
                lease,
                spec,
                shard_index,
                shard_count,
                done,
            })) => {
                let _lease_span = mc_obs::span("serve.lease");
                match run_lease(
                    lease,
                    &spec,
                    Shard {
                        index: shard_index,
                        count: shard_count,
                    },
                    &done.into_iter().collect(),
                    writer,
                    cfg,
                    factory,
                    summary,
                    sent_total,
                )? {
                    LeaseEnd::Streamed => summary.leases += 1,
                    LeaseEnd::Disconnected => return Ok(SessionEnd::Disconnected),
                    LeaseEnd::Died => return Ok(SessionEnd::Died),
                }
            }
            Ok(Some(_)) => {} // out-of-protocol chatter: ignore
            Ok(None) | Err(ServeError::Io(_) | ServeError::Protocol(_)) => {
                return Ok(SessionEnd::Disconnected)
            }
            Err(e) => return Err(e),
        }
    }
}

enum LeaseEnd {
    /// Every pending unit streamed and `LeaseDone` sent.
    Streamed,
    /// The connection died mid-lease.
    Disconnected,
    /// The simulated-death knob fired mid-lease.
    Died,
}

/// Runs one lease's pending units through [`mc_exp::run_units`] and
/// streams each record to the coordinator in unit order, which makes the
/// simulated-death prefix deterministic.
#[allow(clippy::too_many_arguments)]
fn run_lease(
    lease: u64,
    spec: &CampaignSpec,
    shard: Shard,
    done: &BTreeSet<usize>,
    writer: &Arc<Mutex<TcpStream>>,
    cfg: &WorkerConfig,
    factory: &dyn RunnerFactory,
    summary: &mut WorkerSummary,
    sent_total: &mut u64,
) -> Result<LeaseEnd, ServeError> {
    let runner = factory.runner_for(spec)?;
    let total = spec.total_units();
    let pending: Vec<WorkUnit> = (0..total)
        .filter(|&u| shard.owns(u) && !done.contains(&u))
        .map(|u| spec.unit(u))
        .collect();

    // The pacing delay sleeps on the unit's own thread, outside the
    // dispatcher's delivery lock.
    let throttled = |unit: &WorkUnit, inner: usize| {
        let metrics = runner.run_unit(unit, inner)?;
        if !cfg.throttle.is_zero() {
            std::thread::sleep(cfg.throttle);
        }
        Ok(metrics)
    };
    let mut sent = 0;
    let mut end = None;
    let dispatched = run_units(&pending, &throttled, cfg.threads, "serve.unit", |record| {
        if cfg
            .die_after_records
            .is_some_and(|limit| *sent_total >= limit)
        {
            // Simulated SIGKILL: no goodbye, no flush — slam the socket
            // mid-protocol.
            let w = writer.lock().expect("writer poisoned");
            let _ = w.shutdown(Shutdown::Both);
            end = Some(LeaseEnd::Died);
            return false;
        }
        let mut w = writer.lock().expect("writer poisoned");
        if write_frame(&mut *w, &Message::Record { lease, record }).is_err() {
            end = Some(LeaseEnd::Disconnected);
            return false;
        }
        drop(w);
        mc_obs::counter("serve.sent", 1);
        sent += 1;
        *sent_total += 1;
        true
    });
    summary.records += sent;
    dispatched?;
    if let Some(end) = end {
        return Ok(end);
    }
    let mut w = writer.lock().expect("writer poisoned");
    if write_frame(&mut *w, &Message::LeaseDone { lease }).is_err() {
        return Ok(LeaseEnd::Disconnected);
    }
    Ok(LeaseEnd::Streamed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_sources_resolve() {
        assert_eq!(
            AddrSource::Fixed("127.0.0.1:9".into()).current(),
            Some("127.0.0.1:9".into())
        );
        let cell = Arc::new(Mutex::new(String::new()));
        let shared = AddrSource::Shared(Arc::clone(&cell));
        assert_eq!(shared.current(), None, "empty cell is unresolvable");
        *cell.lock().unwrap() = "127.0.0.1:7".into();
        assert_eq!(shared.current(), Some("127.0.0.1:7".into()));

        let path = std::env::temp_dir().join(format!(
            "mc-serve-worker-test-{}-addr-sources.txt",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        assert_eq!(AddrSource::File(path.clone()).current(), None);
        std::fs::write(&path, "127.0.0.1:5\n").unwrap();
        assert_eq!(
            AddrSource::File(path.clone()).current(),
            Some("127.0.0.1:5".into())
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn exhausted_retries_are_an_error_but_withdrawal_is_clean() {
        let cfg = WorkerConfig {
            retry: Duration::from_millis(30),
            retry_interval: Duration::from_millis(10),
            ..WorkerConfig::default()
        };
        // A refusing port burns the budget: bind then immediately drop a
        // listener so nothing is listening there.
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let addr = AddrSource::Fixed(format!("127.0.0.1:{port}"));
        let err = connect_with_retry(&addr, &cfg).unwrap_err();
        assert!(matches!(err, ServeError::Config(_)), "{err}");

        // A withdrawn address is a clean `None`, not an error.
        let addr = AddrSource::Shared(Arc::new(Mutex::new(String::new())));
        assert!(connect_with_retry(&addr, &cfg).unwrap().is_none());
    }
}
