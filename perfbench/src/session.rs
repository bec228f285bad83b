//! One campaign session: set-up (catalog build plus store open), then
//! `run_campaign` through the timing wrapper, plainly or traced.

use crate::layers::{CounterSink, LayerRunner, Span, TimedIo, WorkCounts};
use crate::stats::{fnv1a, FNV_OFFSET};
use crate::timing::{Timed, UnitTiming, Watchdog, UNIT_LIMIT};
use mc_exp::catalog::{self, Campaign, CatalogOptions};
use mc_exp::{run_campaign, CampaignSpec, RunConfig, Store, UnitRunner};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Thread budget of every session (closed-loop batch, one process).
pub const THREADS: usize = 2;

/// Where a workload's campaign writes its records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// `Store::in_memory`, as the paper-figure bench binaries run.
    Memory,
    /// A file store with one fsync per record, as `chebymc exp run` runs.
    File,
}

/// A benchmark workload: one catalog campaign at a fixed scale.
#[derive(Debug)]
pub struct Workload {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Catalog campaign it runs.
    pub campaign: &'static str,
    /// Task-set replicas per point (`None`: the catalog default).
    pub sets: Option<usize>,
    /// Runnables per automotive set (`None`: the catalog default).
    pub runnables: Option<usize>,
    /// Store the campaign runs into.
    pub store: StoreKind,
    /// The catalog's default campaign seed.
    pub default_seed: u64,
    /// FNV-1a of the canonical store at the default seed.
    pub pinned_digest: u64,
}

impl Workload {
    fn options(&self, seed: u64) -> CatalogOptions {
        CatalogOptions {
            sets: self.sets,
            runnables: self.runnables,
            seed: Some(seed),
            ..CatalogOptions::default()
        }
    }
}

/// A built campaign with its store open, and what that cost.
pub struct Setup {
    /// The catalog campaign.
    pub campaign: Campaign,
    /// The open, empty store.
    pub store: Store,
    /// Time of `catalog::build` alone.
    pub build: Duration,
    /// Time of `catalog::build` plus opening the store.
    pub total: Duration,
}

/// Builds the campaign and opens a fresh store at `path` (file stores
/// only), timing both. With `fsyncs`, the store goes through a timing
/// `StoreIo`.
pub fn setup(
    w: &Workload,
    seed: u64,
    path: &Path,
    fsyncs: Option<&Arc<Mutex<Vec<u64>>>>,
) -> Result<Setup, String> {
    if w.store == StoreKind::File {
        // An empty file, made before the clock starts: creating the inode
        // costs the shared disk's metadata latency, which drifts from run
        // to run and is not the program's set-up work.
        std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let t0 = Instant::now();
    let campaign = catalog::build(w.campaign, &w.options(seed)).map_err(|e| e.to_string())?;
    let build = t0.elapsed();
    let spec = &campaign.spec;
    let store = match (w.store, fsyncs) {
        (StoreKind::Memory, _) => Store::in_memory(spec),
        (StoreKind::File, None) => {
            Store::create_or_resume(path, spec)
                .map_err(|e| e.to_string())?
                .0
        }
        (StoreKind::File, Some(log)) => {
            let file = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let io = Box::new(TimedIo::new(file, Arc::clone(log)));
            Store::create_or_resume_io(io, &path.display().to_string(), spec)
                .map_err(|e| e.to_string())?
                .0
        }
    };
    let total = t0.elapsed();
    Ok(Setup {
        campaign,
        store,
        build,
        total,
    })
}

/// What the traced run adds to a session.
pub struct Trace {
    /// One span per layer call.
    pub spans: Vec<Span>,
    /// Deterministic work counts.
    pub counts: WorkCounts,
    /// `ga.evals` over the session (mc-obs counter).
    pub ga_evals: u64,
    /// `ga.carried` over the session (mc-obs counter).
    pub ga_carried: u64,
    /// fsync durations, ns (file stores only).
    pub fsync_ns: Vec<u64>,
}

/// One finished (or failed) session.
pub struct Session {
    /// The campaign's spec.
    pub spec: CampaignSpec,
    /// Time of `catalog::build`.
    pub build: Duration,
    /// Time of `catalog::build` plus the store open.
    pub setup: Duration,
    /// Wall time of `run_campaign`.
    pub wall: Duration,
    /// Every unit the wrapper saw.
    pub timings: Vec<UnitTiming>,
    /// Failed units' messages.
    pub failures: Vec<String>,
    /// The session's error, when `run_campaign` did not succeed.
    pub error: Option<String>,
    /// Units in the store at the end.
    pub completed: usize,
    /// FNV-1a of the store's canonical lines.
    pub digest: u64,
    /// The store check's verdict (see [`check_store`]).
    pub store_check: Result<(), String>,
    /// A file holding the store (the store itself, or its canonical lines
    /// for in-memory stores).
    pub store_file: PathBuf,
    /// Layer data of a traced session.
    pub trace: Option<Trace>,
}

/// Runs one session of `w` at `seed` in `dir`.
pub fn run(
    w: &Workload,
    seed: u64,
    dir: &Path,
    traced: bool,
    watch: &Watchdog,
) -> Result<Session, String> {
    let path = dir.join(if traced {
        "traced.jsonl"
    } else {
        "plain.jsonl"
    });
    let fsyncs = Arc::new(Mutex::new(Vec::new()));
    let Setup {
        campaign,
        mut store,
        build,
        total: setup_time,
    } = setup(w, seed, &path, traced.then_some(&fsyncs))?;
    let spec = campaign.spec.clone();
    let layers = if traced {
        Some(LayerRunner::new(&spec)?)
    } else {
        None
    };
    let sink = CounterSink::default();
    if traced {
        mc_obs::init_writer(Box::new(sink.clone())).map_err(|e| e.to_string())?;
    }
    let inner: &dyn UnitRunner = match &layers {
        Some(l) => l,
        None => campaign.runner.as_ref(),
    };
    let timed = Timed::new(inner, watch, UNIT_LIMIT);
    let cfg = RunConfig {
        threads: THREADS,
        ..RunConfig::default()
    };
    let result = run_campaign(&spec, &timed, &mut store, &cfg);
    let wall = Duration::from_nanos(timed.now_ns());
    if traced {
        mc_obs::shutdown().map_err(|e| e.to_string())?;
    }
    let (timings, failures) = timed.finish();
    let completed = store.completed_count();
    let canonical = store.canonical_lines();
    drop(store);
    let store_file = match w.store {
        StoreKind::File => path,
        StoreKind::Memory => {
            let p = dir.join("memory.jsonl");
            std::fs::write(&p, &canonical).map_err(|e| format!("{}: {e}", p.display()))?;
            p
        }
    };
    let failed = !failures.is_empty() || result.is_err();
    let store_check = check_store(&store_file, &spec, &canonical, !failed);
    let trace = match layers {
        Some(l) => {
            let (spans, counts) = l.finish();
            let obs = mc_obs::summary::TraceSummary::parse(&sink.text())
                .map_err(|e| format!("mc-obs counters: {e}"))?;
            Some(Trace {
                spans,
                counts,
                ga_evals: obs.counter_total("ga.evals"),
                ga_carried: obs.counter_total("ga.carried"),
                fsync_ns: std::mem::take(&mut *fsyncs.lock().expect("fsync log poisoned")),
            })
        }
        None => None,
    };
    Ok(Session {
        spec,
        build,
        setup: setup_time,
        wall,
        timings,
        failures,
        error: result.err().map(|e| e.to_string()),
        completed,
        digest: fnv1a(FNV_OFFSET, canonical.as_bytes()),
        store_check,
        store_file,
        trace,
    })
}

/// The correctness gate on one session's store: `Store::load` reads it
/// back with the campaign's fingerprint, every unit is complete (unless
/// units failed, which the failure accounting reports instead), and the
/// file's canonical lines equal the in-process store's.
fn check_store(
    file: &Path,
    spec: &CampaignSpec,
    canonical: &str,
    require_complete: bool,
) -> Result<(), String> {
    let loaded = Store::load(file, Some(spec)).map_err(|e| e.to_string())?;
    if loaded.header().fingerprint != spec.fingerprint() {
        return Err("store fingerprint differs from the campaign's".into());
    }
    let total = spec.total_units();
    if let Some(missing) = (0..total).find(|&u| require_complete && !loaded.is_complete(u)) {
        return Err(format!(
            "unit {missing} missing ({} of {total} complete)",
            loaded.completed_count()
        ));
    }
    if loaded.canonical_lines() != canonical {
        return Err("store file differs from the in-process store".into());
    }
    Ok(())
}
