//! The campaign runner: shard filtering, pending-unit resume, parallel
//! dispatch, and in-order persistence.
//!
//! Determinism contract: a unit's result depends only on its derived seed
//! (see [`crate::spec::unit_seed`]), never on which thread or process ran
//! it. The runner additionally flushes records to the store *in session
//! order* — out-of-order completions park in a buffer until their
//! predecessors are written — so an uninterrupted single-shard store is
//! byte-identical across thread counts, and any interrupted, resumed, or
//! sharded history converges to the same [`Store::canonical_lines`].

use crate::progress::Progress;
use crate::spec::{CampaignSpec, WorkUnit};
use crate::store::{Metric, Store, UnitRecord};
use crate::ExpError;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One shard of a campaign: this process runs the units whose index is
/// congruent to `index` modulo `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// 0-based shard index.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Default for Shard {
    /// The whole campaign in one process.
    fn default() -> Self {
        Shard { index: 0, count: 1 }
    }
}

impl Shard {
    /// Parses the CLI syntax `i/n` (e.g. `0/4`). Validity beyond syntax
    /// (index below count) is the `E003` lint's job, so a bad-but-parsed
    /// shard still reaches the named diagnostic.
    ///
    /// # Errors
    ///
    /// Returns [`ExpError::Config`] for anything that is not two
    /// integers joined by `/`.
    pub fn parse(s: &str) -> Result<Self, ExpError> {
        let err = || {
            ExpError::Config(format!(
                "invalid shard `{s}`: expected INDEX/COUNT, e.g. 0/4"
            ))
        };
        let (i, n) = s.split_once('/').ok_or_else(err)?;
        Ok(Shard {
            index: i.trim().parse().map_err(|_| err())?,
            count: n.trim().parse().map_err(|_| err())?,
        })
    }

    /// Whether this shard owns unit `index`.
    #[must_use]
    pub fn owns(&self, index: usize) -> bool {
        self.count > 0 && index % self.count == self.index
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Run-time knobs of one campaign session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunConfig {
    /// Total thread budget (`0` = all available cores), split between the
    /// unit fan-out and each unit's inner parallelism.
    pub threads: usize,
    /// This process's shard.
    pub shard: Shard,
    /// Whether to emit progress/ETA lines on stderr.
    pub progress: bool,
}

/// Computes one work unit. Implementations must be deterministic in
/// `unit.seed` — the runner may execute units on any thread in any
/// order, and a resumed or sharded campaign must reproduce the same
/// record bit-for-bit.
pub trait UnitRunner: Sync {
    /// Runs the unit within `inner_threads` threads of inner parallelism
    /// and returns its metrics.
    ///
    /// # Errors
    ///
    /// Any failure aborts the session (completed units stay persisted).
    fn run_unit(&self, unit: &WorkUnit, inner_threads: usize) -> Result<Vec<Metric>, ExpError>;
}

impl<F> UnitRunner for F
where
    F: Fn(&WorkUnit, usize) -> Result<Vec<Metric>, ExpError> + Sync,
{
    fn run_unit(&self, unit: &WorkUnit, inner_threads: usize) -> Result<Vec<Metric>, ExpError> {
        self(unit, inner_threads)
    }
}

/// What one [`run_campaign`] session did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Total units of the whole campaign.
    pub total_units: usize,
    /// Units owned by this shard.
    pub shard_units: usize,
    /// Shard units skipped because the store already held them.
    pub skipped: usize,
    /// Units actually computed and persisted this session.
    pub ran: usize,
    /// Wall-clock time of the session.
    pub elapsed: Duration,
}

/// Runs (this shard of) a campaign: lints the spec, skips units the store
/// already holds, computes the rest on a worker pool, and persists each
/// record with an fsync before counting it done.
///
/// Records are appended *in session order* (see [`run_units`]), so an
/// uninterrupted single-shard store is byte-identical across thread
/// counts.
///
/// # Errors
///
/// Lint errors ([`ExpError::Lint`]) before any work starts; otherwise the
/// first unit or store failure, after which completed units remain
/// persisted for a later resume.
pub fn run_campaign(
    spec: &CampaignSpec,
    runner: &dyn UnitRunner,
    store: &mut Store,
    cfg: &RunConfig,
) -> Result<RunSummary, ExpError> {
    let _session_span = mc_obs::span("exp.session");
    let start = Instant::now();
    let store_path = store.path().map(|p| p.display().to_string());
    let report = mc_lint::lint_campaign(&spec.check(
        cfg.shard.index,
        cfg.shard.count,
        store_path.as_deref(),
        None,
    ));
    if report.has_errors() {
        return Err(ExpError::Lint(report));
    }
    if store.spec() != spec {
        return Err(ExpError::Mismatch {
            path: store_path.unwrap_or_else(|| "<memory>".into()),
            detail: "the store was opened for a different spec".into(),
        });
    }

    let total_units = spec.total_units();
    let shard_units = (0..total_units).filter(|&i| cfg.shard.owns(i)).count();
    let session: Vec<WorkUnit> = (0..total_units)
        .filter(|&i| cfg.shard.owns(i) && !store.is_complete(i))
        .map(|i| spec.unit(i))
        .collect();
    let skipped = shard_units - session.len();

    let mut progress = Progress::new(cfg.progress, total_units, spec.points.len(), session.len());
    // Replicas each axis point still lacks in the store, kept per append
    // so progress costs O(1) per record rather than a store rescan.
    let mut missing = vec![spec.replicas; spec.points.len()];
    for unit in (0..total_units).filter(|&i| store.is_complete(i)) {
        missing[unit / spec.replicas] -= 1;
    }
    let mut points_done = missing.iter().filter(|&&m| m == 0).count();
    let mut ran = 0;
    let mut append_error = None;

    run_units(&session, runner, cfg.threads, "exp.unit", |record| {
        let point = record.point;
        if let Err(e) = store.append(record) {
            append_error = Some(e);
            return false;
        }
        ran += 1;
        missing[point] -= 1;
        if missing[point] == 0 {
            points_done += 1;
        }
        progress.unit_done(store.completed_count(), points_done);
        true
    })?;
    if let Some(e) = append_error {
        return Err(e);
    }
    progress.finish(store.completed_count());
    Ok(RunSummary {
        total_units,
        shard_units,
        skipped,
        ran,
        elapsed: start.elapsed(),
    })
}

/// Runs `units` on one worker pool and hands their records to `deliver`
/// in unit order — the one place a thread budget is split across work
/// units ([`run_campaign`] and the mc-serve worker both dispatch here).
///
/// `threads` is split by [`mc_par::ThreadBudget::split`] between the
/// fan-out over units and each unit's inner parallelism. Each unit runs
/// under a `span` of that name. Out-of-order completions park in a buffer
/// until their predecessors are delivered, and `deliver` is only ever
/// called under one lock, so it sees records strictly in the order of
/// `units`. Returning `false` from `deliver` stops the dispatch: no later
/// record is delivered and unclaimed units are skipped.
///
/// # Errors
///
/// The first runner error. It stops the dispatch too; records of the
/// units before the failed one are still delivered.
pub fn run_units<D>(
    units: &[WorkUnit],
    runner: &dyn UnitRunner,
    threads: usize,
    span: &'static str,
    deliver: D,
) -> Result<(), ExpError>
where
    D: FnMut(UnitRecord) -> bool + Send,
{
    let (outer, inner) = mc_par::ThreadBudget::explicit(threads).split(units.len());
    let inner_threads = inner.get();
    let pool = mc_par::WorkerPool::new(outer);
    let order = Mutex::new(InOrder {
        deliver,
        next: 0,
        parked: BTreeMap::new(),
        open: true,
        error: None,
    });

    pool.for_each_while(units.len(), |pos| {
        let unit = units[pos];
        let _unit_span = mc_obs::span(span);
        let outcome = runner.run_unit(&unit, inner_threads);
        let mut order = order.lock().expect("dispatch state poisoned");
        match outcome {
            Ok(metrics) => order.complete(
                pos,
                UnitRecord {
                    unit: unit.index,
                    point: unit.point,
                    replica: unit.replica,
                    seed: unit.seed,
                    metrics,
                },
            ),
            Err(e) => {
                order.error.get_or_insert(e);
                false
            }
        }
    });

    let error = order.into_inner().expect("dispatch state poisoned").error;
    error.map_or(Ok(()), Err)
}

/// The reorder buffer behind [`run_units`].
struct InOrder<D> {
    deliver: D,
    /// Position (in the dispatched slice) of the next record to deliver.
    next: usize,
    parked: BTreeMap<usize, UnitRecord>,
    /// Cleared once `deliver` returns `false`.
    open: bool,
    error: Option<ExpError>,
}

impl<D: FnMut(UnitRecord) -> bool> InOrder<D> {
    /// Accepts the `pos`-th unit's record and delivers every record now
    /// in order. Returns `false` once delivery has been refused.
    fn complete(&mut self, pos: usize, record: UnitRecord) -> bool {
        if !self.open {
            return false;
        }
        self.parked.insert(pos, record);
        while let Some(record) = self.parked.remove(&self.next) {
            self.next += 1;
            if !(self.deliver)(record) {
                self.open = false;
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Param, PointSpec};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn spec(points: usize, replicas: usize) -> CampaignSpec {
        CampaignSpec {
            name: "run-test".into(),
            seed: 11,
            params: vec![],
            points: (0..points)
                .map(|i| PointSpec::new(format!("p{i}"), vec![Param::new("i", i as f64)]))
                .collect(),
            replicas,
        }
    }

    /// A runner whose metric is a pure function of the seed.
    fn seed_runner(unit: &WorkUnit, _inner: usize) -> Result<Vec<Metric>, ExpError> {
        Ok(vec![Metric::new("value", (unit.seed % 1000) as f64)])
    }

    #[test]
    fn runs_every_unit_once_and_in_order() {
        let s = spec(3, 4);
        let mut store = Store::in_memory(&s);
        let cfg = RunConfig {
            threads: 4,
            ..RunConfig::default()
        };
        let summary = run_campaign(&s, &seed_runner, &mut store, &cfg).unwrap();
        assert_eq!(summary.total_units, 12);
        assert_eq!(summary.ran, 12);
        assert_eq!(summary.skipped, 0);
        let units: Vec<usize> = store.records().iter().map(|r| r.unit).collect();
        assert_eq!(units, (0..12).collect::<Vec<_>>(), "in-order flush");
    }

    #[test]
    fn store_contents_are_identical_across_thread_counts() {
        let s = spec(2, 8);
        let mut serial = Store::in_memory(&s);
        run_campaign(
            &s,
            &seed_runner,
            &mut serial,
            &RunConfig {
                threads: 1,
                ..RunConfig::default()
            },
        )
        .unwrap();
        let mut parallel = Store::in_memory(&s);
        run_campaign(
            &s,
            &seed_runner,
            &mut parallel,
            &RunConfig {
                threads: 8,
                ..RunConfig::default()
            },
        )
        .unwrap();
        assert_eq!(serial.canonical_lines(), parallel.canonical_lines());
        assert_eq!(
            serial.records(),
            parallel.records(),
            "raw order matches too (in-order flush)"
        );
    }

    #[test]
    fn resume_skips_completed_units() {
        let s = spec(2, 3);
        let mut store = Store::in_memory(&s);
        // Pre-complete two units by hand.
        for i in [1usize, 4] {
            let u = s.unit(i);
            store
                .append(UnitRecord {
                    unit: u.index,
                    point: u.point,
                    replica: u.replica,
                    seed: u.seed,
                    metrics: seed_runner(&u, 1).unwrap(),
                })
                .unwrap();
        }
        let calls = AtomicUsize::new(0);
        let counting = |unit: &WorkUnit, inner: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            seed_runner(unit, inner)
        };
        let summary = run_campaign(&s, &counting, &mut store, &RunConfig::default()).unwrap();
        assert_eq!(summary.skipped, 2);
        assert_eq!(summary.ran, 4);
        assert_eq!(calls.load(Ordering::Relaxed), 4);
        assert_eq!(store.completed_count(), 6);
    }

    #[test]
    fn shards_partition_the_units_exactly() {
        let s = spec(3, 3);
        let mut a = Store::in_memory(&s);
        let mut b = Store::in_memory(&s);
        let base = RunConfig::default();
        run_campaign(
            &s,
            &seed_runner,
            &mut a,
            &RunConfig {
                shard: Shard { index: 0, count: 2 },
                ..base
            },
        )
        .unwrap();
        run_campaign(
            &s,
            &seed_runner,
            &mut b,
            &RunConfig {
                shard: Shard { index: 1, count: 2 },
                ..base
            },
        )
        .unwrap();
        assert_eq!(a.completed_count() + b.completed_count(), 9);
        let merged = Store::merge(&[a, b]).unwrap();

        let mut single = Store::in_memory(&s);
        run_campaign(&s, &seed_runner, &mut single, &base).unwrap();
        assert_eq!(merged.canonical_lines(), single.canonical_lines());
    }

    #[test]
    fn lint_errors_stop_the_run_before_any_work() {
        let s = spec(0, 5);
        let mut store = Store::in_memory(&s);
        let err = run_campaign(&s, &seed_runner, &mut store, &RunConfig::default()).unwrap_err();
        match err {
            ExpError::Lint(report) => assert_eq!(report.codes(), vec![mc_lint::Code::E001]),
            other => panic!("expected lint error, got {other}"),
        }
        let s = spec(2, 2);
        let cfg = RunConfig {
            shard: Shard { index: 5, count: 2 },
            ..RunConfig::default()
        };
        let mut store = Store::in_memory(&s);
        let err = run_campaign(&s, &seed_runner, &mut store, &cfg).unwrap_err();
        assert!(matches!(err, ExpError::Lint(_)));
    }

    #[test]
    fn a_failing_unit_aborts_but_keeps_prior_records() {
        let s = spec(1, 6);
        let failing = |unit: &WorkUnit, inner: usize| {
            if unit.replica == 3 {
                Err(ExpError::Config("boom".into()))
            } else {
                seed_runner(unit, inner)
            }
        };
        let mut store = Store::in_memory(&s);
        let cfg = RunConfig {
            threads: 1,
            ..RunConfig::default()
        };
        let err = run_campaign(&s, &failing, &mut store, &cfg).unwrap_err();
        assert!(err.to_string().contains("boom"));
        assert_eq!(
            store.completed_count(),
            3,
            "units before the failure persist"
        );
        // A resume with a fixed runner finishes the campaign.
        let summary = run_campaign(&s, &seed_runner, &mut store, &cfg).unwrap();
        assert_eq!(summary.skipped, 3);
        assert_eq!(summary.ran, 3);
    }

    #[test]
    fn dispatch_delivers_in_unit_order_and_stops_when_refused() {
        // Cost falls with the unit index, so with several threads later
        // units finish first and must park until their predecessors land.
        let s = spec(2, 6);
        let units: Vec<WorkUnit> = (0..s.total_units()).map(|i| s.unit(i)).collect();
        let n = units.len() as u64;
        let slowing = |unit: &WorkUnit, inner: usize| {
            std::thread::sleep(Duration::from_micros(300 * (n - unit.index as u64)));
            seed_runner(unit, inner)
        };
        for threads in [1, 2, 4] {
            let mut seen = Vec::new();
            run_units(&units, &slowing, threads, "exp.unit", |r| {
                seen.push(r.unit);
                true
            })
            .unwrap();
            assert_eq!(
                seen,
                (0..units.len()).collect::<Vec<_>>(),
                "{threads} threads"
            );

            let mut seen = Vec::new();
            run_units(&units, &slowing, threads, "exp.unit", |r| {
                seen.push(r.unit);
                r.unit < 4
            })
            .unwrap();
            assert_eq!(seen, vec![0, 1, 2, 3, 4], "{threads} threads: refused at 4");
        }
    }

    #[test]
    fn shard_parsing() {
        assert_eq!(Shard::parse("0/4").unwrap(), Shard { index: 0, count: 4 });
        assert_eq!(Shard::parse("3/8").unwrap(), Shard { index: 3, count: 8 });
        assert!(Shard::parse("3").is_err());
        assert!(Shard::parse("a/b").is_err());
        assert!(Shard::parse("1/2/3").is_err());
        assert_eq!(Shard::parse("5/2").unwrap().to_string(), "5/2");
    }
}
