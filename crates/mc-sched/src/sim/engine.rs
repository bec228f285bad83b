//! The preemptive uniprocessor simulation engine.

use super::exec_model::JobExecModel;
use super::metrics::SimMetrics;
use super::LcPolicy;
use crate::analysis::edf_vd;
use crate::SchedError;
use mc_task::time::{Duration, Instant};
use mc_task::{Criticality, McTask, TaskSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How `C_LO` overruns trigger criticality-mode changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ModeSwitchPolicy {
    /// The first `C_LO` overrun switches the whole system to HI mode
    /// (Baruah et al.; Liu et al.). This is the default and the behaviour
    /// all earlier campaign stores were recorded under.
    #[default]
    System,
    /// Combined task-level/system-level switching (Boudjadar et al.):
    /// a single overrunning HC job is contained at task level — it runs on
    /// toward `C_HI` while the system stays in LO mode and LC service
    /// continues untouched. Only a second concurrent overrun escalates to
    /// a system-level HI switch.
    TaskLevelThenSystem,
}

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Simulated time span (all tasks release synchronously at `t = 0`).
    pub horizon: Duration,
    /// LC handling when the system enters HI mode.
    pub lc_policy: LcPolicy,
    /// Per-job execution-time model.
    pub exec_model: JobExecModel,
    /// EDF-VD deadline-shrinking factor. `None` derives it from the task
    /// set per Baruah's formula; `Some(1.0)` degenerates to plain EDF.
    pub x_factor: Option<f64>,
    /// Sporadic release jitter: each job's release is delayed by a uniform
    /// draw from `[0, release_jitter]` after its minimum separation (the
    /// period). `ZERO` (the default) gives strictly periodic releases.
    #[serde(default)]
    pub release_jitter: Duration,
    /// How `C_LO` overruns trigger mode changes. The default,
    /// [`ModeSwitchPolicy::System`], preserves the classic EDF-VD
    /// semantics byte-for-byte.
    #[serde(default)]
    pub mode_switch: ModeSwitchPolicy,
    /// RNG seed for stochastic execution models.
    pub seed: u64,
}

impl SimConfig {
    /// A conventional configuration: EDF-VD with derived `x`, drop-all LC
    /// policy, profile-driven execution times.
    pub fn new(horizon: Duration) -> Self {
        SimConfig {
            horizon,
            lc_policy: LcPolicy::DropAll,
            exec_model: JobExecModel::Profile,
            x_factor: None,
            release_jitter: Duration::ZERO,
            mode_switch: ModeSwitchPolicy::System,
            seed: 0,
        }
    }

    pub(super) fn validate(&self) -> Result<(), SchedError> {
        if self.horizon.is_zero() {
            return Err(SchedError::InvalidSimConfig {
                reason: "horizon must be non-zero",
            });
        }
        if !self.lc_policy.is_valid() {
            return Err(SchedError::InvalidSimConfig {
                reason: "degradation fraction must be in [0, 1]",
            });
        }
        if !self.exec_model.is_valid() {
            return Err(SchedError::InvalidSimConfig {
                reason: "execution model parameter out of range",
            });
        }
        if let Some(x) = self.x_factor {
            if !x.is_finite() || x <= 0.0 || x > 1.0 {
                return Err(SchedError::InvalidSimConfig {
                    reason: "x factor must lie in (0, 1]",
                });
            }
        }
        Ok(())
    }
}

/// Upper bound on events per release attempt. Every loop iteration after
/// the first ends at the horizon or at an instant that retires one of:
/// a batch of releases, a budget crossing, or a completion or deadline kill
/// (at most one of each per job). Three per release suffice; the fourth is
/// margin.
pub(super) const EVENTS_PER_RELEASE: u64 = 4;

/// The event-loop guard for tasks of the given `periods` over `horizon`:
/// Σᵢ (⌊horizon/Pᵢ⌋ + 1) release attempts times `events_per_release`, plus
/// two, so a valid run of any length never trips it. The dual engine
/// passes [`EVENTS_PER_RELEASE`]; the multi-level engine adds one budget
/// crossing per level above two.
///
/// # Errors
///
/// Returns [`SchedError::SimulationDiverged`] for a zero period (a task
/// that would release forever at one instant).
pub(super) fn event_bound(
    periods: impl IntoIterator<Item = Duration>,
    horizon: Duration,
    events_per_release: u64,
) -> Result<u64, SchedError> {
    let mut releases: u64 = 0;
    for period in periods {
        if period.is_zero() {
            return Err(SchedError::SimulationDiverged);
        }
        releases = releases.saturating_add(horizon.as_nanos() / period.as_nanos() + 1);
    }
    Ok(releases
        .saturating_mul(events_per_release)
        .saturating_add(2))
}

#[derive(Debug, Clone)]
struct Job {
    /// Unique per release; heap entries naming a departed job go stale.
    id: u64,
    task_idx: usize,
    criticality: Criticality,
    abs_deadline: Instant,
    virtual_deadline: Instant,
    remaining: Duration,
    executed: Duration,
    /// LO-mode budget: executing past this in LO mode triggers the switch.
    budget_lo: Duration,
    /// Set when HI mode truncated this (LC) job's demand.
    degraded: bool,
    /// Set when a task-level mode switch already contained this (HC) job's
    /// overrun, so it is counted once.
    contained: bool,
}

impl Job {
    /// The EDF key: virtual deadlines in LO mode, real ones in HI mode.
    fn key(&self, mode: Criticality) -> Instant {
        match mode {
            Criticality::Lo => self.virtual_deadline,
            Criticality::Hi => self.abs_deadline,
        }
    }

    /// An HC job that has executed its whole LO-mode budget. Pending jobs
    /// always have work left, so this is the engine's overrun predicate.
    fn overruns(&self) -> bool {
        self.criticality.is_high() && self.executed >= self.budget_lo
    }
}

/// A heap entry: `(time key, task index, job id, slot)`. The id tells a
/// live entry from one whose job has left its slot.
type Entry = Reverse<(Instant, usize, u64, usize)>;

/// The pending jobs, stored in reusable slots and indexed by two min-heaps
/// with lazy deletion: an entry is live while its slot still holds the job
/// it names.
#[derive(Debug)]
struct Pending {
    slots: Vec<Option<Job>>,
    free: Vec<usize>,
    /// Keyed by the EDF key of the current mode; `(key, task index)` is a
    /// strict order because jobs of one task release at distinct instants.
    /// Rebuilt on LO → HI.
    ready: BinaryHeap<Entry>,
    /// Keyed by absolute deadline.
    deadlines: BinaryHeap<Entry>,
    /// Pending HC jobs.
    hc: usize,
    /// Pending HC jobs past their LO budget.
    overrunning: usize,
}

impl Pending {
    fn with_capacity(n: usize) -> Self {
        Pending {
            slots: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
            ready: BinaryHeap::with_capacity(n),
            deadlines: BinaryHeap::with_capacity(n),
            hc: 0,
            overrunning: 0,
        }
    }

    fn is_live(&self, entry: &Entry) -> bool {
        let Reverse((_, _, id, slot)) = *entry;
        self.slots[slot].as_ref().is_some_and(|j| j.id == id)
    }

    /// Adds `job` and returns its slot.
    fn insert(&mut self, job: Job, mode: Criticality) -> usize {
        if job.criticality.is_high() {
            self.hc += 1;
        }
        if job.overruns() {
            self.overrunning += 1;
        }
        let (key, deadline, task_idx, id) = (job.key(mode), job.abs_deadline, job.task_idx, job.id);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(job);
                slot
            }
            None => {
                self.slots.push(Some(job));
                self.slots.len() - 1
            }
        };
        self.ready.push(Reverse((key, task_idx, id, slot)));
        self.deadlines.push(Reverse((deadline, task_idx, id, slot)));
        slot
    }

    fn remove(&mut self, slot: usize) -> Option<Job> {
        let job = self.slots[slot].take()?;
        self.free.push(slot);
        if job.criticality.is_high() {
            self.hc -= 1;
        }
        if job.overruns() {
            self.overrunning -= 1;
        }
        Some(job)
    }

    /// The slot of the job EDF dispatches now.
    fn head(&mut self) -> Option<usize> {
        while let Some(top) = self.ready.peek() {
            if self.is_live(top) {
                return Some(top.0 .3);
            }
            self.ready.pop();
        }
        None
    }

    fn earliest_deadline(&mut self) -> Option<Instant> {
        while let Some(top) = self.deadlines.peek() {
            if self.is_live(top) {
                return Some(top.0 .0);
            }
            self.deadlines.pop();
        }
        None
    }

    /// Removes and returns a pending job whose deadline is at or before
    /// `clock`.
    fn pop_missed(&mut self, clock: Instant) -> Option<Job> {
        if self.earliest_deadline()? > clock {
            return None;
        }
        let Reverse((_, _, _, slot)) = self.deadlines.pop()?;
        self.remove(slot)
    }

    /// Re-keys the ready queue for `mode`. Only LO → HI needs it: HI → LO
    /// happens with no HC job pending, and LC keys are the same in both
    /// modes.
    fn rekey(&mut self, mode: Criticality) {
        self.ready.clear();
        for (slot, job) in self.slots.iter().enumerate() {
            if let Some(j) = job {
                self.ready
                    .push(Reverse((j.key(mode), j.task_idx, j.id, slot)));
            }
        }
    }
}

/// Runs one simulation of `ts` under `cfg` and returns the collected
/// metrics.
///
/// The engine is an event calendar: a release heap keyed by
/// `(time, task index)`, a ready queue keyed by `(EDF key, task index)`,
/// and a deadline heap, so the cost of an event is logarithmic in the
/// pending-job count and independent of the task count.
///
/// # Errors
///
/// Returns [`SchedError::InvalidSimConfig`] for invalid configurations,
/// [`SchedError::EmptyTaskSet`] when there is nothing to simulate, and
/// [`SchedError::SimulationDiverged`] for a zero period or if the event
/// loop ever outruns its bound of four events per release attempt.
///
/// # Example
///
/// ```
/// use mc_sched::sim::{simulate, SimConfig, JobExecModel, LcPolicy};
/// use mc_task::time::Duration;
/// use mc_task::{Criticality, McTask, TaskId, TaskSet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = TaskSet::from_tasks(vec![McTask::builder(TaskId::new(0))
///     .criticality(Criticality::Hi)
///     .period(Duration::from_millis(100))
///     .c_lo(Duration::from_millis(10))
///     .c_hi(Duration::from_millis(40))
///     .build()?])?;
/// let mut cfg = SimConfig::new(Duration::from_secs(1));
/// cfg.exec_model = JobExecModel::FullLoBudget;
/// let metrics = simulate(&ts, &cfg)?;
/// assert_eq!(metrics.mode_switches, 0);
/// assert_eq!(metrics.hc_deadline_misses, 0);
/// # Ok(())
/// # }
/// ```
pub fn simulate(ts: &TaskSet, cfg: &SimConfig) -> Result<SimMetrics, SchedError> {
    cfg.validate()?;
    if ts.is_empty() {
        return Err(SchedError::EmptyTaskSet);
    }
    let x = match cfg.x_factor {
        Some(x) => x,
        None => edf_vd::x_factor(ts.u_hc_lo(), ts.u_lc_lo()).unwrap_or(1.0),
    };
    let max_events = event_bound(
        ts.iter().map(McTask::period),
        cfg.horizon,
        EVENTS_PER_RELEASE,
    )?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let tasks = ts.tasks();
    // Every task releases at t = 0; popping in (time, index) order keeps
    // the RNG draw order of same-instant releases.
    let mut releases: BinaryHeap<Reverse<(Instant, usize)>> = (0..tasks.len())
        .map(|i| Reverse((Instant::ZERO, i)))
        .collect();
    let mut pending = Pending::with_capacity(tasks.len());
    // HC jobs that crossed their LO budget since the last overrun check.
    let mut fresh_overruns: Vec<(u64, usize)> = Vec::new();
    let mut next_id: u64 = 0;
    let mut mode = Criticality::Lo;
    let mut clock = Instant::ZERO;
    let mut metrics = SimMetrics {
        horizon: cfg.horizon,
        ..SimMetrics::default()
    };
    let horizon = Instant::ZERO + cfg.horizon;
    let mut hi_entered_at: Option<Instant> = None;
    let mut guard: u64 = 0;

    loop {
        guard += 1;
        if guard > max_events {
            return Err(SchedError::SimulationDiverged);
        }

        // Dispatch: EDF over virtual deadlines in LO mode, real deadlines in
        // HI mode. Ties break on task index for determinism.
        let running = pending.head();

        // Next event time. An empty release calendar is a structural error
        // (guarded above), never a panic: mc-serve workers simulate task
        // sets rebuilt from shipped specs and must fail a unit, not crash.
        let Reverse((t_release, _)) = *releases.peek().ok_or(SchedError::EmptyTaskSet)?;
        let mut t_next = horizon.min(t_release);
        if let Some(j) = running.and_then(|slot| pending.slots[slot].as_ref()) {
            t_next = t_next.min(clock + j.remaining);
            if mode == Criticality::Lo && j.criticality.is_high() && j.executed < j.budget_lo {
                t_next = t_next.min(clock + (j.budget_lo - j.executed));
            }
        }
        // Earliest pending deadline, the running job's included (a queued
        // job can miss while another runs).
        if let Some(d) = pending.earliest_deadline() {
            t_next = t_next.min(d);
        }

        // Advance time, accounting execution to the running job.
        let delta = t_next - clock;
        let mut completed = None;
        if let Some((slot, j)) =
            running.and_then(|slot| Some((slot, pending.slots[slot].as_mut()?)))
        {
            let was_overrunning = j.overruns();
            j.remaining = j.remaining.saturating_sub(delta);
            j.executed += delta;
            metrics.busy_time += delta;
            if !was_overrunning && j.overruns() {
                pending.overrunning += 1;
                fresh_overruns.push((j.id, slot));
            }
            if j.remaining.is_zero() {
                completed = Some(slot);
            }
        }
        clock = t_next;

        if clock >= horizon {
            break;
        }

        // 1. Completion of the running job.
        if let Some(j) = completed.and_then(|slot| pending.remove(slot)) {
            match j.criticality {
                Criticality::Hi => metrics.hc_completed += 1,
                Criticality::Lo => {
                    if j.degraded {
                        metrics.lc_degraded += 1;
                    } else {
                        metrics.lc_completed += 1;
                    }
                }
            }
            // §III: back to LO when no HC job is ready.
            if mode == Criticality::Hi && pending.hc == 0 {
                mode = Criticality::Lo;
                if let Some(t0) = hi_entered_at.take() {
                    metrics.time_in_hi += clock - t0;
                }
            }
        }

        // 2. Budget overrun of (possibly still running) HC jobs.
        if mode == Criticality::Lo {
            let escalate = match cfg.mode_switch {
                ModeSwitchPolicy::System => pending.overrunning > 0,
                ModeSwitchPolicy::TaskLevelThenSystem => {
                    // Contain each overrunning job at task level (counted
                    // once per job); escalate only on concurrent overruns.
                    for &(id, slot) in &fresh_overruns {
                        if let Some(j) = pending.slots[slot].as_mut().filter(|j| j.id == id) {
                            if !j.contained {
                                j.contained = true;
                                metrics.task_level_switches += 1;
                            }
                        }
                    }
                    pending.overrunning >= 2
                }
            };
            if escalate {
                mode = Criticality::Hi;
                hi_entered_at = Some(clock);
                metrics.mode_switches += 1;
                apply_lc_policy(&mut pending, tasks, cfg.lc_policy, &mut metrics);
                pending.rekey(mode);
            }
        }
        // In HI mode no overrun is ever contained: the system only returns
        // to LO once every HC job, these included, has left.
        fresh_overruns.clear();

        // 3. Deadline misses: any unfinished job past its absolute deadline
        // is killed and counted.
        while let Some(j) = pending.pop_missed(clock) {
            match j.criticality {
                Criticality::Hi => metrics.hc_deadline_misses += 1,
                Criticality::Lo => metrics.lc_deadline_misses += 1,
            }
        }
        // A killed HC job may have been the last HC work.
        if mode == Criticality::Hi && pending.hc == 0 {
            mode = Criticality::Lo;
            if let Some(t0) = hi_entered_at.take() {
                metrics.time_in_hi += clock - t0;
            }
        }

        // 4. Releases due now.
        while let Some(mut due) = releases.peek_mut() {
            let Reverse((t, idx)) = *due;
            if t != clock {
                break;
            }
            let task = &tasks[idx];
            // Sporadic semantics: the period is the *minimum* separation;
            // jitter pushes the next release later, never earlier.
            let jitter = if cfg.release_jitter.is_zero() {
                Duration::ZERO
            } else {
                Duration::from_nanos(rng.random_range(0..=cfg.release_jitter.as_nanos()))
            };
            *due = Reverse((clock + task.period() + jitter, idx));
            drop(due);
            if task.criticality().is_low() && mode == Criticality::Hi {
                match cfg.lc_policy {
                    LcPolicy::DropAll => {
                        metrics.lc_rejected_in_hi += 1;
                        continue;
                    }
                    LcPolicy::Degrade(_) => {}
                }
            }
            let mut exec = cfg.exec_model.draw(task, &mut rng);
            let mut degraded = false;
            if task.criticality().is_low() && mode == Criticality::Hi {
                if let LcPolicy::Degrade(f) = cfg.lc_policy {
                    let budget = task.c_lo().mul_f64(f).max(Duration::from_nanos(1));
                    if exec > budget {
                        exec = budget;
                        degraded = true;
                    }
                }
            }
            let release = clock;
            let abs_deadline = release + task.deadline();
            let virtual_deadline = if task.is_high() {
                release + edf_vd::virtual_deadline(task, x)
            } else {
                abs_deadline
            };
            match task.criticality() {
                Criticality::Hi => metrics.hc_released += 1,
                Criticality::Lo => metrics.lc_released += 1,
            }
            let id = next_id;
            next_id += 1;
            let job = Job {
                id,
                task_idx: idx,
                criticality: task.criticality(),
                abs_deadline,
                virtual_deadline,
                remaining: exec,
                executed: Duration::ZERO,
                budget_lo: task.c_lo(),
                degraded,
                contained: false,
            };
            // A zero LO budget overruns on release (deserialized sets only;
            // the task builder rejects it).
            let overruns = job.overruns();
            let slot = pending.insert(job, mode);
            if overruns {
                fresh_overruns.push((id, slot));
            }
        }
    }

    if let Some(t0) = hi_entered_at {
        metrics.time_in_hi += clock.min(horizon) - t0;
    }
    Ok(metrics)
}

/// Applies the LC policy at the instant of a LO → HI switch.
fn apply_lc_policy(
    pending: &mut Pending,
    tasks: &[mc_task::McTask],
    policy: LcPolicy,
    metrics: &mut SimMetrics,
) {
    for slot in 0..pending.slots.len() {
        let Some(j) = pending.slots[slot].as_mut() else {
            continue;
        };
        if j.criticality.is_high() {
            continue;
        }
        match policy {
            LcPolicy::DropAll => {
                pending.remove(slot);
                metrics.lc_dropped_at_switch += 1;
            }
            LcPolicy::Degrade(f) => {
                let budget = tasks[j.task_idx]
                    .c_lo()
                    .mul_f64(f)
                    .max(Duration::from_nanos(1));
                if j.executed >= budget {
                    // Already consumed its degraded budget: finish now.
                    j.remaining = Duration::ZERO;
                    j.degraded = true;
                } else {
                    let allowed = budget - j.executed;
                    if j.remaining > allowed {
                        j.remaining = allowed;
                        j.degraded = true;
                    }
                }
                // A job whose remaining collapsed to zero completes
                // immediately.
                if j.remaining.is_zero() {
                    pending.remove(slot);
                    metrics.lc_degraded += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_task::task::{McTask, TaskId};

    fn hc(id: u32, c_lo_ms: u64, c_hi_ms: u64, p_ms: u64) -> McTask {
        McTask::builder(TaskId::new(id))
            .criticality(Criticality::Hi)
            .period(Duration::from_millis(p_ms))
            .c_lo(Duration::from_millis(c_lo_ms))
            .c_hi(Duration::from_millis(c_hi_ms))
            .build()
            .unwrap()
    }

    fn lc(id: u32, c_ms: u64, p_ms: u64) -> McTask {
        McTask::builder(TaskId::new(id))
            .period(Duration::from_millis(p_ms))
            .c_lo(Duration::from_millis(c_ms))
            .build()
            .unwrap()
    }

    fn cfg(model: JobExecModel) -> SimConfig {
        SimConfig {
            horizon: Duration::from_secs(10),
            lc_policy: LcPolicy::DropAll,
            exec_model: model,
            x_factor: None,
            release_jitter: Duration::ZERO,
            mode_switch: ModeSwitchPolicy::System,
            seed: 42,
        }
    }

    /// A set satisfying Eq. 8: u_hc_lo = 0.2, u_hc_hi = 0.5, u_lc_lo = 0.3.
    fn schedulable_set() -> TaskSet {
        TaskSet::from_tasks(vec![hc(0, 20, 50, 100), lc(1, 30, 100)]).unwrap()
    }

    #[test]
    fn no_overruns_means_no_switches_and_no_misses() {
        let m = simulate(&schedulable_set(), &cfg(JobExecModel::FullLoBudget)).unwrap();
        assert_eq!(m.mode_switches, 0);
        assert_eq!(m.hc_deadline_misses, 0);
        assert_eq!(m.lc_deadline_misses, 0);
        assert_eq!(m.time_in_hi, Duration::ZERO);
        // 10 s horizon, 100 ms periods → 100 jobs each.
        assert_eq!(m.hc_released, 100);
        assert_eq!(m.lc_released, 100);
        assert_eq!(m.hc_completed, 100);
        assert_eq!(m.lc_completed, 100);
        // Busy time = 100·(20+30) ms = 5 s.
        assert_eq!(m.busy_time, Duration::from_secs(5));
    }

    #[test]
    fn constant_overrun_switches_every_period_and_never_misses_hc() {
        // Every HC job runs to C_HI: the system lives at the Eq. 8 boundary.
        let m = simulate(&schedulable_set(), &cfg(JobExecModel::FullHiBudget)).unwrap();
        assert!(m.mode_switches > 0);
        assert_eq!(
            m.hc_deadline_misses, 0,
            "EDF-VD must protect HC tasks on an Eq. 8-satisfying set"
        );
        assert!(m.lc_lost() > 0, "drop-all must discard LC work in HI mode");
        assert!(m.time_in_hi > Duration::ZERO);
    }

    #[test]
    fn switch_rate_tracks_overrun_probability() {
        let mut c = cfg(JobExecModel::OverrunWithProbability(0.2));
        c.horizon = Duration::from_secs(100); // 1000 HC jobs
        let m = simulate(&schedulable_set(), &c).unwrap();
        // One HC task: switch rate per HC job ≈ per-job overrun probability.
        let rate = m.switch_rate_per_hc_job();
        assert!((rate - 0.2).abs() < 0.05, "rate {rate}");
        assert_eq!(m.hc_deadline_misses, 0);
    }

    #[test]
    fn overloaded_lo_mode_misses_deadlines_under_plain_edf() {
        // u_lo = 0.6 + 0.6 > 1: plain EDF (x = 1) cannot keep up.
        let ts = TaskSet::from_tasks(vec![lc(0, 60, 100), lc(1, 60, 100)]).unwrap();
        let mut c = cfg(JobExecModel::FullLoBudget);
        c.x_factor = Some(1.0);
        let m = simulate(&ts, &c).unwrap();
        assert!(m.lc_deadline_misses > 0);
    }

    #[test]
    fn edf_vd_protects_hc_with_carryover() {
        // A multi-HC-task set at Eq. 8's edge: EDF-VD must still protect
        // carried-over HC work when every job overruns.
        // u_hc_lo = 0.3, u_hc_hi = 0.6 (two tasks), u_lc_lo = 0.4.
        let ts = TaskSet::from_tasks(vec![hc(0, 15, 30, 50), hc(1, 30, 60, 200), lc(2, 40, 100)])
            .unwrap();
        let vd = simulate(&ts, &cfg(JobExecModel::FullHiBudget)).unwrap();
        assert_eq!(vd.hc_deadline_misses, 0, "EDF-VD protects HC");
    }

    #[test]
    fn degrade_policy_keeps_lc_running() {
        let mut c = cfg(JobExecModel::FullHiBudget);
        c.lc_policy = LcPolicy::Degrade(0.5);
        let m = simulate(&schedulable_set(), &c).unwrap();
        assert_eq!(m.lc_dropped_at_switch, 0);
        assert_eq!(m.lc_rejected_in_hi, 0);
        assert!(m.lc_degraded > 0, "HI-mode LC jobs run degraded");
    }

    #[test]
    fn drop_all_rejects_lc_releases_in_hi_mode() {
        // HC task stuck in HI mode with long busy periods.
        let ts = TaskSet::from_tasks(vec![hc(0, 10, 80, 100), lc(1, 10, 20)]).unwrap();
        let m = simulate(&ts, &cfg(JobExecModel::FullHiBudget)).unwrap();
        assert!(m.lc_rejected_in_hi > 0);
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let c = cfg(JobExecModel::Profile);
        let ts = schedulable_set();
        let a = simulate(&ts, &c).unwrap();
        let b = simulate(&ts, &c).unwrap();
        assert_eq!(a, b);
        let mut c2 = c;
        c2.seed = 43;
        let d = simulate(&ts, &c2).unwrap();
        assert_ne!(a, d);
    }

    #[test]
    fn job_conservation_holds() {
        for model in [
            JobExecModel::FullLoBudget,
            JobExecModel::FullHiBudget,
            JobExecModel::Profile,
            JobExecModel::OverrunWithProbability(0.3),
        ] {
            let m = simulate(&schedulable_set(), &cfg(model)).unwrap();
            // Completions + losses + misses never exceed releases; the
            // remainder is in-flight at the horizon.
            let accounted = m.hc_completed
                + m.lc_completed
                + m.lc_degraded
                + m.lc_dropped_at_switch
                + m.hc_deadline_misses
                + m.lc_deadline_misses;
            assert!(
                accounted <= m.released(),
                "model {model:?}: accounted {accounted} > released {}",
                m.released()
            );
            assert!(m.released() - accounted <= 2, "too many in-flight jobs");
            assert!(m.busy_time <= m.horizon);
            assert!(m.time_in_hi <= m.horizon);
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let ts = schedulable_set();
        let mut c = cfg(JobExecModel::FullLoBudget);
        c.horizon = Duration::ZERO;
        assert!(simulate(&ts, &c).is_err());

        let mut c = cfg(JobExecModel::FractionOfLo(2.0));
        c.horizon = Duration::from_secs(1);
        assert!(simulate(&ts, &c).is_err());

        let mut c = cfg(JobExecModel::FullLoBudget);
        c.lc_policy = LcPolicy::Degrade(1.5);
        assert!(simulate(&ts, &c).is_err());

        let mut c = cfg(JobExecModel::FullLoBudget);
        c.x_factor = Some(0.0);
        assert!(simulate(&ts, &c).is_err());

        assert!(matches!(
            simulate(&TaskSet::new(), &cfg(JobExecModel::FullLoBudget)).unwrap_err(),
            SchedError::EmptyTaskSet
        ));
    }

    #[test]
    fn task_level_policy_contains_a_single_overrunning_task() {
        // One HC task: overruns can never be concurrent, so containment
        // must absorb every one of them — no system switch, LC untouched.
        let mut c = cfg(JobExecModel::FullHiBudget);
        c.mode_switch = ModeSwitchPolicy::TaskLevelThenSystem;
        let m = simulate(&schedulable_set(), &c).unwrap();
        assert_eq!(m.mode_switches, 0);
        assert!(m.task_level_switches > 0);
        assert_eq!(m.task_level_switches, m.hc_released);
        assert_eq!(m.time_in_hi, Duration::ZERO);
        assert_eq!(m.lc_lost(), 0, "contained overruns never touch LC work");
        assert_eq!(m.lc_completed, 100);
        assert_eq!(m.hc_deadline_misses, 0);
    }

    #[test]
    fn concurrent_overruns_escalate_to_a_system_switch() {
        // Two HC tasks shaped so a short-period task overruns while a
        // long, contained job is still pending.
        let ts = TaskSet::from_tasks(vec![hc(0, 20, 100, 200), hc(1, 10, 20, 30)]).unwrap();
        let mut c = cfg(JobExecModel::FullHiBudget);
        c.mode_switch = ModeSwitchPolicy::TaskLevelThenSystem;
        let m = simulate(&ts, &c).unwrap();
        assert!(m.task_level_switches > 0, "first overruns are contained");
        assert!(m.mode_switches > 0, "concurrent overruns must escalate");
        assert!(m.time_in_hi > Duration::ZERO);
    }

    #[test]
    fn system_policy_never_counts_task_level_switches() {
        // The default policy is byte-identical to the pre-seam simulator;
        // in particular the new counter stays zero.
        let m = simulate(&schedulable_set(), &cfg(JobExecModel::FullHiBudget)).unwrap();
        assert!(m.mode_switches > 0);
        assert_eq!(m.task_level_switches, 0);
    }

    #[test]
    fn release_jitter_thins_the_release_stream() {
        let ts = schedulable_set();
        let mut c = cfg(JobExecModel::FullLoBudget);
        c.release_jitter = Duration::from_millis(50); // up to half a period
        let jittered = simulate(&ts, &c).unwrap();
        let mut c0 = cfg(JobExecModel::FullLoBudget);
        c0.release_jitter = Duration::ZERO;
        let periodic = simulate(&ts, &c0).unwrap();
        // Sporadic releases are strictly sparser than periodic ones.
        assert!(jittered.released() < periodic.released());
        assert!(jittered.released() > periodic.released() / 2);
        // Sparser demand cannot create misses on a schedulable set.
        assert_eq!(jittered.hc_deadline_misses, 0);
        assert_eq!(jittered.lc_deadline_misses, 0);
    }

    #[test]
    fn zero_jitter_is_the_periodic_baseline() {
        let ts = schedulable_set();
        let c = cfg(JobExecModel::Profile); // default jitter is ZERO
        let a = simulate(&ts, &c).unwrap();
        let mut c2 = c;
        c2.release_jitter = Duration::ZERO;
        let b = simulate(&ts, &c2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn half_budget_jobs_idle_half_the_time() {
        let ts = TaskSet::from_tasks(vec![lc(0, 50, 100)]).unwrap();
        let m = simulate(&ts, &cfg(JobExecModel::FractionOfLo(0.5))).unwrap();
        // 0.5·50 ms per 100 ms period → utilization 0.25.
        assert!((m.utilization() - 0.25).abs() < 0.01);
        assert_eq!(m.lc_completed, 100);
    }

    #[test]
    fn event_bound_scales_with_the_workload() {
        // 10 s over 100 ms periods: 101 release attempts per task.
        assert_eq!(
            event_bound(
                schedulable_set().iter().map(McTask::period),
                Duration::from_secs(10),
                EVENTS_PER_RELEASE
            )
            .unwrap(),
            2 * 101 * EVENTS_PER_RELEASE + 2
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use rand::SeedableRng;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn random_schedulable_sets_never_miss_hc(seed in 0u64..5_000) {
                // Generate a set, verify Eq. 8 holds with C_LO = C_HI·frac,
                // then hammer it with constant overruns.
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let gen_cfg = mc_task::generate::GeneratorConfig::default();
                let mut ts = mc_task::generate::generate_mixed_taskset(0.6, &gen_cfg, &mut rng)
                    .unwrap();
                // Assign optimistic WCETs at 40 % of pessimistic.
                for t in ts.hc_tasks_mut() {
                    let c = t.c_hi().mul_f64(0.4).max(Duration::from_nanos(1));
                    t.set_c_lo(c).unwrap();
                }
                prop_assume!(crate::analysis::edf_vd::analyze(&ts).schedulable);
                let c = SimConfig {
                    horizon: Duration::from_secs(20),
                    lc_policy: LcPolicy::DropAll,
                    exec_model: JobExecModel::FullHiBudget,
                    x_factor: None,
                    release_jitter: Duration::ZERO,
                    mode_switch: ModeSwitchPolicy::System,
                    seed,
                };
                let m = simulate(&ts, &c).unwrap();
                prop_assert_eq!(m.hc_deadline_misses, 0);
            }

            #[test]
            fn busy_time_bounded_by_horizon(seed in 0u64..2_000) {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let gen_cfg = mc_task::generate::GeneratorConfig::default();
                let ts = mc_task::generate::generate_mixed_taskset(0.7, &gen_cfg, &mut rng)
                    .unwrap();
                let c = SimConfig {
                    horizon: Duration::from_secs(5),
                    lc_policy: LcPolicy::Degrade(0.5),
                    exec_model: JobExecModel::Profile,
                    x_factor: None,
                    release_jitter: Duration::ZERO,
                    mode_switch: ModeSwitchPolicy::System,
                    seed,
                };
                let m = simulate(&ts, &c).unwrap();
                prop_assert!(m.busy_time <= m.horizon);
                prop_assert!(m.time_in_hi <= m.horizon);
            }
        }
    }
}
