//! The preemptive uniprocessor simulation engine: one event calendar over
//! `L` criticality levels. [`simulate`] runs it with `L = 2`;
//! [`super::simulate_multi`] runs it with the task set's `L`.

use super::exec_model::JobExecModel;
use super::metrics::SimMetrics;
use super::{LcPolicy, MultiSimMetrics};
use crate::analysis::edf_vd;
use crate::SchedError;
use mc_task::time::{Duration, Instant};
use mc_task::TaskSet;
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

impl ModeSwitchPolicy {
    /// Concurrent budget overruns that escalate the system.
    pub(super) fn threshold(self) -> usize {
        match self {
            ModeSwitchPolicy::System => 1,
            ModeSwitchPolicy::TaskLevelThenSystem => 2,
        }
    }
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

/// Upper bound on events per release attempt with two levels. Every loop
/// iteration after the first ends at the horizon or at an instant that
/// retires one of: a batch of releases, a budget crossing, or a completion
/// or deadline kill (at most one of each per job). Three per release
/// suffice; the fourth is margin.
pub(super) const EVENTS_PER_RELEASE: u64 = 4;

/// The event-loop guard for tasks of the given `periods` over `horizon`:
/// Σᵢ (⌊horizon/Pᵢ⌋ + 1) release attempts times `events_per_release`, plus
/// two, so a valid run of any length never trips it. The engine passes
/// [`EVENTS_PER_RELEASE`] plus one budget crossing per level above two.
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

/// One task as the engine sees it.
#[derive(Debug, Clone)]
pub(super) struct TaskRow {
    pub(super) period: Duration,
    /// Relative deadline.
    pub(super) deadline: Duration,
    /// Criticality level: the task runs in modes `0..=level`.
    pub(super) level: usize,
    /// `C(0..=level)`: the budget in each mode the task runs in.
    pub(super) budgets: Vec<Duration>,
    /// The relative virtual deadline in each mode below `level`.
    pub(super) virtual_deadlines: Vec<Duration>,
}

/// The rules of one run, apart from the task table.
#[derive(Debug, Clone, Copy)]
pub(super) struct Rules {
    /// Number of criticality levels (and modes) `L`.
    pub(super) levels: usize,
    pub(super) horizon: Duration,
    /// Applied to the jobs and releases below the mode.
    pub(super) lc_policy: LcPolicy,
    /// Pending jobs past the current mode's budget that escalate; fewer
    /// are contained at task level.
    pub(super) threshold: usize,
    pub(super) release_jitter: Duration,
    pub(super) seed: u64,
}

/// What one run counted: the multi-level metrics, plus two counts only
/// the dual-criticality adapter reports.
#[derive(Debug, Clone)]
pub(super) struct Counts {
    pub(super) metrics: MultiSimMetrics,
    /// Completions truncated by [`LcPolicy::Degrade`] (counted as
    /// completed too).
    pub(super) degraded: u64,
    /// Jobs whose overrun was contained at task level (counted once each).
    pub(super) contained: u64,
}

#[derive(Debug, Clone)]
struct Job<'a> {
    /// Unique per release; heap entries naming a departed job go stale.
    id: u64,
    task_idx: usize,
    task: &'a TaskRow,
    /// `C(0..level)`, the budgets whose exhaustion is an overrun; its
    /// length is the task's level.
    lower_budgets: &'a [Duration],
    release: Instant,
    abs_deadline: Instant,
    remaining: Duration,
    executed: Duration,
    /// Set when [`LcPolicy::Degrade`] truncated this job's demand.
    degraded: bool,
    /// Set when a task-level mode switch already contained this job's
    /// overrun, so it is counted once.
    contained: bool,
}

impl<'a> Job<'a> {
    /// The EDF key: the mode's virtual deadline for a job above the mode,
    /// the real deadline otherwise.
    fn key(&self, mode: usize) -> Instant {
        if self.level() > mode {
            self.release + self.task.virtual_deadlines[mode]
        } else {
            self.abs_deadline
        }
    }

    fn level(&self) -> usize {
        self.lower_budgets.len()
    }

    /// The modes below the job's level whose budget it has executed.
    fn exhausted(&self) -> impl Iterator<Item = usize> + 'a {
        let executed = self.executed;
        self.lower_budgets
            .iter()
            .enumerate()
            .filter_map(move |(m, &budget)| (executed >= budget).then_some(m))
    }

    /// Truncates the job's demand to [`LcPolicy::Degrade`]'s fraction `f`
    /// of its own-level budget (at least one nanosecond).
    fn degrade(&mut self, f: f64) {
        let budget = self.task.budgets[self.task.level].mul_f64(f);
        let allowed = budget
            .max(Duration::from_nanos(1))
            .saturating_sub(self.executed);
        if self.remaining > allowed {
            self.remaining = allowed;
            self.degraded = true;
        }
    }
}

/// A heap entry: `(time key, task index, job id, slot)`. The id tells a
/// live entry from one whose job has left its slot.
type Entry = Reverse<(Instant, usize, u64, usize)>;

/// The pending jobs, stored in reusable slots and indexed by two min-heaps
/// with lazy deletion: an entry is live while its slot still holds the job
/// it names.
#[derive(Debug)]
struct Pending<'a> {
    slots: Vec<Option<Job<'a>>>,
    free: Vec<usize>,
    /// Keyed by the EDF key of the current mode; `(key, task index)` is a
    /// strict order because jobs of one task release at distinct instants.
    /// Rebuilt when the mode changes a pending job's key.
    ready: BinaryHeap<Entry>,
    /// Keyed by absolute deadline.
    deadlines: BinaryHeap<Entry>,
    /// Pending jobs per task level.
    per_level: Vec<usize>,
    /// `overrunning[m]`: pending jobs above level `m` that have executed
    /// their budget `C(m)`.
    overrunning: Vec<usize>,
}

impl<'a> Pending<'a> {
    fn new(tasks: usize, levels: usize) -> Self {
        Pending {
            slots: Vec::with_capacity(tasks),
            free: Vec::with_capacity(tasks),
            ready: BinaryHeap::with_capacity(tasks),
            deadlines: BinaryHeap::with_capacity(tasks),
            per_level: vec![0; levels],
            overrunning: vec![0; levels],
        }
    }

    fn is_live(&self, entry: &Entry) -> bool {
        let Reverse((_, _, id, slot)) = *entry;
        self.slots[slot].as_ref().is_some_and(|j| j.id == id)
    }

    /// Adds `job` and returns its slot and whether it overruns on release
    /// (a zero budget; deserialized sets only).
    fn insert(&mut self, job: Job<'a>, mode: usize) -> (usize, bool) {
        self.per_level[job.level()] += 1;
        let mut overruns = false;
        for m in job.exhausted() {
            self.overrunning[m] += 1;
            overruns = true;
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
        (slot, overruns)
    }

    fn remove(&mut self, slot: usize) -> Option<Job<'a>> {
        let job = self.slots[slot].take()?;
        self.free.push(slot);
        self.per_level[job.level()] -= 1;
        for m in job.exhausted() {
            self.overrunning[m] -= 1;
        }
        Some(job)
    }

    /// Runs the job in `slot` for `delta`. Returns its id if it exhausted
    /// a further budget, and whether it completed.
    fn advance(&mut self, slot: usize, delta: Duration) -> (Option<u64>, bool) {
        let Some(j) = self.slots[slot].as_mut() else {
            return (None, false);
        };
        let mut crossed = false;
        for (count, &budget) in self.overrunning.iter_mut().zip(j.lower_budgets) {
            if j.executed < budget && budget <= j.executed + delta {
                *count += 1;
                crossed = true;
            }
        }
        j.remaining = j.remaining.saturating_sub(delta);
        j.executed += delta;
        (crossed.then_some(j.id), j.remaining.is_zero())
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
    fn pop_missed(&mut self, clock: Instant) -> Option<Job<'a>> {
        if self.earliest_deadline()? > clock {
            return None;
        }
        let Reverse((_, _, _, slot)) = self.deadlines.pop()?;
        self.remove(slot)
    }

    /// Enters `mode` in one pass over the pending jobs: applies the policy
    /// to the jobs below it (none on a return to mode 0) and rebuilds the
    /// ready queue under the mode's keys in one heapify. The rebuilt queue
    /// pops live jobs in the same order as one built by pushes, since
    /// `(key, task index)` is a strict order.
    fn enter(&mut self, mode: usize, policy: LcPolicy, counts: &mut Counts) {
        let mut ready = std::mem::take(&mut self.ready).into_vec();
        ready.clear();
        for slot in 0..self.slots.len() {
            let Some(j) = self.slots[slot].as_mut() else {
                continue;
            };
            let level = j.level();
            if level < mode {
                let gone = match policy {
                    LcPolicy::DropAll => {
                        counts.metrics.jobs_killed += 1;
                        true
                    }
                    LcPolicy::Degrade(f) => {
                        j.degrade(f);
                        // A job that already consumed its degraded budget
                        // completes now.
                        let done = j.remaining.is_zero();
                        if done {
                            counts.metrics.completed_per_level[level] += 1;
                            counts.degraded += 1;
                        }
                        done
                    }
                };
                if gone {
                    self.remove(slot);
                    continue;
                }
            }
            ready.push(Reverse((j.key(mode), j.task_idx, j.id, slot)));
        }
        self.ready = BinaryHeap::from(ready);
    }
}

/// The release calendar. With zero jitter, tasks that share a period
/// release together at every instant: they form one class, and the heap
/// holds one `(next release, class)` entry per class. With jitter every
/// task is a class of its own.
#[derive(Debug)]
struct Calendar {
    /// Each class's task indices, in task order.
    classes: Vec<Vec<usize>>,
    heap: BinaryHeap<Reverse<(Instant, usize)>>,
    /// The classes popped at the current instant.
    due: Vec<usize>,
    /// Their members, in task order.
    batch: Vec<usize>,
}

impl Calendar {
    /// Every class releases at `t = 0`.
    fn new(tasks: &[TaskRow], jitter: Duration) -> Self {
        let mut members: Vec<usize> = (0..tasks.len()).collect();
        // A stable sort keeps each period's tasks in task order.
        members.sort_by_key(|&i| tasks[i].period);
        let classes: Vec<Vec<usize>> = members
            .chunk_by(|&a, &b| jitter.is_zero() && tasks[a].period == tasks[b].period)
            .map(<[usize]>::to_vec)
            .collect();
        let heap = (0..classes.len())
            .map(|c| Reverse((Instant::ZERO, c)))
            .collect();
        Calendar {
            classes,
            heap,
            due: Vec::new(),
            batch: Vec::with_capacity(tasks.len()),
        }
    }

    fn next(&self) -> Option<Instant> {
        self.heap.peek().map(|&Reverse((t, _))| t)
    }

    /// Pops every class due at `clock` and returns their tasks in task
    /// order, the order that keeps the RNG draws of same-instant releases.
    fn pop_due(&mut self, clock: Instant) -> &[usize] {
        self.due.clear();
        self.batch.clear();
        while let Some(&Reverse((t, c))) = self.heap.peek() {
            if t != clock {
                break;
            }
            self.heap.pop();
            self.due.push(c);
            self.batch.extend_from_slice(&self.classes[c]);
        }
        if self.due.len() > 1 {
            self.batch.sort_unstable();
        }
        &self.batch
    }

    /// Puts the classes just popped back at their next release: the one
    /// their first task drew (every task of a larger class draws the same).
    fn reschedule(&mut self, next_release: &[Instant]) {
        for &c in &self.due {
            self.heap
                .push(Reverse((next_release[self.classes[c][0]], c)));
        }
    }
}

/// Runs one simulation of the task table under `rules`, drawing each
/// admitted job's execution time with `draw(task index, rng)`.
///
/// The engine is an event calendar: a release heap with one entry per
/// release class (the tasks that share a period, or each task alone under
/// jitter), a ready queue keyed by `(EDF key, task index)`, and a deadline
/// heap. A job costs a share of its class's calendar entry, a sort when
/// several classes release at one instant, and heap operations
/// logarithmic in the pending-job count. An escalation costs one pass over
/// the pending slots and a linear rebuild of the ready queue. The rules
/// are the paper's §III operational model over `L` modes:
///
/// * the system starts in mode 0, and a job above the mode is dispatched
///   by its virtual deadline for that mode;
/// * while at least `rules.threshold` pending jobs have exhausted the
///   current mode's budget, the system escalates one mode, applies the
///   LC policy to the jobs below the new mode and re-keys the ready queue;
///   overruns below the threshold are contained at task level;
/// * releases below the mode are rejected (drop-all) or degraded;
/// * the system returns to mode 0 once no job at or above the current
///   mode is pending.
///
/// # Errors
///
/// Returns [`SchedError::SimulationDiverged`] for a zero period or if the
/// event loop ever outruns [`event_bound`], and
/// [`SchedError::EmptyTaskSet`] for an empty table.
pub(super) fn run(
    tasks: &[TaskRow],
    rules: &Rules,
    mut draw: impl FnMut(usize, &mut StdRng) -> Duration,
) -> Result<Counts, SchedError> {
    let levels = rules.levels;
    let max_events = event_bound(
        tasks.iter().map(|t| t.period),
        rules.horizon,
        EVENTS_PER_RELEASE + (levels as u64).saturating_sub(2),
    )?;
    let mut rng = StdRng::seed_from_u64(rules.seed);
    let mut calendar = Calendar::new(tasks, rules.release_jitter);
    let mut next_release = vec![Instant::ZERO; tasks.len()];
    let mut pending = Pending::new(tasks.len(), levels);
    // Jobs that exhausted a budget since the last overrun check.
    let mut fresh_overruns: Vec<(u64, usize)> = Vec::new();
    let mut next_id: u64 = 0;
    let mut mode = 0;
    let mut mode_entered = Instant::ZERO;
    let mut clock = Instant::ZERO;
    let mut counts = Counts {
        metrics: MultiSimMetrics {
            released_per_level: vec![0; levels],
            completed_per_level: vec![0; levels],
            misses_per_level: vec![0; levels],
            escalations: vec![0; levels.saturating_sub(1)],
            time_in_mode: vec![Duration::ZERO; levels],
            horizon: rules.horizon,
            ..MultiSimMetrics::default()
        },
        degraded: 0,
        contained: 0,
    };
    let horizon = Instant::ZERO + rules.horizon;
    let mut guard: u64 = 0;

    loop {
        guard += 1;
        if guard > max_events {
            return Err(SchedError::SimulationDiverged);
        }

        // Dispatch: EDF over the current mode's keys. Ties break on task
        // index for determinism.
        let running = pending.head();

        // Next event time. An empty release calendar is a structural error
        // (guarded above), never a panic: mc-serve workers simulate task
        // sets rebuilt from shipped specs and must fail a unit, not crash.
        let t_release = calendar.next().ok_or(SchedError::EmptyTaskSet)?;
        let mut t_next = horizon.min(t_release);
        if let Some(j) = running.and_then(|slot| pending.slots[slot].as_ref()) {
            t_next = t_next.min(clock + j.remaining);
            // The running job's crossing of the current mode's budget.
            if let Some(&budget) = j.lower_budgets.get(mode) {
                if j.executed < budget {
                    t_next = t_next.min(clock + (budget - j.executed));
                }
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
        if let Some(slot) = running {
            counts.metrics.busy_time += delta;
            let (overran, done) = pending.advance(slot, delta);
            if let Some(id) = overran {
                fresh_overruns.push((id, slot));
            }
            if done {
                completed = Some(slot);
            }
        }
        clock = t_next;

        if clock >= horizon {
            break;
        }

        // 1. Completion of the running job.
        if let Some(j) = completed.and_then(|slot| pending.remove(slot)) {
            counts.metrics.completed_per_level[j.level()] += 1;
            counts.degraded += u64::from(j.degraded);
        }

        // 2. Budget overruns. Below the threshold each overrunning job is
        // contained at task level (counted once per job); at the
        // threshold the system escalates, one mode at a time.
        if rules.threshold > 1 && mode + 1 < levels {
            for &(id, slot) in &fresh_overruns {
                if let Some(j) = pending.slots[slot].as_mut().filter(|j| j.id == id) {
                    if !j.contained {
                        j.contained = true;
                        counts.contained += 1;
                    }
                }
            }
        }
        fresh_overruns.clear();
        while mode + 1 < levels && pending.overrunning[mode] >= rules.threshold {
            counts.metrics.escalations[mode] += 1;
            counts.metrics.time_in_mode[mode] += clock - mode_entered;
            mode_entered = clock;
            mode += 1;
            pending.enter(mode, rules.lc_policy, &mut counts);
        }

        // 3. Deadline misses: any unfinished job past its absolute deadline
        // is killed and counted.
        while let Some(j) = pending.pop_missed(clock) {
            counts.metrics.misses_per_level[j.level()] += 1;
        }

        // 4. §III: back to mode 0 once no job at or above the mode is
        // pending. Jobs left behind sit below the old mode and were keyed
        // by their real deadline; only a job above level 0 changes key.
        if mode > 0 && pending.per_level[mode..].iter().all(|&n| n == 0) {
            counts.metrics.time_in_mode[mode] += clock - mode_entered;
            mode_entered = clock;
            if mode > 1 {
                pending.enter(0, rules.lc_policy, &mut counts);
            }
            mode = 0;
        }

        // 5. Releases due now, in task order.
        for &idx in calendar.pop_due(clock) {
            let task = &tasks[idx];
            // Sporadic semantics: the period is the *minimum* separation;
            // jitter pushes the next release later, never earlier.
            let jitter = if rules.release_jitter.is_zero() {
                Duration::ZERO
            } else {
                Duration::from_nanos(rng.random_range(0..=rules.release_jitter.as_nanos()))
            };
            next_release[idx] = clock + task.period + jitter;
            let below_mode = task.level < mode;
            if below_mode && rules.lc_policy == LcPolicy::DropAll {
                counts.metrics.releases_rejected += 1;
                continue;
            }
            counts.metrics.released_per_level[task.level] += 1;
            let id = next_id;
            next_id += 1;
            let mut job = Job {
                id,
                task_idx: idx,
                task,
                lower_budgets: &task.budgets[..task.level],
                release: clock,
                abs_deadline: clock + task.deadline,
                remaining: draw(idx, &mut rng),
                executed: Duration::ZERO,
                degraded: false,
                contained: false,
            };
            if let (true, LcPolicy::Degrade(f)) = (below_mode, rules.lc_policy) {
                job.degrade(f);
            }
            let (slot, overruns) = pending.insert(job, mode);
            if overruns {
                fresh_overruns.push((id, slot));
            }
        }
        calendar.reschedule(&next_release);
    }

    counts.metrics.time_in_mode[mode] += clock.min(horizon) - mode_entered;
    Ok(counts)
}

/// Runs one simulation of `ts` under `cfg` and returns the collected
/// metrics: the engine with two levels, LC tasks at level 0 with budget
/// `C_LO` and HC tasks at level 1 with budgets `(C_LO, C_HI)` and the
/// EDF-VD virtual deadline `x·D` in LO mode.
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
    // Deriving `x` divides by every period: fail a zero period (a
    // deserialized set) the way the engine's guard would.
    if ts.iter().any(|t| t.period().is_zero()) {
        return Err(SchedError::SimulationDiverged);
    }
    let x = match cfg.x_factor {
        Some(x) => x,
        None => edf_vd::x_factor(ts.u_hc_lo(), ts.u_lc_lo()).unwrap_or(1.0),
    };
    let table: Vec<TaskRow> = ts
        .iter()
        .map(|task| {
            let level = usize::from(task.is_high());
            TaskRow {
                period: task.period(),
                deadline: task.deadline(),
                level,
                budgets: [task.c_lo(), task.c_hi()][..=level].to_vec(),
                virtual_deadlines: [edf_vd::virtual_deadline(task, x)][..level].to_vec(),
            }
        })
        .collect();
    let rules = Rules {
        levels: 2,
        horizon: cfg.horizon,
        lc_policy: cfg.lc_policy,
        threshold: cfg.mode_switch.threshold(),
        release_jitter: cfg.release_jitter,
        seed: cfg.seed,
    };
    let tasks = ts.tasks();
    let c = run(&table, &rules, |idx, rng| {
        cfg.exec_model.draw(&tasks[idx], rng)
    })?;
    // Only level 0 (LC) sits below a mode, so every kill, rejection and
    // degraded completion is an LC one.
    let m = &c.metrics;
    Ok(SimMetrics {
        hc_released: m.released_per_level[1],
        lc_released: m.released_per_level[0],
        hc_completed: m.completed_per_level[1],
        lc_completed: m.completed_per_level[0] - c.degraded,
        lc_degraded: c.degraded,
        lc_dropped_at_switch: m.jobs_killed,
        lc_rejected_in_hi: m.releases_rejected,
        hc_deadline_misses: m.misses_per_level[1],
        lc_deadline_misses: m.misses_per_level[0],
        mode_switches: m.escalations[0],
        task_level_switches: c.contained,
        time_in_hi: m.time_in_mode[1],
        busy_time: m.busy_time,
        horizon: m.horizon,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_task::task::{McTask, TaskId};
    use mc_task::Criticality;

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
    fn returning_to_mode_zero_rekeys_degraded_jobs_above_level_zero() {
        // Three levels under Degrade(1.0), a combination no adapter runs.
        // A's first millisecond exhausts C(0) and C(1): the system climbs
        // to mode 2, where B (level 1) and C (level 0) stay pending under
        // their real deadlines. A completes at 10 ms and the system
        // returns to mode 0, where B's virtual deadline (12 ms) precedes
        // C's deadline (14 ms): B runs and completes at its 15 ms
        // deadline, and only C misses. Keeping the mode-2 keys would run
        // C first and miss both.
        let row = |deadline: u64, budgets: &[u64], vds: &[u64]| TaskRow {
            period: Duration::from_millis(100),
            deadline: Duration::from_millis(deadline),
            level: budgets.len() - 1,
            budgets: budgets.iter().map(|&b| Duration::from_millis(b)).collect(),
            virtual_deadlines: vds.iter().map(|&v| Duration::from_millis(v)).collect(),
        };
        let table = [
            row(12, &[1, 1, 10], &[1, 1]),
            row(15, &[5, 5], &[12]),
            row(14, &[5], &[]),
        ];
        let rules = Rules {
            levels: 3,
            horizon: Duration::from_millis(50),
            lc_policy: LcPolicy::Degrade(1.0),
            threshold: 1,
            release_jitter: Duration::ZERO,
            seed: 0,
        };
        let c = run(&table, &rules, |idx, _| *table[idx].budgets.last().unwrap()).unwrap();
        assert_eq!(c.metrics.escalations, vec![1, 1]);
        assert_eq!(c.metrics.completed_per_level, vec![0, 1, 1]);
        assert_eq!(c.metrics.misses_per_level, vec![1, 0, 0]);
        assert_eq!(c.degraded, 0);
    }

    #[test]
    fn zero_period_diverges_before_release_classes_form() {
        // The builder rejects a zero period; a deserialised set is the one
        // way in. It fails before the calendar groups the tasks, with or
        // without jitter, and before a derived `x` divides by the period.
        let task = |id: u32, period: u64| {
            format!(
                r#"{{"id":{id},"name":"","criticality":"Hi","c_lo":1000,"c_hi":2000,"period":{period},"deadline":{period},"profile":null}}"#
            )
        };
        let json = format!(
            r#"{{"tasks":[{},{},{}]}}"#,
            task(0, 0),
            task(1, 1_000_000),
            task(2, 0)
        );
        let ts: TaskSet = serde_json::from_str(&json).unwrap();
        for jitter in [Duration::ZERO, Duration::from_micros(100)] {
            for x_factor in [None, Some(0.5)] {
                let c = SimConfig {
                    release_jitter: jitter,
                    x_factor,
                    ..cfg(JobExecModel::FullHiBudget)
                };
                assert!(matches!(
                    simulate(&ts, &c),
                    Err(SchedError::SimulationDiverged)
                ));
            }
        }
    }

    #[test]
    fn a_single_release_class_matches_the_reference() {
        // Every task shares one period, so without jitter the calendar
        // holds one class and never merges; with jitter each task is its
        // own class again.
        use crate::sim::reference::simulate_reference;
        let ts = TaskSet::from_tasks(vec![
            hc(0, 10, 30, 100),
            lc(1, 20, 100),
            hc(2, 5, 25, 100),
            lc(3, 15, 100),
            hc(4, 8, 16, 100),
        ])
        .unwrap();
        for model in [
            JobExecModel::FullLoBudget,
            JobExecModel::FullHiBudget,
            JobExecModel::FractionOfLo(0.5),
            JobExecModel::OverrunWithProbability(0.3),
        ] {
            for lc_policy in [LcPolicy::DropAll, LcPolicy::Degrade(0.5)] {
                for mode_switch in [
                    ModeSwitchPolicy::System,
                    ModeSwitchPolicy::TaskLevelThenSystem,
                ] {
                    for jitter in [Duration::ZERO, Duration::from_millis(30)] {
                        let c = SimConfig {
                            lc_policy,
                            mode_switch,
                            release_jitter: jitter,
                            ..cfg(model)
                        };
                        assert_eq!(simulate(&ts, &c), simulate_reference(&ts, &c), "{c:?}");
                    }
                }
            }
        }
        let m = simulate(&ts, &cfg(JobExecModel::FullHiBudget)).unwrap();
        assert!(m.mode_switches > 0, "the set must escalate");
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
