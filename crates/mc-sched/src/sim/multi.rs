//! Discrete-event simulation of multi-level criticality systems.
//!
//! Generalises the dual-criticality engine to `L` modes: the system starts
//! in mode 0; when a running job exhausts its current-mode budget without
//! finishing, the system escalates one mode, killing the jobs (and
//! rejecting the releases) of tasks whose criticality level is below the
//! new mode. Each task above the current mode is dispatched against a
//! pairwise EDF-VD virtual deadline (factor `x_k` from the mode-`k` dual
//! reduction); the system returns to mode 0 as soon as no job at or above
//! the current mode is ready.

use super::engine::{event_bound, EVENTS_PER_RELEASE};
use crate::analysis::edf_vd;
use crate::SchedError;
use mc_task::multi::{MultiTask, MultiTaskSet};
use mc_task::time::{Duration, Instant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Per-job execution-time models for multi-level simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MultiExecModel {
    /// Every job runs exactly its mode-0 budget: never escalates.
    FullLowestBudget,
    /// Every job runs its *top* budget: escalates as hard as possible.
    FullTopBudget,
    /// Profile-driven: normal around `(ACET, σ)` clamped into
    /// `[1 ns, top]`; tasks without a profile draw uniformly from
    /// `[½·C(0), C(0)]`.
    Profile,
}

impl MultiExecModel {
    fn draw<R: Rng + ?Sized>(&self, task: &MultiTask, rng: &mut R) -> Duration {
        let one = Duration::from_nanos(1);
        let lowest = task.budgets()[0];
        let top = *task.budgets().last().expect("non-empty budgets");
        match self {
            MultiExecModel::FullLowestBudget => lowest.clamp(one, top),
            MultiExecModel::FullTopBudget => top.max(one),
            MultiExecModel::Profile => match task.profile() {
                Some(p) if p.sigma() > 0.0 => {
                    let u1: f64 = loop {
                        let u: f64 = rng.random();
                        if u > 0.0 {
                            break u;
                        }
                    };
                    let u2: f64 = rng.random();
                    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    let x = (p.acet() + p.sigma() * z).max(1.0);
                    Duration::try_from_nanos_f64_ceil(x)
                        .unwrap_or(top)
                        .clamp(one, top)
                }
                Some(p) => Duration::try_from_nanos_f64_ceil(p.acet().max(1.0))
                    .unwrap_or(top)
                    .clamp(one, top),
                None => {
                    let f = 0.5 + 0.5 * rng.random::<f64>();
                    lowest.mul_f64(f).clamp(one, top)
                }
            },
        }
    }
}

/// Configuration of one multi-level simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiSimConfig {
    /// Simulated time span.
    pub horizon: Duration,
    /// Per-job execution-time model.
    pub exec_model: MultiExecModel,
    /// RNG seed.
    pub seed: u64,
}

/// Metrics of one multi-level run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MultiSimMetrics {
    /// Jobs released, indexed by task criticality level.
    pub released_per_level: Vec<u64>,
    /// Jobs completed, indexed by task criticality level.
    pub completed_per_level: Vec<u64>,
    /// Deadline misses, indexed by task criticality level.
    pub misses_per_level: Vec<u64>,
    /// Escalations out of each mode (`escalations[k]` = mode k → k+1).
    pub escalations: Vec<u64>,
    /// Jobs killed at escalations.
    pub jobs_killed: u64,
    /// Releases rejected because the task's level was below the mode.
    pub releases_rejected: u64,
    /// Time spent in each mode.
    pub time_in_mode: Vec<Duration>,
    /// Processor busy time.
    pub busy_time: Duration,
    /// Total simulated time.
    pub horizon: Duration,
}

impl MultiSimMetrics {
    /// Deadline misses of the *top* criticality level — a sound design has
    /// none.
    pub fn top_level_misses(&self) -> u64 {
        self.misses_per_level.last().copied().unwrap_or(0)
    }

    /// Total escalations across all modes.
    pub fn total_escalations(&self) -> u64 {
        self.escalations.iter().sum()
    }
}

#[derive(Debug, Clone)]
struct Job {
    task_idx: usize,
    level: usize,
    abs_deadline: Instant,
    release: Instant,
    remaining: Duration,
    executed: Duration,
}

/// Runs one multi-level simulation.
///
/// # Errors
///
/// Returns [`SchedError::EmptyTaskSet`] for an empty set,
/// [`SchedError::InvalidSimConfig`] for a zero horizon, and
/// [`SchedError::SimulationDiverged`] for a zero period or if the event
/// guard trips.
pub fn simulate_multi(
    ts: &MultiTaskSet,
    cfg: &MultiSimConfig,
) -> Result<MultiSimMetrics, SchedError> {
    if ts.is_empty() {
        return Err(SchedError::EmptyTaskSet);
    }
    if cfg.horizon.is_zero() {
        return Err(SchedError::InvalidSimConfig {
            reason: "horizon must be non-zero",
        });
    }
    let levels = ts.levels();
    // The dual engine's guard with one more budget crossing per job for
    // every level above two: a job escalates through at most `L − 1`
    // budgets, so `L + 1` events per release suffice, plus one of margin.
    let max_events = event_bound(
        ts.iter().map(MultiTask::period),
        cfg.horizon,
        EVENTS_PER_RELEASE + (levels as u64).saturating_sub(2),
    )?;
    let tasks: Vec<&MultiTask> = ts.iter().collect();
    // Pairwise virtual-deadline factors x_k (1.0 when no valid factor —
    // dispatch falls back to plain EDF for that pair).
    let x: Vec<f64> = (0..levels - 1)
        .map(|k| {
            ts.reduce_to_dual(k)
                .ok()
                .and_then(|(u_hc_lo, _, u_lc_lo)| edf_vd::x_factor(u_hc_lo, u_lc_lo))
                .unwrap_or(1.0)
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut metrics = MultiSimMetrics {
        released_per_level: vec![0; levels],
        completed_per_level: vec![0; levels],
        misses_per_level: vec![0; levels],
        escalations: vec![0; levels - 1],
        time_in_mode: vec![Duration::ZERO; levels],
        horizon: cfg.horizon,
        ..MultiSimMetrics::default()
    };
    let horizon = Instant::ZERO + cfg.horizon;
    let mut next_release: Vec<Instant> = vec![Instant::ZERO; tasks.len()];
    let mut pending: Vec<Job> = Vec::new();
    let mut mode = 0usize;
    let mut clock = Instant::ZERO;
    let mut mode_entered = Instant::ZERO;

    let effective_deadline = |j: &Job, mode: usize| -> Instant {
        if j.level > mode && mode < levels - 1 {
            let vd = tasks[j.task_idx]
                .period()
                .mul_f64(x[mode].clamp(0.0, 1.0))
                .max(Duration::from_nanos(1));
            (j.release + vd).min(j.abs_deadline)
        } else {
            j.abs_deadline
        }
    };

    let mut events = 0u64;
    loop {
        events += 1;
        if events > max_events {
            return Err(SchedError::SimulationDiverged);
        }

        let running_idx = pending
            .iter()
            .enumerate()
            .min_by_key(|(_, j)| (effective_deadline(j, mode), j.task_idx))
            .map(|(i, _)| i);

        let t_release = next_release
            .iter()
            .copied()
            .min()
            .expect("non-empty task set");
        let mut t_next = horizon.min(t_release);
        if let Some(ri) = running_idx {
            let j = &pending[ri];
            t_next = t_next.min(clock + j.remaining);
            let budget = tasks[j.task_idx]
                .budget(mode.min(j.level))
                .expect("alive jobs have a budget at the current mode");
            if j.executed < budget {
                t_next = t_next.min(clock + (budget - j.executed));
            }
        }
        if let Some(d) = pending.iter().map(|j| j.abs_deadline).min() {
            t_next = t_next.min(d);
        }

        let delta = t_next - clock;
        if let Some(ri) = running_idx {
            let j = &mut pending[ri];
            j.remaining = j.remaining.saturating_sub(delta);
            j.executed += delta;
            metrics.busy_time += delta;
        }
        clock = t_next;
        if clock >= horizon {
            break;
        }

        // 1. Completion.
        if let Some(ri) = running_idx {
            if pending[ri].remaining.is_zero() {
                let j = pending.swap_remove(ri);
                metrics.completed_per_level[j.level] += 1;
            }
        }

        // 2. Budget exhaustion → escalate (possibly repeatedly if the job
        // also exceeds the next mode's budget boundary at this instant).
        while mode < levels - 1 {
            let exhausted = pending.iter().any(|j| {
                let budget = tasks[j.task_idx]
                    .budget(mode.min(j.level))
                    .expect("alive jobs have a budget");
                !j.remaining.is_zero() && j.executed >= budget
            });
            if !exhausted {
                break;
            }
            metrics.escalations[mode] += 1;
            metrics.time_in_mode[mode] += clock - mode_entered;
            mode_entered = clock;
            mode += 1;
            // Kill jobs of tasks below the new mode.
            let before = pending.len();
            pending.retain(|j| j.level >= mode);
            metrics.jobs_killed += (before - pending.len()) as u64;
        }

        // 3. Deadline misses.
        let mut i = 0;
        while i < pending.len() {
            if pending[i].abs_deadline <= clock && !pending[i].remaining.is_zero() {
                let j = pending.swap_remove(i);
                metrics.misses_per_level[j.level] += 1;
            } else {
                i += 1;
            }
        }

        // 4. De-escalation: nothing at or above the current mode is ready.
        if mode > 0 && !pending.iter().any(|j| j.level >= mode) {
            metrics.time_in_mode[mode] += clock - mode_entered;
            mode_entered = clock;
            mode = 0;
        }

        // 5. Releases.
        for (idx, task) in tasks.iter().enumerate() {
            if next_release[idx] != clock {
                continue;
            }
            next_release[idx] = clock + task.period();
            if task.level() < mode {
                metrics.releases_rejected += 1;
                continue;
            }
            let exec = cfg.exec_model.draw(task, &mut rng);
            metrics.released_per_level[task.level()] += 1;
            pending.push(Job {
                task_idx: idx,
                level: task.level(),
                abs_deadline: clock + task.period(),
                release: clock,
                remaining: exec,
                executed: Duration::ZERO,
            });
        }
    }
    metrics.time_in_mode[mode] += clock.min(horizon) - mode_entered;
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_task::task::TaskId;
    use mc_task::ExecutionProfile;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn task(id: u32, level: usize, budgets_ms: &[u64], period_ms: u64) -> MultiTask {
        MultiTask::new(
            TaskId::new(id),
            "",
            level,
            budgets_ms.iter().map(|&b| ms(b)).collect(),
            ms(period_ms),
            None,
        )
        .unwrap()
    }

    fn tri_level() -> MultiTaskSet {
        let mut ts = MultiTaskSet::new(3).unwrap();
        ts.push(task(0, 2, &[5, 10, 40], 100)).unwrap();
        ts.push(task(1, 1, &[10, 20], 100)).unwrap();
        ts.push(task(2, 0, &[20], 100)).unwrap();
        ts
    }

    fn cfg(model: MultiExecModel) -> MultiSimConfig {
        MultiSimConfig {
            horizon: Duration::from_secs(10),
            exec_model: model,
            seed: 1,
        }
    }

    #[test]
    fn no_overruns_means_no_escalations() {
        let m = simulate_multi(&tri_level(), &cfg(MultiExecModel::FullLowestBudget)).unwrap();
        assert_eq!(m.total_escalations(), 0);
        assert_eq!(m.jobs_killed, 0);
        assert_eq!(m.releases_rejected, 0);
        assert!(m.misses_per_level.iter().all(|&x| x == 0));
        // 100 jobs per task over 10 s of 100 ms periods.
        assert_eq!(m.released_per_level, vec![100, 100, 100]);
        assert_eq!(m.completed_per_level, vec![100, 100, 100]);
        // All time in mode 0.
        assert_eq!(m.time_in_mode[1], Duration::ZERO);
        assert_eq!(m.time_in_mode[2], Duration::ZERO);
        // Busy = (5 + 10 + 20) ms per 100 ms → 3.5 s.
        assert_eq!(m.busy_time, Duration::from_millis(3_500));
    }

    #[test]
    fn constant_top_budget_escalates_through_all_modes() {
        let m = simulate_multi(&tri_level(), &cfg(MultiExecModel::FullTopBudget)).unwrap();
        assert!(m.escalations[0] > 0, "mode 0 → 1 must fire");
        assert!(m.escalations[1] > 0, "mode 1 → 2 must fire");
        assert!(m.jobs_killed + m.releases_rejected > 0);
        // The tri-level set is pairwise schedulable, so the top level is
        // protected even under constant worst-case behaviour.
        assert!(crate::analysis::multi::analyze(&tri_level()).schedulable);
        assert_eq!(m.top_level_misses(), 0);
        assert!(m.time_in_mode[2] > Duration::ZERO);
    }

    #[test]
    fn two_level_multi_matches_dual_engine_counters() {
        // Build the same system in both models and compare headline
        // counters under deterministic execution.
        let mut multi = MultiTaskSet::new(2).unwrap();
        multi.push(task(0, 1, &[20, 50], 100)).unwrap();
        multi.push(task(1, 0, &[30], 100)).unwrap();
        let mm = simulate_multi(&multi, &cfg(MultiExecModel::FullTopBudget)).unwrap();

        let dual = mc_task::TaskSet::from_tasks(vec![
            mc_task::McTask::builder(TaskId::new(0))
                .criticality(mc_task::Criticality::Hi)
                .period(ms(100))
                .c_lo(ms(20))
                .c_hi(ms(50))
                .build()
                .unwrap(),
            mc_task::McTask::builder(TaskId::new(1))
                .period(ms(100))
                .c_lo(ms(30))
                .build()
                .unwrap(),
        ])
        .unwrap();
        let dm = crate::sim::simulate(
            &dual,
            &crate::sim::SimConfig {
                horizon: Duration::from_secs(10),
                lc_policy: crate::sim::LcPolicy::DropAll,
                exec_model: crate::sim::JobExecModel::FullHiBudget,
                x_factor: None,
                release_jitter: Duration::ZERO,
                mode_switch: crate::sim::ModeSwitchPolicy::System,
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(mm.total_escalations(), dm.mode_switches);
        assert_eq!(mm.top_level_misses(), dm.hc_deadline_misses);
        assert_eq!(
            mm.jobs_killed + mm.releases_rejected,
            dm.lc_dropped_at_switch + dm.lc_rejected_in_hi
        );
        assert_eq!(mm.released_per_level[1], dm.hc_released);
    }

    #[test]
    fn profile_model_is_deterministic_per_seed() {
        let mut ts = tri_level();
        // Attach profiles so Profile mode has something to sample.
        for t in ts.iter_mut() {
            if t.level() > 0 {
                let top = t.budgets().last().unwrap().as_nanos() as f64;
                let lower: Vec<Duration> = (0..t.level()).map(|k| t.budgets()[k]).collect();
                *t = MultiTask::new(
                    t.id(),
                    t.name().to_string(),
                    t.level(),
                    {
                        let mut b = lower.clone();
                        b.push(*t.budgets().last().unwrap());
                        b
                    },
                    t.period(),
                    Some(ExecutionProfile::new(top / 10.0, top / 50.0, top).unwrap()),
                )
                .unwrap();
            }
        }
        let a = simulate_multi(&ts, &cfg(MultiExecModel::Profile)).unwrap();
        let b = simulate_multi(&ts, &cfg(MultiExecModel::Profile)).unwrap();
        assert_eq!(a, b);
        let mut c2 = cfg(MultiExecModel::Profile);
        c2.seed = 2;
        let c = simulate_multi(&ts, &c2).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn job_conservation_per_level() {
        for model in [
            MultiExecModel::FullLowestBudget,
            MultiExecModel::FullTopBudget,
            MultiExecModel::Profile,
        ] {
            let m = simulate_multi(&tri_level(), &cfg(model)).unwrap();
            let released: u64 = m.released_per_level.iter().sum();
            let completed: u64 = m.completed_per_level.iter().sum();
            let missed: u64 = m.misses_per_level.iter().sum();
            let accounted = completed + missed + m.jobs_killed;
            assert!(accounted <= released, "{model:?}");
            assert!(released - accounted <= 3, "{model:?}: too many in flight");
            assert!(m.busy_time <= m.horizon);
            let mode_time: Duration = m
                .time_in_mode
                .iter()
                .fold(Duration::ZERO, |acc, &t| acc + t);
            assert_eq!(mode_time, m.horizon, "{model:?}: mode times partition time");
        }
    }

    #[test]
    fn escalating_runs_fit_the_level_scaled_guard() {
        // One level-3 task on four levels, always running its top budget:
        // each job releases, crosses three budgets (one escalation each)
        // and completes — five events per release, more than the dual
        // engine's four, so the guard must grow with the level count.
        let mut ts = MultiTaskSet::new(4).unwrap();
        ts.push(task(0, 3, &[1, 2, 3, 4], 100)).unwrap();
        let m = simulate_multi(&ts, &cfg(MultiExecModel::FullTopBudget)).unwrap();
        assert_eq!(m.escalations, vec![100, 100, 100]);
        assert_eq!(m.completed_per_level[3], 100);
        assert_eq!(m.top_level_misses(), 0);
    }

    #[test]
    fn zero_periods_diverge_up_front() {
        // The constructor rejects a zero period; a deserialised set is
        // the one way in.
        let json = serde_json::to_string(&tri_level()).unwrap();
        let level0 = r#""budgets":[20000000],"period":100000000"#;
        assert!(json.contains(level0), "{json}");
        let json = json.replace(level0, r#""budgets":[20000000],"period":0"#);
        let ts: MultiTaskSet = serde_json::from_str(&json).unwrap();
        assert_eq!(
            simulate_multi(&ts, &cfg(MultiExecModel::FullLowestBudget)),
            Err(SchedError::SimulationDiverged)
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let ts = tri_level();
        let mut c = cfg(MultiExecModel::FullLowestBudget);
        c.horizon = Duration::ZERO;
        assert!(simulate_multi(&ts, &c).is_err());
        let empty = MultiTaskSet::new(2).unwrap();
        assert!(matches!(
            simulate_multi(&empty, &cfg(MultiExecModel::Profile)),
            Err(SchedError::EmptyTaskSet)
        ));
    }
}
