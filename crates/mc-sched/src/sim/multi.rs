//! Discrete-event simulation of multi-level criticality systems: the
//! event-calendar engine of [`super::engine`] run over the set's `L` modes.
//!
//! The system starts in mode 0; when a job exhausts its current-mode
//! budget without finishing, the system escalates one mode, killing the
//! jobs (and rejecting the releases) of tasks whose criticality level is
//! below the new mode. Each task above the current mode is dispatched
//! against a pairwise EDF-VD virtual deadline (factor `x_k` from the
//! mode-`k` dual reduction); the system returns to mode 0 as soon as no
//! job at or above the current mode is pending.

use super::engine::{run, ModeSwitchPolicy, Rules, TaskRow};
use super::LcPolicy;
use crate::analysis::edf_vd;
use crate::SchedError;
use mc_stats::dist::standard_normal;
use mc_task::multi::{MultiTask, MultiTaskSet};
use mc_task::time::Duration;
use rand::Rng;
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
    pub(super) fn draw<R: Rng + ?Sized>(&self, task: &MultiTask, rng: &mut R) -> Duration {
        let one = Duration::from_nanos(1);
        let lowest = task.budgets()[0];
        let top = *task.budgets().last().expect("non-empty budgets");
        match self {
            MultiExecModel::FullLowestBudget => lowest.clamp(one, top),
            MultiExecModel::FullTopBudget => top.max(one),
            MultiExecModel::Profile => match task.profile() {
                Some(p) => {
                    // A zero σ pins the draw to the ACET without using the RNG.
                    let z = if p.sigma() > 0.0 {
                        standard_normal(rng)
                    } else {
                        0.0
                    };
                    Duration::try_from_nanos_f64_ceil((p.acet() + p.sigma() * z).max(1.0))
                        .unwrap_or(top)
                        .clamp(one, top)
                }
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

/// Runs one multi-level simulation: the engine with the set's `L` levels,
/// drop-all at every escalation, system-level switching and periodic
/// releases. A task above mode `k` is dispatched by the virtual deadline
/// `min(P·x_k, P)`, with `x_k` from the mode-`k` dual reduction (1.0 when
/// that pair has no valid factor).
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
    // The dual reductions divide by every period: fail a zero period (a
    // deserialized set) the way the engine's guard would.
    if ts.iter().any(|t| t.period().is_zero()) {
        return Err(SchedError::SimulationDiverged);
    }
    let levels = ts.levels();
    let x: Vec<f64> = (0..levels - 1)
        .map(|k| {
            ts.reduce_to_dual(k)
                .ok()
                .and_then(|(u_hc_lo, _, u_lc_lo)| edf_vd::x_factor(u_hc_lo, u_lc_lo))
                .unwrap_or(1.0)
        })
        .collect();
    let tasks: Vec<&MultiTask> = ts.iter().collect();
    let table: Vec<TaskRow> = tasks
        .iter()
        .map(|t| TaskRow {
            period: t.period(),
            deadline: t.period(),
            level: t.level(),
            budgets: t.budgets().to_vec(),
            virtual_deadlines: x[..t.level()]
                .iter()
                .map(|x| {
                    t.period()
                        .mul_f64(x.clamp(0.0, 1.0))
                        .max(Duration::from_nanos(1))
                        .min(t.period())
                })
                .collect(),
        })
        .collect();
    let rules = Rules {
        levels,
        horizon: cfg.horizon,
        lc_policy: LcPolicy::DropAll,
        threshold: ModeSwitchPolicy::System.threshold(),
        release_jitter: Duration::ZERO,
        seed: cfg.seed,
    };
    let counts = run(&table, &rules, |idx, rng| {
        cfg.exec_model.draw(tasks[idx], rng)
    })?;
    Ok(counts.metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate, JobExecModel, SimConfig, SimMetrics};
    use mc_fault::{assert_prop, FaultRng, PropConfig};
    use mc_task::task::TaskId;
    use mc_task::{Criticality, ExecutionProfile, McTask, TaskSet};
    use std::cell::Cell;

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

    /// A random two-level system built twice, as a `MultiTaskSet` and as
    /// the equivalent dual-criticality `TaskSet`: implicit deadlines,
    /// mixed levels, half the sets on a period ladder so releases and
    /// deadlines collide, loads up to 1.6, and HC profiles with `σ = 0` or
    /// `σ > 0`.
    fn two_level_pair(rng: &mut FaultRng) -> (MultiTaskSet, TaskSet) {
        const LADDER_US: [u64; 4] = [500, 1_000, 2_000, 5_000];
        let ladder = rng.bool(0.5);
        let n = rng.range_u64(1, 8);
        // Up to 1.6x overload, so some sets miss deadlines.
        let load = rng.range_f64(0.3, 1.6);
        let mut multi = MultiTaskSet::new(2).unwrap();
        let mut dual = TaskSet::new();
        for i in 0..n {
            let id = TaskId::new(i as u32);
            let period = Duration::from_nanos(if ladder {
                LADDER_US[rng.below(LADDER_US.len() as u64) as usize] * 1_000
            } else {
                rng.range_u64(200_000, 5_000_000)
            });
            let share = (period.as_nanos() as f64 * load / n as f64) as u64;
            let top = rng.range_u64(1, share.clamp(2, period.as_nanos()));
            let builder = McTask::builder(id).period(period);
            if rng.bool(0.5) {
                let (c_lo, c_hi) = (
                    Duration::from_nanos(rng.range_u64(1, top)),
                    Duration::from_nanos(top),
                );
                let profile = match rng.below(3) {
                    0 => None,
                    k => {
                        let acet = (c_lo.as_nanos() as f64 * rng.range_f64(0.5, 1.5))
                            .clamp(1.0, top as f64);
                        let sigma = if k == 1 {
                            0.0
                        } else {
                            acet * rng.range_f64(0.05, 0.5)
                        };
                        Some(ExecutionProfile::new(acet, sigma, top as f64).unwrap())
                    }
                };
                multi
                    .push(MultiTask::new(id, "", 1, vec![c_lo, c_hi], period, profile).unwrap())
                    .unwrap();
                let mut builder = builder.criticality(Criticality::Hi).c_lo(c_lo).c_hi(c_hi);
                if let Some(p) = profile {
                    builder = builder.profile(p);
                }
                dual.push(builder.build().unwrap()).unwrap();
            } else {
                let c = Duration::from_nanos(top);
                multi
                    .push(MultiTask::new(id, "", 0, vec![c], period, None).unwrap())
                    .unwrap();
                dual.push(builder.c_lo(c).build().unwrap()).unwrap();
            }
        }
        (multi, dual)
    }

    /// The dual engine's counters in the multi-level shape.
    fn as_multi(m: &SimMetrics) -> MultiSimMetrics {
        MultiSimMetrics {
            released_per_level: vec![m.lc_released, m.hc_released],
            completed_per_level: vec![m.lc_completed + m.lc_degraded, m.hc_completed],
            misses_per_level: vec![m.lc_deadline_misses, m.hc_deadline_misses],
            escalations: vec![m.mode_switches],
            jobs_killed: m.lc_dropped_at_switch,
            releases_rejected: m.lc_rejected_in_hi,
            time_in_mode: vec![m.horizon - m.time_in_hi, m.time_in_hi],
            busy_time: m.busy_time,
            horizon: m.horizon,
        }
    }

    #[test]
    fn two_level_multi_matches_dual_engine_counters() {
        // Dual criticality is the case L = 2: under drop-all, system-level
        // switching, zero jitter and derived x, both simulators must agree
        // on every counter for the three execution models they share.
        let (switched, killed, missed) = (Cell::new(0u32), Cell::new(0u32), Cell::new(0u32));
        assert_prop(
            &PropConfig::named("two-level-multi-vs-dual").cases(600),
            |rng| rng.next_u64(),
            |&scenario| {
                let mut rng = FaultRng::new(scenario);
                let (multi, dual) = two_level_pair(&mut rng);
                let (multi_model, dual_model) = match rng.below(3) {
                    0 => (MultiExecModel::FullLowestBudget, JobExecModel::FullLoBudget),
                    1 => (MultiExecModel::FullTopBudget, JobExecModel::FullHiBudget),
                    _ => (MultiExecModel::Profile, JobExecModel::Profile),
                };
                let horizon = Duration::from_micros(rng.range_u64(1_000, 200_000));
                let seed = rng.next_u64();
                let mm = simulate_multi(
                    &multi,
                    &MultiSimConfig {
                        horizon,
                        exec_model: multi_model,
                        seed,
                    },
                )
                .map_err(|e| e.to_string())?;
                let mut dual_cfg = SimConfig::new(horizon);
                dual_cfg.exec_model = dual_model;
                dual_cfg.seed = seed;
                let dm = simulate(&dual, &dual_cfg).map_err(|e| e.to_string())?;
                if mm != as_multi(&dm) {
                    return Err(format!(
                        "{multi_model:?}:\n  multi: {mm:?}\n  dual:  {dm:?}"
                    ));
                }
                let bump = |c: &Cell<u32>, hit: bool| c.set(c.get() + u32::from(hit));
                bump(&switched, dm.mode_switches > 0);
                bump(&killed, dm.lc_dropped_at_switch > 0);
                bump(&missed, dm.hc_deadline_misses + dm.lc_deadline_misses > 0);
                Ok(())
            },
        );
        for (what, c) in [
            ("mode switches", &switched),
            ("kills at a switch", &killed),
            ("deadline misses", &missed),
        ] {
            assert!(c.get() > 0, "no case exercised {what}");
        }
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
