//! The original linear-scan simulators, kept as differential oracles for
//! the event-calendar engine in [`super::engine`]: this module holds the
//! dual-criticality loop, [`multi`] the `L`-level one. Test builds only.

mod multi;

use super::engine::{event_bound, ModeSwitchPolicy, SimConfig, EVENTS_PER_RELEASE};
use super::metrics::SimMetrics;
use super::LcPolicy;
use crate::analysis::edf_vd;
use crate::SchedError;
use mc_task::time::{Duration, Instant};
use mc_task::{Criticality, McTask, TaskSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone)]
struct Job {
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

/// Case count for the oracle properties: `default` unless
/// `CHEBYMC_ORACLE_CASES` overrides it (CI runs the suites in release with
/// thousands of cases).
fn oracle_cases(default: u32) -> u32 {
    std::env::var("CHEBYMC_ORACLE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Whether two release classes of the engine's calendar (with zero jitter,
/// the tasks of one period) with interleaved task indices both release at
/// some instant in `(0, horizon)`, so their merge into task order is
/// exercised past `t = 0`.
fn merges_interleaved_classes(periods: &[Duration], horizon: Duration) -> bool {
    let mut by_period = std::collections::BTreeMap::<u64, Vec<usize>>::new();
    for (i, p) in periods.iter().enumerate() {
        by_period.entry(p.as_nanos()).or_default().push(i);
    }
    let classes: Vec<(u64, Vec<usize>)> = by_period.into_iter().collect();
    let gcd = |mut a: u64, mut b: u64| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    classes.iter().enumerate().any(|(k, &(pa, ref a))| {
        classes[k + 1..].iter().any(|&(pb, ref b)| {
            let interleaved = a[0] < b[b.len() - 1] && b[0] < a[a.len() - 1];
            let lcm = u128::from(pa / gcd(pa, pb)) * u128::from(pb);
            interleaved && lcm < u128::from(horizon.as_nanos())
        })
    })
}

/// Whether two tasks share a period: under jitter the engine must still
/// keep them in classes of their own.
fn shares_a_period(periods: &[Duration]) -> bool {
    let mut sorted = periods.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).any(|w| w[0] == w[1])
}

/// The linear-scan engine, verbatim apart from the shared event bound:
/// every loop iteration scans all tasks for the next release and all
/// pending jobs for dispatch, the earliest deadline, and overruns.
pub(super) fn simulate_reference(ts: &TaskSet, cfg: &SimConfig) -> Result<SimMetrics, SchedError> {
    cfg.validate()?;
    if ts.is_empty() {
        return Err(SchedError::EmptyTaskSet);
    }
    let x = match cfg.x_factor {
        Some(x) => x,
        None => edf_vd::x_factor(ts.u_hc_lo(), ts.u_lc_lo()).unwrap_or(1.0),
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let tasks = ts.tasks();
    let mut next_release: Vec<Instant> = vec![Instant::ZERO; tasks.len()];
    let mut pending: Vec<Job> = Vec::new();
    let mut mode = Criticality::Lo;
    let mut clock = Instant::ZERO;
    let mut metrics = SimMetrics {
        horizon: cfg.horizon,
        ..SimMetrics::default()
    };
    let horizon = Instant::ZERO + cfg.horizon;
    let mut hi_entered_at: Option<Instant> = None;

    let mut guard: u64 = 0;
    let max_events = event_bound(
        ts.iter().map(McTask::period),
        cfg.horizon,
        EVENTS_PER_RELEASE,
    )?;

    loop {
        guard += 1;
        if guard > max_events {
            return Err(SchedError::SimulationDiverged);
        }

        // Dispatch: EDF over virtual deadlines in LO mode, real deadlines in
        // HI mode. Ties break on task index for determinism.
        let running_idx = pending
            .iter()
            .enumerate()
            .min_by_key(|(_, j)| {
                let key = match mode {
                    Criticality::Lo => j.virtual_deadline,
                    Criticality::Hi => j.abs_deadline,
                };
                (key, j.task_idx)
            })
            .map(|(i, _)| i);

        // Next event time. An empty release queue is a structural error
        // (guarded above), never a panic: mc-serve workers simulate task
        // sets rebuilt from shipped specs and must fail a unit, not crash.
        let t_release = next_release
            .iter()
            .copied()
            .min()
            .ok_or(SchedError::EmptyTaskSet)?;
        let mut t_next = horizon.min(t_release);
        if let Some(ri) = running_idx {
            let j = &pending[ri];
            let t_complete = clock + j.remaining;
            t_next = t_next.min(t_complete);
            if mode == Criticality::Lo && j.criticality.is_high() && j.executed < j.budget_lo {
                let t_switch = clock + (j.budget_lo - j.executed);
                t_next = t_next.min(t_switch);
            }
            // Deadline of the running job (miss detection).
            t_next = t_next.min(j.abs_deadline);
        }
        // Earliest pending deadline (a queued job can miss while another runs).
        if let Some(d) = pending.iter().map(|j| j.abs_deadline).min() {
            t_next = t_next.min(d);
        }

        // Advance time, accounting execution to the running job.
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

        // 1. Completion of the running job.
        if let Some(ri) = running_idx {
            if pending[ri].remaining.is_zero() {
                let j = pending.swap_remove(ri);
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
                if mode == Criticality::Hi && !pending.iter().any(|p| p.criticality.is_high()) {
                    mode = Criticality::Lo;
                    if let Some(t0) = hi_entered_at.take() {
                        metrics.time_in_hi += clock - t0;
                    }
                }
            }
        }

        // 2. Budget overrun of (possibly still running) HC jobs.
        if mode == Criticality::Lo {
            let escalate = match cfg.mode_switch {
                ModeSwitchPolicy::System => pending.iter().any(|j| {
                    j.criticality.is_high() && j.executed >= j.budget_lo && !j.remaining.is_zero()
                }),
                ModeSwitchPolicy::TaskLevelThenSystem => {
                    // Contain each overrunning job at task level (counted
                    // once per job); escalate only on concurrent overruns.
                    let mut overrunning = 0usize;
                    for j in pending.iter_mut() {
                        if j.criticality.is_high()
                            && j.executed >= j.budget_lo
                            && !j.remaining.is_zero()
                        {
                            overrunning += 1;
                            if !j.contained {
                                j.contained = true;
                                metrics.task_level_switches += 1;
                            }
                        }
                    }
                    overrunning >= 2
                }
            };
            if escalate {
                mode = Criticality::Hi;
                hi_entered_at = Some(clock);
                metrics.mode_switches += 1;
                apply_lc_policy(&mut pending, tasks, cfg.lc_policy, &mut metrics);
            }
        }

        // 3. Deadline misses: any unfinished job past its absolute deadline
        // is killed and counted.
        let mut i = 0;
        while i < pending.len() {
            if pending[i].abs_deadline <= clock && !pending[i].remaining.is_zero() {
                let j = pending.swap_remove(i);
                match j.criticality {
                    Criticality::Hi => metrics.hc_deadline_misses += 1,
                    Criticality::Lo => metrics.lc_deadline_misses += 1,
                }
            } else {
                i += 1;
            }
        }
        // A killed HC job may have been the last HC work.
        if mode == Criticality::Hi && !pending.iter().any(|p| p.criticality.is_high()) {
            mode = Criticality::Lo;
            if let Some(t0) = hi_entered_at.take() {
                metrics.time_in_hi += clock - t0;
            }
        }

        // 4. Releases due now.
        for (idx, task) in tasks.iter().enumerate() {
            if next_release[idx] != clock {
                continue;
            }
            // Sporadic semantics: the period is the *minimum* separation;
            // jitter pushes the next release later, never earlier.
            let jitter = if cfg.release_jitter.is_zero() {
                Duration::ZERO
            } else {
                Duration::from_nanos(rng.random_range(0..=cfg.release_jitter.as_nanos()))
            };
            next_release[idx] = clock + task.period() + jitter;
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
            pending.push(Job {
                task_idx: idx,
                criticality: task.criticality(),
                abs_deadline,
                virtual_deadline,
                remaining: exec,
                executed: Duration::ZERO,
                budget_lo: task.c_lo(),
                degraded,
                contained: false,
            });
        }
    }

    if let Some(t0) = hi_entered_at {
        metrics.time_in_hi += clock.min(horizon) - t0;
    }
    Ok(metrics)
}

/// Applies the LC policy at the instant of a LO → HI switch.
fn apply_lc_policy(
    pending: &mut Vec<Job>,
    tasks: &[mc_task::McTask],
    policy: LcPolicy,
    metrics: &mut SimMetrics,
) {
    match policy {
        LcPolicy::DropAll => {
            let before = pending.len();
            pending.retain(|j| j.criticality.is_high());
            metrics.lc_dropped_at_switch += (before - pending.len()) as u64;
        }
        LcPolicy::Degrade(f) => {
            for j in pending.iter_mut() {
                if j.criticality.is_high() {
                    continue;
                }
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
            }
            // Jobs whose remaining collapsed to zero complete immediately.
            let mut i = 0;
            while i < pending.len() {
                if pending[i].criticality.is_low() && pending[i].remaining.is_zero() {
                    metrics.lc_degraded += 1;
                    pending.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }
    }
}

/// The event-calendar engine against this reference: identical
/// `SimMetrics`, or the identical error, on every generated case. Case
/// counts default low for debug builds; `CHEBYMC_ORACLE_CASES` scales
/// them.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate, JobExecModel};
    use mc_fault::gen::mixed_taskset;
    use mc_fault::{assert_prop, FaultRng, PropConfig};
    use mc_task::automotive::{generate_automotive_taskset, AutomotiveConfig};
    use mc_task::{McTask, TaskId};
    use std::cell::Cell;

    /// 1–8 tasks with constrained deadlines (`D ≤ P`). Half the sets draw
    /// periods from a small ladder so releases and deadlines collide; the
    /// rest use arbitrary nanosecond periods.
    fn constrained_taskset(rng: &mut FaultRng) -> TaskSet {
        const LADDER_US: [u64; 4] = [500, 1_000, 2_000, 5_000];
        let ladder = rng.bool(0.5);
        let n = rng.range_u64(1, 8);
        let mut ts = TaskSet::new();
        for i in 0..n {
            let period_ns = if ladder {
                LADDER_US[rng.below(LADDER_US.len() as u64) as usize] * 1_000
            } else {
                rng.range_u64(200_000, 5_000_000)
            };
            let deadline_ns = if rng.bool(0.5) {
                period_ns
            } else {
                rng.range_u64(period_ns / 4, period_ns)
            };
            let c_hi = rng.range_u64(1, (deadline_ns / n).max(2));
            let c_lo = rng.range_u64(1, c_hi);
            let mut builder = McTask::builder(TaskId::new(i as u32))
                .period(Duration::from_nanos(period_ns))
                .deadline(Duration::from_nanos(deadline_ns));
            builder = if rng.bool(0.5) {
                builder
                    .criticality(Criticality::Hi)
                    .c_lo(Duration::from_nanos(c_lo))
                    .c_hi(Duration::from_nanos(c_hi))
            } else {
                builder.c_lo(Duration::from_nanos(c_lo))
            };
            ts.push(
                builder
                    .build()
                    .expect("generator respects builder invariants"),
            )
            .expect("generator ids are unique");
        }
        ts
    }

    /// 1–4 tasks the task builder would reject but deserialization admits:
    /// deadlines up to twice the period (so one task can have two jobs
    /// pending) and zero LO budgets on HC tasks.
    fn unchecked_taskset(rng: &mut FaultRng) -> TaskSet {
        let n = rng.range_u64(1, 4);
        let tasks: Vec<String> = (0..n)
            .map(|i| {
                let period = rng.range_u64(200_000, 2_000_000);
                let deadline = rng.range_u64(period / 2, 2 * period);
                let c_hi = rng.range_u64(1, period / n);
                let (criticality, c_lo, c_hi) = if rng.bool(0.5) {
                    let c_lo = if rng.bool(0.3) { 0 } else { rng.range_u64(1, c_hi) };
                    ("Hi", c_lo, c_hi)
                } else {
                    ("Lo", c_hi, c_hi)
                };
                format!(
                    r#"{{"id":{i},"name":"","criticality":"{criticality}","c_lo":{c_lo},"c_hi":{c_hi},"period":{period},"deadline":{deadline},"profile":null}}"#
                )
            })
            .collect();
        serde_json::from_str(&format!(r#"{{"tasks":[{}]}}"#, tasks.join(",")))
            .expect("hand-built task set JSON parses")
    }

    /// A random configuration over every knob the engines share.
    fn config(rng: &mut FaultRng, horizon: Duration) -> SimConfig {
        let lc_policy = if rng.bool(0.5) {
            LcPolicy::DropAll
        } else {
            LcPolicy::Degrade(rng.f64())
        };
        let exec_model = match rng.below(5) {
            0 => JobExecModel::FullLoBudget,
            1 => JobExecModel::FullHiBudget,
            2 => JobExecModel::FractionOfLo(rng.f64()),
            3 => JobExecModel::Profile,
            _ => JobExecModel::OverrunWithProbability(rng.f64()),
        };
        let release_jitter = if rng.bool(0.5) {
            Duration::ZERO
        } else {
            Duration::from_nanos(rng.range_u64(1, 2_000_000))
        };
        SimConfig {
            horizon,
            lc_policy,
            exec_model,
            x_factor: rng.bool(0.25).then(|| rng.range_f64(0.05, 1.0)),
            release_jitter,
            mode_switch: if rng.bool(0.5) {
                ModeSwitchPolicy::System
            } else {
                ModeSwitchPolicy::TaskLevelThenSystem
            },
            seed: rng.next_u64(),
        }
    }

    fn same_outcome(ts: &TaskSet, cfg: &SimConfig) -> Result<SimMetrics, String> {
        let fast = simulate(ts, cfg);
        let reference = simulate_reference(ts, cfg);
        if fast != reference {
            return Err(format!(
                "engines disagree under {cfg:?}:\n  calendar:  {fast:?}\n  reference: {reference:?}"
            ));
        }
        fast.map_err(|e| format!("both engines failed with {e}"))
    }

    #[test]
    fn calendar_engine_matches_the_linear_scan_reference() {
        let (switches, contained, misses, degraded, rejected) = (
            Cell::new(0u32),
            Cell::new(0u32),
            Cell::new(0u32),
            Cell::new(0u32),
            Cell::new(0u32),
        );
        let (merged, jittered) = (Cell::new(0u32), Cell::new(0u32));
        assert_prop(
            &PropConfig::named("calendar-vs-linear-scan").cases(oracle_cases(300)),
            |rng| rng.next_u64(),
            |&scenario| {
                let mut rng = FaultRng::new(scenario);
                let ts = match rng.below(5) {
                    0 | 1 => mixed_taskset(&mut rng),
                    2 | 3 => constrained_taskset(&mut rng),
                    _ => unchecked_taskset(&mut rng),
                };
                let horizon = Duration::from_micros(rng.range_u64(1_000, 400_000));
                let cfg = config(&mut rng, horizon);
                let m = same_outcome(&ts, &cfg)?;
                let bump = |c: &Cell<u32>, hit: bool| c.set(c.get() + u32::from(hit));
                let periods: Vec<Duration> = ts.iter().map(McTask::period).collect();
                let jitter = !cfg.release_jitter.is_zero();
                bump(
                    &merged,
                    !jitter && merges_interleaved_classes(&periods, horizon),
                );
                bump(&jittered, jitter && shares_a_period(&periods));
                bump(&switches, m.mode_switches > 0);
                bump(&contained, m.task_level_switches > 0);
                bump(&misses, m.hc_deadline_misses + m.lc_deadline_misses > 0);
                bump(&degraded, m.lc_degraded > 0);
                bump(&rejected, m.lc_rejected_in_hi + m.lc_dropped_at_switch > 0);
                Ok(())
            },
        );
        // Non-vacuity: every branch of the loop was exercised, and both
        // ways the engine forms release classes.
        for (what, c) in [
            ("mode switches", &switches),
            ("task-level containments", &contained),
            ("deadline misses", &misses),
            ("degraded LC jobs", &degraded),
            ("dropped or rejected LC jobs", &rejected),
            ("a merge of interleaved release classes", &merged),
            (
                "jitter over a shared period (one task per class)",
                &jittered,
            ),
        ] {
            assert!(c.get() > 0, "no case exercised {what}");
        }
    }

    /// Bosch-calibrated 10³-runnable sets with fitted Weibull execution
    /// times and HC budgets cut to a random fraction of `C_HI`, so the
    /// heavy tail overruns them.
    #[test]
    fn calendar_engine_matches_the_reference_on_automotive_sets() {
        let switched = Cell::new(0u32);
        assert_prop(
            &PropConfig::named("calendar-vs-linear-scan-automotive")
                .cases(oracle_cases(300) / 100 + 1),
            |rng| rng.next_u64(),
            |&scenario| {
                let mut rng = FaultRng::new(scenario);
                let mut draw = StdRng::seed_from_u64(rng.next_u64());
                let u = rng.range_f64(0.5, 0.95);
                let mut ts =
                    generate_automotive_taskset(u, &AutomotiveConfig::default(), &mut draw)
                        .map_err(|e| e.to_string())?;
                let frac = rng.range_f64(0.3, 0.9);
                for t in ts.hc_tasks_mut() {
                    let c_lo = t.c_hi().mul_f64(frac).max(Duration::from_nanos(1));
                    t.set_c_lo(c_lo).map_err(|e| e.to_string())?;
                }
                let horizon = Duration::from_millis(rng.range_u64(10, 60));
                let mut cfg = config(&mut rng, horizon);
                cfg.exec_model = JobExecModel::Profile;
                let m = same_outcome(&ts, &cfg)?;
                switched
                    .set(switched.get() + u32::from(m.mode_switches + m.task_level_switches > 0));
                Ok(())
            },
        );
        assert!(switched.get() > 0, "no automotive case overran a budget");
    }

    #[test]
    fn engines_agree_on_errors() {
        let ts = mixed_taskset(&mut FaultRng::new(7));
        let mut bad = SimConfig::new(Duration::ZERO);
        assert!(same_outcome(&ts, &bad).is_err());
        assert_eq!(simulate(&ts, &bad), simulate_reference(&ts, &bad));
        bad.horizon = Duration::from_millis(10);
        bad.lc_policy = LcPolicy::Degrade(1.5);
        assert_eq!(simulate(&ts, &bad), simulate_reference(&ts, &bad));
        let ok = SimConfig::new(Duration::from_millis(10));
        assert_eq!(
            simulate(&TaskSet::new(), &ok),
            simulate_reference(&TaskSet::new(), &ok)
        );
    }
}
