//! The original linear-scan multi-level simulator, kept as a differential
//! oracle for [`crate::sim::simulate_multi`] on the event-calendar engine.

use crate::analysis::edf_vd;
use crate::sim::engine::{event_bound, EVENTS_PER_RELEASE};
use crate::sim::{MultiSimConfig, MultiSimMetrics};
use crate::SchedError;
use mc_task::multi::{MultiTask, MultiTaskSet};
use mc_task::time::{Duration, Instant};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug, Clone)]
struct Job {
    task_idx: usize,
    level: usize,
    abs_deadline: Instant,
    release: Instant,
    remaining: Duration,
    executed: Duration,
}

/// The linear-scan multi-level engine, verbatim: every loop iteration
/// scans all tasks for the next release and all pending jobs for
/// dispatch, the earliest deadline, and budget exhaustion.
pub(super) fn simulate_multi_reference(
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

/// The calendar-backed `simulate_multi` against this reference: identical
/// `MultiSimMetrics`, or the identical error, on every generated case.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::reference::{merges_interleaved_classes, oracle_cases};
    use crate::sim::{simulate_multi, MultiExecModel};
    use mc_fault::{assert_prop, FaultRng, PropConfig};
    use mc_task::task::TaskId;
    use mc_task::ExecutionProfile;
    use std::cell::Cell;

    /// An `L`-level set, `L ∈ 2..=5`, of 1–8 tasks at loads up to 1.6.
    /// Budgets are non-decreasing with frequent ties, so one job can
    /// cross several modes' budgets at one instant. Half the sets draw
    /// periods from a ladder so releases and deadlines collide; a third
    /// of the tasks carry a profile with `σ = 0` or `σ > 0`.
    fn multi_taskset(rng: &mut FaultRng) -> MultiTaskSet {
        const LADDER_US: [u64; 4] = [500, 1_000, 2_000, 5_000];
        let levels = rng.range_u64(2, 5) as usize;
        let ladder = rng.bool(0.5);
        let n = rng.range_u64(1, 8);
        let load = rng.range_f64(0.3, 1.6);
        let mut ts = MultiTaskSet::new(levels).expect("at least two levels");
        for i in 0..n {
            let period = if ladder {
                LADDER_US[rng.below(LADDER_US.len() as u64) as usize] * 1_000
            } else {
                rng.range_u64(200_000, 5_000_000)
            };
            let share = (period as f64 * load / n as f64) as u64;
            let level = rng.below(levels as u64) as usize;
            let mut budgets = vec![rng.range_u64(1, share.clamp(2, period))];
            for _ in 0..level {
                let above = budgets[0];
                let below = if rng.bool(0.4) {
                    above
                } else {
                    rng.range_u64(1, above)
                };
                budgets.insert(0, below);
            }
            let top = budgets[level] as f64;
            let profile = match rng.below(6) {
                0 => Some(0.0),
                1 => Some(rng.range_f64(0.05, 0.5)),
                _ => None,
            }
            .map(|spread| {
                let acet = (budgets[0] as f64 * rng.range_f64(0.5, 1.5)).clamp(1.0, top);
                ExecutionProfile::new(acet, acet * spread, top).expect("valid profile")
            });
            let budgets = budgets.into_iter().map(Duration::from_nanos).collect();
            let task = MultiTask::new(
                TaskId::new(i as u32),
                "",
                level,
                budgets,
                Duration::from_nanos(period),
                profile,
            )
            .expect("generator respects constructor invariants");
            ts.push(task).expect("generator ids are unique");
        }
        ts
    }

    fn config(rng: &mut FaultRng) -> MultiSimConfig {
        MultiSimConfig {
            horizon: Duration::from_micros(rng.range_u64(1_000, 200_000)),
            exec_model: match rng.below(3) {
                0 => MultiExecModel::FullLowestBudget,
                1 => MultiExecModel::FullTopBudget,
                _ => MultiExecModel::Profile,
            },
            seed: rng.next_u64(),
        }
    }

    fn same_outcome(
        ts: &MultiTaskSet,
        cfg: &MultiSimConfig,
    ) -> Result<Result<MultiSimMetrics, SchedError>, String> {
        let fast = simulate_multi(ts, cfg);
        let reference = simulate_multi_reference(ts, cfg);
        if fast != reference {
            return Err(format!(
                "engines disagree under {cfg:?}:\n  calendar:  {fast:?}\n  reference: {reference:?}"
            ));
        }
        Ok(fast)
    }

    #[test]
    fn calendar_engine_matches_the_multi_level_reference() {
        let escalated = [(); 4].map(|_| Cell::new(0u32));
        let (killed, rejected, missed) = (Cell::new(0u32), Cell::new(0u32), Cell::new(0u32));
        let merged = Cell::new(0u32);
        assert_prop(
            &PropConfig::named("calendar-vs-linear-scan-multi").cases(oracle_cases(300)),
            |rng| rng.next_u64(),
            |&scenario| {
                let mut rng = FaultRng::new(scenario);
                let ts = multi_taskset(&mut rng);
                let cfg = config(&mut rng);
                let m = same_outcome(&ts, &cfg)?.map_err(|e| format!("both failed with {e}"))?;
                let bump = |c: &Cell<u32>, hit: bool| c.set(c.get() + u32::from(hit));
                for (c, &n) in escalated.iter().zip(&m.escalations) {
                    bump(c, n > 0);
                }
                bump(&killed, m.jobs_killed > 0);
                bump(&rejected, m.releases_rejected > 0);
                bump(&missed, m.misses_per_level.iter().any(|&n| n > 0));
                let periods: Vec<Duration> = ts.iter().map(MultiTask::period).collect();
                bump(&merged, merges_interleaved_classes(&periods, cfg.horizon));
                Ok(())
            },
        );
        // Non-vacuity: an escalation out of every mode a five-level set
        // can leave, every way a job can be lost, and release classes that
        // must be merged into task order (the engine runs this adapter
        // without jitter).
        for (mode, c) in escalated.iter().enumerate() {
            assert!(c.get() > 0, "no case escalated out of mode {mode}");
        }
        for (what, c) in [
            ("kills at an escalation", &killed),
            ("rejected releases", &rejected),
            ("deadline misses", &missed),
            ("a merge of interleaved release classes", &merged),
        ] {
            assert!(c.get() > 0, "no case exercised {what}");
        }
    }

    #[test]
    fn engines_agree_on_zero_period_sets() {
        // The constructor rejects a zero period; a deserialised set is the
        // one way in. Both engines must fail the same way.
        assert_prop(
            &PropConfig::named("calendar-vs-linear-scan-multi-zero-period")
                .cases(oracle_cases(300) / 10 + 1),
            |rng| rng.next_u64(),
            |&scenario| {
                let mut rng = FaultRng::new(scenario);
                let ts = multi_taskset(&mut rng);
                let victim = rng.below(ts.len() as u64) as usize + 1;
                let json = serde_json::to_string(&ts).map_err(|e| e.to_string())?;
                // Zero the victim task's period: splice "0" over the digits
                // after its `"period":` key.
                let mut parts: Vec<&str> = json.split(r#""period":"#).collect();
                let digits = parts[victim].find(|c: char| !c.is_ascii_digit());
                let rest = &parts[victim][digits.ok_or("period is last")?..];
                let zeroed = format!("0{rest}");
                parts[victim] = &zeroed;
                let json = parts.join(r#""period":"#);
                let ts: MultiTaskSet = serde_json::from_str(&json).map_err(|e| e.to_string())?;
                let cfg = config(&mut rng);
                match same_outcome(&ts, &cfg)? {
                    Err(SchedError::SimulationDiverged) => Ok(()),
                    other => Err(format!("expected SimulationDiverged, got {other:?}")),
                }
            },
        );
    }

    #[test]
    fn engines_agree_on_invalid_configs() {
        let ts = multi_taskset(&mut FaultRng::new(3));
        let mut cfg = config(&mut FaultRng::new(4));
        cfg.horizon = Duration::ZERO;
        assert!(matches!(
            same_outcome(&ts, &cfg),
            Ok(Err(SchedError::InvalidSimConfig { .. }))
        ));
        cfg.horizon = Duration::from_millis(10);
        assert_eq!(
            same_outcome(&MultiTaskSet::new(3).unwrap(), &cfg),
            Ok(Err(SchedError::EmptyTaskSet))
        );
    }
}
