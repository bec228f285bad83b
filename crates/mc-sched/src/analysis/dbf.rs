//! Processor-demand analysis (demand bound functions) for EDF.
//!
//! The utilisation tests in [`super::edf`] and [`super::edf_vd`] are exact
//! only for implicit deadlines. [`McTask`] also admits *constrained*
//! deadlines (`D < P`), for which the exact uniprocessor EDF test is the
//! processor-demand criterion (Baruah, Rosier & Howell):
//!
//! ```text
//! ∀ t > 0 :  dbf(t) = Σᵢ max(0, ⌊(t − Dᵢ)/Pᵢ⌋ + 1) · Cᵢ  ≤  t
//! ```
//!
//! It suffices to check `t` at absolute-deadline points up to
//! `L = min(L_a, L_b)` where `L_a` is the Baruah bound and `L_b` the
//! synchronous busy-period length. This module provides the dbf itself and
//! the bounded exact test, used in the workspace both as a second opinion
//! on the utilisation tests and to validate designs with shortened
//! (virtual) deadlines.

use crate::SchedError;
use mc_task::time::Duration;
use mc_task::{Criticality, McTask, TaskSet};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// Demand bound of one task over an interval of length `t`: the maximum
/// execution demand of jobs released *and* due within any window of that
/// length, using the task's WCET at `mode`.
pub fn task_dbf(task: &McTask, t: Duration, mode: Criticality) -> Duration {
    if t < task.deadline() {
        return Duration::ZERO;
    }
    let jobs = (t - task.deadline()).as_nanos() / task.period().as_nanos() + 1;
    task.wcet(mode).saturating_mul(jobs)
}

/// Total demand bound of a task set over an interval of length `t`,
/// saturating at [`Duration::MAX`].
pub fn dbf(ts: &TaskSet, t: Duration, mode: Criticality) -> Duration {
    ts.iter().fold(Duration::ZERO, |acc, task| {
        acc.checked_add(task_dbf(task, t, mode))
            .unwrap_or(Duration::MAX)
    })
}

/// How `U = Σ Cᵢ/Pᵢ` (budgets at `mode`) compares with 1, decided exactly
/// from the integer nanoseconds.
///
/// Fixed-point bounds `Σ⌊Cᵢ·2⁶⁴/Pᵢ⌋ ≤ U·2⁶⁴ ≤ Σ⌈Cᵢ·2⁶⁴/Pᵢ⌉` decide
/// almost every set; only when they straddle `2⁶⁴` is `U` summed as a
/// reduced `u128` fraction.
///
/// # Errors
///
/// [`SchedError::UtilizationUndecided`] when the bounds straddle 1 and the
/// fraction overflows `u128`.
fn utilization_vs_one(ts: &TaskSet, mode: Criticality) -> Result<Ordering, SchedError> {
    fixed_point_vs_one(ts, mode)
        .or_else(|| fraction_vs_one(ts, mode))
        .ok_or(SchedError::UtilizationUndecided)
}

/// The fixed-point half of [`utilization_vs_one`]; `None` when the bounds
/// straddle 1.
fn fixed_point_vs_one(ts: &TaskSet, mode: Criticality) -> Option<Ordering> {
    const ONE: u128 = 1 << 64;
    let (mut floor, mut ceil) = (0u128, 0u128);
    for t in ts.iter() {
        let c = u128::from(t.wcet(mode).as_nanos()) << 64;
        let p = u128::from(t.period().as_nanos());
        if p == 0 {
            return Some(Ordering::Greater);
        }
        let q = c / p;
        // Every term is non-negative, so a sum past u128 is far above 1.
        let Some(sum) = floor.checked_add(q) else {
            return Some(Ordering::Greater);
        };
        floor = sum;
        ceil = ceil.saturating_add(q + u128::from(c % p != 0));
    }
    // Both bounds are tight only when every term is exact; otherwise
    // U·2⁶⁴ lies strictly between them.
    if floor == ceil {
        Some(floor.cmp(&ONE))
    } else if floor >= ONE {
        Some(Ordering::Greater)
    } else if ceil <= ONE {
        Some(Ordering::Less)
    } else {
        None
    }
}

/// The exact half of [`utilization_vs_one`]: `Σ Cᵢ/Pᵢ` as a reduced
/// fraction; `None` on `u128` overflow.
fn fraction_vs_one(ts: &TaskSet, mode: Criticality) -> Option<Ordering> {
    fn gcd(mut a: u128, mut b: u128) -> u128 {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }
    let (mut num, mut den) = (0u128, 1u128);
    for t in ts.iter() {
        let c = u128::from(t.wcet(mode).as_nanos());
        let p = u128::from(t.period().as_nanos());
        let lcm = (den / gcd(den, p)).checked_mul(p)?;
        num = num
            .checked_mul(lcm / den)?
            .checked_add(c.checked_mul(lcm / p)?)?;
        let g = gcd(num, lcm);
        (num, den) = (num / g, lcm / g);
        if num > den {
            return Some(Ordering::Greater);
        }
    }
    Some(num.cmp(&den))
}

/// Result of the exact processor-demand test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DemandAnalysis {
    /// Whether `dbf(t) ≤ t` held at every checked point.
    pub schedulable: bool,
    /// The first violating instant, when one exists.
    pub violation_at: Option<Duration>,
    /// The horizon up to which points were checked.
    pub horizon: Duration,
    /// How many deadline points were checked.
    pub points_checked: u64,
}

/// Exact EDF schedulability of `ts` (budgets at `mode`) via processor
/// demand, checking all absolute-deadline points up to the Baruah/busy
/// period bound.
///
/// # Errors
///
/// Returns [`SchedError::EmptyTaskSet`] for an empty set,
/// [`SchedError::UtilizationUndecided`] when whether `U ≤ 1` cannot be
/// decided exactly, and [`SchedError::DemandPointsExceeded`] when the
/// number of check points exceeds `max_points` (degenerate period ratios);
/// `max_points = 0` means the default of 1 000 000.
pub fn edf_demand_test(
    ts: &TaskSet,
    mode: Criticality,
    max_points: u64,
) -> Result<DemandAnalysis, SchedError> {
    if ts.is_empty() {
        return Err(SchedError::EmptyTaskSet);
    }
    let max_points = if max_points == 0 {
        1_000_000
    } else {
        max_points
    };
    let u_vs_one = utilization_vs_one(ts, mode)?;
    if u_vs_one == Ordering::Greater {
        // Demand grows without bound; report the necessary-condition
        // violation at the hyper-scale horizon.
        return Ok(DemandAnalysis {
            schedulable: false,
            violation_at: None,
            horizon: Duration::ZERO,
            points_checked: 0,
        });
    }

    // Baruah bound L_a = max(Dᵢ, Σ (Pᵢ − Dᵢ)·uᵢ / (1 − U)).
    let max_deadline = ts
        .iter()
        .map(|t| t.deadline())
        .max()
        .expect("non-empty set");
    let la = if u_vs_one == Ordering::Equal {
        // U = 1 exactly: fall back to the busy period / hyperperiod bound.
        Duration::MAX
    } else {
        // U < 1, though the float sum may round to 1 or above; the
        // non-finite or negative bound that gives becomes `MAX`.
        let total_u: f64 = ts.iter().map(|t| t.utilization(mode)).sum();
        let num: f64 = ts
            .iter()
            .map(|t| {
                (t.period()
                    .as_nanos()
                    .saturating_sub(t.deadline().as_nanos())) as f64
                    * t.utilization(mode)
            })
            .sum();
        let bound = num / (1.0 - total_u);
        Duration::try_from_nanos_f64_ceil(bound).unwrap_or(Duration::MAX)
    }
    .max(max_deadline);

    // Synchronous busy period L_b: w ← Σ ⌈w/Pᵢ⌉·Cᵢ to fixpoint; a sum
    // past `u64` nanoseconds leaves L_b unbounded.
    let busy = |w: Duration| {
        ts.iter().try_fold(Duration::ZERO, |acc, t| {
            let jobs = w.as_nanos().div_ceil(t.period().as_nanos()).max(1);
            acc.checked_add(t.wcet(mode).saturating_mul(jobs))
        })
    };
    let mut w = Duration::ZERO;
    let lb = loop {
        let Some(next) = busy(w) else {
            break Duration::MAX;
        };
        if next <= w {
            break next;
        }
        w = next;
    };
    let horizon = la.min(lb).min(ts.hyperperiod().unwrap_or(Duration::MAX));

    // Enumerate absolute deadlines d = k·P + D ≤ horizon, merged and
    // deduplicated on the fly via a simple per-task cursor sweep.
    let mut cursors: Vec<(Duration, &McTask)> = ts.iter().map(|t| (t.deadline(), t)).collect();
    let mut checked = 0u64;
    while let Some((next_d, _)) = cursors
        .iter()
        .filter(|(d, _)| *d <= horizon)
        .min_by_key(|(d, _)| *d)
        .copied()
    {
        checked += 1;
        if checked > max_points {
            return Err(SchedError::DemandPointsExceeded { max_points });
        }
        let demand = dbf(ts, next_d, mode);
        if demand > next_d {
            return Ok(DemandAnalysis {
                schedulable: false,
                violation_at: Some(next_d),
                horizon,
                points_checked: checked,
            });
        }
        // Advance every cursor sitting at this deadline.
        for (d, t) in cursors.iter_mut() {
            if *d == next_d {
                *d += t.period();
            }
        }
    }
    Ok(DemandAnalysis {
        schedulable: true,
        violation_at: None,
        horizon,
        points_checked: checked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_task::task::TaskId;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn task(id: u32, c_ms: u64, d_ms: u64, p_ms: u64) -> McTask {
        McTask::builder(TaskId::new(id))
            .period(ms(p_ms))
            .deadline(ms(d_ms))
            .c_lo(ms(c_ms))
            .build()
            .unwrap()
    }

    #[test]
    fn single_task_dbf_steps_at_deadlines() {
        let t = task(0, 2, 5, 10);
        assert_eq!(task_dbf(&t, ms(4), Criticality::Lo), Duration::ZERO);
        assert_eq!(task_dbf(&t, ms(5), Criticality::Lo), ms(2));
        assert_eq!(task_dbf(&t, ms(14), Criticality::Lo), ms(2));
        assert_eq!(task_dbf(&t, ms(15), Criticality::Lo), ms(4));
        assert_eq!(task_dbf(&t, ms(25), Criticality::Lo), ms(6));
    }

    #[test]
    fn implicit_deadline_test_matches_liu_layland() {
        // U = 0.9 implicit: schedulable.
        let ts = TaskSet::from_tasks(vec![task(0, 45, 100, 100), task(1, 90, 200, 200)]).unwrap();
        let a = edf_demand_test(&ts, Criticality::Lo, 0).unwrap();
        assert!(a.schedulable);
        assert!(a.points_checked > 0);

        // U = 1.05: infeasible by the necessary condition.
        let ts = TaskSet::from_tasks(vec![task(0, 55, 100, 100), task(1, 100, 200, 200)]).unwrap();
        let a = edf_demand_test(&ts, Criticality::Lo, 0).unwrap();
        assert!(!a.schedulable);
    }

    #[test]
    fn constrained_deadlines_can_fail_despite_low_utilization() {
        // Two tasks, U = 0.6, but both demand 30 ms within their first
        // 30 ms deadline window: dbf(30) = 60 > 30.
        let ts = TaskSet::from_tasks(vec![task(0, 30, 30, 100), task(1, 30, 30, 100)]).unwrap();
        let a = edf_demand_test(&ts, Criticality::Lo, 0).unwrap();
        assert!(!a.schedulable);
        assert_eq!(a.violation_at, Some(ms(30)));
    }

    #[test]
    fn constrained_deadlines_can_pass_when_demand_fits() {
        let ts = TaskSet::from_tasks(vec![task(0, 10, 30, 100), task(1, 15, 40, 100)]).unwrap();
        let a = edf_demand_test(&ts, Criticality::Lo, 0).unwrap();
        assert!(a.schedulable);
    }

    #[test]
    fn hi_mode_budgets_are_used_when_requested() {
        let t = McTask::builder(TaskId::new(0))
            .criticality(Criticality::Hi)
            .period(ms(100))
            .c_lo(ms(10))
            .c_hi(ms(60))
            .build()
            .unwrap();
        let pair = McTask::builder(TaskId::new(1))
            .criticality(Criticality::Hi)
            .period(ms(100))
            .c_lo(ms(10))
            .c_hi(ms(60))
            .build()
            .unwrap();
        let ts = TaskSet::from_tasks(vec![t, pair]).unwrap();
        assert!(
            edf_demand_test(&ts, Criticality::Lo, 0)
                .unwrap()
                .schedulable
        );
        // 120 ms demand per 100 ms in HI mode.
        assert!(
            !edf_demand_test(&ts, Criticality::Hi, 0)
                .unwrap()
                .schedulable
        );
    }

    #[test]
    fn empty_set_is_an_error() {
        assert!(matches!(
            edf_demand_test(&TaskSet::new(), Criticality::Lo, 0),
            Err(SchedError::EmptyTaskSet)
        ));
    }

    #[test]
    fn point_budget_guard_fires() {
        // This set needs two check points (deadlines at 7 and 9 ms inside
        // the 9 ms busy period); a budget of one must trip the guard.
        let ts = TaskSet::from_tasks(vec![task(0, 5, 7, 10), task(1, 4, 9, 9)]).unwrap();
        assert_eq!(
            edf_demand_test(&ts, Criticality::Lo, 0)
                .unwrap()
                .points_checked,
            2
        );
        assert_eq!(
            edf_demand_test(&ts, Criticality::Lo, 1).unwrap_err(),
            SchedError::DemandPointsExceeded { max_points: 1 }
        );
    }

    #[test]
    fn full_utilization_with_implicit_deadlines_is_schedulable() {
        // U = 1.0 exactly; EDF schedules it (boundary case, horizon falls
        // back to the hyperperiod).
        let ts = TaskSet::from_tasks(vec![task(0, 50, 100, 100), task(1, 100, 200, 200)]).unwrap();
        let a = edf_demand_test(&ts, Criticality::Lo, 0).unwrap();
        assert!(a.schedulable, "violation at {:?}", a.violation_at);
    }

    fn ns_task(id: u32, c: u64, p: u64) -> McTask {
        McTask::builder(TaskId::new(id))
            .period(Duration::from_nanos(p))
            .c_lo(Duration::from_nanos(c))
            .build()
            .unwrap()
    }

    #[test]
    fn utilization_just_above_one_is_rejected_exactly() {
        // U = 1/2 + (1/2 + 10⁻¹⁰): the f64 sum lies within 1e-9 above 1.
        let ts = TaskSet::from_tasks(vec![
            ns_task(0, 5_000_000_000, 10_000_000_000),
            ns_task(1, 5_000_000_001, 10_000_000_000),
        ])
        .unwrap();
        let float: f64 = ts.iter().map(|t| t.u_lo()).sum();
        assert!(float > 1.0 && float <= 1.0 + 1e-9, "{float}");
        assert_eq!(
            utilization_vs_one(&ts, Criticality::Lo),
            Ok(Ordering::Greater)
        );
        let a = edf_demand_test(&ts, Criticality::Lo, 0).unwrap();
        assert!(!a.schedulable);
        assert_eq!(a.points_checked, 0);
    }

    #[test]
    fn utilization_just_below_one_is_checked_against_its_deadlines() {
        // U = 1 − 10⁻¹⁰ with implicit deadlines: schedulable, and the
        // busy period ends before the first deadline.
        let ts = TaskSet::from_tasks(vec![
            ns_task(0, 5_000_000_000, 10_000_000_000),
            ns_task(1, 4_999_999_999, 10_000_000_000),
        ])
        .unwrap();
        assert_eq!(utilization_vs_one(&ts, Criticality::Lo), Ok(Ordering::Less));
        let a = edf_demand_test(&ts, Criticality::Lo, 0).unwrap();
        assert!(a.schedulable);
        assert_eq!(a.horizon, Duration::from_nanos(9_999_999_999));
        assert_eq!(a.points_checked, 0);
    }

    #[test]
    fn straddling_fixed_point_bounds_fall_back_to_the_exact_fraction() {
        // Three thirds: the fixed-point bounds are 2⁶⁴ − 1 and 2⁶⁴ + 2, the
        // fraction is exactly 1.
        let ts = TaskSet::from_tasks(vec![task(0, 1, 3, 3), task(1, 1, 3, 3), task(2, 1, 3, 3)])
            .unwrap();
        assert_eq!(fixed_point_vs_one(&ts, Criticality::Lo), None);
        assert_eq!(fraction_vs_one(&ts, Criticality::Lo), Some(Ordering::Equal));
        assert!(
            edf_demand_test(&ts, Criticality::Lo, 0)
                .unwrap()
                .schedulable
        );
    }

    #[test]
    fn undecidable_utilization_is_a_named_error() {
        // Pairwise coprime periods near 2⁴³ with U = 1 − 1/(P₁P₂P₃): the
        // fixed-point bounds straddle 1 and P₁P₂P₃ > 2¹²⁸.
        let ts = TaskSet::from_tasks(vec![
            ns_task(0, 1_099_511_627_776, 8_796_093_022_209),
            ns_task(1, 2_199_023_255_553, 8_796_093_022_211),
            ns_task(2, 5_497_558_138_883, 8_796_093_022_213),
        ])
        .unwrap();
        assert_eq!(fixed_point_vs_one(&ts, Criticality::Lo), None);
        assert_eq!(fraction_vs_one(&ts, Criticality::Lo), None);
        assert_eq!(
            edf_demand_test(&ts, Criticality::Lo, 0).unwrap_err(),
            SchedError::UtilizationUndecided
        );
    }

    /// A set deserialised from JSON tasks `(criticality, c_lo, period)`
    /// with implicit deadlines: the one way past the builder's checks.
    fn deserialised(tasks: &[(u64, u64)]) -> TaskSet {
        let tasks: Vec<String> = tasks
            .iter()
            .enumerate()
            .map(|(id, (c, p))| {
                format!(
                    r#"{{"id":{id},"name":"","criticality":"Lo","c_lo":{c},"c_hi":{c},"period":{p},"deadline":{p},"profile":null}}"#
                )
            })
            .collect();
        serde_json::from_str(&format!(r#"{{"tasks":[{}]}}"#, tasks.join(","))).unwrap()
    }

    #[test]
    fn degenerate_deserialised_sets_are_unschedulable_not_a_panic() {
        // A zero period makes U unbounded; budgets of 2⁶³ ns against 1 ns
        // periods push the fixed-point floor sum past u128.
        let huge = 1u64 << 63;
        for ts in [
            deserialised(&[(1000, 0)]),
            deserialised(&[(huge, 1), (huge, 1)]),
        ] {
            assert_eq!(
                fixed_point_vs_one(&ts, Criticality::Lo),
                Some(Ordering::Greater)
            );
            let a = edf_demand_test(&ts, Criticality::Lo, 0).unwrap();
            assert!(!a.schedulable);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn dbf_is_monotone_in_t(
                c in 1u64..50,
                d in 1u64..100,
                p in 1u64..100,
                t1 in 0u64..1_000,
                dt in 0u64..1_000,
            ) {
                let d = d.min(p);
                let c = c.min(d);
                let task = task(0, c, d, p);
                let a = task_dbf(&task, ms(t1), Criticality::Lo);
                let b = task_dbf(&task, ms(t1 + dt), Criticality::Lo);
                prop_assert!(b >= a);
            }

            #[test]
            fn demand_test_agrees_with_utilization_for_implicit_deadlines(
                seed in 0u64..500,
            ) {
                use rand::SeedableRng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let cfg = mc_task::generate::GeneratorConfig::default();
                let u = 0.3 + (seed % 7) as f64 * 0.1;
                let ts = mc_task::generate::generate_mixed_taskset(u, &cfg, &mut rng).unwrap();
                // Implicit deadlines: exact test ⇔ U ≤ 1 (budgets at LO).
                let util: f64 = ts.iter().map(|t| t.u_lo()).sum();
                let exact = edf_demand_test(&ts, Criticality::Lo, 0).unwrap();
                prop_assert_eq!(exact.schedulable, util <= 1.0 + 1e-9);
            }
        }
    }
}
