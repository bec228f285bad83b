//! The Chebyshev scheme generalised to `L` criticality levels — the
//! paper's stated future work (§VI).
//!
//! Budgets below a task's own level are set per *mode*: a factor vector
//! `n₀ ≤ n₁ ≤ … ≤ n_{L−2}` gives every surviving task the budget
//! `C(k) = ACET + n_k·σ` in mode `k` (clamped into `[ACET, WCET_pes]`), so
//! lower modes are more optimistic and budgets are non-decreasing across
//! modes by construction. Theorem 1 then bounds, per mode `k`, the
//! probability that some alive task overruns `C(k)` — i.e. the probability
//! of escalating out of mode `k`.
//!
//! Schedulability uses the pairwise reduction of
//! [`mc_sched::analysis::multi`]; the optimisation objective generalises
//! Eq. 13: maximise `(1 − P₀) · max(U_L0)` — rare escalation out of the
//! fully-functional mode and maximal admissible lowest-criticality
//! utilisation — subject to every pair passing Eq. 8 (death penalty).

use crate::CoreError;
use mc_opt::ga::{optimize, GaConfig, GeneBounds};
use mc_sched::analysis::edf_vd;
use mc_sched::analysis::multi::{analyze, MultiAnalysis};
use mc_stats::chebyshev;
use mc_task::multi::MultiTaskSet;
use mc_task::time::Duration;
use serde::{Deserialize, Serialize};

/// Design metrics of an assigned multi-level system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiMetrics {
    /// Per mode `k`: the Chebyshev bound on the probability of escalating
    /// out of mode `k` (Eq. 10 over the tasks alive in that mode).
    pub escalation_bounds: Vec<f64>,
    /// Chained bound on ever reaching the top mode (the product of the
    /// per-step bounds; indicative, not tight).
    pub p_reach_top: f64,
    /// Admissible level-0 utilisation from the (0, 1) reduction
    /// (Eqs. 11–12).
    pub max_u_lowest: f64,
    /// The generalised Eq. 13 objective `(1 − P₀) · max(U_L0)`.
    pub objective: f64,
    /// The pairwise schedulability analysis.
    pub analysis: MultiAnalysis,
}

/// The multi-level Chebyshev scheme.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiScheme {
    /// GA hyper-parameters for the per-mode factor search. The GA
    /// evaluates on the calling thread; `ga.threads` is ignored.
    pub ga: GaConfig,
    /// Upper cap on any factor.
    pub factor_cap: f64,
}

impl Default for MultiScheme {
    fn default() -> Self {
        MultiScheme {
            ga: GaConfig::default(),
            factor_cap: 50.0,
        }
    }
}

/// The outcome of a multi-level design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiDesignReport {
    /// The solved per-mode factors `n₀ … n_{L−2}` (non-decreasing).
    pub factors: Vec<f64>,
    /// Metrics of the assigned system.
    pub metrics: MultiMetrics,
}

impl MultiScheme {
    /// A scheme with defaults and the given GA seed.
    pub fn with_seed(seed: u64) -> Self {
        MultiScheme {
            ga: GaConfig {
                seed,
                ..GaConfig::default()
            },
            ..MultiScheme::default()
        }
    }

    /// Assigns every task's lower budgets from the per-mode `factors`
    /// (`factors.len() == levels − 1`). Factors are first made
    /// non-decreasing by a running maximum so the budget vectors are valid
    /// for any input.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPolicy`] for a wrong factor count or
    /// negative/non-finite factors, and [`CoreError::MissingProfile`] when
    /// a task with level ≥ 1 has no profile.
    pub fn assign(&self, ts: &mut MultiTaskSet, factors: &[f64]) -> Result<(), CoreError> {
        if factors.len() != ts.levels() - 1 {
            return Err(CoreError::InvalidPolicy {
                reason: "need exactly levels-1 per-mode factors",
            });
        }
        if factors.iter().any(|n| !n.is_finite() || *n < 0.0) {
            return Err(CoreError::InvalidPolicy {
                reason: "factors must be finite and non-negative",
            });
        }
        let mut monotone = factors.to_vec();
        for i in 1..monotone.len() {
            monotone[i] = monotone[i].max(monotone[i - 1]);
        }
        // Collect assignments first so validation failures leave `ts`
        // untouched.
        let mut assignments: Vec<(usize, Vec<Duration>)> = Vec::new();
        for (idx, task) in ts.iter().enumerate() {
            if task.level() == 0 {
                continue;
            }
            let profile = task
                .profile()
                .ok_or(CoreError::MissingProfile { id: task.id() })?;
            let top = *task.budgets().last().expect("non-empty budgets");
            let mut lower = Vec::with_capacity(task.level());
            for &n in monotone.iter().take(task.level()) {
                let level_ns = profile.level(profile.clamp_factor(n));
                let c = Duration::try_from_nanos_f64_ceil(level_ns)
                    .unwrap_or(top)
                    .clamp(Duration::from_nanos(1), top);
                lower.push(c);
            }
            assignments.push((idx, lower));
        }
        for (idx, lower) in assignments {
            let task = ts.iter_mut().nth(idx).expect("index from enumeration");
            task.set_lower_budgets(&lower).map_err(CoreError::Task)?;
        }
        Ok(())
    }

    /// Computes the design metrics of an assigned system.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MissingProfile`] when a task with level ≥ 1
    /// has no profile.
    pub fn metrics(ts: &MultiTaskSet) -> Result<MultiMetrics, CoreError> {
        let levels = ts.levels();
        let mut escalation_bounds = Vec::with_capacity(levels - 1);
        for k in 0..levels - 1 {
            let mut no_escalation = 1.0;
            for task in ts.iter().filter(|t| t.level() > k) {
                let profile = task
                    .profile()
                    .ok_or(CoreError::MissingProfile { id: task.id() })?;
                let c_k = task
                    .budget(k)
                    .expect("level > k implies a mode-k budget")
                    .as_nanos() as f64;
                let p = if profile.sigma() == 0.0 {
                    if c_k >= profile.acet() {
                        0.0
                    } else {
                        1.0
                    }
                } else {
                    let n = (c_k - profile.acet()) / profile.sigma();
                    if n >= 0.0 {
                        chebyshev::one_sided_bound(n)
                    } else {
                        1.0
                    }
                };
                no_escalation *= 1.0 - p;
            }
            escalation_bounds.push(1.0 - no_escalation);
        }
        let p_reach_top = escalation_bounds.iter().product();
        let analysis = analyze(ts);
        let (u_hc_lo, u_hc_hi, _) = ts.reduce_to_dual(0).map_err(CoreError::Task)?;
        let max_u_lowest = edf_vd::max_u_lc_lo(u_hc_lo, u_hc_hi);
        let p0 = escalation_bounds.first().copied().unwrap_or(0.0);
        let objective = if analysis.schedulable {
            (1.0 - p0) * max_u_lowest
        } else {
            0.0
        };
        Ok(MultiMetrics {
            escalation_bounds,
            p_reach_top,
            max_u_lowest,
            objective,
            analysis,
        })
    }

    /// Solves for the per-mode factors with the GA, assigns them, and
    /// reports the metrics.
    ///
    /// # Errors
    ///
    /// Propagates assignment/metrics errors and GA configuration errors.
    pub fn design(&self, ts: &mut MultiTaskSet) -> Result<MultiDesignReport, CoreError> {
        let genes = ts.levels() - 1;
        let bounds = vec![GeneBounds::new(0.0, self.factor_cap).map_err(CoreError::Opt)?; genes];
        let fitness = |factors: &[f64]| -> f64 {
            let mut candidate = ts.clone();
            match self.assign(&mut candidate, factors) {
                Ok(()) => match Self::metrics(&candidate) {
                    Ok(m) => m.objective,
                    Err(_) => 0.0,
                },
                Err(_) => 0.0,
            }
        };
        let (result, _) = optimize(&bounds, fitness, &self.ga).map_err(CoreError::Opt)?;
        // Re-apply the winning (monotonised) factors.
        let mut monotone = result.best.clone();
        for i in 1..monotone.len() {
            monotone[i] = monotone[i].max(monotone[i - 1]);
        }
        self.assign(ts, &monotone)?;
        let metrics = Self::metrics(ts)?;
        Ok(MultiDesignReport {
            factors: monotone,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_task::multi::MultiTask;
    use mc_task::task::TaskId;
    use mc_task::ExecutionProfile;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// Builds a profiled task: ACET/σ in ms, top budget = wcet ms.
    fn profiled(
        id: u32,
        level: usize,
        acet_ms: f64,
        sigma_ms: f64,
        wcet_ms: u64,
        p_ms: u64,
    ) -> MultiTask {
        let budgets: Vec<Duration> = (0..=level).map(|_| ms(wcet_ms)).collect();
        MultiTask::new(
            TaskId::new(id),
            "",
            level,
            budgets,
            ms(p_ms),
            Some(
                ExecutionProfile::new(acet_ms * 1e6, sigma_ms * 1e6, wcet_ms as f64 * 1e6).unwrap(),
            ),
        )
        .unwrap()
    }

    fn lc0(id: u32, c_ms: u64, p_ms: u64) -> MultiTask {
        MultiTask::new(TaskId::new(id), "", 0, vec![ms(c_ms)], ms(p_ms), None).unwrap()
    }

    fn tri_level() -> MultiTaskSet {
        let mut ts = MultiTaskSet::new(3).unwrap();
        ts.push(profiled(0, 2, 3.0, 1.0, 40, 100)).unwrap();
        ts.push(profiled(1, 1, 5.0, 2.0, 30, 100)).unwrap();
        ts.push(lc0(2, 20, 100)).unwrap();
        ts
    }

    #[test]
    fn assign_sets_acet_plus_n_sigma_per_mode() {
        let mut ts = tri_level();
        MultiScheme::default().assign(&mut ts, &[2.0, 5.0]).unwrap();
        let top = ts.iter().find(|t| t.level() == 2).unwrap();
        // Mode 0: 3 + 2·1 = 5 ms; mode 1: 3 + 5·1 = 8 ms; mode 2 fixed 40 ms.
        assert_eq!(top.budgets(), &[ms(5), ms(8), ms(40)]);
        let mid = ts.iter().find(|t| t.level() == 1).unwrap();
        // Mode 0: 5 + 2·2 = 9 ms; top fixed 30 ms.
        assert_eq!(mid.budgets(), &[ms(9), ms(30)]);
    }

    #[test]
    fn assign_monotonises_factors() {
        let mut ts = tri_level();
        // Decreasing input factors are lifted to a running max (5, 5).
        MultiScheme::default().assign(&mut ts, &[5.0, 2.0]).unwrap();
        let top = ts.iter().find(|t| t.level() == 2).unwrap();
        assert_eq!(top.budgets()[0], top.budgets()[1]);
    }

    #[test]
    fn assign_validates_inputs() {
        let mut ts = tri_level();
        let s = MultiScheme::default();
        assert!(s.assign(&mut ts, &[1.0]).is_err());
        assert!(s.assign(&mut ts, &[1.0, -2.0]).is_err());
        assert!(s.assign(&mut ts, &[f64::NAN, 1.0]).is_err());

        // Missing profile on a level ≥ 1 task.
        let mut bare = MultiTaskSet::new(2).unwrap();
        bare.push(
            MultiTask::new(TaskId::new(0), "", 1, vec![ms(5), ms(10)], ms(100), None).unwrap(),
        )
        .unwrap();
        assert!(matches!(
            s.assign(&mut bare, &[1.0]),
            Err(CoreError::MissingProfile { .. })
        ));
    }

    #[test]
    fn escalation_bounds_match_hand_computation() {
        let mut ts = tri_level();
        MultiScheme::default().assign(&mut ts, &[2.0, 3.0]).unwrap();
        let m = MultiScheme::metrics(&ts).unwrap();
        // Mode 0: both profiled tasks alive at n = 2 → 1 − 0.8² = 0.36.
        assert!((m.escalation_bounds[0] - 0.36).abs() < 1e-9);
        // Mode 1: only the level-2 task alive at n = 3 → 0.1.
        assert!((m.escalation_bounds[1] - 0.1).abs() < 1e-9);
        assert!((m.p_reach_top - 0.036).abs() < 1e-9);
        assert!(m.analysis.schedulable);
        assert!(m.objective > 0.0);
    }

    #[test]
    fn higher_factors_lower_escalation_bounds() {
        let mut low = tri_level();
        MultiScheme::default()
            .assign(&mut low, &[1.0, 2.0])
            .unwrap();
        let mut high = tri_level();
        MultiScheme::default()
            .assign(&mut high, &[4.0, 8.0])
            .unwrap();
        let ml = MultiScheme::metrics(&low).unwrap();
        let mh = MultiScheme::metrics(&high).unwrap();
        for (a, b) in mh.escalation_bounds.iter().zip(&ml.escalation_bounds) {
            assert!(a <= b);
        }
        assert!(mh.max_u_lowest <= ml.max_u_lowest + 1e-12);
    }

    #[test]
    fn two_level_design_matches_dual_scheme_shape() {
        // On L = 2 the multi scheme optimises the same Eq. 13 landscape as
        // the dual scheme; its objective must land in the same ballpark as
        // a good uniform dual design.
        let mut ts = MultiTaskSet::new(2).unwrap();
        ts.push(profiled(0, 1, 3.0, 1.0, 40, 100)).unwrap();
        ts.push(profiled(1, 1, 8.0, 2.0, 45, 150)).unwrap();
        ts.push(lc0(2, 30, 300)).unwrap();
        let report = MultiScheme::with_seed(1).design(&mut ts).unwrap();
        assert_eq!(report.factors.len(), 1);
        assert!(report.metrics.analysis.schedulable);
        assert!(
            report.metrics.objective > 0.5,
            "objective {}",
            report.metrics.objective
        );
    }

    #[test]
    fn ga_design_beats_extreme_factor_choices() {
        let base = tri_level();
        let report = MultiScheme::with_seed(7).design(&mut base.clone()).unwrap();
        for factors in [[0.5, 0.5], [40.0, 40.0]] {
            let mut alt = base.clone();
            MultiScheme::default().assign(&mut alt, &factors).unwrap();
            let m = MultiScheme::metrics(&alt).unwrap();
            assert!(
                report.metrics.objective >= m.objective - 1e-3,
                "factors {factors:?}: {} beats GA {}",
                m.objective,
                report.metrics.objective
            );
        }
        // Factors come out non-decreasing.
        assert!(report.factors[0] <= report.factors[1] + 1e-12);
    }

    #[test]
    fn unschedulable_system_gets_zero_objective() {
        let mut ts = MultiTaskSet::new(2).unwrap();
        ts.push(profiled(0, 1, 3.0, 1.0, 90, 100)).unwrap();
        ts.push(profiled(1, 1, 3.0, 1.0, 90, 100)).unwrap(); // U_HI = 1.8
        MultiScheme::default().assign(&mut ts, &[2.0]).unwrap();
        let m = MultiScheme::metrics(&ts).unwrap();
        assert!(!m.analysis.schedulable);
        assert_eq!(m.objective, 0.0);
    }
}
