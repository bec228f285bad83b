//! The paper's end-to-end scheme.
//!
//! [`ChebyshevScheme`] packages the full §IV flow: extract each HC task's
//! `(ACET, σ, WCET_pes)`, solve for per-task Chebyshev factors with the GA
//! (Eq. 13 objective under Eqs. 8–9), write the optimistic WCETs back, and
//! report the resulting design metrics.

use crate::metrics::{design_metrics, DesignMetrics};
use crate::CoreError;
use mc_opt::{GaConfig, ProblemConfig, WcetProblem};
use mc_task::TaskSet;
use serde::{Deserialize, Serialize};

/// The Chebyshev WCET-assignment scheme (the paper's contribution).
///
/// # Example
///
/// ```
/// use chebymc_core::scheme::ChebyshevScheme;
/// use mc_task::generate::{generate_mixed_taskset, GeneratorConfig};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut ts = generate_mixed_taskset(0.6, &GeneratorConfig::default(), &mut rng)?;
/// let report = ChebyshevScheme::new().design(&mut ts)?;
/// assert!(report.metrics.schedulable);
/// assert!(report.metrics.p_ms < 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ChebyshevScheme {
    /// GA hyper-parameters (paper §V defaults). `ga.threads` controls the
    /// fitness-evaluation parallelism of a standalone design; the per-set
    /// functions in [`crate::pipeline`] override it with the inner budget
    /// `mc_exp::run_units` hands each campaign unit.
    pub ga: GaConfig,
    /// Factor search-space configuration.
    pub problem: ProblemConfig,
}

/// The outcome of designing one task set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignReport {
    /// The solved per-HC-task Chebyshev factors (problem order = HC task
    /// order in the set).
    pub factors: Vec<f64>,
    /// Metrics of the assigned design.
    pub metrics: DesignMetrics,
}

impl ChebyshevScheme {
    /// A scheme with the paper's default GA configuration.
    pub fn new() -> Self {
        ChebyshevScheme::default()
    }

    /// A scheme with an explicit GA seed (otherwise identical defaults).
    pub fn with_seed(seed: u64) -> Self {
        ChebyshevScheme {
            ga: GaConfig {
                seed,
                ..GaConfig::default()
            },
            problem: ProblemConfig::default(),
        }
    }

    /// Designs the task set in place: solves for factors, assigns
    /// optimistic WCETs, and computes the design metrics.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Lint`] when the task set or the GA/problem
    /// configuration fails static analysis (every finding reported at
    /// once), [`CoreError::MissingProfile`] when an HC task lacks an
    /// execution profile, and propagates optimiser errors.
    pub fn design(&self, ts: &mut TaskSet) -> Result<DesignReport, CoreError> {
        let mut lint = mc_lint::lint_ga_config(&self.ga);
        lint.merge(mc_lint::lint_problem_config(&self.problem));
        lint.merge(mc_lint::lint_taskset(ts));
        crate::fail_on_lint_errors(lint)?;
        let problem = WcetProblem::from_taskset(ts, self.problem).map_err(CoreError::Opt)?;
        let solution = problem.solve_ga(&self.ga).map_err(CoreError::Opt)?;
        problem
            .apply(ts, &solution.factors)
            .map_err(CoreError::Opt)?;
        let metrics = design_metrics(ts)?;
        Ok(DesignReport {
            factors: solution.factors,
            metrics,
        })
    }

    /// Designs with one uniform factor instead of the GA (Figs. 2–3 mode).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ChebyshevScheme::design`].
    pub fn design_uniform(&self, ts: &mut TaskSet, n: f64) -> Result<DesignReport, CoreError> {
        crate::policy::WcetPolicy::ChebyshevUniform { n }.assign(ts)?;
        let metrics = design_metrics(ts)?;
        let factors = metrics.per_task.iter().map(|t| t.factor).collect();
        Ok(DesignReport { factors, metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_task::time::Duration;
    use mc_task::{Criticality, ExecutionProfile, McTask, TaskId};

    fn sample_set() -> TaskSet {
        let mk = |id: u32, acet_ms: f64, sigma_ms: f64, c_hi_ms: u64, p_ms: u64| {
            McTask::builder(TaskId::new(id))
                .criticality(Criticality::Hi)
                .period(Duration::from_millis(p_ms))
                .c_lo(Duration::from_millis(c_hi_ms))
                .c_hi(Duration::from_millis(c_hi_ms))
                .profile(
                    ExecutionProfile::new(acet_ms * 1e6, sigma_ms * 1e6, c_hi_ms as f64 * 1e6)
                        .unwrap(),
                )
                .build()
                .unwrap()
        };
        TaskSet::from_tasks(vec![
            mk(0, 3.0, 1.0, 40, 100),
            mk(1, 8.0, 2.0, 45, 150),
            McTask::builder(TaskId::new(2))
                .period(Duration::from_millis(300))
                .c_lo(Duration::from_millis(30))
                .build()
                .unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn design_improves_on_pessimistic_default() {
        let mut ts = sample_set();
        let before = crate::metrics::design_metrics(&ts).unwrap();
        let report = ChebyshevScheme::with_seed(3).design(&mut ts).unwrap();
        // Pessimistic C_LO = C_HI gives u_hc_lo = u_hc_hi; the scheme must
        // free up LC room.
        assert!(report.metrics.max_u_lc_lo > before.max_u_lc_lo);
        assert!(report.metrics.u_hc_lo < before.u_hc_lo);
        assert!(report.metrics.schedulable);
        assert_eq!(report.factors.len(), 2);
        assert!(report.factors.iter().all(|&n| n >= 0.0));
    }

    #[test]
    fn design_is_deterministic_per_seed() {
        let mut a = sample_set();
        let mut b = sample_set();
        let ra = ChebyshevScheme::with_seed(9).design(&mut a).unwrap();
        let rb = ChebyshevScheme::with_seed(9).design(&mut b).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_design_reports_the_applied_factor() {
        let mut ts = sample_set();
        let report = ChebyshevScheme::new().design_uniform(&mut ts, 4.0).unwrap();
        for &f in &report.factors {
            assert!((f - 4.0).abs() < 1e-6, "factor {f}");
        }
        // Two tasks at n = 4: P_MS = 1 − (16/17)² ≈ 0.1142.
        assert!((report.metrics.p_ms - (1.0 - (16.0 / 17.0f64).powi(2))).abs() < 1e-9);
    }

    #[test]
    fn ga_design_is_at_least_as_good_as_good_uniform_choices() {
        let mut ga_ts = sample_set();
        let ga = ChebyshevScheme::with_seed(1).design(&mut ga_ts).unwrap();
        for n in [1.0, 5.0, 10.0, 18.0, 30.0] {
            let mut uts = sample_set();
            let uni = ChebyshevScheme::new().design_uniform(&mut uts, n).unwrap();
            assert!(
                ga.metrics.objective >= uni.metrics.objective - 1e-3,
                "uniform n = {n}: {} beats GA {}",
                uni.metrics.objective,
                ga.metrics.objective
            );
        }
    }
}
