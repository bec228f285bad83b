//! Simulated annealing — an alternative randomized optimiser used to
//! ablate the paper's GA choice (DESIGN.md §5: is the GA doing anything a
//! simpler single-trajectory search would not?).

use crate::ga::GeneBounds;
use crate::OptError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Simulated-annealing hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaConfig {
    /// Total candidate evaluations.
    pub iterations: usize,
    /// Initial temperature (in fitness units).
    pub initial_temperature: f64,
    /// Geometric cooling factor per iteration, in (0, 1).
    pub cooling: f64,
    /// Neighbour step size as a fraction of each gene's range.
    pub step_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            iterations: 5_000,
            initial_temperature: 0.1,
            cooling: 0.999,
            step_fraction: 0.1,
            seed: 0,
        }
    }
}

impl SaConfig {
    fn validate(&self) -> Result<(), OptError> {
        let err = |reason| Err(OptError::InvalidConfig { reason });
        if self.iterations == 0 {
            return err("iterations must be non-zero");
        }
        if !self.initial_temperature.is_finite() || self.initial_temperature <= 0.0 {
            return err("initial_temperature must be positive");
        }
        if !self.cooling.is_finite() || !(0.0..1.0).contains(&self.cooling) {
            return err("cooling must be in (0, 1)");
        }
        if !self.step_fraction.is_finite() || self.step_fraction <= 0.0 || self.step_fraction > 1.0
        {
            return err("step_fraction must be in (0, 1]");
        }
        Ok(())
    }
}

/// Result of an annealing run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaResult {
    /// Best chromosome found.
    pub best: Vec<f64>,
    /// Its fitness.
    pub best_fitness: f64,
    /// Number of accepted moves (diagnostic).
    pub accepted: usize,
}

/// Maximises `fitness` over `bounds` by simulated annealing.
///
/// Non-finite fitness values are treated as `f64::NEG_INFINITY`.
///
/// # Errors
///
/// Returns [`OptError::InvalidConfig`] for invalid hyper-parameters and
/// [`OptError::EmptyChromosome`] when `bounds` is empty.
///
/// # Example
///
/// ```
/// use mc_opt::anneal::{anneal, SaConfig};
/// use mc_opt::ga::GeneBounds;
///
/// # fn main() -> Result<(), mc_opt::OptError> {
/// let bounds = [GeneBounds::new(0.0, 10.0)?];
/// let r = anneal(&bounds, |c| -(c[0] - 4.0).powi(2), &SaConfig::default())?;
/// assert!((r.best[0] - 4.0).abs() < 0.5);
/// # Ok(())
/// # }
/// ```
pub fn anneal<F>(bounds: &[GeneBounds], fitness: F, cfg: &SaConfig) -> Result<SaResult, OptError>
where
    F: Fn(&[f64]) -> f64,
{
    cfg.validate()?;
    if bounds.is_empty() {
        return Err(OptError::EmptyChromosome);
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let eval = |c: &[f64]| {
        let f = fitness(c);
        if f.is_finite() {
            f
        } else {
            f64::NEG_INFINITY
        }
    };
    let mut current: Vec<f64> = bounds
        .iter()
        .map(|b| {
            if b.hi > b.lo {
                rng.random_range(b.lo..=b.hi)
            } else {
                b.lo
            }
        })
        .collect();
    let mut current_fitness = eval(&current);
    let mut best = current.clone();
    let mut best_fitness = current_fitness;
    let mut temperature = cfg.initial_temperature;
    let mut accepted = 0usize;

    for _ in 0..cfg.iterations {
        // Perturb one random gene by a uniform step within ±fraction·range.
        let g = rng.random_range(0..bounds.len());
        let range = bounds[g].hi - bounds[g].lo;
        let mut candidate = current.clone();
        if range > 0.0 {
            let step = (rng.random::<f64>() * 2.0 - 1.0) * cfg.step_fraction * range;
            candidate[g] = (candidate[g] + step).clamp(bounds[g].lo, bounds[g].hi);
        }
        let candidate_fitness = eval(&candidate);
        let delta = candidate_fitness - current_fitness;
        // From an infeasible point (fitness -inf) `delta` is NaN against
        // another infeasible candidate, which would reject every move and
        // freeze the chain; walk freely instead until feasible ground is
        // found (`best` only updates on strictly greater fitness, so the
        // walk never pollutes the result).
        let accept = current_fitness == f64::NEG_INFINITY
            || delta >= 0.0
            || (temperature > 0.0 && rng.random::<f64>() < (delta / temperature).exp());
        if accept {
            current = candidate;
            current_fitness = candidate_fitness;
            accepted += 1;
            if current_fitness > best_fitness {
                best_fitness = current_fitness;
                best = current.clone();
            }
        }
        temperature *= cfg.cooling;
    }
    Ok(SaResult {
        best,
        best_fitness,
        accepted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        let ok = SaConfig::default();
        assert!(ok.validate().is_ok());
        assert!(SaConfig {
            iterations: 0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(SaConfig {
            initial_temperature: 0.0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(SaConfig { cooling: 1.0, ..ok }.validate().is_err());
        assert!(SaConfig {
            step_fraction: 0.0,
            ..ok
        }
        .validate()
        .is_err());
    }

    #[test]
    fn finds_one_dimensional_optimum() {
        let bounds = [GeneBounds::new(-5.0, 5.0).unwrap()];
        let r = anneal(&bounds, |c| -(c[0] - 2.0).powi(2), &SaConfig::default()).unwrap();
        assert!((r.best[0] - 2.0).abs() < 0.3, "got {}", r.best[0]);
        assert!(r.accepted > 0);
    }

    #[test]
    fn finds_multi_dimensional_optimum() {
        let bounds = vec![GeneBounds::new(0.0, 10.0).unwrap(); 4];
        let cfg = SaConfig {
            iterations: 20_000,
            ..SaConfig::default()
        };
        let r = anneal(
            &bounds,
            |c| -c.iter().map(|x| (x - 6.0).powi(2)).sum::<f64>(),
            &cfg,
        )
        .unwrap();
        for x in &r.best {
            assert!((x - 6.0).abs() < 0.6, "got {:?}", r.best);
        }
    }

    #[test]
    fn respects_bounds_and_is_deterministic() {
        let bounds = [
            GeneBounds::new(1.0, 2.0).unwrap(),
            GeneBounds::new(-3.0, -1.0).unwrap(),
        ];
        let cfg = SaConfig::default();
        let a = anneal(&bounds, |c| c.iter().sum(), &cfg).unwrap();
        let b = anneal(&bounds, |c| c.iter().sum(), &cfg).unwrap();
        assert_eq!(a, b);
        assert!((1.0..=2.0).contains(&a.best[0]));
        assert!((-3.0..=-1.0).contains(&a.best[1]));
    }

    #[test]
    fn empty_chromosome_is_rejected() {
        assert!(matches!(
            anneal(&[], |_| 0.0, &SaConfig::default()).unwrap_err(),
            OptError::EmptyChromosome
        ));
    }

    #[test]
    fn non_finite_fitness_never_wins() {
        let bounds = [GeneBounds::new(0.0, 1.0).unwrap()];
        let r = anneal(
            &bounds,
            |c| if c[0] < 0.5 { f64::NAN } else { c[0] },
            &SaConfig::default(),
        )
        .unwrap();
        assert!(r.best_fitness.is_finite());
        assert!(r.best[0] >= 0.5);
    }

    #[test]
    fn comparable_quality_to_ga_on_the_wcet_problem() {
        // The ablation claim: on the paper's smooth low-dimensional
        // objective, SA lands within a few percent of the GA.
        use mc_task::time::Duration;
        use mc_task::{Criticality, ExecutionProfile, McTask, TaskId, TaskSet};
        let mk = |id: u32, acet: f64, sigma: f64, wcet_ms: u64| {
            McTask::builder(TaskId::new(id))
                .criticality(Criticality::Hi)
                .period(Duration::from_millis(100))
                .c_lo(Duration::from_millis(wcet_ms))
                .c_hi(Duration::from_millis(wcet_ms))
                .profile(ExecutionProfile::new(acet, sigma, wcet_ms as f64 * 1e6).unwrap())
                .build()
                .unwrap()
        };
        let ts =
            TaskSet::from_tasks(vec![mk(0, 3.0e6, 1.0e6, 40), mk(1, 5.0e6, 2.0e6, 30)]).unwrap();
        let problem =
            crate::problem::WcetProblem::from_taskset(&ts, crate::ProblemConfig::default())
                .unwrap();
        let bounds = problem.bounds().unwrap();
        let sa = anneal(
            &bounds,
            |c| problem.objective(c).fitness,
            &SaConfig {
                iterations: 20_000,
                ..SaConfig::default()
            },
        )
        .unwrap();
        let ga = problem.solve_ga(&crate::GaConfig::default()).unwrap();
        assert!(
            sa.best_fitness >= 0.97 * ga.objective.fitness,
            "SA {} vs GA {}",
            sa.best_fitness,
            ga.objective.fitness
        );
    }
}
