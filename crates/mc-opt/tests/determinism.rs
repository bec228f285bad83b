//! The GA's memo contract: the fitness memo cache must never change a
//! result — only skip redundant evaluations — and runs are bit-identical
//! per seed.

use mc_opt::ga::{optimize, GaConfig, GeneBounds};
use std::sync::atomic::{AtomicUsize, Ordering};

fn rastrigin_like(c: &[f64]) -> f64 {
    // Multi-modal, so different trajectories would visibly diverge.
    -c.iter()
        .map(|x| x * x - 10.0 * (x * 3.0).cos() + 10.0)
        .sum::<f64>()
}

#[test]
fn memo_cache_skips_elites_but_never_changes_results() {
    let bounds = vec![GeneBounds::new(-5.12, 5.12).unwrap(); 5];
    let cfg = GaConfig {
        population_size: 30,
        generations: 25,
        ..GaConfig::default()
    };
    let evals = AtomicUsize::new(0);
    let counted = |c: &[f64]| {
        evals.fetch_add(1, Ordering::Relaxed);
        rastrigin_like(c)
    };
    let result = optimize(&bounds, counted, &cfg).unwrap().0;
    let total = evals.load(Ordering::Relaxed);

    // A memo-less GA evaluates every individual of every generation:
    // pop × (generations + 1). Elites alone (carried scores, default
    // elitism = 2) must already push the count below that; converged
    // duplicate genomes only widen the gap.
    let nominal = cfg.population_size * (cfg.generations + 1);
    let elite_savings = 2 * cfg.generations;
    assert!(
        total <= nominal - elite_savings,
        "memo cache saved nothing: {total} evaluations vs {nominal} nominal"
    );

    // Cached values must agree with a fresh evaluation bit-for-bit.
    assert_eq!(result.best_fitness, rastrigin_like(&result.best));

    // And memoization must not alter the outcome vs. the same
    // configuration (the memo is always on — cross-check two runs of a
    // duplicate-heavy fitness instead).
    let dup_heavy = |c: &[f64]| (c[0] * 8.0).round() / 8.0; // plateaus → duplicates
    let a = optimize(&bounds, dup_heavy, &cfg).unwrap().0;
    let b = optimize(&bounds, dup_heavy, &cfg).unwrap().0;
    assert_eq!(a, b);
    assert_eq!(a.best_fitness, dup_heavy(&a.best));
}

#[test]
fn duplicate_genomes_are_evaluated_once() {
    // A single-gene problem with zero-width bounds: every chromosome is
    // identical, so the memo collapses all evaluations into one.
    let bounds = [GeneBounds::new(3.0, 3.0).unwrap()];
    let cfg = GaConfig {
        population_size: 16,
        generations: 10,
        ..GaConfig::default()
    };
    let evals = AtomicUsize::new(0);
    let counted = |c: &[f64]| {
        evals.fetch_add(1, Ordering::Relaxed);
        -c[0]
    };
    let result = optimize(&bounds, counted, &cfg).unwrap().0;
    assert_eq!(evals.load(Ordering::Relaxed), 1);
    assert_eq!(result.best, vec![3.0]);
}
