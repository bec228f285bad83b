//! The incremental evaluation engine's external contract: delta-fitness,
//! the memo cache, the auto-serial fallback and the thread count are all
//! *pure performance knobs* — no combination may change one bit of any
//! objective value or GA result. These tests drive
//! the engine the way the GA does (random variation sequences over random
//! task sets) and compare every path against a from-scratch evaluation.

use mc_opt::ga::{optimize, GaConfig, GeneBounds, SERIAL_EVAL_THRESHOLD};
use mc_opt::incremental::{optimize_incremental, Block, ObjectiveCache};
use mc_opt::problem::HcTaskParams;
use mc_opt::ObjectiveValue;
use mc_task::TaskId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bits_eq(a: ObjectiveValue, b: ObjectiveValue) -> bool {
    a.p_ms.to_bits() == b.p_ms.to_bits()
        && a.max_u_lc_lo.to_bits() == b.max_u_lc_lo.to_bits()
        && a.u_hc_lo.to_bits() == b.u_hc_lo.to_bits()
        && a.fitness.to_bits() == b.fitness.to_bits()
}

/// A random but plausible HC task set: periods 50–900 ms, WCET a few
/// percent of the period, occasional σ = 0 tasks (the deterministic
/// special case of Eq. 9).
fn random_cache(rng: &mut StdRng, n: usize) -> ObjectiveCache {
    let tasks: Vec<HcTaskParams> = (0..n)
        .map(|i| {
            let period = rng.random_range(5.0e7..9.0e8);
            let wcet_pes = period * rng.random_range(0.01..0.2);
            let acet = wcet_pes * rng.random_range(0.05..0.5);
            let sigma = if rng.random::<f64>() < 0.1 {
                0.0
            } else {
                acet * rng.random_range(0.05..0.4)
            };
            HcTaskParams {
                id: TaskId::new(i as u32),
                acet,
                sigma,
                wcet_pes,
                period,
            }
        })
        .collect();
    let u_hc_hi = tasks.iter().map(HcTaskParams::u_hi).sum();
    ObjectiveCache::new(&tasks, u_hc_hi)
}

/// Random GA-shaped variation: an optional crossover span and an optional
/// single mutated gene, with new values drawn from a range that straddles
/// the feasibility threshold so infeasible children occur regularly.
fn vary(rng: &mut StdRng, parent: &[f64]) -> (Vec<f64>, Option<(usize, usize)>, Option<usize>) {
    let n = parent.len();
    let mut child = parent.to_vec();
    let crossover = if rng.random::<f64>() < 0.8 {
        let (mut lo, mut hi) = (rng.random_range(0..n), rng.random_range(0..n));
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        for x in &mut child[lo..=hi] {
            // Sometimes the "mate" carries the identical gene value.
            if rng.random::<f64>() < 0.8 {
                *x = rng.random_range(-1.0..60.0);
            }
        }
        Some((lo, hi))
    } else {
        None
    };
    let mutated = if rng.random::<f64>() < 0.5 {
        let g = rng.random_range(0..n);
        if rng.random::<f64>() < 0.8 {
            child[g] = rng.random_range(-1.0..60.0);
        }
        Some(g)
    } else {
        None
    };
    (child, crossover, mutated)
}

#[test]
fn random_mutation_sequences_are_bit_identical_to_full_recomputation() {
    // The satellite property: chains of GA-shaped variations, delta-
    // evaluated step after step (each child becomes the next parent,
    // inheriting *patched* partials, so errors would compound), always
    // match a from-scratch evaluation bitwise — across the single-block
    // regime, block-boundary dimensions and many-block genomes.
    for dim in [3usize, 16, 17, 40, 100] {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE + dim as u64);
        let cache = random_cache(&mut rng, dim);
        let nb = cache.n_blocks();
        let mut parent: Vec<f64> = (0..dim).map(|_| rng.random_range(0.0..30.0)).collect();
        let mut parent_blocks = vec![Block::default(); nb];
        let mut parent_value = cache.eval_full(&parent, &mut parent_blocks);
        let mut child_blocks = vec![Block::default(); nb];
        let mut carried = 0u32;
        for step in 0..300 {
            let (child, crossover, mutated) = vary(&mut rng, &parent);
            if crossover.is_none() && mutated.is_none() {
                continue;
            }
            let d = cache.eval_delta(
                &child,
                &parent,
                &parent_blocks,
                &mut child_blocks,
                crossover,
                mutated,
            );
            let reference = cache.eval(&child);
            let value = match d.value {
                Some(v) => v,
                None => {
                    carried += 1;
                    parent_value
                }
            };
            assert!(
                bits_eq(value, reference),
                "dim {dim} step {step}: delta {value:?} vs full {reference:?}"
            );
            // The patched partials are a valid basis for the next delta.
            assert!(bits_eq(cache.combine(&child_blocks), reference));
            parent = child;
            std::mem::swap(&mut parent_blocks, &mut child_blocks);
            parent_value = value;
        }
        // The variation scheme produces bitwise-identical children often
        // enough that the carried path is genuinely exercised.
        assert!(carried > 0, "dim {dim}: no carried children in 300 steps");
    }
}

#[test]
fn incremental_ga_matches_closure_ga_for_every_knob_combination() {
    // The central equality: the incremental backend and the memoised
    // closure backend must return byte-identical GaResults for any thread
    // count. Dims 6 and 24 stay under the serial-fallback threshold; dim
    // 300 at population 32 crosses it, so threads 2 and 4 run the
    // parallel closure and delta paths.
    let mut rng = StdRng::seed_from_u64(42);
    for dim in [6usize, 24, 300] {
        let cache = random_cache(&mut rng, dim);
        let bounds = vec![GeneBounds::new(0.0, 30.0).unwrap(); dim];
        let base = GaConfig {
            population_size: 32,
            generations: 25,
            threads: 1,
            ..GaConfig::default()
        };
        let closure = |c: &[f64]| cache.eval(c).fitness;
        let (reference, _) = optimize(&bounds, closure, &base).unwrap();
        for threads in [1usize, 2, 4] {
            let cfg = GaConfig { threads, ..base };
            let ctx = format!("dim {dim} threads {threads}");
            let (r, _) = optimize(&bounds, closure, &cfg).unwrap();
            assert_eq!(r, reference, "closure path diverged: {ctx}");
            let (ri, stats) = optimize_incremental(&cache, &bounds, &cfg).unwrap();
            assert_eq!(ri, reference, "incremental path diverged: {ctx}");
            // Every considered slot was served exactly one way.
            assert_eq!(
                stats.considered,
                stats.full_evals + stats.delta_evals + stats.carried,
                "{ctx}"
            );
            assert_eq!(stats.memo_hits, 0, "{ctx}");
            // Gen 0 is the only full-evaluation generation.
            assert_eq!(stats.full_evals, 32, "{ctx}");
            assert!(stats.delta_evals > 0, "{ctx}");
            // The whole point: most gene-terms are never re-folded.
            assert!(stats.genes_evaluated < stats.genes_total, "{ctx}");
        }
    }
    // The premise of the largest dim: generation 0 of either backend and
    // every delta generation (all but the two elites) exceed the threshold.
    const { assert!((32 - 2) * 300 >= SERIAL_EVAL_THRESHOLD) };
}

#[test]
fn incremental_stats_count_the_actual_work() {
    let mut rng = StdRng::seed_from_u64(9);
    let dim = 48;
    let cache = random_cache(&mut rng, dim);
    let bounds = vec![GeneBounds::new(0.0, 30.0).unwrap(); dim];
    let cfg = GaConfig {
        population_size: 40,
        generations: 40,
        threads: 1,
        ..GaConfig::default()
    };
    let (_, stats) = optimize_incremental(&cache, &bounds, &cfg).unwrap();
    assert_eq!(stats.considered, 40 + 40 * (40 - 2));
    assert_eq!(stats.genes_total, stats.considered * dim as u64);
    // Full evaluations fold whole genomes; deltas at most the candidate
    // blocks (≤ 3 blocks of 16 for a span + a far mutation — but never
    // more than the genome).
    assert!(stats.genes_evaluated >= stats.full_evals * dim as u64);
    assert!(
        stats.genes_evaluated <= stats.full_evals * dim as u64 + stats.delta_evals * dim as u64
    );
    // A uniform crossover span averages dim/3 genes but block granularity
    // rounds it up to whole blocks, so on a 3-block genome the expected
    // delta re-fold is ≈ 60% of the genome. Assert it stays clearly below
    // a full re-fold; the ratio shrinks as block count grows.
    let delta_genes = stats.genes_evaluated - stats.full_evals * dim as u64;
    assert!(
        delta_genes * 4 < stats.delta_evals * dim as u64 * 3,
        "average delta re-folds {} of {dim} genes",
        delta_genes as f64 / stats.delta_evals as f64
    );
}

#[test]
fn closure_stats_account_memo_and_dups() {
    let bounds = vec![GeneBounds::new(0.0, 5.0).unwrap(); 4];
    let cfg = GaConfig {
        population_size: 24,
        generations: 20,
        threads: 1,
        ..GaConfig::default()
    };
    let f = |c: &[f64]| c.iter().map(|x| x * (4.0 - x)).sum::<f64>();
    let (_, stats) = optimize(&bounds, f, &cfg).unwrap();
    assert_eq!(
        stats.considered,
        stats.full_evals + stats.memo_hits + stats.batch_dups
    );
    assert!(stats.memo_hits > 0);
    assert_eq!(stats.delta_evals, 0);
    assert_eq!(stats.carried, 0);
}
