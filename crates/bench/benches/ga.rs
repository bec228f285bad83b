//! Criterion benchmark: genetic-algorithm cost vs population size,
//! chromosome length, and thread count (supports the DESIGN.md ablation
//! of GA scale and the parallel hot-path speedup in `BENCH_ga.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mc_opt::ga::{optimize, GaConfig, GeneBounds};
use mc_opt::{ProblemConfig, WcetProblem};
use mc_task::generate::{generate_hc_taskset, GeneratorConfig};
use rand::SeedableRng;
use std::hint::black_box;

fn sphere(c: &[f64]) -> f64 {
    -c.iter().map(|x| (x - 1.0).powi(2)).sum::<f64>()
}

fn bench_population_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ga_population");
    let bounds = vec![GeneBounds::new(0.0, 10.0).unwrap(); 8];
    for &pop in &[16usize, 64, 256] {
        let cfg = GaConfig {
            population_size: pop,
            generations: 40,
            ..GaConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(pop), &cfg, |b, cfg| {
            b.iter(|| black_box(optimize(&bounds, sphere, cfg).unwrap().0))
        });
    }
    group.finish();
}

fn bench_dimension_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ga_dimension");
    for &dim in &[2usize, 8, 32, 128] {
        let bounds = vec![GeneBounds::new(0.0, 10.0).unwrap(); dim];
        let cfg = GaConfig {
            population_size: 64,
            generations: 20,
            ..GaConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(dim), &bounds, |b, bounds| {
            b.iter(|| black_box(optimize(bounds, sphere, &cfg).unwrap().0))
        });
    }
    group.finish();
}

fn bench_thread_scaling(c: &mut Criterion) {
    // The real WCET problem (`solve_ga`), not a synthetic surface:
    // threads = 1 is the serial reference, 0 uses every available core.
    // Results are bit-identical either way; only wall-clock may differ.
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let ts = generate_hc_taskset(0.7, &GeneratorConfig::default(), &mut rng).unwrap();
    let problem = WcetProblem::from_taskset(&ts, ProblemConfig::default()).unwrap();
    let mut group = c.benchmark_group("ga_threads");
    for &threads in &[1usize, 0] {
        let cfg = GaConfig {
            threads,
            ..GaConfig::default()
        };
        let label = if threads == 0 { "all" } else { "1" };
        group.bench_with_input(BenchmarkId::from_parameter(label), &cfg, |b, cfg| {
            b.iter(|| black_box(problem.solve_ga(cfg).unwrap()))
        });
    }
    group.finish();
}

// An expensive multi-modal fitness where parallel evaluation dominates
// the serial variation phase even at small populations.
fn bench_expensive_fitness(c: &mut Criterion) {
    let bounds = vec![GeneBounds::new(-5.0, 5.0).unwrap(); 16];
    let heavy = |ch: &[f64]| {
        let mut acc = 0.0;
        for _ in 0..50 {
            acc -= ch.iter().map(|x| x * x - (x * 7.0).cos()).sum::<f64>();
        }
        acc / 50.0
    };
    let mut group = c.benchmark_group("ga_threads_heavy");
    for &threads in &[1usize, 0] {
        let cfg = GaConfig {
            population_size: 64,
            generations: 20,
            threads,
            ..GaConfig::default()
        };
        let label = if threads == 0 { "all" } else { "1" };
        group.bench_with_input(BenchmarkId::from_parameter(label), &cfg, |b, cfg| {
            b.iter(|| black_box(optimize(&bounds, heavy, cfg).unwrap().0))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_population_scaling,
    bench_dimension_scaling,
    bench_thread_scaling,
    bench_expensive_fitness
);
criterion_main!(benches);
