//! Criterion benchmark: genetic-algorithm cost vs population size and
//! chromosome length (supports the DESIGN.md ablation of GA scale).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mc_opt::ga::{optimize, GaConfig, GeneBounds};
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

criterion_group!(benches, bench_population_scaling, bench_dimension_scaling);
criterion_main!(benches);
