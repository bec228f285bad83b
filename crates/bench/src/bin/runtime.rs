//! Runtime validation — not a numbered figure, but the §I claims the
//! design-time numbers stand on: a designed system's observed mode-switch
//! rate, LC losses and HC deadline safety under the event simulator.
//!
//! Run: `cargo run -p chebymc-bench --release --bin runtime`

use chebymc_bench::{pct, Table};
use chebymc_core::policy::WcetPolicy;
use chebymc_core::scheme::ChebyshevScheme;
use mc_opt::GaConfig;
use mc_sched::sim::{simulate, JobExecModel, LcPolicy, ModeSwitchPolicy, SimConfig};
use mc_task::generate::{generate_mixed_taskset, GeneratorConfig};
use mc_task::time::Duration;
use rand::SeedableRng;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Runtime validation — 60 s simulations, profile-driven execution times\n");
    // Wall-clock design time is deliberately *not* a table column: the
    // table is the result payload (mirrored to CSV via CHEBYMC_CSV_DIR)
    // and must be identical run-to-run; timing is narrative metadata,
    // reported on stderr below so stdout stays byte-identical too.
    let mut table = Table::new([
        "U_bound",
        "policy",
        "P_MS bound %",
        "switch/HCjob %",
        "LC loss %",
        "HC miss",
        "busy %",
    ]);
    let mut design_wall = 0.0f64;
    let mut designs = 0usize;
    for &u in &[0.5, 0.7, 0.9] {
        for seed in 0..3u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1000 * seed + 7);
            let base = generate_mixed_taskset(u, &GeneratorConfig::default(), &mut rng)?;

            // Chebyshev-GA design, wall-clock tracked: the GA is the
            // design-time cost (BENCH_ga.json holds the controlled
            // per-backend numbers).
            let mut cheb = base.clone();
            let design_start = Instant::now();
            let report = ChebyshevScheme {
                ga: GaConfig {
                    population_size: 48,
                    generations: 40,
                    seed,
                    ..GaConfig::default()
                },
                problem: Default::default(),
            }
            .design(&mut cheb)?;
            let design_ms = design_start.elapsed().as_secs_f64() * 1e3;
            design_wall += design_ms;
            designs += 1;

            // A tight uniform n = 2 design (visible switching) and the
            // λ = 1/32 baseline (heavy switching) on the same set.
            let mut tight = base.clone();
            WcetPolicy::ChebyshevUniform { n: 2.0 }.assign(&mut tight)?;
            let tight_bound = chebymc_core::metrics::design_metrics(&tight)?.p_ms;
            let mut lam = base.clone();
            WcetPolicy::LambdaFraction { lambda: 1.0 / 32.0 }.assign(&mut lam)?;

            for (name, ts, bound) in [
                ("chebyshev-ga", &cheb, report.metrics.p_ms),
                ("chebyshev-n2", &tight, tight_bound),
                ("lambda-1/32", &lam, f64::NAN),
            ] {
                let cfg = SimConfig {
                    horizon: Duration::from_secs(60),
                    lc_policy: LcPolicy::DropAll,
                    exec_model: JobExecModel::Profile,
                    x_factor: None,
                    release_jitter: Duration::ZERO,
                    mode_switch: ModeSwitchPolicy::System,
                    seed: 99 + seed,
                };
                let m = simulate(ts, &cfg)?;
                table.row([
                    format!("{u:.1}"),
                    name.to_string(),
                    if bound.is_nan() {
                        "-".into()
                    } else {
                        pct(bound)
                    },
                    pct(m.switch_rate_per_hc_job()),
                    pct(m.lc_loss_rate()),
                    format!("{}", m.hc_deadline_misses),
                    pct(m.utilization()),
                ]);
            }
        }
    }
    table.emit("runtime");
    println!(
        "Reading the table: observed switch rates stay below the design-time\n\
         Chebyshev bound (the bound is distribution-free and loose), LC losses\n\
         track the switch rate, and the HC-miss column is all zeros."
    );
    eprintln!(
        "Mean GA design time: {:.1} ms over {designs} designs (see BENCH_ga.json\n\
         for the controlled per-backend comparison).",
        design_wall / designs as f64,
    );
    Ok(())
}
