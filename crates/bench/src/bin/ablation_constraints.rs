//! Ablation — constraint handling for Eq. 9 in the GA (DESIGN.md §5):
//! clamp-repair (genes bounded by each task's max factor, the default)
//! vs death penalty (wide bounds, infeasible chromosomes scored zero).
//!
//! Run: `cargo run -p chebymc-bench --release --bin ablation_constraints`

use chebymc_bench::Table;
use mc_opt::ga::optimize;
use mc_opt::{GaConfig, ProblemConfig, WcetProblem};
use mc_task::generate::{generate_hc_taskset, GeneratorConfig};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Ablation — Eq. 9 constraint handling in the GA\n");
    let mut table = Table::new([
        "U_HC^HI",
        "seed",
        "clamp-repair obj",
        "death-penalty obj",
        "penalty/clamp %",
    ]);
    let mut ratios = Vec::new();
    for &u in &[0.4, 0.6, 0.8] {
        for seed in 0..5u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(100 + seed);
            let ts = generate_hc_taskset(u, &GeneratorConfig::default(), &mut rng)?;
            let problem = WcetProblem::from_taskset(&ts, ProblemConfig::default())?;
            let ga = GaConfig {
                seed,
                ..GaConfig::default()
            };

            let clamp_bounds = problem.bounds()?;
            let clamp = optimize(&clamp_bounds, |c| problem.objective(c).fitness, &ga)?.0;

            let penalty_bounds = problem.bounds_penalty_only()?;
            let penalty = optimize(&penalty_bounds, |c| problem.objective(c).fitness, &ga)?.0;

            let ratio = penalty.best_fitness / clamp.best_fitness.max(1e-12) * 100.0;
            ratios.push(ratio);
            table.row([
                format!("{u:.1}"),
                format!("{seed}"),
                format!("{:.4}", clamp.best_fitness),
                format!("{:.4}", penalty.best_fitness),
                format!("{ratio:.1}"),
            ]);
        }
    }
    table.emit("ablation_constraints");
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!(
        "mean penalty/clamp quality: {mean:.1} %\n\
         Reading the table: with the generator's generous Eq. 9 headroom both\n\
         handlers land close; clamp-repair never wastes evaluations on dead\n\
         chromosomes, so it is the default. Death penalty degrades when many\n\
         tasks have tight max factors (try lowering the wcet_ratio range)."
    );
    Ok(())
}
