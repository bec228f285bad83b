//! GA convergence diagnostics — how quickly the paper's optimiser settles
//! on the Eq. 13 landscape, and how population size trades generations for
//! evaluations. Complements `ablation_optimizers` (final quality) with the
//! trajectory view.
//!
//! Run: `cargo run -p chebymc-bench --release --bin convergence`

use chebymc_bench::Table;
use mc_opt::ga::optimize;
use mc_opt::{GaConfig, ProblemConfig, WcetProblem};
use mc_task::generate::{generate_hc_taskset, GeneratorConfig};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let ts = generate_hc_taskset(0.8, &GeneratorConfig::default(), &mut rng)?;
    let problem = WcetProblem::from_taskset(&ts, ProblemConfig::default())?;
    println!(
        "GA convergence on one U_HC^HI = 0.8 task set ({} HC tasks)\n",
        problem.dimension()
    );

    let mut table = Table::new(["generation", "best", "mean", "best/final %"]);
    let cfg = GaConfig {
        generations: 80,
        ..GaConfig::default()
    };
    let bounds = problem.bounds()?;
    let result = optimize(&bounds, |c| problem.objective(c).fitness, &cfg)?.0;
    let final_best = result.best_fitness;
    for g in result
        .history
        .iter()
        .filter(|g| g.generation % 5 == 0 || g.generation == cfg.generations - 1)
    {
        table.row([
            format!("{}", g.generation),
            format!("{:.4}", g.best),
            format!("{:.4}", g.mean),
            format!("{:.1}", g.best / final_best * 100.0),
        ]);
    }
    table.emit("convergence");

    println!("population size vs generations to reach 99 % of the final objective:\n");
    let mut sweep = Table::new(["population", "gens to 99%", "evaluations to 99%"]);
    for &pop in &[16usize, 32, 64, 128, 256] {
        let cfg = GaConfig {
            population_size: pop,
            generations: 120,
            ..GaConfig::default()
        };
        let r = optimize(&bounds, |c| problem.objective(c).fitness, &cfg)?.0;
        let target = 0.99 * r.best_fitness;
        let gen99 = r
            .history
            .iter()
            .find(|g| g.best >= target)
            .map(|g| g.generation)
            .unwrap_or(cfg.generations);
        sweep.row([
            format!("{pop}"),
            format!("{gen99}"),
            format!("{}", gen99 * pop),
        ]);
    }
    sweep.emit("convergence_population");
    println!(
        "Reading the tables: the landscape is benign — the default 64x80\n\
         configuration converges within the first few dozen generations, and\n\
         larger populations only shift work from generations to evaluations."
    );
    Ok(())
}
