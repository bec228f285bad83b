//! Compares WCET-assignment policies across HC utilisations — a compact,
//! runnable version of the paper's Figs. 4–5 comparison. Each point
//! averages one-set evaluations on the campaign seed contract; the
//! full-scale figures run as `chebymc exp run fig4` / `fig5`.
//!
//! Run with: `cargo run --release --example policy_comparison`

use chebymc::core::pipeline::{derive_set_seed, evaluate_policy_one_set};
use chebymc::core::policy::paper_lambda_baselines;
use chebymc::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let task_sets = 50; // the paper uses 1000; 50 keeps the example snappy
    let seed = 2024;
    let u_values = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

    let mut policies: Vec<WcetPolicy> = vec![WcetPolicy::ChebyshevGa {
        ga: GaConfig {
            population_size: 32,
            generations: 30,
            ..GaConfig::default()
        },
        problem: ProblemConfig::default(),
    }];
    policies.extend(paper_lambda_baselines());
    policies.push(WcetPolicy::Acet);

    println!(
        "{:<22} {:>8} {:>10} {:>12} {:>11}",
        "policy", "U_HC^HI", "P_MS", "maxU_LC^LO", "objective"
    );
    for policy in &policies {
        for (ui, &u) in u_values.iter().enumerate() {
            let (mut p_ms, mut max_u, mut objective) = (0.0, 0.0, 0.0);
            for set in 0..task_sets {
                let gen = GeneratorConfig::default();
                let e = evaluate_policy_one_set(u, policy, &gen, derive_set_seed(seed, ui, set))?;
                p_ms += e.p_ms;
                max_u += e.max_u_lc_lo;
                objective += e.objective;
            }
            let n = task_sets as f64;
            println!(
                "{:<22} {:>8.2} {:>9.2}% {:>11.2}% {:>11.4}",
                policy.name(),
                u,
                p_ms / n * 100.0,
                max_u / n * 100.0,
                objective / n
            );
        }
        println!();
    }

    println!("Reading the table: the Chebyshev-GA rows should dominate on the");
    println!("objective column — low P_MS *and* high admissible LC utilisation —");
    println!("while λ-range baselines trade one against the other (paper Figs. 4–5).");
    Ok(())
}
