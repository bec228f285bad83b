//! Fig. 5 — the combined objective `(1 − P_MS) · max(U_LC^LO)` (Eq. 13) of
//! every policy as `U_HC^HI` varies: the single-number comparison in which
//! the proposed scheme dominates.
//!
//! A thin wrapper over the `fig5` campaign in `mc_exp::catalog` — the
//! same definition `chebymc exp run fig5` executes, run here against an
//! in-memory store. The campaign reproduces the pre-campaign binary's
//! numbers bit-for-bit (it derives the identical per-set seed stream), so
//! old and new output can be diffed directly.
//!
//! Run: `cargo run -p chebymc-bench --release --bin fig5`

use chebymc_bench::{run_catalog, task_sets_per_point, trace_from_env, Table};
use mc_exp::catalog::{self, CatalogOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = trace_from_env();
    let sets = task_sets_per_point();
    println!("Fig. 5 — Eq. 13 objective by varying U_HC^HI ({sets} task sets per point)\n");
    let aggs = run_catalog(
        "fig5",
        &CatalogOptions {
            sets: Some(sets),
            ..CatalogOptions::default()
        },
    )?;

    // The axis is policy-major: the first |u| points belong to the first
    // policy, and every point exposes its utilisation as a parameter.
    let policies = catalog::fig5_policies();
    let u_count = aggs.len() / policies.len();
    let u_values: Vec<f64> = aggs[..u_count]
        .iter()
        .map(|a| a.param("u").expect("campaign points carry u"))
        .collect();
    let objective = |pi: usize, ui: usize| {
        aggs[pi * u_count + ui]
            .mean("objective")
            .expect("fig5 records carry objective")
    };

    let mut table = Table::new({
        let mut h = vec!["U_HC^HI".to_string()];
        h.extend(policies.iter().map(|p| p.name()));
        h
    });
    let mut improvements = Vec::new();
    for (ui, &u) in u_values.iter().enumerate() {
        let mut row = vec![format!("{u:.1}")];
        for pi in 0..policies.len() {
            row.push(format!("{:.4}", objective(pi, ui)));
        }
        table.row(row);
        // Improvement of the scheme over the best lambda baseline.
        let ours = objective(0, ui);
        let best_baseline = (1..policies.len())
            .map(|pi| objective(pi, ui))
            .fold(f64::NEG_INFINITY, f64::max);
        if best_baseline > 0.0 {
            improvements.push((u, (ours / best_baseline - 1.0) * 100.0));
        }
    }
    table.emit("fig5");
    println!("objective improvement of the scheme over the best baseline per point:");
    for (u, imp) in &improvements {
        println!("  U_HC^HI = {u:.1}: {imp:+.1} %");
    }
    println!(
        "\nShape to compare with the paper: the scheme's curve dominates every\n\
         policy at every utilisation (the paper reports utilisation improvements\n\
         of up to 85.29 % with P_MS bounded by 9.11 %)."
    );
    Ok(())
}
