//! Fig. 4 — the proposed scheme (GA-optimised per-task `n`) against the
//! λ-range policies of the state of the art: mode-switching probability and
//! maximum LC utilisation per HC utilisation.
//!
//! A thin wrapper over the `fig4` campaign in `mc_exp::catalog` — the
//! definition `chebymc exp run fig4` executes — run here against an
//! in-memory store. The campaign derives the pre-campaign binary's
//! per-set seeds, so old and new output can be diffed directly.
//!
//! Run: `cargo run -p chebymc-bench --release --bin fig4`
//! Scale with `CHEBYMC_SETS` (paper: 1000 task sets per point).

use chebymc_bench::{pct, run_catalog, task_sets_per_point, trace_from_env, Table};
use mc_exp::catalog::{self, CatalogOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = trace_from_env();
    let sets = task_sets_per_point();
    println!("Fig. 4 — proposed scheme vs lambda-range policies ({sets} task sets per point)\n");
    let aggs = run_catalog(
        "fig4",
        &CatalogOptions {
            sets: Some(sets),
            ..CatalogOptions::default()
        },
    )?;
    // The axis is policy-major: point = policy_index * |u| + u_index.
    let policies = catalog::fig4_policies();
    let u_count = aggs.len() / policies.len();
    let mean = |pi: usize, ui: usize, metric: &str| {
        aggs[pi * u_count + ui]
            .mean(metric)
            .expect("fig4 records carry design metrics")
    };

    let mut p_table = Table::new({
        let mut h = vec!["U_HC^HI".to_string()];
        h.extend(policies.iter().map(|p| format!("P_MS% {}", p.name())));
        h
    });
    let mut u_table = Table::new({
        let mut h = vec!["U_HC^HI".to_string()];
        h.extend(policies.iter().map(|p| format!("maxU% {}", p.name())));
        h
    });
    for (ui, point) in aggs[..u_count].iter().enumerate() {
        let u = point.param("u").expect("campaign points carry u");
        let mut p_row = vec![format!("{u:.1}")];
        let mut u_row = vec![format!("{u:.1}")];
        for pi in 0..policies.len() {
            p_row.push(pct(mean(pi, ui, "p_ms")));
            u_row.push(pct(mean(pi, ui, "max_u_lc_lo")));
        }
        p_table.row(p_row);
        u_table.row(u_row);
    }
    println!("(a) mode-switching probability:");
    p_table.emit("fig4a");
    println!("(b) maximum assigned LC utilisation:");
    u_table.emit("fig4b");
    println!(
        "Shape to compare with the paper: conservative ranges (lambda in [1/4,1])\n\
         achieve tiny P_MS but poor max U_LC^LO (the paper reports 0.13 % / 32.6 %\n\
         at U = 0.8); aggressive ranges (lambda in [1/32,1]) achieve high\n\
         utilisation at ~93 % switching; the proposed scheme gets both\n\
         (paper: 6.61 % / 82.45 % at U = 0.8)."
    );
    Ok(())
}
