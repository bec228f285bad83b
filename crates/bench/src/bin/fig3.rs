//! Fig. 3 — effect of `n` and the HC tasks' utilisation on the
//! mode-switching probability (a), the maximum assigned LC utilisation (b),
//! and the Eq. 13 product locating the optimum `n` per utilisation (c).
//!
//! A thin wrapper over the `fig3` and `fig3_optimum` campaigns in
//! `mc_exp::catalog` — the definitions `chebymc exp run fig3` and
//! `chebymc exp run fig3_optimum` execute — run here against in-memory
//! stores. The campaigns derive the pre-campaign binary's per-set seeds,
//! so old and new output can be diffed directly.
//!
//! Run: `cargo run -p chebymc-bench --release --bin fig3`
//! Scale with `CHEBYMC_SETS` (paper: 1000 task sets per point).

use chebymc_bench::{pct, run_catalog, task_sets_per_point, trace_from_env, Table};
use mc_exp::catalog::{self, CatalogOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = trace_from_env();
    let sets = task_sets_per_point();
    let opts = CatalogOptions {
        sets: Some(sets),
        ..CatalogOptions::default()
    };
    let n_values = catalog::fig3_n_values();
    println!("Fig. 3 — n and U_HC^HI sweep ({sets} task sets per point)\n");
    let aggs = run_catalog("fig3", &opts)?;
    let fine = run_catalog("fig3_optimum", &opts)?;
    // Both axes are policy-major: point = n_index * |u| + u_index.
    let u_count = aggs.len() / n_values.len();
    let mean = |agg: &mc_exp::PointAggregate, metric: &str| {
        agg.mean(metric).expect("fig3 records carry design metrics")
    };

    let mut p_ms_table = Table::new({
        let mut h = vec!["U_HC^HI".to_string()];
        h.extend(n_values.iter().map(|n| format!("P_MS% @n={n}")));
        h
    });
    let mut u_table = Table::new({
        let mut h = vec!["U_HC^HI".to_string()];
        h.extend(n_values.iter().map(|n| format!("maxU% @n={n}")));
        h
    });
    let mut obj_table = Table::new({
        let mut h = vec!["U_HC^HI".to_string()];
        h.extend(n_values.iter().map(|n| format!("obj @n={n}")));
        h.push("optimum n".into());
        h
    });

    for (ui, point) in aggs[..u_count].iter().enumerate() {
        let u = point.param("u").expect("campaign points carry u");
        let mut p_row = vec![format!("{u:.1}")];
        let mut u_row = vec![format!("{u:.1}")];
        let mut o_row = vec![format!("{u:.1}")];
        for ni in 0..n_values.len() {
            let pt = &aggs[ni * u_count + ui];
            p_row.push(pct(mean(pt, "p_ms")));
            u_row.push(pct(mean(pt, "max_u_lc_lo")));
            o_row.push(format!("{:.4}", mean(pt, "objective")));
        }
        // Optimum n on the finer grid for this utilisation; the first
        // maximum wins.
        let mut best_n = 0.0;
        let mut best_obj = f64::NEG_INFINITY;
        for (ni, &n) in catalog::fig3_optimum_n_values().iter().enumerate() {
            let obj = mean(&fine[ni * u_count + ui], "objective");
            if obj > best_obj {
                best_obj = obj;
                best_n = n;
            }
        }
        o_row.push(format!("{best_n:.0}"));
        p_ms_table.row(p_row);
        u_table.row(u_row);
        obj_table.row(o_row);
    }

    println!("(a) mode-switching probability:");
    p_ms_table.emit("fig3a");
    println!("(b) maximum assigned LC utilisation:");
    u_table.emit("fig3b");
    println!("(c) objective and optimum n per utilisation:");
    obj_table.emit("fig3c");
    println!(
        "Shape to compare with the paper: P_MS rises with U_HC^HI at fixed n\n\
         (e.g. n=10: ~13 % at U=0.4 vs ~24 % at U=0.8 in the paper) and falls\n\
         with n; max U_LC^LO falls with both; the optimum n generally decreases\n\
         as utilisation grows."
    );
    Ok(())
}
