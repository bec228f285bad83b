//! Fig. 6 — acceptance ratio (fraction of schedulable task sets) of the
//! two state-of-the-art scheduling approaches, with and without the
//! proposed WCET-assignment scheme, as the bound utilisation grows.
//!
//! Task sets are generated to a **LO-mode** utilisation bound with HC tasks
//! budgeted the λ-baseline way (`C_LO = λᵢ·C_HI`, `λᵢ ∈ [1/4, 1]`). The
//! published approaches are tested as generated; the "+ scheme" variants
//! first re-derive every `C_LO` from `(ACET, σ)` with the Chebyshev GA.
//! Baruah et al. RTNS'12 drops LC tasks in HI mode; Liu et al. RTSS'16
//! degrades them to 50 %.
//!
//! A thin wrapper over the `fig6` campaign in `mc_exp::catalog` — the
//! definition `chebymc exp run fig6` executes — run here against an
//! in-memory store. Each unit reports `accepted` ∈ {0, 1}, so a point's
//! mean is the acceptance ratio, bit-identical to the pre-campaign count.
//!
//! Run: `cargo run -p chebymc-bench --release --bin fig6`

use chebymc_bench::{pct, run_catalog, task_sets_per_point, trace_from_env, Table};
use mc_exp::catalog::{self, CatalogOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = trace_from_env();
    let sets = task_sets_per_point();
    println!(
        "Fig. 6 — acceptance ratio vs U_bound ({sets} task sets per point, P(HC) = 0.5,\n\
         baseline budgets C_LO = lambda*C_HI with lambda in [1/4, 1])\n"
    );
    let aggs = run_catalog(
        "fig6",
        &CatalogOptions {
            sets: Some(sets),
            ..CatalogOptions::default()
        },
    )?;
    // The axis is variant-major: point = variant_index * |u| + u_index.
    let variants = catalog::fig6_variants();
    let u_count = aggs.len() / variants.len();

    let mut table = Table::new({
        let mut h = vec!["U_bound".to_string()];
        h.extend(variants.iter().map(|v| format!("{} %", v.name)));
        h
    });
    for (ui, point) in aggs[..u_count].iter().enumerate() {
        let u = point.param("u").expect("campaign points carry u");
        let mut row = vec![format!("{u:.2}")];
        for vi in 0..variants.len() {
            let ratio = aggs[vi * u_count + ui]
                .mean("accepted")
                .expect("fig6 records carry accepted");
            row.push(pct(ratio));
        }
        table.row(row);
    }
    table.emit("fig6");
    println!(
        "Shape to compare with the paper: all approaches accept everything up to\n\
         U_bound ≈ 0.7; beyond that the plain approaches decay (approaching 0 by\n\
         ~0.9-1.0) while the scheme-assisted variants keep accepting nearly all\n\
         sets through 0.9."
    );
    Ok(())
}
