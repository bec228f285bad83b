//! Ablation — population σ (the paper's Eq. 4, divide by m) vs the
//! Bessel-corrected sample σ (divide by m−1), and sensitivity of the
//! designed budgets to the trace length m (DESIGN.md §5).
//!
//! A thin wrapper over the `ablation_sigma` campaign in `mc_exp::catalog`
//! (the definition `chebymc exp run ablation_sigma` executes), run against
//! an in-memory store with the legacy trace seeds, so the rows match the
//! pre-campaign binary exactly.
//!
//! Run: `cargo run -p chebymc-bench --release --bin ablation_sigma`

use chebymc_bench::{pct, run_catalog, trace_from_env, Table};
use mc_exp::catalog::CatalogOptions;
use mc_stats::chebyshev::one_sided_bound;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = trace_from_env();
    println!("Ablation — σ estimator and trace length (benchmark: corner; n = 3)\n");
    let aggs = run_catalog("ablation_sigma", &CatalogOptions::default())?;

    let mut table = Table::new([
        "m (samples)",
        "ACET",
        "pop σ",
        "sample σ",
        "C_LO(pop)",
        "C_LO(sample)",
        "Δ C_LO %",
        "meas overrun % @C_LO(pop)",
    ]);
    for a in &aggs {
        let get = |name: &str| a.mean(name).expect("ablation records carry every column");
        let m = a.param("m").expect("ablation points carry m");
        table.row([
            format!("{}", m as usize),
            format!("{:.0}", get("acet")),
            format!("{:.0}", get("pop_sigma")),
            format!("{:.0}", get("sample_sigma")),
            format!("{:.0}", get("c_lo_pop")),
            format!("{:.0}", get("c_lo_sample")),
            format!("{:.2}", get("delta_pct")),
            pct(get("measured_overrun")),
        ]);
    }
    table.emit("ablation_sigma");
    println!(
        "Chebyshev bound at n = 3: {}%.\n\
         Reading the table: the estimator choice moves C_LO by ≈ 100/(2m) % —\n\
         irrelevant at the paper's m = 20000 (0.0025 %) and still minor at\n\
         m = 30; short traces are risky through estimation noise in ACET/σ\n\
         themselves (watch the measured-overrun column wobble), not through\n\
         the m vs m−1 convention.",
        pct(one_sided_bound(3.0))
    );
    Ok(())
}
