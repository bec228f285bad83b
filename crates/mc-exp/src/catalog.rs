//! The built-in campaign catalog: the paper's experiments as declarative
//! campaign definitions, shared by the bench binaries and `chebymc exp`.
//!
//! Each entry pairs a [`CampaignSpec`] (the axis and replication) with a
//! [`UnitRunner`] (how one unit is computed). Numeric parity with the
//! pre-campaign binaries is part of the contract:
//!
//! * The policy-major campaigns (`fig3`, `fig3_optimum`, `fig4`, `fig5`,
//!   `fig6`, `policy_arena`, `automotive`) share one runner. It derives
//!   each unit's *evaluation* seed as
//!   `derive_set_seed(campaign_seed, u_index, replica)` — the stream the
//!   old per-utilisation batches used, shared across policies — so
//!   per-point means reproduce the legacy figures bit-for-bit. (The
//!   framework's per-unit identity seed still follows the
//!   `hash(seed, point, replica)` contract; the runner re-derives the
//!   legacy stream internally, because a campaign point is
//!   *policy × utilisation* while a batch point was utilisation alone.)
//! * `fig3_optimum` draws every utilisation's sets from seed point 0: the
//!   legacy binary ran one single-utilisation batch per `u`.
//! * `fig6` units report `accepted` ∈ {0, 1}. Aggregation sums them in
//!   replica order, so a mean is exactly the legacy count / n.
//! * `table2` and `ablation_sigma` reuse the exact trace seeds of their
//!   binaries (`200 + benchmark_index`, reference seed 999, probe seed 4).

use crate::run::UnitRunner;
use crate::spec::{CampaignSpec, Param, PointSpec, WorkUnit};
use crate::store::Metric;
use crate::ExpError;
use chebymc_core::metrics::design_metrics;
use chebymc_core::pipeline::{derive_set_seed, design_set, evaluate_arena_set, ArenaEvaluation};
use chebymc_core::policy::{paper_lambda_baselines, WcetPolicy};
use chebymc_core::CoreError;
use mc_exec::benchmarks;
use mc_exec::trace::ExecutionTrace;
use mc_opt::{GaConfig, ProblemConfig};
use mc_sched::policy::{PolicySpec, SchedulingPolicy};
use mc_sched::sim::SimConfig;
use mc_stats::chebyshev::one_sided_bound;
use mc_stats::summary::Summary;
use mc_task::automotive::{generate_automotive_taskset, AutomotiveConfig};
use mc_task::generate::{
    generate_hc_taskset, generate_lo_bounded_taskset, generate_mixed_taskset, GeneratorConfig,
};
use mc_task::time::Duration;
use std::sync::OnceLock;

/// A built campaign: its spec plus the runner that computes one unit.
pub struct Campaign {
    /// The campaign's declarative spec.
    pub spec: CampaignSpec,
    /// The unit runner.
    pub runner: Box<dyn UnitRunner + Send + Sync>,
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("spec", &self.spec)
            .finish()
    }
}

/// Knobs the CLI and the bench binaries thread into the catalog. `None`
/// keeps each campaign's paper-scale default.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CatalogOptions {
    /// Task-set replicas per point (the policy-major campaigns;
    /// `fig3_optimum` runs a tenth of it, at least 10).
    pub sets: Option<usize>,
    /// Sampled instances per benchmark (`table2`).
    pub samples: Option<usize>,
    /// Utilisation axis override (the policy-major campaigns).
    pub points: Option<Vec<f64>>,
    /// Campaign base seed.
    pub seed: Option<u64>,
    /// Runnables per generated task set (`automotive`).
    pub runnables: Option<usize>,
}

/// The catalog's campaign names.
#[must_use]
pub fn names() -> &'static [&'static str] {
    &[
        "fig3",
        "fig3_optimum",
        "fig4",
        "fig5",
        "fig6",
        "table2",
        "ablation_sigma",
        "policy_arena",
        "automotive",
    ]
}

/// Builds a named campaign.
///
/// # Errors
///
/// [`ExpError::Config`] for unknown names or benchmark-construction
/// failures.
pub fn build(name: &str, opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    match name {
        "fig3" => Ok(fig3(opts)),
        "fig3_optimum" => Ok(fig3_optimum(opts)),
        "fig4" => Ok(fig4(opts)),
        "fig5" => Ok(fig5(opts)),
        "fig6" => Ok(fig6(opts)),
        "table2" => table2(opts),
        "ablation_sigma" => Ok(ablation_sigma(opts)),
        "policy_arena" => policy_arena(opts),
        "automotive" => automotive(opts),
        other => Err(ExpError::Config(format!(
            "unknown campaign `{other}` (known: {})",
            names().join(", ")
        ))),
    }
}

/// Rebuilds the runner for a spec received from elsewhere (a store header,
/// a coordinator lease): recovers the [`CatalogOptions`] the spec encodes,
/// rebuilds the named campaign, and verifies the result is fingerprint-
/// identical to what was received — so a worker computing against a
/// rebuilt runner provably runs the *same* campaign the submitter
/// declared, not a near-miss with different axis values.
///
/// # Errors
///
/// [`ExpError::Config`] for unknown names, and [`ExpError::Mismatch`] when
/// the rebuilt spec disagrees with the received one (a spec produced by a
/// different catalog version, or hand-edited points this catalog cannot
/// reproduce).
pub fn rebuild(spec: &CampaignSpec) -> Result<Campaign, ExpError> {
    let mut opts = CatalogOptions {
        seed: Some(spec.seed),
        ..CatalogOptions::default()
    };
    match spec.name.as_str() {
        "fig3" | "fig3_optimum" | "fig4" | "fig5" | "fig6" | "policy_arena" | "automotive" => {
            // `fig3_optimum` runs a tenth of `sets` (at least 10), so ten
            // times its replica count rebuilds it exactly.
            opts.sets = Some(if spec.name == "fig3_optimum" {
                spec.replicas * 10
            } else {
                spec.replicas
            });
            // Points are policy-major; the utilisation axis repeats per
            // policy, so the policy-0 block recovers it exactly.
            let u_values: Vec<f64> = spec
                .points
                .iter()
                .filter(|p| p.param("policy") == Some(0.0))
                .filter_map(|p| p.param("u"))
                .collect();
            if !u_values.is_empty() {
                opts.points = Some(u_values);
            }
            if let Some(r) = spec.params.iter().find(|p| p.name == "runnables") {
                opts.runnables = Some(r.value.round() as usize);
            }
        }
        "table2" => {
            if let Some(samples) = spec.params.iter().find(|p| p.name == "samples") {
                opts.samples = Some(samples.value as usize);
            }
        }
        _ => {}
    }
    let campaign = build(&spec.name, &opts)?;
    if campaign.spec != *spec {
        return Err(ExpError::Mismatch {
            path: format!("campaign:{}", spec.name),
            detail: format!(
                "spec fingerprint {} cannot be rebuilt from this catalog \
                 (rebuilt {})",
                spec.fingerprint(),
                campaign.spec.fingerprint()
            ),
        });
    }
    Ok(campaign)
}

/// The runner of every policy-major campaign: point `p` evaluates policy
/// `p / |u|` at utilisation index `p % |u|`, on a set drawn from
/// `derive_set_seed(seed, u_index, replica)`. The seed ignores the policy,
/// so every policy judges bit-identical task sets and each per-point
/// comparison is paired.
struct PolicySweep<P, F> {
    policies: Vec<P>,
    u_values: Vec<f64>,
    seed: u64,
    /// `false` draws every utilisation's sets from seed point 0 instead of
    /// `u_index` (`fig3_optimum`'s legacy stream).
    seed_per_u: bool,
    /// Evaluates one set: `(policy, u, evaluation seed)`.
    eval: F,
}

impl<P, F> PolicySweep<P, F>
where
    P: Send + Sync + 'static,
    F: Fn(&P, f64, u64) -> Result<Vec<Metric>, ExpError> + Send + Sync + 'static,
{
    /// Wraps the sweep as campaign `name`, with points labelled
    /// `<label(policy)>/u<u>` and `params` entering the fingerprint.
    fn campaign(
        self,
        name: &str,
        replicas: usize,
        params: Vec<Param>,
        label: impl Fn(&P) -> String,
    ) -> Campaign {
        let mut points = Vec::new();
        for (pi, policy) in self.policies.iter().enumerate() {
            let name = label(policy);
            for (ui, &u) in self.u_values.iter().enumerate() {
                points.push(PointSpec::new(
                    format!("{name}/u{u:.2}"),
                    vec![
                        Param::new("policy", pi as f64),
                        Param::new("u", u),
                        Param::new("u_index", ui as f64),
                    ],
                ));
            }
        }
        let spec = CampaignSpec {
            name: name.into(),
            seed: self.seed,
            params,
            points,
            replicas,
        };
        Campaign {
            spec,
            runner: Box::new(self),
        }
    }
}

impl<P, F> UnitRunner for PolicySweep<P, F>
where
    P: Sync,
    F: Fn(&P, f64, u64) -> Result<Vec<Metric>, ExpError> + Sync,
{
    fn run_unit(&self, unit: &WorkUnit, _inner_threads: usize) -> Result<Vec<Metric>, ExpError> {
        let u_count = self.u_values.len();
        let policy = &self.policies[unit.point / u_count];
        let u_index = unit.point % u_count;
        let seed_point = if self.seed_per_u { u_index } else { 0 };
        let eval_seed = derive_set_seed(self.seed, seed_point, unit.replica);
        (self.eval)(policy, self.u_values[u_index], eval_seed)
    }
}

/// The HC utilisation axis of Figs. 3–5: 0.4, 0.5, …, 0.9.
fn paper_u_axis(opts: &CatalogOptions) -> Vec<f64> {
    opts.points
        .clone()
        .unwrap_or_else(|| (4..=9).map(|i| f64::from(i) / 10.0).collect())
}

/// Design metrics of one HC-only set under a WCET policy (Figs. 3–5).
fn design_eval(policy: &WcetPolicy, u: f64, seed: u64) -> Result<Vec<Metric>, ExpError> {
    let gen = GeneratorConfig::default();
    let ts = design_set(seed, Some(policy), |rng| generate_hc_taskset(u, &gen, rng))?;
    let _span = mc_obs::span("pipeline.metrics");
    let m = design_metrics(&ts)?;
    Ok(vec![
        Metric::new("p_ms", m.p_ms),
        Metric::new("max_u_lc_lo", m.max_u_lc_lo),
        Metric::new("objective", m.objective),
    ])
}

/// A design-metric sweep of `policies` over the Figs. 3–5 axis.
fn design_sweep(
    name: &str,
    policies: Vec<WcetPolicy>,
    seed: u64,
    replicas: usize,
    seed_per_u: bool,
    opts: &CatalogOptions,
) -> Campaign {
    let sweep = PolicySweep {
        policies,
        u_values: paper_u_axis(opts),
        seed,
        seed_per_u,
        eval: design_eval,
    };
    sweep.campaign(name, replicas, vec![], WcetPolicy::name)
}

/// The uniform factors of Fig. 3's columns.
#[must_use]
pub fn fig3_n_values() -> Vec<f64> {
    vec![2.0, 5.0, 10.0, 15.0, 20.0, 30.0]
}

/// The fine grid `fig3_optimum` searches for the best uniform factor.
#[must_use]
pub fn fig3_optimum_n_values() -> Vec<f64> {
    (0..=40).map(f64::from).collect()
}

fn uniform_policies(n_values: Vec<f64>) -> Vec<WcetPolicy> {
    n_values
        .into_iter()
        .map(|n| WcetPolicy::ChebyshevUniform { n })
        .collect()
}

/// Fig. 3 (a)–(c): the design metrics of uniform `n` as `U_HC^HI` varies.
fn fig3(opts: &CatalogOptions) -> Campaign {
    design_sweep(
        "fig3",
        uniform_policies(fig3_n_values()),
        opts.seed.unwrap_or(3),
        opts.sets.unwrap_or(200),
        true,
        opts,
    )
}

/// Fig. 3 (c)'s optimum-`n` column: every integer `n` in `0..=40` at a
/// tenth of Fig. 3's sets (at least 10).
fn fig3_optimum(opts: &CatalogOptions) -> Campaign {
    design_sweep(
        "fig3_optimum",
        uniform_policies(fig3_optimum_n_values()),
        opts.seed.unwrap_or(3),
        (opts.sets.unwrap_or(200) / 10).max(10),
        false,
        opts,
    )
}

/// The scheme's GA at the figures' scale: population 48, 40 generations.
fn paper_ga() -> WcetPolicy {
    WcetPolicy::ChebyshevGa {
        ga: GaConfig {
            population_size: 48,
            generations: 40,
            ..GaConfig::default()
        },
        problem: ProblemConfig::default(),
    }
}

/// The Fig. 4 policy roster: the GA scheme and the paper's λ baselines.
#[must_use]
pub fn fig4_policies() -> Vec<WcetPolicy> {
    let mut policies = vec![paper_ga()];
    policies.extend(paper_lambda_baselines());
    policies
}

/// Fig. 4: the GA scheme against the λ-range policies.
fn fig4(opts: &CatalogOptions) -> Campaign {
    design_sweep(
        "fig4",
        fig4_policies(),
        opts.seed.unwrap_or(4),
        opts.sets.unwrap_or(200),
        true,
        opts,
    )
}

/// The Fig. 5 policy roster: the GA scheme, the paper's λ baselines, ACET.
#[must_use]
pub fn fig5_policies() -> Vec<WcetPolicy> {
    let mut policies = fig4_policies();
    policies.push(WcetPolicy::Acet);
    policies
}

/// Fig. 5: the Eq. 13 objective of every policy as `U_HC^HI` varies.
/// Points are policy-major (`point = policy_index * |u| + u_index`).
fn fig5(opts: &CatalogOptions) -> Campaign {
    design_sweep(
        "fig5",
        fig5_policies(),
        opts.seed.unwrap_or(5),
        opts.sets.unwrap_or(200),
        true,
        opts,
    )
}

/// One Fig. 6 curve: a published scheduling policy, admitting the sets as
/// generated or after the scheme re-derives every `C_LO`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Variant {
    /// The curve's name (`Baruah'12`, `Liu'16+scheme`, …).
    pub name: &'static str,
    /// The WCET policy applied before admission; `None` admits the sets
    /// as generated.
    pub scheme: Option<WcetPolicy>,
    /// The admitting policy.
    pub policy: PolicySpec,
}

/// The Fig. 6 curves: Baruah et al. RTNS'12 (EDF-VD, LC dropped in HI
/// mode) and Liu et al. RTSS'16 (LC degraded to 50 %), each without and
/// with the scheme's GA.
#[must_use]
pub fn fig6_variants() -> Vec<Fig6Variant> {
    let baruah = PolicySpec::EdfVdDropAll;
    let liu = PolicySpec::LiuDegrade { fraction: 0.5 };
    let variant = |name, scheme, policy| Fig6Variant {
        name,
        scheme,
        policy,
    };
    vec![
        variant("Baruah'12", None, baruah),
        variant("Baruah'12+scheme", Some(paper_ga()), baruah),
        variant("Liu'16", None, liu),
        variant("Liu'16+scheme", Some(paper_ga()), liu),
    ]
}

/// Fig. 6's baseline budgets: `C_LO = λ·C_HI` with `λ ∈ [1/4, 1]`.
const FIG6_LAMBDA_RANGE: (f64, f64) = (0.25, 1.0);

/// Whether a Fig. 6 variant's policy admits one LO-bounded set, whose HC
/// tasks are budgeted `C_LO = λᵢ·C_HI` with `λᵢ ∈ FIG6_LAMBDA_RANGE`.
fn acceptance_eval(
    variant: &Fig6Variant,
    u_bound: f64,
    seed: u64,
) -> Result<Vec<Metric>, ExpError> {
    let gen = GeneratorConfig::default();
    let ts = design_set(seed, variant.scheme.as_ref(), |rng| {
        generate_lo_bounded_taskset(u_bound, FIG6_LAMBDA_RANGE, &gen, rng)
    })?;
    let _span = mc_obs::span("pipeline.admit");
    let verdict = variant.policy.admit(&ts).map_err(CoreError::Sched)?;
    Ok(vec![Metric::new(
        "accepted",
        if verdict.schedulable { 1.0 } else { 0.0 },
    )])
}

/// Fig. 6: the acceptance ratio of each variant as the LO-mode bound
/// utilisation grows from 0.5 to 1.0.
fn fig6(opts: &CatalogOptions) -> Campaign {
    let sweep = PolicySweep {
        policies: fig6_variants(),
        u_values: opts
            .points
            .clone()
            .unwrap_or_else(|| (10..=20).map(|i| f64::from(i) / 20.0).collect()),
        seed: opts.seed.unwrap_or(6),
        seed_per_u: true,
        eval: acceptance_eval,
    };
    sweep.campaign("fig6", opts.sets.unwrap_or(200), vec![], |v| {
        v.name.to_string()
    })
}

/// Table II: the `1/(1+n²)` analysis bound vs the measured overrun rate
/// of each benchmark at `ACET + n·σ`. Points are benchmark-major
/// (`point = benchmark_index * 5 + n`), one replica each.
fn table2(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let samples = opts.samples.unwrap_or(20_000);
    let suite = benchmarks::table2_suite().map_err(exec_err)?;
    let mut points = Vec::new();
    for (bi, bench) in suite.iter().enumerate() {
        for n in 0..=4u32 {
            points.push(PointSpec::new(
                format!("{}/n{n}", bench.name()),
                vec![
                    Param::new("benchmark", bi as f64),
                    Param::new("n", f64::from(n)),
                ],
            ));
        }
    }
    let spec = CampaignSpec {
        name: "table2".into(),
        seed: opts.seed.unwrap_or(0),
        // The sample count changes every measured cell, so it must enter
        // the fingerprint: a store sampled at one scale refuses to resume
        // at another.
        params: vec![Param::new("samples", samples as f64)],
        points,
        replicas: 1,
    };
    Ok(Campaign {
        spec,
        runner: Box::new(Table2Runner { samples }),
    })
}

struct Table2Runner {
    samples: usize,
}

impl UnitRunner for Table2Runner {
    fn run_unit(&self, unit: &WorkUnit, _inner_threads: usize) -> Result<Vec<Metric>, ExpError> {
        let suite = benchmarks::table2_suite().map_err(exec_err)?;
        let bi = unit.point / 5;
        let n = (unit.point % 5) as f64;
        let bench = suite.get(bi).ok_or_else(|| {
            ExpError::Config(format!("table2 point {} has no benchmark", unit.point))
        })?;
        // The legacy binary's trace seed: 200 + suite index.
        let trace = bench
            .sample_trace(self.samples, 200 + bi as u64)
            .map_err(exec_err)?;
        let s = trace.summary().map_err(exec_err)?;
        let level = s.mean() + n * s.std_dev();
        let measured = trace.overrun_rate(level).map_err(exec_err)?.rate();
        Ok(vec![
            Metric::new("analysis_bound", one_sided_bound(n)),
            Metric::new("overrun_rate", measured),
        ])
    }
}

/// Trace lengths of the σ-estimator ablation.
const ABLATION_M: [usize; 5] = [10, 30, 100, 1_000, 20_000];

/// The σ-estimator ablation: population vs sample σ and the sensitivity
/// of `C_LO` to the trace length `m` (benchmark `corner`, `n = 3`).
fn ablation_sigma(opts: &CatalogOptions) -> Campaign {
    let points = ABLATION_M
        .iter()
        .map(|&m| PointSpec::new(format!("m{m}"), vec![Param::new("m", m as f64)]))
        .collect();
    let spec = CampaignSpec {
        name: "ablation_sigma".into(),
        seed: opts.seed.unwrap_or(0),
        params: vec![],
        points,
        replicas: 1,
    };
    Campaign {
        spec,
        runner: Box::new(AblationRunner {
            reference: OnceLock::new(),
        }),
    }
}

struct AblationRunner {
    /// The long reference trace (seed 999) that measures the "true"
    /// overrun rate of a level, sampled once and shared across units.
    reference: OnceLock<Result<ExecutionTrace, String>>,
}

impl AblationRunner {
    fn reference(&self) -> Result<&ExecutionTrace, ExpError> {
        self.reference
            .get_or_init(|| {
                benchmarks::corner()
                    .and_then(|b| b.sample_trace(200_000, 999))
                    .map_err(|e| e.to_string())
            })
            .as_ref()
            .map_err(|e| ExpError::Config(format!("reference trace failed: {e}")))
    }
}

impl UnitRunner for AblationRunner {
    fn run_unit(&self, unit: &WorkUnit, _inner_threads: usize) -> Result<Vec<Metric>, ExpError> {
        let m = ABLATION_M.get(unit.point).copied().ok_or_else(|| {
            ExpError::Config(format!("ablation point {} has no trace length", unit.point))
        })?;
        let n = 3.0;
        let bench = benchmarks::corner().map_err(exec_err)?;
        let trace = bench.sample_trace(m, 4).map_err(exec_err)?;
        let s = Summary::from_samples(trace.samples())
            .map_err(|e| ExpError::Config(format!("trace summary failed: {e}")))?;
        let c_pop = s.mean() + n * s.std_dev();
        let c_sample = s.mean() + n * s.sample_std_dev();
        let measured = self
            .reference()?
            .overrun_rate(c_pop)
            .map_err(exec_err)?
            .rate();
        Ok(vec![
            Metric::new("acet", s.mean()),
            Metric::new("pop_sigma", s.std_dev()),
            Metric::new("sample_sigma", s.sample_std_dev()),
            Metric::new("c_lo_pop", c_pop),
            Metric::new("c_lo_sample", c_sample),
            Metric::new("delta_pct", (c_sample / c_pop - 1.0) * 100.0),
            Metric::new("measured_overrun", measured),
        ])
    }
}

/// The arena's fixed design-time WCET assignment: every policy judges sets
/// whose `C_LO` came from the same Chebyshev `n = 3` design, so the
/// comparison isolates the *scheduling* policy.
fn arena_wcet() -> WcetPolicy {
    WcetPolicy::ChebyshevUniform { n: 3.0 }
}

/// The arena's simulation window. Long enough for a few hundred jobs per
/// task at the default generator periods; short enough that a unit stays
/// in the low-millisecond range.
const ARENA_HORIZON_SECS: u64 = 5;

/// The six-column cross-policy comparison row of the arena campaigns.
fn arena_metrics(e: ArenaEvaluation) -> Vec<Metric> {
    vec![
        Metric::new("schedulable", e.schedulable),
        Metric::new("service_level", e.service_level),
        Metric::new("switch_rate", e.switch_rate),
        Metric::new("task_switch_rate", e.task_switch_rate),
        Metric::new("lc_qos", e.lc_qos),
        Metric::new("hc_miss_rate", e.hc_miss_rate),
    ]
}

/// Gates the arena roster before any unit runs: a duplicate name would
/// merge two policies into one aggregate row; a bad fraction would fail
/// every unit of one policy block, thousands of units into the campaign.
fn linted_roster() -> Result<Vec<PolicySpec>, ExpError> {
    let roster = PolicySpec::arena_roster();
    let lint = mc_lint::lint_policy_roster(&roster);
    if lint.has_errors() {
        return Err(ExpError::Config(format!(
            "policy roster failed lint:\n{lint}"
        )));
    }
    Ok(roster)
}

/// `policy_arena`: every [`PolicySpec`] in the roster races over shared
/// seeded task sets as the bound utilisation varies. Points are
/// policy-major, mirroring `fig5`, so each policy admits and simulates
/// bit-identical task sets and the per-point comparison is paired.
fn policy_arena(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    // The default axis spans the overload transition: below 1.0 every
    // entrant admits nearly everything; the interesting separation —
    // demand vs utilisation tests, containment vs plain Liu — happens as
    // the bound utilisation crosses 1.
    let sweep = PolicySweep {
        policies: linted_roster()?,
        u_values: opts
            .points
            .clone()
            .unwrap_or_else(|| vec![0.6, 0.8, 1.0, 1.1, 1.2, 1.3]),
        seed: opts.seed.unwrap_or(11),
        seed_per_u: true,
        eval: |policy: &PolicySpec, u: f64, seed: u64| {
            let base = SimConfig::new(Duration::from_secs(ARENA_HORIZON_SECS));
            let gen = GeneratorConfig::default();
            let ts = design_set(seed, Some(&arena_wcet()), |rng| {
                generate_mixed_taskset(u, &gen, rng)
            })?;
            Ok(arena_metrics(evaluate_arena_set(&ts, policy, &base, seed)?))
        },
    };
    Ok(sweep.campaign(
        "policy_arena",
        opts.sets.unwrap_or(200),
        vec![],
        PolicySpec::name,
    ))
}

/// The automotive arena's simulation window. The Bosch period table spans
/// 1 ms – 1 s, so one second releases a full hyperperiod's worth of the
/// slowest bin while the 1 ms bin already contributes ~10³ jobs per task;
/// at 10³ runnables a unit simulates roughly 10⁵ jobs.
const AUTOMOTIVE_HORIZON_SECS: u64 = 1;

/// `automotive`: the policy roster races over Bosch-calibrated task sets —
/// engine-style period/share bins, factor-matrix BCET/ACET/WCET triples,
/// and per-task fitted Weibull execution times — as the bound utilisation
/// varies. Points are policy-major like `fig5`/`policy_arena`, so the
/// per-point comparison is paired. The runnable count rides in
/// `spec.params`: changing the scale changes the fingerprint, and a store
/// generated at one scale refuses to resume at another.
fn automotive(opts: &CatalogOptions) -> Result<Campaign, ExpError> {
    let runnables = opts.runnables.unwrap_or(1000);
    let config = AutomotiveConfig {
        runnables,
        ..AutomotiveConfig::default()
    };
    // Gate both the roster and the generator before any unit runs: a bad
    // runnable count or a corrupted calibration table would otherwise fail
    // every unit, thousands of units into the campaign.
    let policies = linted_roster()?;
    let lint = mc_lint::lint_automotive_config(&config);
    if lint.has_errors() {
        return Err(ExpError::Config(format!(
            "automotive generator failed lint:\n{lint}"
        )));
    }
    // The default axis brackets the design point: automotive sets are
    // generated against a budget utilisation, so the interesting spread —
    // how much LC service each policy salvages once Weibull tails start
    // forcing switches — shows up well below the synthetic arena's
    // overload axis.
    let sweep = PolicySweep {
        policies,
        u_values: opts.points.clone().unwrap_or_else(|| vec![0.5, 0.7, 0.9]),
        seed: opts.seed.unwrap_or(17),
        seed_per_u: true,
        eval: move |policy: &PolicySpec, u: f64, seed: u64| {
            let base = SimConfig::new(Duration::from_secs(AUTOMOTIVE_HORIZON_SECS));
            let ts = design_set(seed, Some(&arena_wcet()), |rng| {
                generate_automotive_taskset(u, &config, rng)
            })?;
            Ok(arena_metrics(evaluate_arena_set(&ts, policy, &base, seed)?))
        },
    };
    Ok(sweep.campaign(
        "automotive",
        opts.sets.unwrap_or(50),
        vec![Param::new("runnables", runnables as f64)],
        PolicySpec::name,
    ))
}

fn exec_err(e: mc_exec::ExecError) -> ExpError {
    ExpError::Config(format!("benchmark error: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_campaign, RunConfig, Shard};
    use crate::store::Store;
    use mc_sched::analysis::{edf_vd, liu};

    /// The Eq. 13 objective of `policy` on the HC-only set drawn from
    /// `seed` at `u`, bit for bit.
    fn design_objective(u: f64, policy: &WcetPolicy, seed: u64) -> u64 {
        let gen = GeneratorConfig::default();
        let ts = design_set(seed, Some(policy), |rng| generate_hc_taskset(u, &gen, rng));
        design_metrics(&ts.unwrap()).unwrap().objective.to_bits()
    }

    #[test]
    fn unknown_campaigns_name_the_known_ones() {
        let err = build("no_such_campaign", &CatalogOptions::default()).unwrap_err();
        assert!(err.to_string().contains("fig5"), "{err}");
    }

    #[test]
    fn rebuild_round_trips_every_catalog_campaign() {
        let overridden = CatalogOptions {
            sets: Some(30),
            points: Some(vec![0.5, 0.7]),
            seed: Some(42),
            ..CatalogOptions::default()
        };
        let mut cases: Vec<(&str, CatalogOptions)> = vec![
            (
                "fig5",
                CatalogOptions {
                    sets: Some(3),
                    points: Some(vec![0.5, 0.7]),
                    seed: Some(42),
                    ..CatalogOptions::default()
                },
            ),
            (
                "table2",
                CatalogOptions {
                    samples: Some(400),
                    ..CatalogOptions::default()
                },
            ),
            ("ablation_sigma", CatalogOptions::default()),
            (
                "policy_arena",
                CatalogOptions {
                    sets: Some(2),
                    points: Some(vec![0.5, 0.8]),
                    seed: Some(9),
                    ..CatalogOptions::default()
                },
            ),
            ("policy_arena", CatalogOptions::default()),
            (
                "automotive",
                CatalogOptions {
                    sets: Some(2),
                    points: Some(vec![0.6]),
                    seed: Some(3),
                    runnables: Some(60),
                    ..CatalogOptions::default()
                },
            ),
            ("automotive", CatalogOptions::default()),
        ];
        for name in ["fig3", "fig3_optimum", "fig4", "fig6"] {
            cases.push((name, CatalogOptions::default()));
            cases.push((name, overridden.clone()));
        }
        for (name, opts) in cases {
            let original = build(name, &opts).unwrap();
            let rebuilt = rebuild(&original.spec).unwrap();
            assert_eq!(rebuilt.spec, original.spec, "{name}");
            assert_eq!(
                rebuilt.spec.fingerprint(),
                original.spec.fingerprint(),
                "{name}"
            );
        }
    }

    #[test]
    fn rebuild_rejects_tampered_and_unknown_specs() {
        let mut spec = build("ablation_sigma", &CatalogOptions::default())
            .unwrap()
            .spec;
        spec.points[0].label = "m11".into();
        assert!(matches!(
            rebuild(&spec).unwrap_err(),
            ExpError::Mismatch { .. }
        ));
        let mut unknown = spec;
        unknown.name = "no_such_campaign".into();
        assert!(matches!(
            rebuild(&unknown).unwrap_err(),
            ExpError::Config(_)
        ));
    }

    #[test]
    fn fig5_axis_is_policy_major_with_paper_defaults() {
        let c = build("fig5", &CatalogOptions::default()).unwrap();
        assert_eq!(c.spec.replicas, 200);
        assert_eq!(c.spec.seed, 5);
        assert_eq!(c.spec.points.len(), 5 * 6, "5 policies × 6 utilisations");
        assert_eq!(c.spec.points[0].label, "chebyshev-ga/u0.40");
        assert_eq!(c.spec.points[6].label, "lambda-range-[0.2500,1]/u0.40");
        assert_eq!(c.spec.points[29].label, "acet/u0.90");
        assert_eq!(c.spec.points[7].param("u"), Some(0.5));
        assert_eq!(c.spec.points[7].param("u_index"), Some(1.0));
    }

    #[test]
    fn fig5_units_reproduce_the_legacy_batch_stream() {
        // Tiny configuration: ACET policy only takes microseconds per set.
        let opts = CatalogOptions {
            sets: Some(3),
            points: Some(vec![0.5]),
            ..CatalogOptions::default()
        };
        let c = build("fig5", &opts).unwrap();
        // ACET is the last policy → point index 4 (4 policies before it × 1 u).
        let acet_point = 4;
        let unit = c.spec.unit(acet_point * 3 + 1);
        let metrics = c.runner.run_unit(&unit, 1).unwrap();
        let expected = design_objective(0.5, &WcetPolicy::Acet, derive_set_seed(5, 0, 1));
        assert_eq!(metrics[2].name, "objective");
        assert_eq!(metrics[2].value.to_bits(), expected);
    }

    #[test]
    fn fig3_and_fig4_axes_follow_the_legacy_binaries() {
        let c = build("fig3", &CatalogOptions::default()).unwrap();
        assert_eq!((c.spec.seed, c.spec.replicas), (3, 200));
        assert_eq!(c.spec.points.len(), 6 * 6, "6 factors × 6 utilisations");
        assert_eq!(c.spec.points[0].label, "chebyshev-n2/u0.40");
        assert_eq!(c.spec.points[35].label, "chebyshev-n30/u0.90");
        let opt = build("fig3_optimum", &CatalogOptions::default()).unwrap();
        assert_eq!((opt.spec.seed, opt.spec.replicas), (3, 20));
        assert_eq!(opt.spec.points.len(), 41 * 6, "n ∈ 0..=40 × 6 utilisations");
        assert_eq!(opt.spec.points[245].label, "chebyshev-n40/u0.90");
        // A tenth of the sets, never fewer than ten.
        for (sets, replicas) in [(1000, 100), (50, 10), (3, 10)] {
            let opts = CatalogOptions {
                sets: Some(sets),
                ..CatalogOptions::default()
            };
            assert_eq!(
                build("fig3_optimum", &opts).unwrap().spec.replicas,
                replicas
            );
        }
        let fig4 = build("fig4", &CatalogOptions::default()).unwrap();
        assert_eq!((fig4.spec.seed, fig4.spec.replicas), (4, 200));
        let mut fig5 = fig5_policies();
        assert_eq!(fig5.pop(), Some(WcetPolicy::Acet));
        assert_eq!(fig4_policies(), fig5, "fig4 is fig5 without ACET");
        assert_eq!(fig4.spec.points.len(), 4 * 6);
    }

    #[test]
    fn fig3_units_reproduce_the_legacy_seed_streams() {
        let opts = CatalogOptions {
            sets: Some(10),
            points: Some(vec![0.5, 0.7]),
            ..CatalogOptions::default()
        };
        let unit_objective = |name: &str, index: usize| {
            let c = build(name, &opts).unwrap();
            let metrics = c.runner.run_unit(&c.spec.unit(index), 1).unwrap();
            assert_eq!(metrics[2].name, "objective");
            metrics[2].value.to_bits()
        };
        let expected = |n: f64, u: f64, point: usize, set: usize| {
            let policy = WcetPolicy::ChebyshevUniform { n };
            design_objective(u, &policy, derive_set_seed(3, point, set))
        };
        // fig3: n = 5 (policy 1) at u = 0.7 (u index 1), replica 2 →
        // point 3, unit 3·10 + 2; its sets come from seed point 1.
        assert_eq!(unit_objective("fig3", 32), expected(5.0, 0.7, 1, 2));
        // fig3_optimum: n = 4 (policy 4) at u = 0.7, replica 2 → point 9,
        // unit 9·10 + 2; every utilisation keeps seed point 0.
        assert_eq!(unit_objective("fig3_optimum", 92), expected(4.0, 0.7, 0, 2));
    }

    #[test]
    fn fig6_axis_and_units_follow_the_legacy_binary() {
        let c = build("fig6", &CatalogOptions::default()).unwrap();
        assert_eq!((c.spec.seed, c.spec.replicas), (6, 200));
        assert_eq!(c.spec.points.len(), 4 * 11, "4 variants × 11 bounds");
        assert_eq!(c.spec.points[0].label, "Baruah'12/u0.50");
        assert_eq!(c.spec.points[43].label, "Liu'16+scheme/u1.00");
        assert_eq!(c.spec.points[12].param("u"), Some(0.55));
    }

    #[test]
    fn fig6_units_match_the_published_analyses() {
        // Every variant's unit against the analysis it names, run directly
        // on the same generated (and, for `+scheme`, GA-designed) set.
        let bounds = [0.8, 0.95];
        let opts = CatalogOptions {
            sets: Some(3),
            points: Some(bounds.to_vec()),
            ..CatalogOptions::default()
        };
        let c = build("fig6", &opts).unwrap();
        let variants = fig6_variants();
        let expected_policies = [
            PolicySpec::EdfVdDropAll,
            PolicySpec::EdfVdDropAll,
            PolicySpec::LiuDegrade { fraction: 0.5 },
            PolicySpec::LiuDegrade { fraction: 0.5 },
        ];
        let policies: Vec<PolicySpec> = variants.iter().map(|v| v.policy).collect();
        assert_eq!(policies, expected_policies);
        let gen = GeneratorConfig::default();
        let mut verdicts = [0usize; 2];
        for (vi, variant) in variants.iter().enumerate() {
            assert_eq!(variant.scheme.is_some(), vi % 2 == 1, "{}", variant.name);
            for (ui, &u) in bounds.iter().enumerate() {
                for replica in 0..3 {
                    let unit = c.spec.unit((vi * bounds.len() + ui) * 3 + replica);
                    let metrics = c.runner.run_unit(&unit, 1).unwrap();
                    let ts = design_set(
                        derive_set_seed(6, ui, replica),
                        variant.scheme.as_ref(),
                        |rng| generate_lo_bounded_taskset(u, (0.25, 1.0), &gen, rng),
                    )
                    .unwrap();
                    let accepted = if vi < 2 {
                        edf_vd::analyze(&ts).schedulable
                    } else {
                        liu::analyze(&ts, 0.5).schedulable
                    };
                    verdicts[usize::from(accepted)] += 1;
                    assert_eq!(
                        metrics,
                        vec![Metric::new("accepted", f64::from(u8::from(accepted)))],
                        "{} at u = {u}, replica {replica}",
                        variant.name
                    );
                }
            }
        }
        assert!(
            verdicts[0] > 0 && verdicts[1] > 0,
            "one-sided: {verdicts:?}"
        );
    }

    #[test]
    fn new_campaigns_are_byte_identical_across_threads_and_shards() {
        let opts = CatalogOptions {
            sets: Some(2),
            points: Some(vec![0.8]),
            ..CatalogOptions::default()
        };
        for name in ["fig3", "fig3_optimum", "fig4", "fig6"] {
            let c = build(name, &opts).unwrap();
            let run = |threads, shard| {
                let mut store = Store::in_memory(&c.spec);
                let cfg = RunConfig {
                    threads,
                    shard,
                    progress: false,
                };
                run_campaign(&c.spec, c.runner.as_ref(), &mut store, &cfg).unwrap();
                store
            };
            let serial = run(1, Shard::default()).canonical_lines();
            assert_eq!(run(3, Shard::default()).canonical_lines(), serial, "{name}");
            let halves = [
                run(2, Shard { index: 0, count: 2 }),
                run(1, Shard { index: 1, count: 2 }),
            ];
            let merged = Store::merge(&halves).unwrap();
            assert_eq!(merged.canonical_lines(), serial, "{name}");
        }
    }

    #[test]
    fn fig6_means_are_exact_accepted_fractions() {
        let opts = CatalogOptions {
            sets: Some(4),
            points: Some(vec![0.5, 1.0]),
            ..CatalogOptions::default()
        };
        let c = build("fig6", &opts).unwrap();
        let mut store = Store::in_memory(&c.spec);
        run_campaign(
            &c.spec,
            c.runner.as_ref(),
            &mut store,
            &RunConfig::default(),
        )
        .unwrap();
        let aggs = crate::aggregate::aggregate(&c.spec, store.records()).unwrap();
        for agg in &aggs {
            let accepted = store
                .records()
                .iter()
                .filter(|r| r.point == agg.point && r.metrics[0].value == 1.0)
                .count();
            let ratio = agg.mean("accepted").unwrap();
            assert_eq!(ratio.to_bits(), (accepted as f64 / 4.0).to_bits());
        }
        // Everything fits at a LO-mode bound of 0.5.
        assert!(aggs
            .iter()
            .step_by(2)
            .all(|a| a.mean("accepted") == Some(1.0)));
    }

    #[test]
    fn table2_campaign_matches_the_legacy_binary_cells() {
        let opts = CatalogOptions {
            samples: Some(400),
            ..CatalogOptions::default()
        };
        let c = build("table2", &opts).unwrap();
        assert_eq!(c.spec.replicas, 1);
        assert_eq!(c.spec.points.len(), 5 * 5, "5 benchmarks × n ∈ 0..=4");
        // Unit for qsort-100 (suite index 0) at n=2.
        let metrics = c.runner.run_unit(&c.spec.unit(2), 1).unwrap();
        let suite = benchmarks::table2_suite().unwrap();
        let trace = suite[0].sample_trace(400, 200).unwrap();
        let s = trace.summary().unwrap();
        let level = s.mean() + 2.0 * s.std_dev();
        assert_eq!(metrics[0].value, one_sided_bound(2.0));
        assert_eq!(
            metrics[1].value.to_bits(),
            trace.overrun_rate(level).unwrap().rate().to_bits()
        );
    }

    #[test]
    fn policy_arena_axis_is_policy_major_over_the_roster() {
        let c = build("policy_arena", &CatalogOptions::default()).unwrap();
        assert_eq!(c.spec.replicas, 200);
        assert_eq!(c.spec.seed, 11);
        assert_eq!(c.spec.points.len(), 5 * 6, "5 policies × 6 utilisations");
        assert_eq!(c.spec.points[0].label, "edf_vd_drop/u0.60");
        assert_eq!(c.spec.points[6].label, "liu_degrade_0.50/u0.60");
        assert_eq!(c.spec.points[29].label, "boudjadar_combined_0.50/u1.30");
        assert_eq!(c.spec.points[13].param("u"), Some(0.8));
        assert_eq!(c.spec.points[13].param("u_index"), Some(1.0));
        assert_eq!(c.spec.points[13].param("policy"), Some(2.0));
    }

    #[test]
    fn policy_arena_units_share_task_sets_across_policies() {
        // The paired-comparison contract: the evaluation seed ignores the
        // policy index, so drop-all and degrade simulate the same sets
        // with the same sampled execution times — their switch rates on a
        // shared replica agree bit-for-bit.
        let opts = CatalogOptions {
            sets: Some(2),
            points: Some(vec![0.5]),
            ..CatalogOptions::default()
        };
        let c = build("policy_arena", &opts).unwrap();
        // Point 0 = edf_vd_drop/u0.50, point 1 = liu_degrade_0.50/u0.50.
        let drop = c.runner.run_unit(&c.spec.unit(1), 1).unwrap();
        let degrade = c.runner.run_unit(&c.spec.unit(3), 1).unwrap();
        let col = |ms: &[Metric], name: &str| {
            ms.iter().find(|m| m.name == name).map(|m| m.value).unwrap()
        };
        assert_eq!(
            col(&drop, "switch_rate").to_bits(),
            col(&degrade, "switch_rate").to_bits()
        );
        // Every unit reports the full six-column schema, in order.
        let schema: Vec<&str> = drop.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            schema,
            [
                "schedulable",
                "service_level",
                "switch_rate",
                "task_switch_rate",
                "lc_qos",
                "hc_miss_rate",
            ]
        );
    }

    #[test]
    fn policy_arena_campaign_runs_and_aggregates_end_to_end() {
        let opts = CatalogOptions {
            sets: Some(2),
            points: Some(vec![0.5]),
            ..CatalogOptions::default()
        };
        let c = build("policy_arena", &opts).unwrap();
        let mut store = Store::in_memory(&c.spec);
        let summary = run_campaign(
            &c.spec,
            c.runner.as_ref(),
            &mut store,
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(summary.ran, 5 * 2, "5 policies × 1 u × 2 replicas");
        let aggs = crate::aggregate::aggregate(&c.spec, store.records()).unwrap();
        assert_eq!(aggs.len(), 5, "one row per policy at the single u");
        for agg in &aggs {
            let s = agg.mean("schedulable").unwrap();
            assert!((0.0..=1.0).contains(&s), "{}: {s}", agg.label);
            assert!(agg.mean("lc_qos").is_some());
        }
    }

    #[test]
    fn automotive_axis_carries_scale_in_its_fingerprint() {
        let c = build("automotive", &CatalogOptions::default()).unwrap();
        assert_eq!(c.spec.replicas, 50);
        assert_eq!(c.spec.seed, 17);
        assert_eq!(c.spec.points.len(), 5 * 3, "5 policies × 3 utilisations");
        assert_eq!(c.spec.points[0].label, "edf_vd_drop/u0.50");
        assert_eq!(c.spec.points[14].label, "boudjadar_combined_0.50/u0.90");
        assert_eq!(c.spec.points[4].param("u"), Some(0.7));
        assert_eq!(c.spec.points[4].param("u_index"), Some(1.0));
        assert_eq!(c.spec.points[4].param("policy"), Some(1.0));
        // Paper scale rides in params, so a store generated at 10³
        // runnables refuses to resume at a reduced smoke scale.
        assert_eq!(c.spec.params.len(), 1);
        assert_eq!(c.spec.params[0].name, "runnables");
        assert_eq!(c.spec.params[0].value, 1000.0);
        let small = build(
            "automotive",
            &CatalogOptions {
                runnables: Some(60),
                ..CatalogOptions::default()
            },
        )
        .unwrap();
        assert_ne!(small.spec.fingerprint(), c.spec.fingerprint());
    }

    #[test]
    fn automotive_units_reproduce_the_paired_arena_stream() {
        let opts = CatalogOptions {
            sets: Some(2),
            points: Some(vec![0.6]),
            runnables: Some(60),
            ..CatalogOptions::default()
        };
        let c = build("automotive", &opts).unwrap();
        // Point 1 = liu_degrade_0.50/u0.60 (policy index 1, one u value),
        // replica 1 of 2 → unit index 3.
        let unit = c.spec.unit(3);
        let metrics = c.runner.run_unit(&unit, 1).unwrap();
        let cfg = AutomotiveConfig {
            runnables: 60,
            ..AutomotiveConfig::default()
        };
        let seed = derive_set_seed(17, 0, 1);
        let ts = design_set(seed, Some(&arena_wcet()), |rng| {
            generate_automotive_taskset(0.6, &cfg, rng)
        })
        .unwrap();
        let expected = evaluate_arena_set(
            &ts,
            &PolicySpec::arena_roster()[1],
            &SimConfig::new(Duration::from_secs(AUTOMOTIVE_HORIZON_SECS)),
            seed,
        )
        .unwrap();
        assert_eq!(metrics[4].name, "lc_qos");
        assert_eq!(metrics[4].value.to_bits(), expected.lc_qos.to_bits());
        assert_eq!(metrics[2].value.to_bits(), expected.switch_rate.to_bits());
    }

    #[test]
    fn automotive_campaign_runs_and_aggregates_end_to_end() {
        let opts = CatalogOptions {
            sets: Some(2),
            points: Some(vec![0.6]),
            runnables: Some(60),
            ..CatalogOptions::default()
        };
        let c = build("automotive", &opts).unwrap();
        let mut store = Store::in_memory(&c.spec);
        let summary = run_campaign(
            &c.spec,
            c.runner.as_ref(),
            &mut store,
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(summary.ran, 5 * 2, "5 policies × 1 u × 2 replicas");
        let aggs = crate::aggregate::aggregate(&c.spec, store.records()).unwrap();
        assert_eq!(aggs.len(), 5, "one row per policy at the single u");
        for agg in &aggs {
            let s = agg.mean("schedulable").unwrap();
            assert!((0.0..=1.0).contains(&s), "{}: {s}", agg.label);
            assert!(agg.mean("lc_qos").is_some());
        }
    }

    #[test]
    fn ablation_campaign_runs_end_to_end() {
        let c = build("ablation_sigma", &CatalogOptions::default()).unwrap();
        assert_eq!(c.spec.points.len(), 5);
        let mut store = Store::in_memory(&c.spec);
        // Only the two cheapest points, via sharding-free manual units: run
        // the full (tiny) campaign — the reference trace dominates and is
        // sampled once.
        let summary = run_campaign(
            &c.spec,
            c.runner.as_ref(),
            &mut store,
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(summary.ran, 5);
        let aggs = crate::aggregate::aggregate(&c.spec, store.records()).unwrap();
        assert_eq!(aggs[0].label, "m10");
        let pop = aggs[0].mean("pop_sigma").unwrap();
        let sample = aggs[0].mean("sample_sigma").unwrap();
        assert!(sample > pop, "Bessel correction widens σ at m=10");
    }
}
