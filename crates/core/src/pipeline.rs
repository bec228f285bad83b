//! Per-set evaluation pipelines behind the paper's Figs. 3–6 and the
//! policy arena.
//!
//! Each figure averages a metric over many synthetic task sets per
//! utilisation point (1000 in the paper). A function here generates *one*
//! set from its seed, applies a [`WcetPolicy`], and reports that set's
//! design metrics, schedulability verdict, or arena row. The `mc-exp`
//! catalog campaigns fan the sets out and average them, so every figure
//! runs through one experiment path with resume, shards and serve.

use crate::metrics::design_metrics;
use crate::policy::WcetPolicy;
use crate::CoreError;
use mc_sched::analysis::{edf_vd, liu};
use mc_sched::policy::{PolicySpec, SchedulingPolicy};
use mc_sched::sim::{simulate, SimConfig};
use mc_task::automotive::{generate_automotive_taskset, AutomotiveConfig};
use mc_task::generate::{
    generate_hc_taskset, generate_lo_bounded_taskset, generate_mixed_taskset, GeneratorConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Derives the seed of the `set`-th task set at the `point`-th axis point
/// from a campaign base seed. SplitMix-style mixing keeps the streams
/// independent across points and sets. This is the seed contract the
/// `mc-exp` campaign runners follow:
/// any process that re-derives `(point, set)` gets bit-identical task
/// sets, which is what makes sharded and resumed runs reproducible.
#[must_use]
pub fn derive_set_seed(base_seed: u64, point: usize, set: usize) -> u64 {
    let mut z = base_seed.wrapping_add(
        0x9E37_79B9_7F4A_7C15u64.wrapping_mul(1 + point as u64 * 65_537 + set as u64),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Design metrics of one generated-and-designed task set — the per-unit
/// quantity the Figs. 3–5 campaigns average.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SetEvaluation {
    /// Mode-switch probability bound (Eq. 10).
    pub p_ms: f64,
    /// `max(U_LC^LO)` (Eqs. 11–12).
    pub max_u_lc_lo: f64,
    /// Eq. 13 objective.
    pub objective: f64,
}

/// Generates one HC-only task set at utilisation `u` from `seed`, applies
/// `policy` (re-seeded to the same `seed`, inner parallelism pinned to
/// `inner_threads`), and returns its design metrics.
///
/// The `fig3`, `fig4` and `fig5` campaigns average this function over
/// `seed = derive_set_seed(campaign_seed, u_index, set)`, shared across
/// policies so every policy designs the same task sets.
///
/// # Errors
///
/// Propagates generation, assignment, and metric errors.
pub fn evaluate_policy_one_set(
    u: f64,
    policy: &WcetPolicy,
    generator: &GeneratorConfig,
    seed: u64,
    inner_threads: usize,
) -> Result<SetEvaluation, CoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ts = {
        let _span = mc_obs::span("pipeline.generate");
        generate_hc_taskset(u, generator, &mut rng).map_err(CoreError::Task)?
    };
    {
        let _span = mc_obs::span("pipeline.assign");
        reseed(policy, seed, inner_threads).assign(&mut ts)?;
    }
    let _span = mc_obs::span("pipeline.metrics");
    let m = design_metrics(&ts)?;
    Ok(SetEvaluation {
        p_ms: m.p_ms,
        max_u_lc_lo: m.max_u_lc_lo,
        objective: m.objective,
    })
}

/// Re-seeds a policy's internal randomness so every task set gets an
/// independent draw, and pins the policy's inner parallelism to the
/// caller's per-set thread budget.
fn reseed(policy: &WcetPolicy, seed: u64, inner_threads: usize) -> WcetPolicy {
    match policy {
        WcetPolicy::LambdaRange { lambda_min, .. } => WcetPolicy::LambdaRange {
            lambda_min: *lambda_min,
            seed,
        },
        WcetPolicy::ChebyshevGa { ga, problem } => WcetPolicy::ChebyshevGa {
            ga: mc_opt::GaConfig {
                seed,
                threads: inner_threads,
                ..*ga
            },
            problem: *problem,
        },
        other => other.clone(),
    }
}

/// The scheduling approach whose acceptance is measured in Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SchedulingApproach {
    /// Baruah et al. RTNS'12: EDF-VD, all LC tasks dropped in HI mode
    /// (paper Eq. 8).
    BaruahDropAll,
    /// Liu et al. RTSS'16: EDF-VD with LC tasks degraded to the given
    /// fraction of their budget in HI mode (the paper uses 0.5).
    LiuDegrade {
        /// Retained LC budget fraction in HI mode.
        fraction: f64,
    },
}

impl SchedulingApproach {
    /// Whether `ts` (with `C_LO` already assigned) passes this approach's
    /// schedulability test.
    pub fn schedulable(&self, ts: &mc_task::TaskSet) -> bool {
        match self {
            SchedulingApproach::BaruahDropAll => edf_vd::analyze(ts).schedulable,
            SchedulingApproach::LiuDegrade { fraction } => liu::analyze(ts, *fraction).schedulable,
        }
    }
}

/// Generates one mixed task set whose **LO-mode** utilisation reaches
/// `u_bound`, with HC tasks budgeted the λ-baseline way (`C_LO = λᵢ·C_HI`,
/// `λᵢ ∈ lambda_range`), and reports whether `approach` accepts it — the
/// per-set verdict Fig. 6 averages into an acceptance ratio. With
/// `scheme = None` the set is tested as generated (the published
/// approaches); with `scheme = Some(policy)` the policy (re-seeded to
/// `seed`, inner parallelism pinned to `inner_threads`) re-derives every
/// `C_LO` first (the "+ our scheme" variants).
///
/// # Errors
///
/// Propagates generation (including `lambda_range` validation) and
/// assignment errors.
pub fn evaluate_acceptance_one_set(
    u_bound: f64,
    scheme: Option<&WcetPolicy>,
    approach: SchedulingApproach,
    lambda_range: (f64, f64),
    generator: &GeneratorConfig,
    seed: u64,
    inner_threads: usize,
) -> Result<bool, CoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ts = {
        let _span = mc_obs::span("pipeline.generate");
        generate_lo_bounded_taskset(u_bound, lambda_range, generator, &mut rng)
            .map_err(CoreError::Task)?
    };
    if let Some(policy) = scheme {
        let _span = mc_obs::span("pipeline.assign");
        reseed(policy, seed, inner_threads).assign(&mut ts)?;
    }
    let _span = mc_obs::span("pipeline.sched_test");
    Ok(approach.schedulable(&ts))
}

/// What one scheduling policy did with one designed task set: the
/// design-time verdict plus the runtime rates of a simulation under the
/// policy's certified behaviour — the per-unit row of the `policy_arena`
/// campaign's cross-policy comparison table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArenaEvaluation {
    /// `1.0` when the policy's admission test accepted the set, else `0.0`
    /// (kept numeric so campaign aggregation can average it into an
    /// acceptance ratio).
    pub schedulable: f64,
    /// LC service fraction the policy guarantees in HI mode (`θ*` for
    /// flexible policies, the fixed fraction otherwise, `0` for drop-all).
    pub service_level: f64,
    /// System-level mode switches per released HC job.
    pub switch_rate: f64,
    /// Task-level contained overruns per released HC job (non-zero only
    /// under combined switching).
    pub task_switch_rate: f64,
    /// LC quality of service: `1 − lc_loss_rate` over the run.
    pub lc_qos: f64,
    /// HC deadline misses per released HC job (non-zero only when an
    /// unschedulable set is simulated anyway).
    pub hc_miss_rate: f64,
}

/// Races `policy` against one already-designed task set: runs the
/// admission test, then simulates the set under the policy's certified
/// runtime behaviour (`base` supplies horizon/exec-model; the policy
/// overrides LC handling and mode switching; `seed` drives execution-time
/// sampling). Unschedulable sets are simulated too — the arena table shows
/// what *would* happen, and `hc_miss_rate` makes the failure visible.
///
/// # Errors
///
/// Returns [`CoreError::Sched`] for an empty task set or a diverging
/// simulation — campaign runners and `mc-serve` workers report these as
/// failed units instead of crashing.
pub fn evaluate_arena_set(
    ts: &mc_task::TaskSet,
    policy: &PolicySpec,
    base: &SimConfig,
    seed: u64,
) -> Result<ArenaEvaluation, CoreError> {
    let verdict = {
        let _span = mc_obs::span("pipeline.admit");
        policy.admit(ts)?
    };
    let cfg = SimConfig {
        seed,
        ..policy.sim_config(ts, base)
    };
    let _span = mc_obs::span("pipeline.simulate");
    let m = simulate(ts, &cfg)?;
    let per_hc = |n: u64| {
        if m.hc_released == 0 {
            0.0
        } else {
            n as f64 / m.hc_released as f64
        }
    };
    Ok(ArenaEvaluation {
        schedulable: if verdict.schedulable { 1.0 } else { 0.0 },
        service_level: verdict.service_level,
        switch_rate: m.switch_rate_per_hc_job(),
        task_switch_rate: per_hc(m.task_level_switches),
        lc_qos: 1.0 - m.lc_loss_rate(),
        hc_miss_rate: per_hc(m.hc_deadline_misses),
    })
}

/// Generates one mixed task set at bound utilisation `u` from `seed`,
/// applies the WCET-assignment `wcet` policy (re-seeded to `seed`, inner
/// parallelism pinned to one thread — arena units are already the
/// fan-out axis), and races `policy` on it via [`evaluate_arena_set`].
///
/// The `policy_arena` campaign calls this with
/// `seed = derive_set_seed(base, u_index, replica)` — note the seed does
/// **not** depend on the policy, so every policy in the arena sees
/// bit-identical task sets and the comparison is paired, not just
/// distributional.
///
/// # Errors
///
/// Propagates generation, assignment, admission, and simulation errors.
pub fn evaluate_arena_one_set(
    u: f64,
    wcet: &WcetPolicy,
    policy: &PolicySpec,
    generator: &GeneratorConfig,
    seed: u64,
    base: &SimConfig,
) -> Result<ArenaEvaluation, CoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ts = {
        let _span = mc_obs::span("pipeline.generate");
        generate_mixed_taskset(u, generator, &mut rng).map_err(CoreError::Task)?
    };
    {
        let _span = mc_obs::span("pipeline.assign");
        reseed(wcet, seed, 1).assign(&mut ts)?;
    }
    evaluate_arena_set(&ts, policy, base, seed)
}

/// The automotive counterpart of [`evaluate_arena_one_set`]: generates one
/// Bosch-calibrated task set at bound utilisation `u` from `seed`, applies
/// the WCET-assignment `wcet` policy on top of the generator's Weibull-fit
/// budgets, and races `policy` on it via [`evaluate_arena_set`].
///
/// The seed contract is identical to the synthetic arena: the `automotive`
/// campaign calls this with `seed = derive_set_seed(base, u_index,
/// replica)`, which never depends on the policy index, so every roster
/// entrant admits and simulates bit-identical task sets.
///
/// # Errors
///
/// Propagates generation, assignment, admission, and simulation errors.
pub fn evaluate_arena_automotive_one_set(
    u: f64,
    wcet: &WcetPolicy,
    policy: &PolicySpec,
    automotive: &AutomotiveConfig,
    seed: u64,
    base: &SimConfig,
) -> Result<ArenaEvaluation, CoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ts = {
        let _span = mc_obs::span("pipeline.generate");
        generate_automotive_taskset(u, automotive, &mut rng).map_err(CoreError::Task)?
    };
    {
        let _span = mc_obs::span("pipeline.assign");
        reseed(wcet, seed, 1).assign(&mut ts)?;
    }
    evaluate_arena_set(&ts, policy, base, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_opt::{GaConfig, ProblemConfig};

    fn fast_ga_policy() -> WcetPolicy {
        WcetPolicy::ChebyshevGa {
            ga: GaConfig {
                population_size: 24,
                generations: 20,
                ..GaConfig::default()
            },
            problem: ProblemConfig::default(),
        }
    }

    #[test]
    fn ga_set_evaluation_is_identical_for_any_inner_thread_count() {
        // Whatever inner budget a campaign hands a unit, the set's GA must
        // follow the same serial RNG stream.
        let gen = GeneratorConfig::default();
        let seed = derive_set_seed(1, 0, 3);
        let runs: Vec<_> = [1usize, 2, 0]
            .iter()
            .map(|&threads| {
                evaluate_policy_one_set(0.6, &fast_ga_policy(), &gen, seed, threads).unwrap()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn derived_seeds_are_spread_out() {
        let mut seen = std::collections::HashSet::new();
        for point in 0..8 {
            for set in 0..64 {
                assert!(seen.insert(derive_set_seed(7, point, set)));
            }
        }
    }

    /// Mean `P_MS` and `max U_LC^LO` of `policy` over 20 sets at `u`.
    fn mean_design(u: f64, policy: &WcetPolicy) -> (f64, f64) {
        let gen = GeneratorConfig::default();
        let sets: Vec<SetEvaluation> = (0..20)
            .map(|si| evaluate_policy_one_set(u, policy, &gen, derive_set_seed(1, 0, si), 1))
            .collect::<Result<_, _>>()
            .unwrap();
        let mean = |f: fn(&SetEvaluation) -> f64| sets.iter().map(f).sum::<f64>() / 20.0;
        (mean(|e| e.p_ms), mean(|e| e.max_u_lc_lo))
    }

    #[test]
    fn higher_n_lowers_p_ms_at_fixed_utilization() {
        let low_n = mean_design(0.6, &WcetPolicy::ChebyshevUniform { n: 2.0 });
        let high_n = mean_design(0.6, &WcetPolicy::ChebyshevUniform { n: 20.0 });
        assert!(high_n.0 < low_n.0);
        assert!(high_n.1 <= low_n.1 + 1e-9);
    }

    /// Fraction of the 20 LO-bounded sets of axis point `point` (at `u`)
    /// that Baruah's EDF-VD test accepts.
    fn acceptance(point: usize, u: f64, scheme: Option<&WcetPolicy>) -> f64 {
        let gen = GeneratorConfig::default();
        let accepted = (0..20)
            .filter(|&si| {
                evaluate_acceptance_one_set(
                    u,
                    scheme,
                    SchedulingApproach::BaruahDropAll,
                    (0.25, 1.0),
                    &gen,
                    derive_set_seed(1, point, si),
                    1,
                )
                .unwrap()
            })
            .count();
        accepted as f64 / 20.0
    }

    #[test]
    fn fig6_sets_show_scheme_advantage_at_high_bounds() {
        // The paper's Fig. 6 shape: at a high LO-mode bound, the λ-designed
        // sets fail (hidden HI demand C_LO/λ) while the scheme-redesigned
        // ones keep passing.
        let scheme = WcetPolicy::ChebyshevUniform { n: 3.0 };
        // Low bound: everything passes either way.
        assert_eq!(acceptance(0, 0.6, None), 1.0);
        assert_eq!(acceptance(0, 0.6, Some(&scheme)), 1.0);
        // High bound: the scheme strictly improves acceptance.
        let baseline = acceptance(1, 0.95, None);
        let with_scheme = acceptance(1, 0.95, Some(&scheme));
        assert!(
            with_scheme > baseline,
            "scheme {with_scheme} vs baseline {baseline}"
        );
    }

    #[test]
    fn acceptance_rejects_a_bad_lambda_range() {
        let err = evaluate_acceptance_one_set(
            0.7,
            None,
            SchedulingApproach::BaruahDropAll,
            (0.0, 1.0),
            &GeneratorConfig::default(),
            1,
            1,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Task(_)), "{err:?}");
    }

    fn arena_sim_base() -> SimConfig {
        SimConfig::new(mc_task::time::Duration::from_secs(2))
    }

    #[test]
    fn arena_empty_set_surfaces_as_a_structured_sched_error() {
        // The mc-serve worker path relies on this being an Err, not a
        // panic: a bad unit fails, the campaign continues.
        let err = evaluate_arena_set(
            &mc_task::TaskSet::new(),
            &PolicySpec::EdfVdDropAll,
            &arena_sim_base(),
            7,
        )
        .unwrap_err();
        assert_eq!(err, CoreError::Sched(mc_sched::SchedError::EmptyTaskSet));
    }

    #[test]
    fn arena_evaluation_is_reproducible_and_covers_the_roster() {
        let gen = GeneratorConfig::default();
        let wcet = WcetPolicy::ChebyshevUniform { n: 3.0 };
        for policy in PolicySpec::arena_roster() {
            let a =
                evaluate_arena_one_set(0.7, &wcet, &policy, &gen, 99, &arena_sim_base()).unwrap();
            let b =
                evaluate_arena_one_set(0.7, &wcet, &policy, &gen, 99, &arena_sim_base()).unwrap();
            assert_eq!(a, b, "{} not reproducible", policy.name());
            assert!((0.0..=1.0).contains(&a.lc_qos), "{}", policy.name());
            assert!((0.0..=1.0).contains(&a.schedulable));
        }
    }

    #[test]
    fn arena_policies_see_identical_task_sets_at_one_seed() {
        // The paired-comparison contract: the set a policy is judged on
        // depends only on (u, wcet, generator, seed) — never the policy —
        // so the service-level column is the only legitimate source of
        // cross-policy QoS differences on an admitted, switch-free run.
        let gen = GeneratorConfig::default();
        let wcet = WcetPolicy::ChebyshevUniform { n: 3.0 };
        let seed = derive_set_seed(5, 2, 11);
        let drop = evaluate_arena_one_set(
            0.5,
            &wcet,
            &PolicySpec::EdfVdDropAll,
            &gen,
            seed,
            &arena_sim_base(),
        )
        .unwrap();
        let degrade = evaluate_arena_one_set(
            0.5,
            &wcet,
            &PolicySpec::LiuDegrade { fraction: 0.5 },
            &gen,
            seed,
            &arena_sim_base(),
        )
        .unwrap();
        // Same sets, same sampled execution times ⇒ same switch behaviour.
        assert_eq!(drop.switch_rate.to_bits(), degrade.switch_rate.to_bits());
    }

    #[test]
    fn automotive_arena_is_paired_and_reproducible() {
        // The automotive campaign inherits the synthetic arena's seed
        // contract: the generated set depends only on (u, wcet, config,
        // seed), so roster entrants race on bit-identical workloads.
        let cfg = AutomotiveConfig {
            runnables: 120,
            ..AutomotiveConfig::default()
        };
        let wcet = WcetPolicy::ChebyshevUniform { n: 3.0 };
        let seed = derive_set_seed(23, 1, 4);
        let base = SimConfig::new(mc_task::time::Duration::from_secs(1));
        let drop = evaluate_arena_automotive_one_set(
            0.6,
            &wcet,
            &PolicySpec::EdfVdDropAll,
            &cfg,
            seed,
            &base,
        )
        .unwrap();
        let again = evaluate_arena_automotive_one_set(
            0.6,
            &wcet,
            &PolicySpec::EdfVdDropAll,
            &cfg,
            seed,
            &base,
        )
        .unwrap();
        assert_eq!(drop, again, "automotive arena unit not reproducible");
        // The one-set evaluator is exactly the generate → assign →
        // evaluate composition, so any policy fed the same seed races on
        // the bit-identical task set the manual pipeline produces.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ts = generate_automotive_taskset(0.6, &cfg, &mut rng).unwrap();
        reseed(&wcet, seed, 1).assign(&mut ts).unwrap();
        let manual = evaluate_arena_set(&ts, &PolicySpec::EdfVdDropAll, &base, seed).unwrap();
        assert_eq!(drop, manual, "one-set wrapper diverged from composition");
        assert!((0.0..=1.0).contains(&drop.lc_qos));
        // An invalid config surfaces as a structured Task error, not a panic.
        let bad = AutomotiveConfig {
            runnables: 3,
            ..AutomotiveConfig::default()
        };
        let err = evaluate_arena_automotive_one_set(
            0.6,
            &wcet,
            &PolicySpec::EdfVdDropAll,
            &bad,
            seed,
            &base,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Task(_)), "{err:?}");
    }
}
