//! The per-set step behind the paper's Figs. 3–6 and the policy arena.
//!
//! Each figure averages a metric over many synthetic task sets per
//! utilisation point (1000 in the paper). [`design_set`] generates *one*
//! set from its seed and applies a [`WcetPolicy`]; the caller then reports
//! that set's design metrics, admission verdict, or arena row
//! ([`evaluate_arena_set`]). The `mc-exp` catalog campaigns fan the sets
//! out and average them, so every figure runs through one experiment path
//! with resume, shards and serve.

use crate::policy::WcetPolicy;
use crate::CoreError;
use mc_sched::policy::{PolicySpec, SchedulingPolicy};
use mc_sched::sim::{simulate, SimConfig};
use mc_task::{TaskError, TaskSet};
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

/// Generates one task set from `seed` and applies `wcet` to it — the seed
/// contract every catalog campaign follows.
///
/// `generate` draws the set from `StdRng::seed_from_u64(seed)` inside the
/// `pipeline.generate` span; `wcet` (re-seeded to the same `seed`) then
/// re-derives every `C_LO` inside the `pipeline.assign` span, and `None`
/// keeps the set as generated. The campaigns call this with
/// `seed = derive_set_seed(campaign_seed, u_index, replica)`, which never
/// depends on the policy under test, so every policy judges bit-identical
/// task sets and each per-point comparison is paired. They then call
/// [`design_metrics`](crate::metrics::design_metrics),
/// [`SchedulingPolicy::admit`] or [`evaluate_arena_set`] on the result.
///
/// # Errors
///
/// Propagates generation and assignment errors.
pub fn design_set(
    seed: u64,
    wcet: Option<&WcetPolicy>,
    generate: impl FnOnce(&mut StdRng) -> Result<TaskSet, TaskError>,
) -> Result<TaskSet, CoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ts = {
        let _span = mc_obs::span("pipeline.generate");
        generate(&mut rng)?
    };
    if let Some(policy) = wcet {
        let _span = mc_obs::span("pipeline.assign");
        reseed(policy, seed).assign(&mut ts)?;
    }
    Ok(ts)
}

/// Re-seeds a policy's internal randomness so every task set gets an
/// independent draw.
fn reseed(policy: &WcetPolicy, seed: u64) -> WcetPolicy {
    match policy {
        WcetPolicy::LambdaRange { lambda_min, .. } => WcetPolicy::LambdaRange {
            lambda_min: *lambda_min,
            seed,
        },
        WcetPolicy::ChebyshevGa { ga, problem } => WcetPolicy::ChebyshevGa {
            ga: mc_opt::GaConfig { seed, ..*ga },
            problem: *problem,
        },
        other => other.clone(),
    }
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
    ts: &TaskSet,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::design_metrics;
    use mc_task::automotive::{generate_automotive_taskset, AutomotiveConfig};
    use mc_task::generate::{
        generate_hc_taskset, generate_lo_bounded_taskset, generate_mixed_taskset, GeneratorConfig,
    };

    #[test]
    fn derived_seeds_are_spread_out() {
        let mut seen = std::collections::HashSet::new();
        for point in 0..8 {
            for set in 0..64 {
                assert!(seen.insert(derive_set_seed(7, point, set)));
            }
        }
    }

    /// Mean `P_MS` and `max U_LC^LO` of `policy` over 20 HC-only sets at `u`.
    fn mean_design(u: f64, policy: &WcetPolicy) -> (f64, f64) {
        let gen = GeneratorConfig::default();
        let (mut p_ms, mut max_u) = (0.0, 0.0);
        for si in 0..20 {
            let seed = derive_set_seed(1, 0, si);
            let ts = design_set(seed, Some(policy), |rng| generate_hc_taskset(u, &gen, rng));
            let m = design_metrics(&ts.unwrap()).unwrap();
            p_ms += m.p_ms;
            max_u += m.max_u_lc_lo;
        }
        (p_ms / 20.0, max_u / 20.0)
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
                let seed = derive_set_seed(1, point, si);
                let ts = design_set(seed, scheme, |rng| {
                    generate_lo_bounded_taskset(u, (0.25, 1.0), &gen, rng)
                })
                .unwrap();
                PolicySpec::EdfVdDropAll.admit(&ts).unwrap().schedulable
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
        let gen = GeneratorConfig::default();
        let err = design_set(1, None, |rng| {
            generate_lo_bounded_taskset(0.7, (0.0, 1.0), &gen, rng)
        })
        .unwrap_err();
        assert!(matches!(err, CoreError::Task(_)), "{err:?}");
    }

    #[test]
    fn design_set_is_generate_then_reseeded_assign() {
        // The seed contract the campaigns rely on: the set depends only on
        // (generator, wcet, seed), and the WCET policy draws from the same
        // seed as the generator.
        let gen = GeneratorConfig::default();
        let wcet = WcetPolicy::LambdaRange {
            lambda_min: 0.25,
            seed: 0,
        };
        let seed = derive_set_seed(3, 1, 2);
        let ts = design_set(seed, Some(&wcet), |rng| {
            generate_mixed_taskset(0.7, &gen, rng)
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let mut manual = generate_mixed_taskset(0.7, &gen, &mut rng).unwrap();
        reseed(&wcet, seed).assign(&mut manual).unwrap();
        assert_eq!(ts.unwrap(), manual);
        // Without a policy the set is returned as generated.
        let raw = design_set(seed, None, |rng| generate_mixed_taskset(0.7, &gen, rng));
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(
            raw.unwrap(),
            generate_mixed_taskset(0.7, &gen, &mut rng).unwrap()
        );
    }

    fn arena_sim_base() -> SimConfig {
        SimConfig::new(mc_task::time::Duration::from_secs(2))
    }

    /// The arena row of `policy` on the mixed set drawn from `seed` at `u`.
    fn arena_row(u: f64, policy: &PolicySpec, seed: u64) -> ArenaEvaluation {
        let gen = GeneratorConfig::default();
        let wcet = WcetPolicy::ChebyshevUniform { n: 3.0 };
        let ts = design_set(seed, Some(&wcet), |rng| {
            generate_mixed_taskset(u, &gen, rng)
        });
        evaluate_arena_set(&ts.unwrap(), policy, &arena_sim_base(), seed).unwrap()
    }

    #[test]
    fn arena_empty_set_surfaces_as_a_structured_sched_error() {
        // The mc-serve worker path relies on this being an Err, not a
        // panic: a bad unit fails, the campaign continues.
        let err = evaluate_arena_set(
            &TaskSet::new(),
            &PolicySpec::EdfVdDropAll,
            &arena_sim_base(),
            7,
        )
        .unwrap_err();
        assert_eq!(err, CoreError::Sched(mc_sched::SchedError::EmptyTaskSet));
    }

    #[test]
    fn arena_evaluation_is_reproducible_and_covers_the_roster() {
        for policy in PolicySpec::arena_roster() {
            let a = arena_row(0.7, &policy, 99);
            let b = arena_row(0.7, &policy, 99);
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
        let seed = derive_set_seed(5, 2, 11);
        let drop = arena_row(0.5, &PolicySpec::EdfVdDropAll, seed);
        let degrade = arena_row(0.5, &PolicySpec::LiuDegrade { fraction: 0.5 }, seed);
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
        let automotive = |cfg: &AutomotiveConfig| {
            design_set(seed, Some(&wcet), |rng| {
                generate_automotive_taskset(0.6, cfg, rng)
            })
        };
        let ts = automotive(&cfg).unwrap();
        assert_eq!(
            ts,
            automotive(&cfg).unwrap(),
            "automotive set not reproducible"
        );
        let drop = evaluate_arena_set(&ts, &PolicySpec::EdfVdDropAll, &base, seed).unwrap();
        let again = evaluate_arena_set(&ts, &PolicySpec::EdfVdDropAll, &base, seed).unwrap();
        assert_eq!(drop, again, "automotive arena unit not reproducible");
        assert!((0.0..=1.0).contains(&drop.lc_qos));
        // An invalid config surfaces as a structured Task error, not a panic.
        let bad = AutomotiveConfig {
            runnables: 3,
            ..AutomotiveConfig::default()
        };
        let err = automotive(&bad).unwrap_err();
        assert!(matches!(err, CoreError::Task(_)), "{err:?}");
    }
}
