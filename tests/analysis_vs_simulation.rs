//! Cross-validation between the analytic schedulability tests and the
//! discrete-event simulator. For EDF on a synchronous periodic task set the
//! processor-demand criterion is exact, and the synchronous release is the
//! critical instant — so over one analysis horizon the simulator and the
//! test must agree *both ways*.

use chebymc::prelude::*;
use chebymc::sched::analysis::dbf;
use rand::{Rng, SeedableRng};

fn ms(v: u64) -> Duration {
    Duration::from_millis(v)
}

/// Random constrained-deadline task sets (D ≤ P) with no MC semantics.
fn random_constrained_set(seed: u64) -> TaskSet {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let count = rng.random_range(2..6usize);
    let mut ts = TaskSet::new();
    for i in 0..count {
        let period = rng.random_range(20..200u64);
        let deadline = rng.random_range(period / 2..=period);
        let c = rng.random_range(1..=deadline / 2 + 1);
        ts.push(
            McTask::builder(TaskId::new(i as u32))
                .period(ms(period))
                .deadline(ms(deadline))
                .c_lo(ms(c))
                .build()
                .unwrap(),
        )
        .unwrap();
    }
    ts
}

#[test]
fn demand_test_agrees_with_simulation_both_ways() {
    let mut schedulable_seen = 0;
    let mut unschedulable_seen = 0;
    for seed in 0..60u64 {
        let ts = random_constrained_set(seed);
        let verdict = match dbf::edf_demand_test(&ts, Criticality::Lo, 0) {
            Ok(v) => v,
            Err(_) => continue, // point-budget guard; skip pathological sets
        };
        // Simulate the synchronous (critical-instant) release pattern over
        // the analysis horizon plus one hyperperiod for safety.
        let horizon = ts
            .hyperperiod()
            .unwrap_or(ms(10_000))
            .min(ms(60_000))
            .max(verdict.horizon)
            + ms(1);
        let cfg = SimConfig {
            horizon,
            lc_policy: LcPolicy::DropAll,
            exec_model: JobExecModel::FullLoBudget,
            x_factor: Some(1.0), // plain EDF over real deadlines
            release_jitter: Duration::ZERO,
            mode_switch: ModeSwitchPolicy::System,
            seed,
        };
        let sim = simulate(&ts, &cfg).unwrap();
        let missed = sim.lc_deadline_misses > 0;
        assert_eq!(
            verdict.schedulable,
            !missed,
            "seed {seed}: analysis says {} but simulation {} ({:?})",
            verdict.schedulable,
            if missed {
                "missed"
            } else {
                "met all deadlines"
            },
            verdict.violation_at
        );
        if verdict.schedulable {
            schedulable_seen += 1;
        } else {
            unschedulable_seen += 1;
        }
    }
    // The generator must exercise both verdicts for the test to mean much.
    assert!(
        schedulable_seen >= 10,
        "only {schedulable_seen} schedulable sets"
    );
    assert!(
        unschedulable_seen >= 5,
        "only {unschedulable_seen} unschedulable sets"
    );
}

/// EDF-VD's Eq. 8 is sufficient: whenever it accepts, the simulator must
/// observe zero HC misses even under constant worst-case overruns — and the
/// LO-mode necessary condition shows up as misses when violated.
#[test]
fn eq8_sufficiency_has_no_runtime_counterexamples() {
    let mut accepted = 0;
    for seed in 100..160u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let u = 0.5 + (seed % 5) as f64 * 0.1;
        let mut ts = match generate_mixed_taskset(u, &GeneratorConfig::default(), &mut rng) {
            Ok(ts) => ts,
            Err(_) => continue,
        };
        WcetPolicy::ChebyshevUniform { n: 2.0 }
            .assign(&mut ts)
            .unwrap();
        if !edf_vd::analyze(&ts).schedulable {
            continue;
        }
        accepted += 1;
        let cfg = SimConfig {
            horizon: Duration::from_secs(15),
            lc_policy: LcPolicy::DropAll,
            exec_model: JobExecModel::FullHiBudget,
            x_factor: None,
            release_jitter: Duration::ZERO,
            mode_switch: ModeSwitchPolicy::System,
            seed,
        };
        let sim = simulate(&ts, &cfg).unwrap();
        assert_eq!(sim.hc_deadline_misses, 0, "seed {seed}");
    }
    assert!(accepted >= 20, "only {accepted} sets accepted by Eq. 8");
}

/// The simulator's event guard scales with the workload: a valid run that
/// needs more than 10⁷ events (once a fixed cap) completes. Each 4 µs job
/// releases, crosses its 1 µs LO budget (a mode switch), and completes in
/// HI mode (the switch back): three events per job, 10.5 million in all.
#[test]
fn long_valid_runs_are_not_cut_short_by_the_event_guard() {
    let task = McTask::builder(TaskId::new(0))
        .criticality(Criticality::Hi)
        .period(Duration::from_micros(4))
        .c_lo(Duration::from_micros(1))
        .c_hi(Duration::from_micros(2))
        .build()
        .unwrap();
    let ts = TaskSet::from_tasks(vec![task]).unwrap();
    let mut cfg = SimConfig::new(Duration::from_secs(14));
    cfg.exec_model = JobExecModel::FullHiBudget;
    let m = simulate(&ts, &cfg).unwrap();
    assert_eq!(m.hc_released, 3_500_000);
    assert_eq!(m.mode_switches, 3_500_000);
    assert_eq!(m.hc_completed, 3_500_000);
    assert_eq!(m.hc_deadline_misses, 0);
}
