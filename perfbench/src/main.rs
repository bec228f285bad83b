//! Campaign benchmark for chebymc.
//!
//! Runs catalog campaigns through their public entry points
//! (`mc_exp::catalog::build`, then `mc_exp::run_campaign`) and prints the
//! end-to-end metrics (`--trace 0`) or, from a separate traced run that
//! rebuilds every unit from the layer calls, the per-layer metrics
//! (`--trace 1`). Every run checks the stores it produced. See NOTES.md.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig5_ga --seed 5 --seconds 30 --trace 0
//! ```

mod host;
mod layers;
mod session;
mod stats;
mod timing;

use layers::{Layer, Span};
use mc_exp::{run_campaign, CampaignSpec, ExpError, Metric, PointSpec, RunConfig, Store, WorkUnit};
use session::{Session, StoreKind, Workload, THREADS};
use stats::{mean, median, quantile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use timing::{result_line, Timed, UnitTiming, Watchdog, UNIT_LIMIT};

const USAGE: &str = "usage: perfbench --workload <fig5_ga|arena_store|automotive_sim> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// The workloads. `arena_store` stays runnable but is not in
/// BENCHMARK.json: it fails on about half of all seeds (NOTES.md).
const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "fig5_ga",
        campaign: "fig5",
        sets: None,
        runnables: None,
        store: StoreKind::Memory,
        default_seed: 5,
        pinned_digest: 0x4e0b_e3af_23c8_7ea2,
    },
    Workload {
        name: "arena_store",
        campaign: "policy_arena",
        sets: None,
        runnables: None,
        store: StoreKind::File,
        default_seed: 11,
        pinned_digest: 0x43f2_d7b0_1cf8_0ade,
    },
    Workload {
        name: "automotive_sim",
        campaign: "automotive",
        sets: Some(7),
        runnables: Some(1000),
        store: StoreKind::File,
        default_seed: 17,
        pinned_digest: 0x138c_af1f_3b52_9017,
    },
];

/// End-to-end metrics (`--trace 0`), as named in BENCHMARK.json.
const END_TO_END: [(&str, &str); 5] = [
    ("units_per_s", "1/s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), as named in BENCHMARK.json.
const PER_LAYER: [(&str, &str); 22] = [
    ("mc-task.generate_us", "us"),
    ("mc-task.tasks_per_set", "count"),
    ("core.assign_us", "us"),
    ("core.design_metrics_us", "us"),
    ("mc-opt.ga_run_us", "us"),
    ("mc-opt.ga_evals_per_run", "count"),
    ("mc-opt.ga_carried_per_run", "count"),
    ("mc-sched.admit_us", "us"),
    ("mc-sched.simulate_us", "us"),
    ("mc-sched.simulate_ns_per_job", "ns"),
    ("mc-sched.jobs_per_unit", "count"),
    ("mc-sched.mode_switches_per_unit", "count"),
    ("mc-exp.fsync_us_p50", "us"),
    ("mc-exp.fsync_us_p99", "us"),
    ("mc-exp.gap_us_p50", "us"),
    ("mc-exp.gap_us_mean", "us"),
    ("mc-exp.gap_growth", "ratio"),
    ("mc-exp.replay_us_per_record", "us"),
    ("mc-exp.build_ms", "ms"),
    ("mc-par.busy_frac", "frac"),
    ("mc-par.drain_ms", "ms"),
    ("bench.trace_overhead_frac", "frac"),
];

/// Set-up-only samples taken before each plain session; `setup_s` is the
/// median of these and the sessions' own set-ups.
const SETUP_SAMPLES_PER_SESSION: usize = 7;

/// No session starts once the run is this old or the next session would
/// likely end past it.
const SESSION_BUDGET: Duration = Duration::from_secs(140);

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One printed metric: value, unit and how many samples it rests on.
struct Reading {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("perfbench: unknown workload `{}`\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    std::panic::set_hook(Box::new(|info| eprintln!("perfbench: {info}")));
    let dir = Path::new(".bench_build")
        .join("perfbench-work")
        .join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(w, &args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the workload and returns the result line.
fn run(w: &Workload, args: &Args, dir: &Path) -> Result<String, String> {
    let seed = args.seed.unwrap_or(w.default_seed);
    let names: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let watch = Watchdog::spawn(names.to_vec(), dir.to_path_buf());
    self_test(dir)?;
    println!("perfbench: host {}", host::context(THREADS, dir));
    println!(
        "perfbench: workload={} campaign={} seed={seed} default_seed={} trace={} seconds={}",
        w.name,
        w.campaign,
        w.default_seed,
        u8::from(args.trace),
        args.seconds
    );

    let start = Instant::now();
    let mut setups: Vec<f64> = Vec::new();
    let mut plain: Vec<Summary> = Vec::new();
    let mut traced: Vec<Session> = Vec::new();
    let mut gate: Vec<String> = Vec::new();
    let mut digests = Vec::new();
    let mut any_failed = false;
    loop {
        // Plain runs only without --trace; with it, U T T, then U and T
        // alternating, so the overhead compares neighbouring sessions.
        let want_traced =
            args.trace && !plain.is_empty() && (traced.len() < 2 || traced.len() <= plain.len());
        if !args.trace {
            // Extra set-up samples before every session, so the median
            // spans the whole run rather than one moment of a shared disk.
            for _ in 0..SETUP_SAMPLES_PER_SESSION {
                let extra = session::setup(w, seed, &dir.join("setup.jsonl"), None)?;
                setups.push(extra.total.as_secs_f64());
            }
        }
        let s = session::run(w, seed, dir, want_traced, &watch)?;
        let failed = !s.failures.is_empty() || s.error.is_some();
        any_failed |= failed;
        for f in &s.failures {
            println!("perfbench: unit failure: {f}");
        }
        if let (Some(e), true) = (&s.error, s.failures.is_empty()) {
            gate.push(format!("session ended early: {e}"));
        }
        if let Err(e) = &s.store_check {
            gate.push(format!("store check: {e}"));
        }
        digests.push(s.digest);
        let summary = Summary::of(&s);
        println!(
            "perfbench: session {} {}: {} units in {:.3} s ({:.3} units/s), unit p50 {:.4} ms \
             p90 {:.4} ms, setup {:.3} ms",
            plain.len() + traced.len() + 1,
            if want_traced { "traced" } else { "plain" },
            s.completed,
            s.wall.as_secs_f64(),
            summary.rate,
            summary.unit_ms_p50,
            summary.unit_ms_p90,
            s.setup.as_secs_f64() * 1e3
        );
        let last = s.setup + s.wall;
        if want_traced {
            traced.push(s);
        } else {
            setups.push(s.setup.as_secs_f64());
            plain.push(summary);
        }
        // At least two sessions of the measured kind, so a median never
        // rests on one; then stop before a session that would likely end
        // past `--seconds`.
        let minimum = if args.trace {
            traced.len()
        } else {
            plain.len()
        } >= 2;
        let enough = (start.elapsed() + last).as_secs_f64() > args.seconds;
        let out_of_budget = start.elapsed() + last.mul_f64(1.2) > SESSION_BUDGET;
        if failed || (minimum && (enough || out_of_budget)) {
            break;
        }
    }

    if !any_failed {
        println!("perfbench: canonical store digest {:016x}", digests[0]);
        if digests.iter().any(|&d| d != digests[0]) {
            gate.push("sessions of one seed produced different stores".into());
        }
        if seed == w.default_seed && digests[0] != w.pinned_digest {
            gate.push(format!(
                "digest {:016x} differs from the pinned {:016x}",
                digests[0], w.pinned_digest
            ));
        }
        let counts = |s: &Session| {
            s.trace
                .as_ref()
                .map(|t| (t.counts, t.ga_evals, t.ga_carried))
        };
        if traced.iter().any(|s| counts(s) != counts(&traced[0])) {
            gate.push("work counts differ between traced sessions of one seed".into());
        }
    }

    let readings = match (args.trace, traced.is_empty()) {
        (false, _) => end_to_end(&plain, &setups),
        (true, false) => per_layer(&plain, &traced)?,
        (true, true) => {
            gate.push("no traced session ran, so the layer rebuild is unchecked".into());
            PER_LAYER
                .iter()
                .map(|&(name, _)| reading(name, 0.0, 0))
                .collect()
        }
    };
    println!(
        "perfbench: sessions plain={} traced={} in {:.1} s",
        plain.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    for r in &readings {
        println!(
            "  {:<32} {:>16.6} {:<6} n={}",
            r.name, r.value, r.unit, r.samples
        );
        if !r.value.is_finite() {
            gate.push(format!("{} is not finite", r.name));
        }
    }
    let attempted = watch.attempted.load(Ordering::Relaxed);
    let failed = watch.failed.load(Ordering::Relaxed);
    println!(
        "  {:<32} {:>16.6} {:<6} n={attempted}",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "frac"
    );
    for g in &gate {
        println!("perfbench: GATE FAILED: {g}");
    }
    if gate.is_empty() {
        println!("perfbench: correctness gate passed");
    }
    let metrics: Vec<(&str, f64, &str)> = readings
        .iter()
        .map(|r| {
            (
                r.name,
                if r.value.is_finite() { r.value } else { 0.0 },
                r.unit,
            )
        })
        .collect();
    Ok(result_line(
        gate.is_empty(),
        attempted.max(1),
        failed,
        &metrics,
    ))
}

/// What the end-to-end metrics need from a plain session; the per-unit
/// timings are dropped, so memory does not grow with the session count.
struct Summary {
    wall: Duration,
    build: Duration,
    units: usize,
    rate: f64,
    unit_ms_p50: f64,
    unit_ms_p90: f64,
}

impl Summary {
    fn of(s: &Session) -> Self {
        let unit_ms: Vec<f64> = s.timings.iter().map(|t| t.busy_ns() as f64 / 1e6).collect();
        Summary {
            wall: s.wall,
            build: s.build,
            units: unit_ms.len(),
            rate: s.completed as f64 / s.wall.as_secs_f64(),
            unit_ms_p50: quantile(&unit_ms, 0.5),
            unit_ms_p90: quantile(&unit_ms, 0.9),
        }
    }
}

/// The end-to-end metrics of the plain sessions and set-up samples.
fn end_to_end(plain: &[Summary], setups: &[f64]) -> Vec<Reading> {
    let of = |f: fn(&Summary) -> f64| plain.iter().map(f).collect::<Vec<f64>>();
    let units: usize = plain.iter().map(|s| s.units).sum();
    vec![
        reading("units_per_s", median(&of(|s| s.rate)), plain.len()),
        reading("unit_ms_p50", median(&of(|s| s.unit_ms_p50)), units),
        reading("unit_ms_p90", median(&of(|s| s.unit_ms_p90)), units),
        reading("setup_s", median(setups), setups.len()),
        reading("peak_rss_mb", host::peak_rss_mb(), 1),
    ]
}

/// The per-layer metrics of the traced sessions (and the plain sessions
/// they are compared with for the tracing overhead).
fn per_layer(plain: &[Summary], traced: &[Session]) -> Result<Vec<Reading>, String> {
    let traces: Vec<&session::Trace> = traced
        .iter()
        .map(|s| s.trace.as_ref().expect("traced sessions carry a trace"))
        .collect();
    let first = traces[0];
    let spans: Vec<&Span> = traces.iter().flat_map(|t| &t.spans).collect();
    let span_us = |layers: &[Layer]| {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| layers.contains(&s.layer))
            .map(|s| s.ns() as f64 / 1e3)
            .collect();
        (mean(&v), v.len())
    };
    for layer in [
        Layer::Generate,
        Layer::Assign,
        Layer::GaRun,
        Layer::Admit,
        Layer::Simulate,
    ] {
        let slowest = spans
            .iter()
            .filter(|s| s.layer == layer)
            .max_by_key(|s| s.ns());
        if let Some(s) = slowest {
            println!(
                "perfbench: slowest {layer:?} call: unit {} took {:.3} ms",
                s.unit,
                s.ns() as f64 / 1e6
            );
        }
    }
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let c = first.counts;
    let ga_runs = first
        .spans
        .iter()
        .filter(|s| s.layer == Layer::GaRun)
        .count();
    let sim_ns: u64 = spans
        .iter()
        .filter(|s| s.layer == Layer::Simulate)
        .map(|s| s.ns())
        .sum();
    let sim_jobs = c.jobs * traces.len() as u64;
    let fsync_us: Vec<f64> = traces
        .iter()
        .flat_map(|t| t.fsync_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    let gaps: Vec<Vec<f64>> = traced.iter().map(|s| gaps_us(&s.timings)).collect();
    let all_gaps: Vec<f64> = gaps.concat();
    let growth: Vec<f64> = gaps.iter().map(|g| gap_growth(g)).collect();
    let busy: Vec<f64> = traced
        .iter()
        .map(|s| {
            let busy: u64 = s.timings.iter().map(UnitTiming::busy_ns).sum();
            busy as f64 / (s.wall.as_nanos() as f64 * THREADS as f64)
        })
        .collect();
    let drain: Vec<f64> = traced.iter().map(drain_ms).collect();
    let builds: Vec<f64> = plain
        .iter()
        .map(|s| s.build)
        .chain(traced.iter().map(|s| s.build))
        .map(|b| b.as_secs_f64() * 1e3)
        .collect();
    let (replay, records) = replay_us_per_record(&traced[traced.len() - 1])?;
    let median_wall =
        |walls: Vec<Duration>| median(&walls.iter().map(Duration::as_secs_f64).collect::<Vec<_>>());
    let overhead = median_wall(traced.iter().map(|s| s.wall).collect())
        / median_wall(plain.iter().map(|s| s.wall).collect())
        - 1.0;

    let (generate, n_generate) = span_us(&[Layer::Generate]);
    let (assign, n_assign) = span_us(&[Layer::Assign, Layer::GaRun]);
    let (metrics, n_metrics) = span_us(&[Layer::DesignMetrics]);
    let (ga, n_ga) = span_us(&[Layer::GaRun]);
    let (admit, n_admit) = span_us(&[Layer::Admit]);
    let (simulate, n_simulate) = span_us(&[Layer::Simulate]);
    let sims = c.simulations as usize;
    Ok(vec![
        reading("mc-task.generate_us", generate, n_generate),
        reading(
            "mc-task.tasks_per_set",
            ratio(c.tasks, c.sets),
            c.sets as usize,
        ),
        reading("core.assign_us", assign, n_assign),
        reading("core.design_metrics_us", metrics, n_metrics),
        reading("mc-opt.ga_run_us", ga, n_ga),
        reading(
            "mc-opt.ga_evals_per_run",
            ratio(first.ga_evals, ga_runs as u64),
            ga_runs,
        ),
        reading(
            "mc-opt.ga_carried_per_run",
            ratio(first.ga_carried, ga_runs as u64),
            ga_runs,
        ),
        reading("mc-sched.admit_us", admit, n_admit),
        reading("mc-sched.simulate_us", simulate, n_simulate),
        reading(
            "mc-sched.simulate_ns_per_job",
            ratio(sim_ns, sim_jobs),
            sim_jobs as usize,
        ),
        reading("mc-sched.jobs_per_unit", ratio(c.jobs, c.simulations), sims),
        reading(
            "mc-sched.mode_switches_per_unit",
            ratio(c.mode_switches, c.simulations),
            sims,
        ),
        reading(
            "mc-exp.fsync_us_p50",
            quantile(&fsync_us, 0.5),
            fsync_us.len(),
        ),
        reading(
            "mc-exp.fsync_us_p99",
            quantile(&fsync_us, 0.99),
            fsync_us.len(),
        ),
        reading(
            "mc-exp.gap_us_p50",
            quantile(&all_gaps, 0.5),
            all_gaps.len(),
        ),
        reading("mc-exp.gap_us_mean", mean(&all_gaps), all_gaps.len()),
        reading("mc-exp.gap_growth", median(&growth), growth.len()),
        reading("mc-exp.replay_us_per_record", replay, records),
        reading("mc-exp.build_ms", median(&builds), builds.len()),
        reading("mc-par.busy_frac", median(&busy), busy.len()),
        reading("mc-par.drain_ms", median(&drain), drain.len()),
        reading(
            "bench.trace_overhead_frac",
            overhead,
            traced.len() + plain.len(),
        ),
    ])
}

fn reading(name: &'static str, value: f64, samples: usize) -> Reading {
    let unit = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |&(_, u)| u);
    Reading {
        name,
        unit,
        value,
        samples,
    }
}

/// Per worker, the time from returning from one unit to entering the
/// next, in µs, ordered by when the next unit was entered.
fn gaps_us(timings: &[UnitTiming]) -> Vec<f64> {
    let mut sorted = timings.to_vec();
    sorted.sort_by_key(|t| (t.thread, t.entry_ns));
    let mut gaps: Vec<(u64, f64)> = sorted
        .windows(2)
        .filter(|p| p[0].thread == p[1].thread)
        .map(|p| (p[1].entry_ns, (p[1].entry_ns - p[0].exit_ns) as f64 / 1e3))
        .collect();
    gaps.sort_by_key(|&(entry, _)| entry);
    gaps.into_iter().map(|(_, g)| g).collect()
}

/// Mean gap over the last quarter of units over that of the first.
fn gap_growth(gaps: &[f64]) -> f64 {
    let q = gaps.len() / 4;
    if q == 0 {
        return 1.0;
    }
    mean(&gaps[gaps.len() - q..]) / mean(&gaps[..q])
}

/// From the first worker going idle for good to the end of the session.
fn drain_ms(s: &Session) -> f64 {
    let mut last_exit = std::collections::BTreeMap::new();
    for t in &s.timings {
        let e = last_exit.entry(t.thread).or_insert(0);
        *e = t.exit_ns.max(*e);
    }
    let first_idle = last_exit.values().copied().min().unwrap_or(0);
    (s.wall.as_nanos() as u64).saturating_sub(first_idle) as f64 / 1e6
}

/// `Store::create_or_resume` on a finished store, per record (median of
/// five replays), with the number of records replayed.
fn replay_us_per_record(s: &Session) -> Result<(f64, usize), String> {
    let mut per_record = Vec::new();
    let mut records = 0;
    for _ in 0..5 {
        let t0 = Instant::now();
        let (store, info) =
            Store::create_or_resume(&s.store_file, &s.spec).map_err(|e| e.to_string())?;
        let us = t0.elapsed().as_secs_f64() * 1e6;
        records = info.replayed;
        drop(store);
        per_record.push(us / records.max(1) as f64);
    }
    Ok((median(&per_record), records))
}

/// Shows, on every run, that the timing wrapper turns a panicking unit
/// and a unit past its wall limit into counted failures.
fn self_test(dir: &Path) -> Result<(), String> {
    let watch = Watchdog::new(Vec::new(), PathBuf::from(dir));
    let spec = CampaignSpec {
        name: "perfbench-self-test".into(),
        seed: 1,
        params: vec![],
        points: vec![PointSpec::new("p", vec![])],
        replicas: 3,
    };
    let panics = |u: &WorkUnit, _: usize| -> Result<Vec<Metric>, ExpError> {
        assert!(u.replica != 1, "deliberate self-test panic");
        Ok(vec![Metric::new("v", 1.0)])
    };
    let slow = |u: &WorkUnit, _: usize| -> Result<Vec<Metric>, ExpError> {
        if u.replica == 1 {
            std::thread::sleep(Duration::from_millis(30));
        }
        Ok(vec![Metric::new("v", 1.0)])
    };
    let cases: [(&dyn mc_exp::UnitRunner, Duration, &str); 2] = [
        (&panics, UNIT_LIMIT, "panicked"),
        (&slow, Duration::from_millis(10), "wall limit"),
    ];
    let cfg = RunConfig {
        threads: 1,
        ..RunConfig::default()
    };
    for (runner, limit, expect) in cases {
        let timed = Timed::new(runner, &watch, limit);
        let result = run_campaign(&spec, &timed, &mut Store::in_memory(&spec), &cfg);
        let (_, failures) = timed.finish();
        if result.is_ok() || failures.len() != 1 || !failures[0].contains(expect) {
            return Err(format!(
                "failure-accounting self-test ({expect}) did not fail as it should"
            ));
        }
    }
    if watch.failed.load(Ordering::Relaxed) != 2 {
        return Err("failure-accounting self-test miscounted".into());
    }
    println!("perfbench: failure-accounting self-test passed (panic and wall limit each counted)");
    Ok(())
}
