//! The committed automotive golden fixture is byte-stable: regenerating
//! it from its pinned seed through the real CLI reproduces the checked-in
//! file exactly. Any drift in the calibration tables, the UUniFast or
//! factor-pair draw order, the Weibull fit, or the JSON encoding shows up
//! here as a byte diff before it can silently invalidate campaign results.

mod common;

use std::path::PathBuf;
use std::process::Command;

/// The fixture's generation parameters — keep in lockstep with the file
/// name and the regeneration command in EXPERIMENTS.md.
const FIXTURE: &str = "automotive_u070_seed1.json";
const FIXTURE_ARGS: [&str; 8] = [
    "--family",
    "automotive",
    "--u",
    "0.7",
    "--seed",
    "1",
    "--runnables",
    "120",
];

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

#[test]
fn golden_automotive_fixture_is_byte_identical_on_regeneration() {
    let tmp = common::tmp("automotive.json");
    let out = Command::new(env!("CARGO_BIN_EXE_chebymc"))
        .arg("generate")
        .args(FIXTURE_ARGS)
        .arg("-o")
        .arg(&tmp)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let regenerated = std::fs::read(&tmp).expect("regenerated fixture");
    let committed = std::fs::read(fixtures_dir().join(FIXTURE)).expect("committed fixture");
    let _ = std::fs::remove_file(&tmp);
    assert!(
        regenerated == committed,
        "regenerated fixture differs from the committed one ({} vs {} bytes); \
         if the generator contract changed intentionally, regenerate with \
         `chebymc generate {} -o fixtures/{FIXTURE}` and document the break",
        regenerated.len(),
        committed.len(),
        FIXTURE_ARGS.join(" "),
    );
}

#[test]
fn automotive_fixture_loads_and_matches_the_calibration() {
    use chebymc::prelude::*;
    let json = std::fs::read_to_string(fixtures_dir().join(FIXTURE)).unwrap();
    let w = Workload::load_json(&json).unwrap();
    assert_eq!(w.tasks.len(), 120);
    assert!(w.tasks.hc_count() > 0 && w.tasks.lc_count() > 0);
    // Budget utilisation hits the generation bound.
    let u: f64 = w
        .tasks
        .iter()
        .map(|t| t.c_hi().as_nanos() as f64 / t.period().as_nanos() as f64)
        .sum();
    assert!((u - 0.7).abs() < 1e-3, "budget utilisation {u}");
    // Periods come from the Bosch bin table.
    for t in w.tasks.iter() {
        let ms = t.period().as_nanos() / 1_000_000;
        assert!(
            chebymc::task::automotive::PERIOD_MS.contains(&ms),
            "{}: period {} ms is not a calibration bin",
            t.id(),
            ms
        );
    }
    // Every HC task carries a fitted Weibull law the simulator will use.
    for t in w
        .tasks
        .iter()
        .filter(|t| t.criticality() == Criticality::Hi)
    {
        let p = t
            .profile()
            .unwrap_or_else(|| panic!("{}: no profile", t.id()));
        assert!(p.weibull().is_some(), "{}: no Weibull fit", t.id());
    }
}

#[test]
fn automotive_fixture_simulates_under_the_arena_design() {
    use chebymc::prelude::*;
    let json = std::fs::read_to_string(fixtures_dir().join(FIXTURE)).unwrap();
    let mut w = Workload::load_json(&json).unwrap();
    WcetPolicy::ChebyshevUniform { n: 3.0 }
        .assign(&mut w.tasks)
        .unwrap();
    let sim = simulate(&w.tasks, &SimConfig::new(Duration::from_secs(1))).unwrap();
    assert!(sim.hc_released > 0 && sim.lc_released > 0);
}
