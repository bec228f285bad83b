//! Integration tests for `chebymc lint --source`: the fixture corpus is
//! pinned to a golden JSON report, the report is byte-identical across
//! runs, the gate flags promote/demote findings, and —
//! the same check CI gates on — the workspace's own sources carry zero
//! deny-level findings under the checked-in `lint.toml`.

use chebymc::lint::LintReport;
use std::process::{Command, Output};

const CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/lint-src");
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/fixtures/lint-src/expected.json"
);

fn chebymc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chebymc"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn corpus_matches_the_golden_json() {
    let out = chebymc(&["lint", "--source", "--root", CORPUS, "--json"]);
    assert!(
        !out.status.success(),
        "the corpus plants deny-level defects"
    );
    let golden = std::fs::read(GOLDEN).expect("golden file exists");
    assert_eq!(
        out.stdout,
        golden,
        "corpus report drifted from the golden file:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn corpus_json_is_byte_identical_across_runs() {
    let args = ["lint", "--source", "--root", CORPUS, "--json"];
    let one = chebymc(&args);
    let two = chebymc(&args);
    assert_eq!(one.stdout, two.stdout);
    let golden = std::fs::read(GOLDEN).expect("golden file exists");
    assert_eq!(one.stdout, golden, "a rerun must not change the report");
}

#[test]
fn corpus_json_round_trips_through_serde() {
    let out = chebymc(&["lint", "--source", "--root", CORPUS, "--json"]);
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed: LintReport = serde_json::from_str(&text).expect("valid JSON report");
    let again: LintReport = serde_json::from_str(&serde_json::to_string(&parsed).unwrap()).unwrap();
    assert_eq!(again, parsed);
}

#[test]
fn gate_flags_demote_and_promote() {
    // Demoting both source classes clears the gate without changing the
    // report body (same diagnostics, now below deny level).
    let out = chebymc(&["lint", "--source", "--root", CORPUS, "--allow", "D,U"]);
    assert!(
        out.status.success(),
        "allow D,U must clear the corpus gate: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // A partial allow leaves the U-class errors standing.
    let out = chebymc(&["lint", "--source", "--root", CORPUS, "--allow", "D"]);
    assert!(!out.status.success(), "U001/U003 must still gate");
    // Unknown gate entries are rejected up front.
    let out = chebymc(&["lint", "--source", "--root", CORPUS, "--deny", "X9"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("X9"));
}

/// The CI gate, as a test: the workspace's own sources must carry zero
/// deny-level findings under the checked-in lint.toml — and promoting
/// warnings must not change that (no warning-level findings either).
#[test]
fn workspace_sources_are_deny_clean() {
    let root = env!("CARGO_MANIFEST_DIR");
    let out = chebymc(&["lint", "--source", "--root", root, "--deny", "warnings"]);
    assert!(
        out.status.success(),
        "workspace source audit is not clean:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn workspace_report_is_byte_identical_across_runs() {
    let args = [
        "lint",
        "--source",
        "--root",
        env!("CARGO_MANIFEST_DIR"),
        "--json",
    ];
    let one = chebymc(&args);
    let two = chebymc(&args);
    assert_eq!(one.stdout, two.stdout);
    assert!(!one.stdout.is_empty());
}

#[test]
fn source_only_flags_require_source_mode() {
    let out = chebymc(&["lint", "--benchmark", "all", "--root", "."]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--source"));
}

#[test]
fn lint_threads_is_an_unknown_flag() {
    // The audit scans serially; `--threads` is no lint option at all.
    let out = chebymc(&["lint", "--source", "--threads", "2"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--threads`"), "{stderr}");
    assert!(
        stderr.contains("chebymc lint [bundle.json]"),
        "usage follows: {stderr}"
    );
}
