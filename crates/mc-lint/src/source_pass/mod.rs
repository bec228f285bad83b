//! The workspace source-audit pass: determinism (`D0xx`) and soundness
//! (`U0xx`) diagnostics over the workspace's own Rust sources.
//!
//! Everything the workspace publishes rests on a determinism contract —
//! bit-identical results across thread counts, shard layouts and
//! crash/resume. The dynamic suites assert that contract on specific
//! runs; this pass proves the *absence* of the usual ways to break it at
//! the source level: unordered hash iteration, wall-clock reads,
//! unseeded randomness, unordered float reduction, undocumented `unsafe`
//! and panics, and truncating float casts.
//!
//! The pass walks every `crates/*/src` tree plus the facade's `src/`
//! (vendored stand-ins under `vendor/` are external API surface and are
//! not audited), scans each file with a zero-dependency lexer
//! ([`scanner`]), applies the lexical rules ([`rules`]), and suppresses
//! findings covered by the checked-in `lint.toml` policy
//! ([`allowlist`]) — reporting any allowlist entry that suppressed
//! nothing as stale (`U005`). Files are scanned one by one in sorted-path
//! order, so the report is byte-identical on every run.

pub mod allowlist;
pub mod rules;
pub mod scanner;

pub use allowlist::{AllowEntry, Allowlist};
pub use scanner::ScannedFile;

use crate::diag::{Code, Diagnostic, LintReport};
use std::path::{Path, PathBuf};

/// The result of auditing a workspace's sources.
#[derive(Debug, Clone)]
pub struct SourceAudit {
    /// The findings, in sorted-path then line order; stale-allowlist
    /// findings (`U005`) follow, in `lint.toml` order.
    pub report: LintReport,
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
}

/// Lints a single source file (fixture corpora, tests). No stale-entry
/// check — that only makes sense for a whole workspace.
#[must_use]
pub fn lint_source_file(rel_path: &str, source: &str, allow: &Allowlist) -> LintReport {
    let scanned = ScannedFile::scan(rel_path, source);
    let mut report = LintReport::new();
    for d in rules::lint_file(&scanned, allow).diagnostics {
        report.push(d);
    }
    report
}

/// Collects the workspace-relative paths of every audited source file:
/// `crates/*/src/**/*.rs` plus `src/**/*.rs`, sorted so the report
/// order never depends on directory-listing order.
///
/// # Errors
///
/// Returns a message for unreadable directories.
pub fn collect_workspace_files(root: &Path) -> Result<Vec<String>, String> {
    let mut rels: Vec<String> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in read_dir_sorted(&crates_dir)? {
            let src = entry.join("src");
            if src.is_dir() {
                walk_rs_files(&src, root, &mut rels)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk_rs_files(&root_src, root, &mut rels)?;
    }
    rels.sort();
    Ok(rels)
}

/// Audits the workspace rooted at `root` under `allow`, scanning files in
/// sorted-path order.
///
/// # Errors
///
/// Returns a message for unreadable directories or files.
pub fn lint_workspace_sources(root: &Path, allow: &Allowlist) -> Result<SourceAudit, String> {
    let rels = collect_workspace_files(root)?;
    let mut report = LintReport::new();
    let mut suppressed = vec![0usize; allow.entries().len()];
    for rel in &rels {
        let source = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("cannot read `{rel}`: {e}"))?;
        let findings = rules::lint_file(&ScannedFile::scan(rel, &source), allow);
        for d in findings.diagnostics {
            report.push(d);
        }
        for (k, n) in findings.suppressed.iter().enumerate() {
            suppressed[k] += n;
        }
    }
    for (entry, &count) in allow.entries().iter().zip(&suppressed) {
        if count == 0 {
            report.push(Diagnostic::new(
                Code::U005,
                format!("lint.toml:{}", entry.line),
                format!(
                    "allowlist entry for `{}` ({}) suppressed no findings; \
                     delete it or fix its path",
                    entry.path,
                    entry
                        .codes
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(","),
                ),
            ));
        }
    }
    Ok(SourceAudit {
        report,
        files_scanned: rels.len(),
    })
}

/// Sorted subdirectory listing (deterministic walk order).
fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read `{}`: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir` as workspace-relative
/// forward-slash paths.
fn walk_rs_files(dir: &Path, root: &Path, rels: &mut Vec<String>) -> Result<(), String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read `{}`: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            walk_rs_files(&path, root, rels)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| format!("`{}` escapes the workspace root", path.display()))?;
            rels.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_file_lint_reports_and_allowlists() {
        let src = "use std::collections::HashMap;\n";
        let report = lint_source_file("crates/x/src/lib.rs", src, &Allowlist::empty());
        assert_eq!(report.codes(), vec![Code::D001]);

        let allow = Allowlist::parse(
            "[[allow]]\npath = \"crates/x/src/lib.rs\"\ncodes = [\"D001\"]\nreason = \"membership only\"\n",
        )
        .unwrap();
        let report = lint_source_file("crates/x/src/lib.rs", src, &allow);
        assert!(report.is_clean(), "{}", report.render_human());
    }

    #[test]
    fn workspace_audit_scans_a_temp_tree_and_flags_stale_entries() {
        let dir = std::env::temp_dir().join(format!("mc-lint-walk-{}", std::process::id()));
        let src_dir = dir.join("crates/demo/src");
        std::fs::create_dir_all(&src_dir).expect("temp tree");
        std::fs::write(
            src_dir.join("lib.rs"),
            "pub fn f(o: Option<u8>) -> u8 { o.unwrap() }\n",
        )
        .expect("write fixture");
        let allow = Allowlist::parse(
            "[[allow]]\npath = \"crates/demo/src/gone.rs\"\ncodes = [\"D001\"]\nreason = \"r\"\n",
        )
        .unwrap();
        let audit = lint_workspace_sources(&dir, &allow).expect("audit runs");
        assert_eq!(audit.files_scanned, 1);
        assert_eq!(audit.report.codes(), vec![Code::U003, Code::U005]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_runs_give_the_same_report() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let one = lint_workspace_sources(root, &Allowlist::empty()).expect("first audit");
        let two = lint_workspace_sources(root, &Allowlist::empty()).expect("second audit");
        assert_eq!(
            one.report.render_json().expect("render"),
            two.report.render_json().expect("render"),
        );
        assert!(one.files_scanned >= 8, "mc-lint's own sources are scanned");
    }
}
