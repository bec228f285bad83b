//! Shared experiment harness for the `chebymc` reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md`'s per-experiment index) and prints it as an aligned
//! text table plus, optionally, CSV to a file. The experiment *scale* — how
//! many task sets are averaged per point — defaults to a laptop-friendly
//! value and can be raised to the paper's 1000 via the `CHEBYMC_SETS`
//! environment variable.

use mc_exp::catalog::{self, CatalogOptions};
use mc_exp::{aggregate, run_campaign, ExpError, PointAggregate, RunConfig, Store};
use std::fmt::Write as _;

/// Parses one scale variable's value: absent → `default`; present but not
/// a positive integer → a named error. A set-but-garbled variable must
/// fail loudly — silently falling back to the default would run the whole
/// experiment at the wrong scale.
pub fn parse_scale(name: &str, value: Option<&str>, default: usize) -> Result<usize, String> {
    match value {
        None => Ok(default),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!(
                "{name}={v:?} is not a positive integer (unset it to use the default {default})"
            )),
        },
    }
}

/// Reads a scale variable, exiting with status 2 on an unparseable value.
fn scale_env(name: &str, default: usize) -> usize {
    let value = match std::env::var(name) {
        Ok(v) => Some(v),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(_)) => {
            eprintln!("error: {name} is set but is not valid unicode");
            std::process::exit(2);
        }
    };
    match parse_scale(name, value.as_deref(), default) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// Number of task sets per data point: `CHEBYMC_SETS` env var, default 200
/// (the paper uses 1000). Exits with status 2 when the variable is set to
/// something that is not a positive integer.
pub fn task_sets_per_point() -> usize {
    scale_env("CHEBYMC_SETS", 200)
}

/// Number of execution-time samples per benchmark: `CHEBYMC_SAMPLES`,
/// default 20 000 (the paper's value). Exits with status 2 when the
/// variable is set to something that is not a positive integer.
pub fn samples_per_benchmark() -> usize {
    scale_env("CHEBYMC_SAMPLES", 20_000)
}

/// Guard returned by [`trace_from_env`]. Dropping it finalizes the
/// `CHEBYMC_TRACE` sink (flushing every thread's buffered events); it
/// does nothing when the variable was unset.
#[derive(Debug)]
pub struct TraceGuard {
    path: Option<String>,
}

impl TraceGuard {
    /// The trace file path, when `CHEBYMC_TRACE` was set.
    #[must_use]
    pub fn path(&self) -> Option<&str> {
        self.path.as_deref()
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if let Some(path) = self.path.take() {
            match mc_obs::shutdown() {
                Ok(()) => {
                    eprintln!("(trace written to {path}; inspect with `chebymc trace summary`)");
                }
                Err(e) => eprintln!("error: could not finalize trace {path}: {e}"),
            }
        }
    }
}

/// Honours the `CHEBYMC_TRACE` environment variable: when set, installs
/// the process-wide mc-obs JSONL sink at that path for the lifetime of
/// the returned guard. Exits with status 2 when the sink cannot be
/// created — an explicitly requested trace that silently fails would
/// leave a long experiment with no artefact.
#[must_use]
pub fn trace_from_env() -> TraceGuard {
    let Ok(path) = std::env::var("CHEBYMC_TRACE") else {
        return TraceGuard { path: None };
    };
    if let Err(e) = mc_obs::init_file(std::path::Path::new(&path)) {
        eprintln!("error: could not create CHEBYMC_TRACE file {path:?}: {e}");
        std::process::exit(2);
    }
    TraceGuard { path: Some(path) }
}

/// Runs the catalog campaign `name` — the definition `chebymc exp run`
/// executes — against an in-memory store on all cores, and returns its
/// per-point means in point order.
///
/// # Errors
///
/// Campaign construction, unit and aggregation errors.
pub fn run_catalog(name: &str, opts: &CatalogOptions) -> Result<Vec<PointAggregate>, ExpError> {
    let campaign = catalog::build(name, opts)?;
    let mut store = Store::in_memory(&campaign.spec);
    run_campaign(
        &campaign.spec,
        campaign.runner.as_ref(),
        &mut store,
        &RunConfig::default(),
    )?;
    aggregate(&campaign.spec, store.records())
}

/// A simple aligned text table with an optional CSV mirror.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row. Short rows are padded with empty cells; long rows
    /// are truncated to the header width.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned text form.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}");
            }
            out.push('\n');
        };
        render(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render(row, &widths, &mut out);
        }
        out
    }

    /// Renders RFC-4180-ish CSV (cells containing commas or quotes are
    /// quoted).
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.header.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the text table to stdout and, when `CHEBYMC_CSV_DIR` is set,
    /// writes `<dir>/<name>.csv` as well — creating the directory if
    /// needed, and exiting with status 2 when the CSV cannot be written.
    /// An explicitly requested export that silently fails would leave a
    /// long experiment with no artefact.
    pub fn emit(&self, name: &str) {
        println!("{}", self.to_text());
        if let Ok(dir) = std::env::var("CHEBYMC_CSV_DIR") {
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("error: could not create CHEBYMC_CSV_DIR {dir:?}: {e}");
                std::process::exit(2);
            }
            let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
            if let Err(e) = std::fs::write(&path, self.to_csv()) {
                eprintln!("error: could not write {}: {e}", path.display());
                std::process::exit(2);
            }
            eprintln!("(csv written to {})", path.display());
        }
    }
}

/// Formats a probability as a percentage with two decimals, matching the
/// paper's table style.
pub fn pct(p: f64) -> String {
    format!("{:.2}", p * 100.0)
}

/// Formats a cycle count in engineering notation like the paper's Table I
/// (`2.3e2`).
pub fn eng(x: f64) -> String {
    if x == 0.0 {
        return "0".into();
    }
    let exp = x.abs().log10().floor() as i32;
    let mantissa = x / 10f64.powi(exp);
    format!("{mantissa:.1}e{exp}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_padding() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(vec!["longer-name".to_string()]); // padded
        let text = t.to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header + rule + 2 rows
        assert!(lines[0].contains("name"));
        assert!(text.contains("longer-name"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(["a", "b"]);
        t.row(["x,y", "he said \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    fn pct_and_eng_formats() {
        assert_eq!(pct(0.5022), "50.22");
        assert_eq!(pct(0.0), "0.00");
        assert_eq!(eng(230.0), "2.3e2");
        assert_eq!(eng(1.0e10), "1.0e10");
        assert_eq!(eng(0.0), "0");
    }

    #[test]
    fn scale_defaults() {
        // Without env overrides the defaults hold.
        if std::env::var("CHEBYMC_SETS").is_err() {
            assert_eq!(task_sets_per_point(), 200);
        }
        if std::env::var("CHEBYMC_SAMPLES").is_err() {
            assert_eq!(samples_per_benchmark(), 20_000);
        }
    }

    #[test]
    fn scale_parsing_rejects_garbage_instead_of_defaulting() {
        assert_eq!(parse_scale("CHEBYMC_SETS", None, 200), Ok(200));
        assert_eq!(parse_scale("CHEBYMC_SETS", Some("1000"), 200), Ok(1000));
        assert_eq!(parse_scale("CHEBYMC_SETS", Some(" 50 "), 200), Ok(50));
        for bad in ["", "0", "-3", "many", "1e3", "200.0"] {
            let err = parse_scale("CHEBYMC_SETS", Some(bad), 200).unwrap_err();
            assert!(err.contains("CHEBYMC_SETS"), "{err}");
            assert!(err.contains("positive integer"), "{err}");
        }
    }
}
