//! `fairwos-audit` command-line entry point.
//!
//! ```text
//! cargo run -p fairwos-audit -- lint      [--root DIR] [--out FILE]
//! cargo run -p fairwos-audit -- gradients [--out FILE] [--tol T]
//! ```
//!
//! `lint` walks `crates/*/src` under `--root` (default: the current
//! directory, i.e. the workspace root under `cargo run`), writes a JSON
//! report (default `results/audit_lint.json`) and exits 1 when any FW lint
//! fires.
//! `gradients` runs the finite-difference sweep, writes
//! `results/gradient_report.json` and exits 1 when any parameter fails.
//! Both exit 2 on I/O errors.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use fairwos_audit::{gradients, lints};
use std::path::{Path, PathBuf};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("gradients") => run_gradients(&args[1..]),
        _ => {
            eprintln!(
                "usage: fairwos-audit lint [--root DIR] [--out FILE]\n       fairwos-audit gradients [--out FILE] [--tol T]"
            );
            exit(2);
        }
    }
}

/// Value of `--flag` in `args`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Writes `content` to `path`, creating parent directories.
fn write_report(path: &Path, content: &str) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("creating {}: {e}", parent.display());
                exit(2);
            }
        }
    }
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("writing {}: {e}", path.display());
        exit(2);
    }
}

/// Mirrors the lint run's metrics into `fairwos-obs` counters so audit
/// runs share the training pipeline's observability story.
fn emit_lint_metrics(report: &lints::LintReport) {
    fairwos_obs::counter_add(
        "audit/lint/files_scanned",
        report.metrics.files_scanned as u64,
    );
    fairwos_obs::counter_add(
        "audit/lint/callgraph_functions",
        report.metrics.callgraph_functions as u64,
    );
    fairwos_obs::counter_add(
        "audit/lint/callgraph_edges",
        report.metrics.callgraph_edges as u64,
    );
    for (id, count) in &report.metrics.findings_per_lint {
        fairwos_obs::counter_add(&format!("audit/lint/findings/{id}"), *count as u64);
    }
}

fn run_lint(args: &[String]) {
    let root = PathBuf::from(flag_value(args, "--root").unwrap_or("."));
    let out = PathBuf::from(flag_value(args, "--out").unwrap_or("results/audit_lint.json"));

    let report = match lints::run_lints(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fairwos-audit lint: {e}");
            exit(2);
        }
    };
    write_report(&out, &fairwos_obs::json::to_string_pretty(&report));
    emit_lint_metrics(&report);

    for v in &report.violations {
        println!("{}:{}: [{}] {}", v.file, v.line, v.lint, v.message);
    }
    println!(
        "fairwos-audit lint: {} files checked, {} fns in call graph, {} violation(s); report at {}",
        report.files_checked,
        report.metrics.callgraph_functions,
        report.violations.len(),
        out.display()
    );
    exit(i32::from(!report.ok()));
}

fn run_gradients(args: &[String]) {
    let out = PathBuf::from(flag_value(args, "--out").unwrap_or("results/gradient_report.json"));
    let tol: f32 = match flag_value(args, "--tol").map(str::parse) {
        None => 1e-2,
        Some(Ok(t)) => t,
        Some(Err(e)) => {
            eprintln!("fairwos-audit gradients: bad --tol value: {e}");
            exit(2);
        }
    };

    let report = gradients::run_sweep(tol);
    write_report(&out, &fairwos_obs::json::to_string_pretty(&report));

    for s in &report.sweeps {
        println!(
            "{} {:40} param {}: {} coords, abs {:.3e}, rel {:.3e}, err {:.3e}",
            if s.pass { "PASS" } else { "FAIL" },
            s.target,
            s.param,
            s.coords_checked,
            s.max_abs_err,
            s.max_rel_err,
            s.max_err
        );
    }
    println!(
        "fairwos-audit gradients: {}/{} parameter sweeps within tol {tol}; report at {}",
        report.sweeps.len() - report.failures(),
        report.sweeps.len(),
        out.display()
    );
    exit(i32::from(!report.ok()));
}
