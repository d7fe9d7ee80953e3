//! Integration tests for the FW lint engine: a clean run over the real
//! workspace, and the JSON report's round trip on a seeded violation.

use fairwos_audit::lints::{run_lints, LINTS};
use fairwos_obs::json::{self, Value};
use std::fs;
use std::path::{Path, PathBuf};

/// A scratch workspace with one crate; removed on drop.
struct ScratchTree {
    root: PathBuf,
}

impl ScratchTree {
    fn new(tag: &str, source: &str) -> Self {
        let root = std::env::temp_dir().join(format!("fairwos_audit_test_{tag}"));
        let src = root.join("crates").join("demo").join("src");
        fs::create_dir_all(&src).expect("create scratch tree");
        fs::write(src.join("lib.rs"), source).expect("write scratch source");
        Self { root }
    }

    fn path(&self) -> &Path {
        &self.root
    }
}

impl Drop for ScratchTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

/// `cargo test` runs with the crate directory as cwd; the workspace root is
/// two levels up.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[test]
fn workspace_tree_is_clean() {
    let report = run_lints(&workspace_root()).expect("lint run succeeds");
    let pretty: Vec<String> = report
        .violations
        .iter()
        .map(|v| format!("{}:{} [{}] {}", v.file, v.line, v.lint, v.message))
        .collect();
    assert!(
        report.ok(),
        "workspace has lint violations:\n{}",
        pretty.join("\n")
    );
    assert!(
        report.files_checked > 50,
        "only {} files scanned",
        report.files_checked
    );
    assert!(
        report.metrics.callgraph_functions > 500,
        "call graph implausibly small: {} fns",
        report.metrics.callgraph_functions
    );
}

/// FW001 and FW010 are clippy lints switched on at each crate root
/// (docs/AUDIT.md), so a library crate added without the attribute would
/// escape them unseen.
#[test]
fn every_library_crate_root_switches_on_the_clippy_rules() {
    let crates = workspace_root().join("crates");
    let mut missing = Vec::new();
    for entry in fs::read_dir(&crates).expect("crates/ is readable") {
        let dir = entry.expect("directory entry").path();
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let Ok(text) = fs::read_to_string(dir.join("src/lib.rs")) else {
            continue;
        };
        if name == "bench" {
            continue;
        }
        let mut wanted = vec!["clippy::unwrap_used", "clippy::expect_used"];
        if name == "tensor" || name == "graph" {
            wanted.push("clippy::cast_possible_truncation");
        }
        let warn = text
            .split_once("\n#![warn(")
            .and_then(|(_, rest)| rest.split_once(")]"))
            .map_or("", |(lints, _)| lints);
        for lint in wanted.into_iter().filter(|l| !warn.contains(l)) {
            missing.push(format!("crates/{name}/src/lib.rs: {lint}"));
        }
    }
    assert!(
        missing.is_empty(),
        "crate roots without their clippy rules:\n{}",
        missing.join("\n")
    );
}

#[test]
fn lint_json_round_trips_through_the_codec() {
    // An FW004 finding: raw buffer indexing without a shape assertion.
    let tree = ScratchTree::new(
        "json",
        "/// Doc.\npub fn f(m: &Matrix) -> f32 {\n    m.as_slice()[0]\n}\n",
    );
    let report = run_lints(tree.path()).expect("lint run succeeds");
    assert!(
        report.violations.iter().any(|v| v.lint == "FW004"),
        "expected an FW004 finding, got {:?}",
        report.violations
    );
    let doc = json::to_string_pretty(&report);
    let value = Value::parse(&doc).expect("report JSON parses");
    assert_eq!(json::to_string_pretty(&value), doc, "report re-emits");
    let str_at = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_owned);
    let u64_at = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64);

    assert_eq!(str_at(&value, "tool").as_deref(), Some("fairwos-audit"));
    assert_eq!(u64_at(&value, "schema_version"), Some(3));
    assert_eq!(
        u64_at(&value, "files_checked"),
        Some(report.files_checked as u64)
    );
    let metrics = value.get("metrics").expect("metrics object");
    assert!(metrics.as_obj().is_some(), "metrics is an object");
    assert_eq!(
        u64_at(metrics, "files_scanned"),
        Some(report.metrics.files_scanned as u64)
    );
    assert_eq!(
        u64_at(metrics, "callgraph_functions"),
        Some(report.metrics.callgraph_functions as u64)
    );
    assert_eq!(
        u64_at(metrics, "callgraph_edges"),
        Some(report.metrics.callgraph_edges as u64)
    );
    let per_lint = metrics
        .get("findings_per_lint")
        .and_then(Value::as_obj)
        .expect("findings_per_lint map");
    assert_eq!(per_lint.len(), LINTS.len());
    let lints = value
        .get("lints")
        .and_then(Value::as_arr)
        .expect("lints array");
    assert_eq!(lints.len(), LINTS.len());
    let violations = value
        .get("violations")
        .and_then(Value::as_arr)
        .expect("violations array");
    assert_eq!(violations.len(), report.violations.len());
    for (v_json, v) in violations.iter().zip(&report.violations) {
        assert_eq!(str_at(v_json, "lint"), Some(v.lint.clone()));
        assert_eq!(str_at(v_json, "file"), Some(v.file.clone()));
        assert_eq!(u64_at(v_json, "line"), Some(v.line as u64));
        assert_eq!(str_at(v_json, "message"), Some(v.message.clone()));
    }
}
