//! Integration tests for the FW lint engine: JSON schema round-trip, a
//! clean run over the real workspace, and seeded-violation detection over
//! a synthetic tree.

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
        Self::in_crate(tag, "demo", source)
    }

    /// Like [`ScratchTree::new`] but with a chosen crate directory name, so
    /// tests can exercise path-scoped lints (e.g. FW005's crates/obs carve-out).
    fn in_crate(tag: &str, krate: &str, source: &str) -> Self {
        let root = std::env::temp_dir().join(format!("fairwos_audit_test_{tag}"));
        let src = root.join("crates").join(krate).join("src");
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

#[test]
fn seeded_unwrap_violation_is_detected() {
    let tree = ScratchTree::new(
        "fw001",
        "/// Doc.\npub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    let report = run_lints(tree.path()).expect("lint run succeeds");
    assert!(!report.ok());
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.lint == "FW001" && v.line == 3),
        "expected an FW001 violation at line 3, got {:?}",
        report.violations
    );
}

#[test]
fn seeded_undocumented_panic_is_detected() {
    let tree = ScratchTree::new(
        "fw002",
        "/// Doc without the panic section.\npub fn f(n: usize) {\n    assert!(n > 0, \"n must be positive\");\n}\n",
    );
    let report = run_lints(tree.path()).expect("lint run succeeds");
    assert!(
        report.violations.iter().any(|v| v.lint == "FW002"),
        "expected an FW002 violation, got {:?}",
        report.violations
    );
}

#[test]
fn seeded_wall_clock_read_is_detected() {
    let tree = ScratchTree::new(
        "fw005",
        "/// Doc.\npub fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    );
    let report = run_lints(tree.path()).expect("lint run succeeds");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.lint == "FW005" && v.line == 3),
        "expected an FW005 violation at line 3, got {:?}",
        report.violations
    );
}

#[test]
fn wall_clock_read_is_allowed_inside_obs() {
    let tree = ScratchTree::in_crate(
        "fw005_obs",
        "obs",
        "/// Doc.\npub fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n",
    );
    let report = run_lints(tree.path()).expect("lint run succeeds");
    assert!(
        !report.violations.iter().any(|v| v.lint == "FW005"),
        "crates/obs must be exempt from FW005, got {:?}",
        report.violations
    );
}

#[test]
fn annotated_wall_clock_read_is_suppressed() {
    let tree = ScratchTree::new(
        "fw005_allow",
        "/// Doc.\npub fn f() -> std::time::Instant {\n    // audit:allow(FW005): deliberate test fixture\n    std::time::Instant::now()\n}\n",
    );
    let report = run_lints(tree.path()).expect("lint run succeeds");
    assert!(
        !report.violations.iter().any(|v| v.lint == "FW005"),
        "audit:allow(FW005) must suppress the lint, got {:?}",
        report.violations
    );
}

#[test]
fn allow_marker_covers_a_rustfmt_wrapped_statement() {
    // The flagged token lands several lines below the marker once rustfmt
    // wraps the method chain; the marker must still suppress it.
    let tree = ScratchTree::new(
        "fw001_wrapped",
        "/// Doc.\npub fn f(x: Option<u32>) -> u32 {\n    // audit:allow(FW001): fixture\n    let y = x\n        .as_ref()\n        .unwrap();\n    *y\n}\n",
    );
    let report = run_lints(tree.path()).expect("lint run succeeds");
    assert!(
        !report.violations.iter().any(|v| v.lint == "FW001"),
        "marker above a wrapped statement must suppress FW001, got {:?}",
        report.violations
    );
}

#[test]
fn lint_json_round_trips_through_the_codec() {
    let tree = ScratchTree::new(
        "json",
        "/// Doc.\npub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    let report = run_lints(tree.path()).expect("lint run succeeds");
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
