//! Golden tests for the lints FW006 and FW008–FW010: each lint has a pass
//! fixture (must stay silent) and a fire fixture (must flag) under
//! `tests/fixtures/`. The fixtures are miniature workspace trees, so these
//! tests exercise the walker, the parser, the call graph, and the lint in
//! one pass each.

use fairwos_audit::lints::run_lints;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

/// Lint ids that fire on `name`, deduplicated in order.
fn lints_firing(name: &str) -> Vec<String> {
    let report = run_lints(&fixture(name)).expect("fixture lint run succeeds");
    let mut ids: Vec<String> = report.violations.iter().map(|v| v.lint.clone()).collect();
    ids.dedup();
    ids
}

fn assert_fires(name: &str, lint: &str) {
    let report = run_lints(&fixture(name)).expect("fixture lint run succeeds");
    assert!(
        report.violations.iter().any(|v| v.lint == lint),
        "{name}: expected {lint} to fire, got {:?}",
        report.violations
    );
    assert!(
        report.violations.iter().all(|v| v.lint == lint),
        "{name}: only {lint} may fire on this fixture, got {:?}",
        report.violations
    );
}

fn assert_silent(name: &str) {
    let report = run_lints(&fixture(name)).expect("fixture lint run succeeds");
    assert!(
        report.violations.is_empty(),
        "{name}: expected a clean run, got {:?}",
        report.violations
    );
}

#[test]
fn fw006_hashmap_in_result_crate() {
    assert_silent("fw006_pass");
    assert_fires("fw006_fire", "FW006");
}

#[test]
fn fw008_obs_coverage_is_transitive() {
    // The pass fixture's wrapper has no span of its own — its kernel feeds
    // a counter, which must satisfy the lint through the call graph. Its
    // serve crate's `handle_*` endpoint is observable the same way, through
    // the renderer that counts scrapes.
    assert_silent("fw008_pass");
    assert_fires("fw008_fire", "FW008");
    // Both audited surfaces must be reported on the fire fixture: the dark
    // forward entry (hot-path prefix) and the dark admin handler.
    let report = run_lints(&fixture("fw008_fire")).expect("fixture lint run succeeds");
    for entry in ["forward_step", "handle_status"] {
        assert!(
            report.violations.iter().any(|v| v.message.contains(entry)),
            "expected an FW008 finding on `{entry}`, got {:?}",
            report.violations
        );
    }
}

#[test]
fn fw009_manifest_drift_both_directions() {
    assert_silent("fw009_pass");
    let report = run_lints(&fixture("fw009_fire")).expect("fixture lint run succeeds");
    assert_eq!(lints_firing("fw009_fire"), vec!["FW009".to_string()]);
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("`epoch`")),
        "missing-field direction not reported: {:?}",
        report.violations
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("`rng`")),
        "stale-entry direction not reported: {:?}",
        report.violations
    );
}

#[test]
fn fw010_unguarded_truncating_cast() {
    assert_silent("fw010_pass");
    assert_fires("fw010_fire", "FW010");
}
