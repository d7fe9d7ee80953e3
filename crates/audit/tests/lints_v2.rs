//! Golden test for the lint FW008: a pass fixture (must stay silent) and a
//! fire fixture (must flag) under `tests/fixtures/`. The fixtures are
//! miniature workspace trees, so the test exercises the walker, the parser,
//! the call graph, and the lint in one pass.

use fairwos_audit::lints::run_lints;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
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
