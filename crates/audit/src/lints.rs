// Source-level lint pass over `crates/*/src`.
//
// This module needs nothing beyond std and fairwos-obs (itself std-only), so
// the lint engine builds with the registry unreachable. The JSON report is
// written by fairwos-obs's JSON codec (`fairwos_obs::json::to_string_pretty`)
// and parsed back in the crate's tests.
//
// Lints (see docs/AUDIT.md for the rationale behind each):
//
// * FW003 — every public `backward*` function in fairwos-nn / fairwos-core
//   must have its owning type referenced from a gradient-check site (a file
//   containing `GradTarget` or `finite_difference`).
// * FW004 — functions that index the raw `Matrix` buffer
//   (`as_slice()[` / `as_mut_slice()[`) must state a shape assertion in the
//   same function body.
// * FW008 — every public `fit*`/`forward*`/`backward*`/`query*` (and, in
//   the serve admin plane, `handle*`) in core/nn/serve must be observable:
//   it (or a callee, transitively) opens an obs span or feeds an obs
//   counter, or is explicitly exempted.
//
// These need the workspace-wide view (gradient-check sites, the call graph)
// or a project-specific contract that clippy has no lint for. FW001, FW002,
// FW005, FW006 and FW010 are clippy lints configured in `Cargo.toml`,
// `clippy.toml` and the crate roots.
//
// Suppression: `audit:allow(FWxxx): reason` in the comment/attribute block
// directly above a `fn` item, or on its signature line.

use std::fs;
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::parse::{analyze_file, find_token, FileAnalysis};
use fairwos_obs::json::{JsonWriter, ToJson};

/// Lint identifiers with their one-line descriptions, in report order.
pub const LINTS: &[(&str, &str)] = &[
    (
        "FW003",
        "backward functions in fairwos-nn/fairwos-core need a gradient-check site",
    ),
    (
        "FW004",
        "raw Matrix buffer indexing requires a shape assertion in the same function",
    ),
    (
        "FW008",
        "public fit/forward/backward/query/handle fns in core/nn/serve must reach a span/counter",
    ),
];

/// Path fragments excluded from every lint: binary targets and the
/// experiment harness are not library code.
const PATH_ALLOWLIST: &[&str] = &["crates/bench/", "/src/bin/"];

/// Crate roots whose `backward*` functions FW003 applies to.
const FW003_ROOTS: &[&str] = &["crates/nn/src", "crates/core/src"];

/// Function-name prefixes FW008 audits: the training and inference entry
/// points, and the admin plane's request handlers (an endpoint invisible to
/// its own telemetry is a blind spot).
const FW008_ENTRY_PREFIXES: &[&str] = &["fit", "forward", "backward", "query", "handle"];

/// Crate roots whose public `fit*`/`forward*`/`backward*`/`query*`/
/// `handle*` fns FW008 audits.
const FW008_ROOTS: &[&str] = &["crates/nn/src", "crates/core/src", "crates/serve/src"];

/// A file counts as a gradient-check site when its raw text contains one of
/// these markers: the names of the one engine, `fairwos_nn::gradcheck`'s
/// `GradTarget` and its `finite_difference`.
const GRADCHECK_MARKERS: &[&str] = &["GradTarget", "finite_difference"];

/// One lint violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Lint identifier, e.g. `FW004`.
    pub lint: String,
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Run-level metrics: the lint pass's own observability story (mirrored
/// into `fairwos-obs` counters by the CLI).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LintMetrics {
    /// `.rs` files scanned.
    pub files_scanned: usize,
    /// Function items in the workspace call graph.
    pub callgraph_functions: usize,
    /// Resolved call edges.
    pub callgraph_edges: usize,
    /// Findings per lint id, in [`LINTS`] order.
    pub findings_per_lint: Vec<(String, usize)>,
}

/// The result of one lint run over a workspace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    /// Number of `.rs` files scanned.
    pub files_checked: usize,
    /// All violations, ordered by file then line.
    pub violations: Vec<Violation>,
    /// Run-level metrics.
    pub metrics: LintMetrics,
}

impl LintReport {
    /// True when the tree is clean.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

fairwos_obs::json_struct!(ToJson for Violation { lint, file, line, message });

/// The per-lint findings are an object keyed by lint id.
impl ToJson for LintMetrics {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("files_scanned", &self.files_scanned);
        w.field("callgraph_functions", &self.callgraph_functions);
        w.field("callgraph_edges", &self.callgraph_edges);
        w.key("findings_per_lint");
        w.object(&self.findings_per_lint);
        w.end_object();
    }
}

/// The machine-readable CI report (`results/audit_lint.json`): the tool
/// and schema stamp, the run metrics, every lint with its description, and
/// the violations.
impl ToJson for LintReport {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field("tool", "fairwos-audit");
        w.field("schema_version", &3u32);
        w.field("files_checked", &self.files_checked);
        w.field("metrics", &self.metrics);
        w.key("lints");
        w.begin_array();
        for (id, description) in LINTS {
            w.begin_object();
            w.field("id", id);
            w.field("description", description);
            w.end_object();
        }
        w.end_array();
        w.field("violations", &self.violations);
        w.end_object();
    }
}

/// Runs every lint over `root` (the workspace directory containing `crates/`).
///
/// Returns `Err` only for I/O-level problems (missing directory, unreadable
/// file); lint violations are data in the `Ok` report.
pub fn run_lints(root: &Path) -> Result<LintReport, String> {
    let files = collect_rs_files(root)?;
    if files.is_empty() {
        return Err(format!(
            "no .rs files found under {}/crates/*/src",
            root.display()
        ));
    }
    let mut analyses = Vec::with_capacity(files.len());
    for path in &files {
        let src =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        analyses.push(analyze_file(&relative_path(root, path), &src));
    }
    // Gradient-check sites live in src trees and in crates/*/tests.
    let site_text = gradcheck_site_text(root)?;
    let graph = CallGraph::build(&analyses);

    let mut violations = Vec::new();
    for fa in &analyses {
        lint_fw003(fa, &site_text, &mut violations);
        lint_fw004(fa, &mut violations);
    }
    lint_fw008(&graph, &mut violations);
    violations.sort_by(|a, b| (&a.file, a.line, &a.lint).cmp(&(&b.file, b.line, &b.lint)));

    let findings_per_lint = LINTS
        .iter()
        .map(|(id, _)| {
            (
                id.to_string(),
                violations.iter().filter(|v| v.lint == *id).count(),
            )
        })
        .collect();
    let metrics = LintMetrics {
        files_scanned: analyses.len(),
        callgraph_functions: graph.nodes.len(),
        callgraph_edges: graph.edges.iter().map(Vec::len).sum(),
        findings_per_lint,
    };
    Ok(LintReport {
        files_checked: analyses.len(),
        violations,
        metrics,
    })
}

/// `root`-relative path with `/` separators.
fn relative_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

fn is_allowlisted(rel: &str) -> bool {
    PATH_ALLOWLIST.iter().any(|p| rel.contains(p))
}

/// All `.rs` files under `crates/*/src`, minus the path allowlist, sorted.
fn collect_rs_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let crates_dir = root.join("crates");
    let entries =
        fs::read_dir(&crates_dir).map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
        let src = entry.path().join("src");
        if src.is_dir() {
            walk_rs(&src, &mut files)?;
        }
    }
    files.retain(|p| !is_allowlisted(&relative_path(root, p)));
    files.sort();
    Ok(files)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

/// Concatenated raw text of every file (in `crates/*/src` and
/// `crates/*/tests`) that contains a gradient-check marker.
fn gradcheck_site_text(root: &Path) -> Result<String, String> {
    let crates_dir = root.join("crates");
    let entries =
        fs::read_dir(&crates_dir).map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", crates_dir.display()))?;
        for sub in ["src", "tests"] {
            let dir = entry.path().join(sub);
            if dir.is_dir() {
                walk_rs(&dir, &mut files)?;
            }
        }
    }
    files.sort();
    let mut text = String::new();
    for path in files {
        let src =
            fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        if GRADCHECK_MARKERS.iter().any(|m| src.contains(m)) {
            text.push_str(&src);
            text.push('\n');
        }
    }
    Ok(text)
}

fn in_roots(rel: &str, roots: &[&str]) -> bool {
    roots.iter().any(|r| rel.starts_with(r))
}

// ---------------------------------------------------------------------------
// The lints themselves.
// ---------------------------------------------------------------------------

/// FW003: backward fns in nn/core must have a gradient-check site naming
/// their owning type.
fn lint_fw003(fa: &FileAnalysis, site_text: &str, out: &mut Vec<Violation>) {
    if !in_roots(&fa.rel, FW003_ROOTS) {
        return;
    }
    for f in &fa.fns {
        let is_backward = f.name == "backward"
            || f.name.starts_with("backward_")
            || f.name.ends_with("_backward");
        if !is_backward
            || !f.is_pub
            || f.body.is_empty()
            || fa.is_test_line(f.line)
            || f.allowed.iter().any(|a| a == "FW003")
        {
            continue;
        }
        match &f.owner {
            Some(ty) => {
                if find_token(site_text, ty).is_none() {
                    out.push(Violation {
                        lint: "FW003".to_string(),
                        file: fa.rel.clone(),
                        line: f.line,
                        message: format!(
                            "`{ty}::{}` has no gradient-check site (no file with {} mentions `{ty}`)",
                            f.name,
                            GRADCHECK_MARKERS.join("/"),
                        ),
                    });
                }
            }
            None => out.push(Violation {
                lint: "FW003".to_string(),
                file: fa.rel.clone(),
                line: f.line,
                message: format!(
                    "free fn `{}` looks like a backward pass; move it into an impl covered by a gradient check or annotate it",
                    f.name
                ),
            }),
        }
    }
}

/// FW004: raw buffer indexing without a shape assertion in the same fn.
fn lint_fw004(fa: &FileAnalysis, out: &mut Vec<Violation>) {
    for f in &fa.fns {
        if f.body.is_empty() || fa.is_test_line(f.line) || f.allowed.iter().any(|a| a == "FW004") {
            continue;
        }
        let indexes = ["as_slice()[", "as_mut_slice()["]
            .iter()
            .any(|p| f.body.contains(p));
        if indexes && !f.body.contains("assert") {
            out.push(Violation {
                lint: "FW004".to_string(),
                file: fa.rel.clone(),
                line: f.line,
                message: format!(
                    "fn `{}` indexes a raw Matrix buffer without any assertion in scope",
                    f.name
                ),
            });
        }
    }
}

/// True when `name` is in FW008's audited surface: one of
/// [`FW008_ENTRY_PREFIXES`], alone or extended with `_…`.
fn is_fw008_entry(name: &str) -> bool {
    FW008_ENTRY_PREFIXES.iter().any(|p| {
        name == *p
            || name
                .strip_prefix(p)
                .map(|r| r.starts_with('_'))
                .unwrap_or(false)
    })
}

/// FW008: obs coverage of the public training/inference/admin surface. A
/// public `fit*`/`forward*`/`backward*`/`query*` fn in core/nn/serve — or
/// a `handle*` admin endpoint in serve — passes when it, or any function
/// it can reach in the call graph, opens a span or feeds a counter;
/// otherwise the fn is invisible to the observability story.
fn lint_fw008(graph: &CallGraph, out: &mut Vec<Violation>) {
    for (i, node) in graph.nodes.iter().enumerate() {
        if !node.is_pub
            || node.in_test
            || node.body.is_empty()
            || !in_roots(&node.file, FW008_ROOTS)
            || !is_fw008_entry(&node.name)
            || node.allowed.iter().any(|a| a == "FW008")
        {
            continue;
        }
        if !graph.observable(i) {
            out.push(Violation {
                lint: "FW008".to_string(),
                file: node.file.clone(),
                line: node.line,
                message: format!(
                    "public fn `{}{}` opens no span and feeds no counter (directly or via \
                     callees); instrument it or add `audit:allow(FW008): reason`",
                    node.owner
                        .as_deref()
                        .map(|o| format!("{o}::"))
                        .unwrap_or_default(),
                    node.name
                ),
            });
        }
    }
}
