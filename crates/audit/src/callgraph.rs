//! Workspace-wide call graph over the extracted function items.
//!
//! Every `fn` item becomes a [`FnNode`] keyed `crate::module::fn` (with the
//! owning `impl` type inserted for methods: `tensor::matmul::Matrix::zeros`
//! style keys). Call sites are recovered from the token stream of each
//! masked function body:
//!
//! * `name(` with a preceding `.`  → method call, resolved to every fn of
//!   that name defined inside an `impl` block anywhere in the workspace;
//! * `Qual::name(`                 → associated/path call, resolved against
//!   the qualifier (the `impl` type, or the module/crate tail for free
//!   fns — `fairwos_graph::x` and `graph::x` both match `crates/graph`);
//! * `name(`                      → free-fn call, resolved to every free
//!   fn of that name.
//!
//! Resolution is name-based and deliberately *over*-approximates (no type
//! inference): a call gets an edge to every function of its name, the one
//! it reaches at run time and any namesakes. FW008 walks the graph to
//! decide whether a public entry point reaches a span or counter, so a
//! namesake that opens one can let an unobserved function pass. Macro
//! invocations (`foo!(..)`) are not calls and are skipped; turbofish
//! (`name::<T>(`) is handled.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Token, TokenKind};
use crate::parse::FileAnalysis;

/// Rust keywords that can directly precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "else", "in", "as", "move", "fn", "let",
    "mut", "ref", "box", "await", "yield", "dyn", "impl", "where", "pub", "use", "unsafe",
];

/// An unresolved call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallTarget {
    /// `name(...)` — a free function.
    Free(String),
    /// `.name(...)` — a method on some receiver.
    Method(String),
    /// `Qual::name(...)` — an associated fn or a module-qualified free fn.
    Qualified(String, String),
}

/// One call site: the syntactic target plus its absolute source line.
#[derive(Debug, Clone)]
pub struct Call {
    /// What is being called.
    pub target: CallTarget,
    /// 1-based line in the containing file.
    pub line: usize,
}

/// One function in the workspace call graph.
#[derive(Debug)]
pub struct FnNode {
    /// Stable key: `crate::module[::Type]::name`.
    pub key: String,
    /// Function name.
    pub name: String,
    /// Owning `impl` type, if a method/associated fn.
    pub owner: Option<String>,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// `pub` visibility.
    pub is_pub: bool,
    /// Whether the item sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// Masked body text.
    pub body: String,
    /// Module path derived from the file location, e.g. `graph::csr`.
    pub module: String,
    /// Lints suppressed at the item.
    pub allowed: Vec<String>,
    /// Call sites extracted from the body.
    pub calls: Vec<Call>,
    /// Body opens an obs span (`span(` / `span!(`).
    pub opens_span: bool,
    /// Body feeds an obs counter (`counter_add(`).
    pub adds_counter: bool,
}

/// The resolved workspace call graph.
pub struct CallGraph {
    /// All function nodes, in file order.
    pub nodes: Vec<FnNode>,
    /// Resolved adjacency: `edges[i]` are indices callable from node `i`.
    pub edges: Vec<Vec<usize>>,
}

/// Derives the `crate::module` path from a workspace-relative file path,
/// e.g. `crates/graph/src/csr.rs` → `graph::csr`, `crates/nn/src/lib.rs`
/// → `nn`.
pub fn module_path(rel: &str) -> String {
    let mut parts: Vec<&str> = rel.split('/').collect();
    // crates / <crate> / src / <mods...> / <file>.rs
    if parts.len() < 4 || parts[0] != "crates" {
        return rel.trim_end_matches(".rs").replace('/', "::");
    }
    let krate = parts[1];
    parts.drain(..3);
    let mut path = vec![krate];
    for (i, p) in parts.iter().enumerate() {
        let last = i + 1 == parts.len();
        let seg = if last { p.trim_end_matches(".rs") } else { p };
        if last && (seg == "lib" || seg == "mod" || seg == "main") {
            continue;
        }
        path.push(seg);
    }
    path.join("::")
}

/// Extracts call sites from a masked fn body. `base_line` is the absolute
/// line of the body's first line, used to convert token lines to file lines.
pub fn extract_calls(body: &str, base_line: usize) -> Vec<Call> {
    let toks = lex(body);
    let mut calls = Vec::new();
    let n = toks.len();
    for i in 0..n {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        // What follows: `(` directly, or `::<..>(` turbofish.
        let mut j = i + 1;
        if j + 1 < n && toks[j].text == "::" && toks[j + 1].text == "<" {
            // Skip the turbofish generic list.
            let mut depth = 0i64;
            j += 1;
            while j < n {
                match toks[j].text.as_str() {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if !(j < n && toks[j].kind == TokenKind::Punct && toks[j].text == "(") {
            continue;
        }
        // `foo!(` is a macro, not a call.
        if i + 1 < n && toks[i + 1].text == "!" {
            continue;
        }
        let line = base_line + t.line - 1;
        let prev = i.checked_sub(1).map(|k| &toks[k]);
        match prev {
            Some(p) if p.text == "." => {
                calls.push(Call {
                    target: CallTarget::Method(t.text.clone()),
                    line,
                });
            }
            Some(p) if p.text == "::" => {
                // Walk back the path: `a::b::name(` — the qualifier is the
                // segment directly before the final `::`.
                if let Some(q) = i.checked_sub(2).map(|k| &toks[k]) {
                    if q.kind == TokenKind::Ident {
                        calls.push(Call {
                            target: CallTarget::Qualified(q.text.clone(), t.text.clone()),
                            line,
                        });
                        continue;
                    }
                }
                calls.push(Call {
                    target: CallTarget::Free(t.text.clone()),
                    line,
                });
            }
            Some(p) if p.text == "fn" => {} // a definition, not a call
            _ => calls.push(Call {
                target: CallTarget::Free(t.text.clone()),
                line,
            }),
        }
    }
    calls
}

/// True when token stream `toks` marks the body as opening an obs span.
fn body_opens_span(toks: &[Token]) -> bool {
    toks.windows(2)
        .any(|w| w[0].text == "span" && (w[1].text == "(" || w[1].text == "!"))
}

impl CallGraph {
    /// Builds the graph over every analyzed file.
    pub fn build(files: &[FileAnalysis]) -> CallGraph {
        let mut nodes = Vec::new();
        for fa in files {
            let module = module_path(&fa.rel);
            for f in &fa.fns {
                let toks = lex(&f.body);
                let key = match &f.owner {
                    Some(o) => format!("{module}::{o}::{}", f.name),
                    None => format!("{module}::{}", f.name),
                };
                nodes.push(FnNode {
                    key,
                    name: f.name.clone(),
                    owner: f.owner.clone(),
                    file: fa.rel.clone(),
                    line: f.line,
                    is_pub: f.is_pub,
                    in_test: fa.is_test_line(f.line),
                    body: f.body.clone(),
                    module: module.clone(),
                    allowed: f.allowed.clone(),
                    calls: extract_calls(&f.body, f.body_line),
                    opens_span: body_opens_span(&toks),
                    adds_counter: toks
                        .windows(2)
                        .any(|w| w[0].text == "counter_add" && w[1].text == "("),
                });
            }
        }

        // Name-based indices for resolution.
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, node) in nodes.iter().enumerate() {
            if node.in_test {
                continue;
            }
            match node.owner {
                Some(_) => methods.entry(&node.name).or_default().push(i),
                None => free.entry(&node.name).or_default().push(i),
            }
        }

        let mut edges = vec![Vec::new(); nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            let mut targets = BTreeSet::new();
            for call in &node.calls {
                match &call.target {
                    CallTarget::Method(name) => {
                        if let Some(ids) = methods.get(name.as_str()) {
                            targets.extend(ids.iter().copied());
                        }
                    }
                    CallTarget::Free(name) => {
                        if let Some(ids) = free.get(name.as_str()) {
                            targets.extend(ids.iter().copied());
                        }
                    }
                    CallTarget::Qualified(qual, name) => {
                        let qual_tail = qual.strip_prefix("fairwos_").unwrap_or(qual);
                        // `Self::x(..)` resolves against the caller's impl.
                        let owner_name = if qual == "Self" {
                            node.owner.clone().unwrap_or_else(|| qual.clone())
                        } else {
                            qual.clone()
                        };
                        if let Some(ids) = methods.get(name.as_str()) {
                            targets.extend(ids.iter().copied().filter(|&t| {
                                nodes[t].owner.as_deref() == Some(owner_name.as_str())
                            }));
                        }
                        if let Some(ids) = free.get(name.as_str()) {
                            targets.extend(ids.iter().copied().filter(|&t| {
                                let m = &nodes[t].module;
                                m == qual_tail
                                    || m.ends_with(&format!("::{qual_tail}"))
                                    || m.split("::").next() == Some(qual_tail)
                                    || qual == "self" // `self::helper(..)`
                                    || qual == "crate"
                            }));
                        }
                    }
                }
            }
            targets.remove(&i);
            edges[i] = targets.into_iter().collect();
        }
        CallGraph { nodes, edges }
    }

    /// True when `node` (or any function transitively reachable from it)
    /// opens an obs span or feeds an obs counter.
    pub fn observable(&self, node: usize) -> bool {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![node];
        seen[node] = true;
        while let Some(u) = stack.pop() {
            if self.nodes[u].opens_span || self.nodes[u].adds_counter {
                return true;
            }
            for &v in &self.edges[u] {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::analyze_file;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let analyses: Vec<FileAnalysis> = files
            .iter()
            .map(|(rel, src)| analyze_file(rel, src))
            .collect();
        CallGraph::build(&analyses)
    }

    /// Index of the node named `name`.
    fn node(g: &CallGraph, name: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.name == name)
            .expect("node exists")
    }

    #[test]
    fn module_paths() {
        assert_eq!(module_path("crates/graph/src/csr.rs"), "graph::csr");
        assert_eq!(module_path("crates/nn/src/lib.rs"), "nn");
        assert_eq!(module_path("crates/core/src/sub/mod.rs"), "core::sub");
    }

    #[test]
    fn free_and_method_calls_resolve() {
        let g = graph_of(&[(
            "crates/demo/src/lib.rs",
            "pub fn entry() { helper(); S::assoc(); }\n\
             fn helper() {}\n\
             pub struct S;\n\
             impl S { pub fn assoc() {} }\n",
        )]);
        let entry = &g.edges[node(&g, "entry")];
        assert!(entry.contains(&node(&g, "helper")));
        assert!(entry.contains(&node(&g, "assoc")));
    }

    #[test]
    fn cross_crate_qualified_calls_resolve() {
        let g = graph_of(&[
            (
                "crates/core/src/trainer.rs",
                "pub fn fit() { fairwos_graph::normalize(); }\n",
            ),
            ("crates/graph/src/lib.rs", "pub fn normalize() {}\n"),
        ]);
        assert_eq!(g.edges[node(&g, "fit")], vec![node(&g, "normalize")]);
    }

    #[test]
    fn macros_are_not_calls() {
        let calls = extract_calls("{ vec![1]; println!(\"x\"); real(); }", 1);
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].target, CallTarget::Free("real".into()));
    }

    #[test]
    fn turbofish_is_a_call() {
        let calls = extract_calls("{ parse::<u32>(s); }", 1);
        assert!(calls
            .iter()
            .any(|c| c.target == CallTarget::Free("parse".into())));
    }

    #[test]
    fn observability_is_transitive() {
        let g = graph_of(&[(
            "crates/nn/src/lib.rs",
            "pub fn forward() { kernel(); }\n\
             fn kernel() { fairwos_obs::counter_add(\"k\", 1); }\n\
             pub fn forward_dark() { plain(); }\n\
             fn plain() {}\n",
        )]);
        assert!(g.observable(node(&g, "forward")));
        assert!(!g.observable(node(&g, "forward_dark")));
    }
}
