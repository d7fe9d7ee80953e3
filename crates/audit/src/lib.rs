//! `fairwos-audit`: the workspace's self-auditing subsystem.
//!
//! Two subcommands (see `src/main.rs`):
//!
//! * `lint` — walks every `crates/*/src` tree, lexes each file into a
//!   spanned token stream, extracts function items, builds a
//!   workspace-wide call graph, and enforces the gradient-check, shape and
//!   observability contracts (FW003, FW004, FW008) described in
//!   `docs/AUDIT.md`, which need that workspace-wide view or have no clippy
//!   equivalent. The panic-hygiene, clock, container and cast rules (FW001,
//!   FW002, FW005, FW006, FW010) are clippy lints configured in the
//!   workspace. Emits a JSON report and a nonzero exit code on any finding.
//!   The lint engine is pure `std` so it can be compiled and run in
//!   isolation.
//! * `gradients` — re-derives every layer's gradient by central finite
//!   differences (GCN/GIN/SAGE/GAT backbones, the MLP path, the losses and
//!   the encoder head) and writes a per-parameter error report, failing when
//!   any coordinate flunks both the absolute and the relative tolerance.
//!
//! Both are wired into `scripts/ci.sh`. Each module documents itself; the
//! links in those docs resolve in the module's own scope.

#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod callgraph;
pub mod gradients;
pub mod lexer;
/// The FW lints over the workspace source tree.
pub mod lints;
pub mod parse;
