//! `fairwos-audit`: the workspace's self-auditing subsystem.
//!
//! Two subcommands (see `src/main.rs`):
//!
//! * `lint` — walks every `crates/*/src` tree, lexes each file into a
//!   spanned token stream, extracts function items, builds a
//!   workspace-wide call graph, and enforces the numerics, panic-hygiene,
//!   determinism and observability contracts (FW001–FW006, FW008–FW010)
//!   described in `docs/AUDIT.md`. Emits a JSON report and a nonzero exit
//!   code on any finding. The lint engine is pure `std` so it can be
//!   compiled and run in isolation.
//! * `gradients` — re-derives every layer's gradient by central finite
//!   differences (GCN/GIN/SAGE/GAT backbones, the MLP path, the losses and
//!   the encoder head) and writes a per-parameter error report, failing when
//!   any coordinate flunks both the absolute and the relative tolerance.
//!
//! Both are wired into `scripts/ci.sh`. Each module documents itself; the
//! links in those docs resolve in the module's own scope.

pub mod callgraph;
pub mod gradients;
pub mod lexer;
/// The FW lints over the workspace source tree.
pub mod lints;
pub mod parse;
