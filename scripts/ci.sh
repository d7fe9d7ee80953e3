#!/usr/bin/env bash
# The full CI gate, runnable locally: the dependency ratchet, formatting,
# clippy with default and with all features (it owns the panic-hygiene,
# clock, container and cast rules FW001, FW002, FW005, FW006 and FW010),
# rustdoc without warnings, the offline release build and tests with an
# empty cargo home, the checked+obs instrumented tests, an obs-off
# build proving the pipeline crates compile without the instrumentation
# feature, the kill-and-resume crash-recovery smoke test, the chaos-armed
# build plus the exp_chaos fault-injection soak smoke, the fairwos-audit
# lints (FW003, FW004, FW008), the finite-difference gradient sweep,
# instrumented bench smoke runs that must produce
# results/bench_pipeline.json plus the trace/telemetry artifacts, a wall-time report against the newest
# committed BENCH file (exact work is gated by tests/work_counters.rs in
# the checked+obs test pass), and a last JSON codec pass over every
# results/*.json those steps wrote.
# Mirrors .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> dependency ratchet (no registry crate)"
bash scripts/check_deps.sh

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings; exceptions pinned in [workspace.lints])"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy --all-features (lints the feature-gated code too)"
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "==> cargo doc (deny rustdoc warnings: broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> offline release build and tests (empty CARGO_HOME, committed Cargo.lock)"
empty_cargo_home=$(mktemp -d)
CARGO_HOME=$empty_cargo_home cargo build --release --offline --locked
CARGO_HOME=$empty_cargo_home cargo test -q --offline --locked
rm -rf "$empty_cargo_home"

echo "==> cargo test (checked + obs instrumentation armed)"
cargo test --workspace --features fairwos/checked,fairwos/obs,fairwos-bench/obs -q

echo "==> kernel, counterfactual search and keystream bit-identity tests in release"
# Which instruction sets this runner has: the bit-identity tests skip the
# others.
cargo test -p fairwos-chaos --lib isa::tests::prints_the_supported_sets -- --nocapture
# The search's attribute lanes, the keystream's lane body, the dense tiles
# and the sparse panels vectorise only under optimisation.
cargo test --release -p fairwos-core --lib counterfactual::tests -q
cargo test --release -p fairwos-chaos --lib rng -q
cargo test --release -p fairwos-tensor --lib matmul -q
cargo test --release -p fairwos-graph --lib csr -q

echo "==> obs-off builds (pipeline crates must compile without the feature)"
cargo build -p fairwos-tensor -p fairwos-nn -p fairwos-core --no-default-features

echo "==> chaos-armed build + fairwos-chaos armed tests"
cargo build --workspace --features fairwos/chaos,fairwos-bench/chaos
cargo test -p fairwos-chaos --features enabled -q

echo "==> kill-and-resume crash recovery smoke test"
bash scripts/kill_and_resume.sh

echo "==> chaos soak smoke (results/chaos.json; 3 pinned seeds, replay identity)"
cargo run --release -p fairwos-bench --features chaos --bin exp_chaos -- --scale 0.3 --out results/chaos.json
test -s results/chaos.json

echo "==> instrumented bench smoke run (results/bench_pipeline.json)"
cargo run --release -p fairwos-bench --features obs --bin exp_table2 -- --scale 0.02 --runs 1
test -s results/bench_pipeline.json

echo "==> instrumented convergence trace (results/trace.json + telemetry.jsonl)"
cargo run --release -p fairwos-bench --features obs --bin exp_fig5_convergence -- --scale 0.3
test -s results/trace.json
test -s results/telemetry.jsonl

echo "==> trace/telemetry artifact validation"
cargo run --release -p fairwos-bench --bin trace_check

echo "==> mini-batch comparison artifact (results/minibatch.json)"
cargo run --release -p fairwos-bench --bin exp_minibatch -- --scale 0.3 --runs 1 --out results/minibatch.json
test -s results/minibatch.json

echo "==> serving throughput gate (results/serving.json, >=100k qps, 10 Hz admin scraper attached)"
cargo run --release -p fairwos-bench --features obs --bin exp_serving -- --scale 0.5 --out results/serving.json
test -s results/serving.json

echo "==> admin scrape smoke test (/metrics + /readyz over real TCP, exposition validated)"
cargo test -p fairwos --features obs --test admin_http -q

echo "==> wall-time report (perfbench against the newest BENCH_<n>.json)"
# Report only: the reference medians come from the host that writes the
# BENCH files; on any other host the verdict is unmeasured
# (docs/PERFORMANCE.md). Run the script alone for its exit status.
python3 scripts/bench_gate.py || echo "bench_gate: failed (report only, see docs/PERFORMANCE.md)"

echo "==> fairwos-audit lint (any finding fails; report in results/audit_lint.json)"
cargo run --release -p fairwos-audit -- lint

echo "==> fairwos-audit gradients"
cargo run --release -p fairwos-audit -- gradients

echo "==> JSON codec re-emit of every results/*.json, including the ones written above"
cargo test -q --offline --test json_codec

echo "CI gate passed."
