# Developer entry points. `just verify` is the tier-1 gate every PR must
# keep green; CI (.github/workflows/ci.yml) runs the same steps.

# Tier-1 verification: release build + full test suite.
verify:
    cargo build --release
    cargo test -q

# Everything CI runs, in CI order; every step blocks.
ci: fmt-check lint doc-check verify test-scalar cache-hit pool-test conv-threads crate-graph bench-check perfbench-smoke bench-smoke serve-smoke serve-chaos robustness-smoke serve-lifecycle obs-smoke

# Crate-graph guard (blocking): the server loads models through
# `t2fsnn::scenario` and must not depend on the reproduction harness.
crate-graph:
    tree="$(cargo tree --offline -p t2fsnn-serve -e normal,dev)" && if printf '%s\n' "$tree" | grep -q t2fsnn-bench; then echo "error: t2fsnn-serve depends on t2fsnn-bench" >&2; exit 1; fi

# Serve smoke (blocking): spawn the server on an ephemeral port, drive
# a concurrent closed-loop burst, and assert the correctness gates —
# ≥99% 2xx, micro-batches beyond size 1 observed, solo-vs-batched
# responses bit-identical, clean ctrl-channel shutdown (exit 0). Timing
# output is informational (never asserted).
serve-smoke:
    cargo build --release -p t2fsnn-serve
    timeout 600 cargo run --release -p t2fsnn-serve --bin serve_load -- smoke

# Chaos smoke (blocking): spawn the server with the fixed-seed fault
# spec, drive a mixed valid/malformed/doomed closed loop, and assert
# the robustness invariants — every accepted request answered, doomed
# (deadline 0) requests 504, malformed 400, panics isolated to their
# batch (no batcher respawn), successful responses bit-identical to a
# solo run, fault counters visible in /metrics, clean shutdown.
serve-chaos:
    cargo build --release -p t2fsnn-serve
    timeout 600 cargo run --release -p t2fsnn-serve --bin serve_load -- chaos

# Robustness smoke (blocking): the perturbation determinism gates on
# both paths. `repro_robustness` (quick grid) asserts severity-0 runs
# are bit-identical to the clean baseline and perturbed inference is
# batch/worker-invariant, then `serve_load perturb` sweeps a scaled
# spec through the serving path (event/weight families via
# T2FSNN_SERVE_PERTURB, input families client-side) asserting the same
# identity gates plus healthz and the perturbation-footprint metrics.
robustness-smoke:
    cargo build --release -p t2fsnn-serve
    timeout 600 env T2FSNN_QUICK=1 cargo run --release -p t2fsnn-bench --bin repro_robustness
    timeout 600 env T2FSNN_QUICK=1 cargo run --release -p t2fsnn-serve --bin serve_load -- perturb

# Lifecycle smoke (blocking): the hot model-lifecycle gates. Four
# phases, each against its own spawned server — clean load / reload /
# unload / re-load under traffic (zero transport failures, every 200
# bit-identical to its model's solo reference, the echoed `version`
# proving admission-time pinning), the per-model admission quota (429 +
# labeled counter), an injected `canary_fail` reload rejection (the
# poisoned candidate never serves; the incumbent answers v1 bit-exact),
# and an injected `model_panic` burst tripping the per-model quarantine
# (500 → trip → 503 → seeded canary probe → readmit → bit-exact 200).
serve-lifecycle:
    cargo build --release -p t2fsnn-serve
    timeout 900 env T2FSNN_QUICK=1 cargo run --release -p t2fsnn-serve --bin serve_load -- churn

# Observability smoke (blocking): the read-only contract of the tracing
# subsystem, end to end. Part A runs repro_fig6 (quick) with
# T2FSNN_TRACE pointed at a scratch file and validates the exported
# flight-recorder JSON (well-formed Chrome trace events, ttfs/* engine
# phase spans, parent/child links). Part B drives two servers — tracing
# + structured logging off and on — with identical request streams,
# asserting per-image responses bit-identical across the
# halves, a `timing: true` request's trace id queryable via
# /debug/trace, and /debug/slow live; the tracing-cost budget (3%) is
# an in-process A/B of solo `tiny` `infer` with the flight recorder on
# vs off, interleaved blocks, medians compared.
obs-smoke:
    cargo build --release -p t2fsnn-serve
    cargo build --release -p t2fsnn-bench --bin repro_fig6
    timeout 900 cargo run --release -p t2fsnn-serve --bin serve_load -- obs

# Overload demo: drive ≥2x the measured full-window capacity with a
# per-request deadline and assert the degradation ladder holds p99 of
# answered requests under the deadline.
serve-overload:
    cargo build --release -p t2fsnn-serve
    timeout 900 cargo run --release -p t2fsnn-serve --bin serve_load -- overload

# Cache-hit guard (blocking): a cache checksum that disagrees with the
# writer's is no error, only a miss and a silent retrain. Write the
# quick `tiny` cache, then load it with SIMD on and off (the CRC-32's
# carry-less-multiply fold and its table twin); a load that trains fails.
cache-hit:
    cargo build --release -p t2fsnn-bench --bin t2fsnn_cli
    T2FSNN_QUICK=1 cargo run -q --release -p t2fsnn-bench --bin t2fsnn_cli -- train --scenario tiny > /dev/null
    for simd in 1 0; do out="$(T2FSNN_QUICK=1 T2FSNN_SIMD=$simd cargo run -q --release -p t2fsnn-bench --bin t2fsnn_cli -- train --scenario tiny 2>&1)" || { printf '%s\n' "$out" >&2; exit 1; }; if printf '%s\n' "$out" | grep -q '\[prepare\] training'; then echo "error: T2FSNN_SIMD=$simd missed the tiny cache and retrained" >&2; exit 1; fi; done

# Thread-pool shutdown/deadlock net under a single-threaded harness.
pool-test:
    RUST_TEST_THREADS=1 cargo test -p t2fsnn-tensor parallel

# The conv and step-loop tests on three workers: the global pool then
# splits a batch into ranges that do not divide the small-plane image
# groups, and `run`/`infer` and the rate/phase/burst baselines (which
# share the TTFS segment walk) into uneven chunks.
conv-threads:
    T2FSNN_THREADS=3 cargo test -p t2fsnn-tensor conv
    T2FSNN_THREADS=3 cargo test -p t2fsnn -- infer::tests pipeline::tests
    T2FSNN_THREADS=3 cargo test -p t2fsnn-snn -- sim::tests
    T2FSNN_THREADS=3 cargo test -p t2fsnn --test baseline_digests

# The full suite on the scalar SIMD fallback: without this leg the
# baseline build of the plain-loop kernels and the scalar twins of the
# hand-written ones only ever execute on pre-2013 (non-AVX2) hardware.
test-scalar:
    T2FSNN_SIMD=0 cargo test -q --workspace

# Run the online-inference server (T2FSNN_SERVE_* env knobs; graceful
# shutdown via `curl -X POST localhost:7878/admin/shutdown`).
serve:
    cargo run --release -p t2fsnn-serve --bin t2fsnn_serve

# Formatting gate.
fmt-check:
    cargo fmt --check

# Apply formatting.
fmt:
    cargo fmt

# Lint gate (no outstanding warnings are tolerated).
lint:
    cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc gate: dangling or private doc links fail (clippy does not see
# them). The eight project crates only, not the shims.
doc-check:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -p t2fsnn-workspace -p t2fsnn-tensor -p t2fsnn-data -p t2fsnn-dnn -p t2fsnn-snn -p t2fsnn -p t2fsnn-bench -p t2fsnn-serve

# Full workspace test run (unit + integration + property + doc).
test:
    cargo test -q --workspace

# Compile the four Criterion bench targets without running them.
bench-check: perfbench-build
    cargo bench --no-run

# Build the repository benchmark (its own workspace, calling the public
# APIs of t2fsnn-snn, t2fsnn and t2fsnn-serve): an API change that
# breaks it fails here.
perfbench-build:
    cargo build --release --offline --manifest-path perfbench/Cargo.toml

# The repository benchmark's own correctness checks (blocking): short
# serve-solo (`tiny`) and serve-pair (`cifar100-like`) runs exit 1 if a
# served answer differs from a solo in-process `infer`, and a short
# fig6-repro run exits 1 if a pass differs from the `SimEngine::Dense`
# reference.
perfbench-smoke: perfbench-build
    timeout 1200 cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload serve-solo --seed 1 --seconds 3 --trace 0
    timeout 1200 cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload serve-pair --seed 1 --seconds 3 --trace 0
    timeout 1200 cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload fig6-repro --seed 1 --seconds 3 --trace 0

# Bench smoke (blocking): two fast Criterion targets actually run, each
# under a hard timeout, so a hanging bench harness fails instead of
# idling. `gemm_core` runs the plain-loop GEMM cores in their AVX2
# context; timings are informational.
bench-smoke:
    timeout 300 cargo bench --bench kernel_lut
    timeout 300 cargo bench --bench gemm_core

# Run one repository-benchmark workload exactly as BENCHMARK.json's
# command does, e.g. `just perfbench serve-pair 3 0`.
perfbench workload seed trace seconds="25":
    cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload {{workload}} --seed {{seed}} --seconds {{seconds}} --trace {{trace}}

# Run the benches (the criterion shim prints mean/min/max wall-clock).
bench:
    cargo bench

# Run one paper-reproduction binary, e.g. `just repro table2`.
repro target:
    cargo run --release --bin repro_{{target}}

# Run all paper reproductions (results land in results/*.json).
repro-all:
    cargo run --release --bin repro_fig4
    cargo run --release --bin repro_fig5
    cargo run --release --bin repro_fig6
    cargo run --release --bin repro_table1
    cargo run --release --bin repro_table2
    cargo run --release --bin repro_table3
    cargo run --release --bin repro_ef_sweep
    cargo run --release --bin repro_tau_sweep
    cargo run --release --bin repro_robustness

# Run every example.
examples:
    cargo run -q --example quickstart
    cargo run -q --example ttfs_mechanics
    cargo run -q --example kernel_optimization
    cargo run -q --example coding_comparison
    cargo run -q --example energy_model

# Non-blank lines per crate under crates/*/src and shims/*/src, split
# into code and tests: the in-file `#[cfg(test)] mod tests` blocks (a
# test module runs from its `mod tests` line to the first `}` in column
# 0) plus the crate's `tests/` directory; the last row is the workspace
# `tests/`. Run it on the parent and on a change for the net line delta
# CHANGES.md records.
loc:
    for d in crates/*/ shims/*/; do ext=0; if [ -d "${d}tests" ]; then ext=$(find "${d}tests" -name '*.rs' -exec cat {} + | awk 'NF { n++ } END { print n + 0 }'); fi; find "${d}src" -name '*.rs' -exec cat {} + | awk -v crate="$(basename "$d")" -v ext="$ext" 'held { held = 0; if (/^mod tests/) { t = 1; test++ } else code++ } /^#\[cfg\(test\)\]$/ && !t { held = 1; next } NF { if (t) test++; else code++ } t && /^}$/ { t = 0 } END { printf "%-12s %7d code %7d tests\n", crate, code, test + ext }'; done; find tests -name '*.rs' -exec cat {} + | awk 'NF { n++ } END { printf "%-12s %7d code %7d tests\n", "tests/", 0, n }'
