#!/usr/bin/env bash
# CI gate: build, test, ledger build + test, repo lint, clippy, rustdoc, model
# check, smokes, format — all must pass.
#
#   ./scripts/ci.sh          # full gate
#   SKIP_SLOW=1 ./scripts/ci.sh   # skip the (slow) workspace test suite
#                                 # and shrink the model-check budget
#
# Runs entirely offline: external deps resolve to vendor/ path crates.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

if [ "${SKIP_SLOW:-0}" != "1" ]; then
  echo "==> cargo test -q"
  cargo test -q --workspace
fi

echo "==> ledger (the BENCHMARK.json package builds and passes its own tests)"
# The ledger is a workspace of its own that imports the crates' public
# API; an API deletion that breaks the benchmark must fail here, before
# the pipeline that runs it does.
cargo build --release --offline --manifest-path ledger/Cargo.toml
cargo test --release --offline --manifest-path ledger/Cargo.toml
# One short traced run of the decoder-bypassed workload: the ledger
# replays `infer_cached` stage by stage through public calls and checks
# its own outputs (hit share 1, decoder share of a hit <= 2 %, stages
# covering the operation), so a crate change that breaks the replay
# exits non-zero here. Output checks, not timings, decide the exit code.
cargo run --release --offline --quiet --manifest-path ledger/Cargo.toml -- --workload net_hit --seed 1 --seconds 2 --trace 1
# And of the decoder-bound one, whose checks are the other side of the
# same replay: hit share 0, `FrozenDecoder::forward` at least 0.8 of a
# miss, at most 0.1 of the operation unattributed.
cargo run --release --offline --quiet --manifest-path ledger/Cargo.toml -- --workload net_miss --seed 1 --seconds 2 --trace 1
# And the paper's path, LR solve → inference → warm solve on the seven
# Table 1 cases, with the solver sweeping on every core. The traced run
# replays each case and checks that `cfd` is at least 0.85 of the
# operation and that the stages cover it. The untraced run makes two
# passes in 4 s, so the ledger's repeat-and-finite check holds every
# case's iteration counts and active cells to the first pass's.
cargo run --release --offline --quiet --manifest-path ledger/Cargo.toml -- --workload ttc_capped --seed 1 --seconds 4 --trace 1
cargo run --release --offline --quiet --manifest-path ledger/Cargo.toml -- --workload ttc_capped --seed 1 --seconds 4 --trace 0

echo "==> repo lint (crates/check)"
cargo run --release -q -p check --bin lint

# Right after the repo lint: clippy enforces the panic-free and
# print-free library policies and justified `unsafe` (every library
# root denies the restriction lints; waived sites carry #[expect]), so
# a violation fails here, before the slow stages.
echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc -D warnings"
# Every intra-doc link must resolve, and no public doc may link a
# private item, so a deletion that leaves a link dangling fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> concurrency model check (crates/check)"
# One explorer: a depth-first walk executes every interleaving of each
# exhaustive space once, and seeded-random sampling covers the spaces
# too large to enumerate; every schedule is also replayed through the
# race and lock-order checks. The full budget requires >= 10,000
# interleavings. The checker's own tests run first at both budgets, so
# the seeded-bug tests (proof the explorer can still fail) run under
# SKIP_SLOW=1 too, where the workspace test stage is skipped.
cargo test --release -q -p check
if [ "${SKIP_SLOW:-0}" != "1" ]; then
  cargo run --release -q -p check --bin model-check -- --budget full
else
  cargo run --release -q -p check --bin model-check -- --budget small
fi

echo "==> bench-smoke (kernel regression + backend gates)"
if [ "${SKIP_SLOW:-0}" != "1" ]; then
  # Tiny measurement budget, both backends; fails if any (shape,
  # backend) row's packed path runs >1.5x slower than the committed
  # BENCH_kernels.json baseline, or (--gate-simd, on AVX2/FMA hosts)
  # if the SIMD plane's bin-3 packed GEMM fails to reach 1.5x scalar in
  # the same run.
  cargo run --release -q -p adarnet-bench --bin kernels -- --smoke --gate-simd --check-against BENCH_kernels.json
else
  echo "    skipped (SKIP_SLOW=1): timing gate is meaningless on a loaded machine"
fi
# The ablations bin has one setting (21 samples a row, about two
# seconds in all); running it keeps its code compiled and executed by
# the gate. Its timings gate nothing.
cargo run --release -q -p adarnet-bench --bin ablations

echo "==> serve smoke (the closed-loop generator, in process)"
# One request per client through every phase of the serve bin (batched
# and unbatched at 1/8/32 clients, then the saturation burst): the
# in-process half of the one load generator, whose TCP half the net
# smoke below runs. Timings gate nothing.
ADARNET_SERVE_REQUESTS=1 ADARNET_SERVE_OUT=target/ci-serve.json cargo run --release -q -p adarnet-serve --bin serve

echo "==> net smoke (loopback TCP end-to-end)"
if [ "${SKIP_SLOW:-0}" != "1" ]; then
  # Full mixed load through the loadgen over TCP: every lane answered,
  # typed errors on garbage, connection closed on CRC corruption.
  cargo run --release -q -p adarnet-net --bin net-serve -- smoke
else
  # One request per interactive connection keeps the smoke sub-second.
  ADARNET_NET_REQUESTS=1 cargo run --release -q -p adarnet-net --bin net-serve -- smoke
fi

echo "==> admin endpoint smoke (/metrics, /traces, /health over TCP)"
if [ "${SKIP_SLOW:-0}" != "1" ]; then
  # Drives mixed load with the admin listener up, then asserts the
  # introspection endpoint answers /health, serves /metrics text that
  # round-trips the exposition parser (with a max-latency exemplar),
  # and retains the loadgen's slowest trace as a complete span tree
  # in /traces.
  cargo run --release -q -p adarnet-net --bin net-serve -- admin-smoke
else
  ADARNET_NET_REQUESTS=1 cargo run --release -q -p adarnet-net --bin net-serve -- admin-smoke
fi

echo "==> obs overhead gate"
if [ "${SKIP_SLOW:-0}" != "1" ]; then
  # Fails if instrumented infer_batch runs >3% slower than with the
  # obs layer disabled (ADARNET_OBS_GATE_PCT overrides the budget).
  cargo run --release -q -p adarnet-bench --bin obs_overhead -- --gate
else
  cargo run --release -q -p adarnet-bench --bin obs_overhead -- --smoke --gate
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "CI gate passed."
