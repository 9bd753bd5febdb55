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

  echo "==> zero-alloc tests, ten runs each in release"
  # A frozen stack splits its batches' items over idle cores, so the
  # lanes' order of pool takes differs run to run. A pool footprint that
  # depended on it would fail only some runs, and one pass would miss
  # it.
  for run in $(seq 10); do
    echo "    run $run"
    cargo test --release -q -p adarnet-core --test zero_alloc
    cargo test --release -q -p adarnet-serve --test zero_alloc
  done

  echo "==> gradient golden hashes in release"
  # The workspace pass above is a debug build. Training and the ledger
  # run release, where the SIMD weight-gradient kernels are the
  # `#[target_feature]` code they compile to, so the dW/db/dX hashes
  # are checked in that profile too.
  cargo test --release -q -p adarnet-nn --test golden_grad

  echo "==> solver golden hashes in release"
  # The same for the solver: release codegen decides the sweep's row
  # passes' instructions and how `powi` lowers, and the ledger's solves
  # run release.
  cargo test --release -q -p adarnet-cfd --test golden_solver --test golden_paths

  echo "==> frozen-stack lane tests in release"
  # The same holds for inference: a split's bits are checked against
  # one lane on both backends, and in release the SIMD tiles are the
  # `#[target_feature]` code serving runs.
  cargo test --release -q -p adarnet-nn --lib model::tests
  cargo test --release -q -p adarnet-nn --test lanes
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
# too large to enumerate; a schedule also fails if any step takes a
# sync guard while holding another. The full budget requires >= 10,000
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

echo "==> cli smoke (the README's four adarnet commands, at tiny scale)"
# Train, predict, run-case and info, as README quotes them, on a
# 16x64 field with one epoch (~2 s in all); outputs go under target/.
# Then bad input: a truncated checkpoint, one with its last decoder
# tensor dropped, and a one-sample-per-family train must each end in a
# clean `error: ...` and exit 1, never a panic (exit 101).
ADARNET=target/release/adarnet
MODEL=target/ci-model.json
"$ADARNET" train --out "$MODEL" --per-family 2 --epochs 1 --height 16 --width 64
"$ADARNET" predict --model "$MODEL" --case cylinder
"$ADARNET" run-case --model "$MODEL" --case channel --re 2.5e3 --length 1.0 --max-iters 50
"$ADARNET" info --model "$MODEL"
# fails_cleanly BIN WANT ARGS...: BIN ARGS must exit 1 and print a
# line starting `error: WANT`.
fails_cleanly() {
  local bin=$1 want=$2 out status=0
  shift 2
  out=$("$bin" "$@" 2>&1) || status=$?
  if [ "$status" != 1 ] || ! grep -q "^error: $want" <<<"$out"; then
    echo "$(basename "$bin") $*: expected exit 1 with 'error: $want', got exit $status:"
    echo "$out"
    exit 1
  fi
}
head -c 4096 "$MODEL" > target/ci-model-truncated.json
fails_cleanly "$ADARNET" "loading" info --model target/ci-model-truncated.json
# The compact JSON ends with the decoder array; drop its last tensor.
sed -E 's/,\{"shape":\[[0-9,]*\],"data":\[[^]]*\]\}\]\}$/]}/' "$MODEL" > target/ci-model-dropped.json
if cmp -s "$MODEL" target/ci-model-dropped.json; then
  echo "cli smoke: dropping a decoder tensor left the checkpoint unchanged"
  exit 1
fi
fails_cleanly "$ADARNET" "loading" info --model target/ci-model-dropped.json
fails_cleanly "$ADARNET" "--per-family 1" train --out target/ci-model-unused.json --per-family 1

echo "==> examples (each of the six runs to exit 0)"
if [ "${SKIP_SLOW:-0}" != "1" ]; then
  # The examples build, train and run the model end to end, as README
  # quotes them; train_small runs one epoch. About 2.5 min in all on a
  # two-core host. Stdout goes to target/ci-example-*.txt; a panic or a
  # non-zero exit fails the gate, and their numbers gate nothing.
  for ex in quickstart channel_flow cylinder_amr airfoil_sweep solver_data; do
    cargo run --release -q --example "$ex" > "target/ci-example-$ex.txt"
  done
  cargo run --release -q --example train_small 1 > target/ci-example-train_small.txt
else
  echo "    skipped (SKIP_SLOW=1): the six examples take minutes"
fi

echo "==> serve smoke (the closed-loop generator, in process)"
# The README's "Observing a running server" command drives the
# in-process half of the one load generator, whose TCP half the net
# smoke below runs: exits 1 unless its exposition text round-trips the
# parser and carries engine_weight_bytes. The text itself goes to a
# file (a pipe into head would kill the bin mid-run). Timings gate
# nothing.
cargo run --release -q -p adarnet-serve --bin serve stats > target/ci-serve-stats.txt
# `stats` is the bin's one command: anything else is a usage error.
status=0
target/release/serve > target/ci-serve-bare.txt 2>&1 || status=$?
if [ "$status" != 2 ]; then
  echo "serve with no command: expected usage and exit 2, got exit $status"
  cat target/ci-serve-bare.txt
  exit 1
fi

echo "==> net smoke (loopback TCP end-to-end)"
if [ "${SKIP_SLOW:-0}" != "1" ]; then
  # Full mixed load through the loadgen over TCP: every lane answered,
  # typed errors on garbage, connection closed on CRC corruption.
  cargo run --release -q -p adarnet-net --bin net-serve -- smoke
else
  # One request per interactive connection keeps the smoke sub-second.
  ADARNET_NET_REQUESTS=1 cargo run --release -q -p adarnet-net --bin net-serve -- smoke
fi

echo "==> admin endpoint smoke (/metrics, /traces, /health over TCP; trace-dump)"
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
# The README's "Tracing a slow request" command, in process: a small
# load rendered through the /traces renderer; exits 1 unless one
# complete tree holds both serve_infer and stage_decoder.
cargo run --release -q -p adarnet-net --bin net-serve -- trace-dump
# Operator input: an address that does not parse or bind, or an admin
# endpoint with nothing listening, ends in `error: ...` and exit 1,
# never a panic (exit 101).
NET_SERVE=target/release/net-serve
fails_cleanly "$NET_SERVE" "admin address" trace-dump not-an-addr
fails_cleanly "$NET_SERVE" "connect to" trace-dump 127.0.0.1:1
fails_cleanly "$NET_SERVE" "listen on" serve not-an-addr

echo "==> obs overhead gate"
if [ "${SKIP_SLOW:-0}" != "1" ]; then
  # Fails if instrumented inference (InferenceEngine::infer over a
  # batch of fields) runs >3% slower than with the obs layer disabled.
  cargo run --release -q -p adarnet-bench --bin obs_overhead -- --gate
else
  cargo run --release -q -p adarnet-bench --bin obs_overhead -- --smoke --gate
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "CI gate passed."
