#!/usr/bin/env bash
# Regenerate every artifact: tests, then the per-table/per-figure
# harnesses and the ablations. Quick scale by default;
# ADARNET_BENCH_SCALE=full for the paper-shaped configuration.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== building =="
cargo build --workspace --release

echo "== tests =="
cargo test --workspace --release 2>&1 | tee test_output.txt

echo "== table/figure harnesses ==" | tee bench_output.txt
for b in fig1 fig7 fig9 table1 table2 fig10 fig11 ablations; do
    echo "===== HARNESS $b =====" | tee -a bench_output.txt
    ./target/release/$b 2>&1 | tee -a bench_output.txt
    echo | tee -a bench_output.txt
done
echo "done: test_output.txt, bench_output.txt"
