#!/usr/bin/env bash
# Regenerates BENCH_BASELINE.json — the committed perf floor the CI
# bench-regress step compares every PR's BENCH_PR.json against.
#
# One command, run from anywhere in the repo; commit the result:
#
#   scripts/refresh-bench-baseline.sh && git add BENCH_BASELINE.json
#
# Refresh after any deliberate perf-affecting change (new fast path,
# heavier default workload) so the floor tracks intent, not drift.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p ocapi-bench -p ocapi-serve
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for bin in table1 table_gates fault_coverage ber_sweep exception_latency; do
  ./target/release/$bin --quick --threads 4 --perf-json "$out/$bin.perf.json"
done
# A second table_gates pass with the netlist cut four ways: records the
# model-parallel partitioned_cycles_per_sec next to the single-core
# rate (bench_regress takes the max per (bin, key); its same-run
# partitioned-vs-single-core relative gate never reads the baseline).
./target/release/table_gates --quick --threads 4 --partitions 4 \
  --perf-json "$out/table_gates-p4.perf.json"
# The persistent-service job rate, measured against a freshly started
# daemon the same way the CI bench-smoke job measures it.
sock="$out/refresh.sock"
./target/release/served --socket "$sock" --cache 8 2>/dev/null &
dpid=$!
for i in $(seq 100); do
  ./target/release/servectl --socket "$sock" ping >/dev/null 2>&1 && break
  sleep 0.1
done
./target/release/servectl --socket "$sock" loadgen \
  --jobs 32 --concurrency 4 --perf-json "$out/servectl.perf.json"
./target/release/servectl --socket "$sock" shutdown >/dev/null
wait $dpid
jq -s '{generated_by: "scripts/refresh-bench-baseline.sh", bins: .}' \
  "$out"/*.perf.json > BENCH_BASELINE.json
echo "wrote BENCH_BASELINE.json ($(jq '.bins | length' BENCH_BASELINE.json) bins)"
