#!/usr/bin/env bash
# bench_regress.sh BENCH_PR.json BENCH_BASELINE.json
#
# The CI perf-regression gate: the tracked throughput metrics of the PR
# run must stay at or above 0.5x the committed baseline, and every key
# the baseline records must still be written. The floor is
# deliberately loose — CI runners are shared and the baseline was
# recorded on a different machine — so the gate catches structural
# regressions (a dropped fast path, an accidentally quadratic loop),
# not percent-level noise. After a deliberate perf change, refresh the
# floor with scripts/refresh-bench-baseline.sh and commit it.
set -euo pipefail
pr=${1:?usage: bench_regress.sh BENCH_PR.json BENCH_BASELINE.json}
base=${2:?usage: bench_regress.sh BENCH_PR.json BENCH_BASELINE.json}
floor=0.5
fail=0

# Highest value across a bin's runs (bench-smoke runs some bins at
# several lane/opt configurations; the best run carries the metric).
metric() { # file bin key
  jq -r --arg b "$2" --arg k "$3" \
    '[.bins[] | select(.bin == $b) | .perf[$k] | numbers] | max // empty' "$1"
}

check() { # bin key
  local new old
  new=$(metric "$pr" "$1" "$2")
  old=$(metric "$base" "$1" "$2")
  if [ -z "$new" ] || [ -z "$old" ]; then
    echo "FAIL $1.$2: metric missing (pr='${new:-}' baseline='${old:-}')"
    fail=1
    return
  fi
  if awk -v n="$new" -v o="$old" -v f="$floor" 'BEGIN { exit !(o <= 0 || n >= f * o) }'; then
    awk -v n="$new" -v o="$old" -v l="$1.$2" \
      'BEGIN { printf "ok   %-42s %12.4g vs baseline %12.4g (%.2fx)\n", l, n, o, (o > 0 ? n / o : 1) }'
  else
    awk -v n="$new" -v o="$old" -v l="$1.$2" -v f="$floor" \
      'BEGIN { printf "FAIL %-42s %12.4g vs baseline %12.4g (%.2fx < %gx floor)\n", l, n, o, n / o, f }'
    fail=1
  fi
}

# Relative gate within one PR run: metric a must be >= ratio * metric b
# of the SAME run. Machine-independent (both sides share the runner),
# so it can be much tighter than the cross-machine floor.
check_relative() { # bin key_a key_b ratio
  local a b
  a=$(metric "$pr" "$1" "$2")
  b=$(metric "$pr" "$1" "$3")
  if [ -z "$a" ] || [ -z "$b" ]; then
    echo "FAIL $1.$2 vs $1.$3: metric missing (a='${a:-}' b='${b:-}')"
    fail=1
    return
  fi
  if awk -v a="$a" -v b="$b" -v r="$4" 'BEGIN { exit !(b <= 0 || a >= r * b) }'; then
    awk -v a="$a" -v b="$b" -v l="$1.$2/$3" \
      'BEGIN { printf "ok   %-42s %12.4g vs %12.4g (%.2fx)\n", l, a, b, (b > 0 ? a / b : 1) }'
  else
    awk -v a="$a" -v b="$b" -v l="$1.$2/$3" -v r="$4" \
      'BEGIN { printf "FAIL %-42s %12.4g vs %12.4g (%.2fx < %gx required)\n", l, a, b, a / b, r }'
    fail=1
  fi
}

# Every (bin, key) the baseline records, header field or perf metric,
# must still be written by some run: a key no bin writes any more is a
# stale floor that checks nothing. Refresh the baseline to drop it.
stale=$(jq -rn --slurpfile pr "$pr" --slurpfile base "$base" '
  def pairs(f): [f.bins[] | .bin as $b
    | ((del(.perf) | keys[]), (.perf | keys[])) | "\($b).\(.)"] | unique;
  (pairs($base[0]) - pairs($pr[0]))[]')
for k in $stale; do
  echo "FAIL $k: in the baseline, but no run in the PR writes it"
  fail=1
done

check table1 hcor_compiled_cycles_per_sec
check ber_sweep batched_runs_per_sec
check fault_coverage grade_faults_per_sec
# The flat event-driven gate kernel: the netlist row of Table 1 and the
# single-core side of the partitioned engine's same-run gate below.
check table1 dect_gate_cycles_per_sec
check table_gates single_core_cycles_per_sec
check table_gates partitioned_cycles_per_sec
# The partitioned engine's reason to exist: K balanced sub-kernels
# settling on the pool must beat the flat kernel on the same netlist,
# same runner, same run (DESIGN.md §15). The 4-vCPU CI runner's
# structural ceiling is ~3.5x; 1.05 absorbs shared-runner contention
# while still catching a parallel path that stopped paying for itself.
check_relative table_gates partitioned_cycles_per_sec single_core_cycles_per_sec 1.05
check servectl jobs_per_sec
exit $fail
