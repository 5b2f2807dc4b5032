#!/usr/bin/env bash
# Builds and runs the perf benchmark (see bench/perf/README.md).
#
#   bench/perf/run.sh [--seed S] [--seconds T]
#       every workload once, untraced; prints every metric with its unit
#   bench/perf/run.sh --repeat N [--seed S] [--seconds T]
#       the same N times, then each end-to-end metric's spread
#   bench/perf/run.sh --traced [--seed S]
#       every workload in yewpar_perf_traced: 3 reps plus the per-layer
#       probes; writes bench/perf/out/trace-<workload>.json
#   bench/perf/run.sh --workload W --seed S --seconds T --trace 0|1
#       one workload; the last line of stdout is its JSON result
#
# Exits non-zero if the build fails, any solve fails its oracle, a workload
# exceeds its worker-thread cap (checked by the binary) or runs 30 s or more.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build"
out="$here/out"
workloads=(clique-seq clique-db3 uts-bin-2loc cmst-ss-2loc)
max_workload_s=30

seed=1          # the committed seed; README.md names the held-out one
seconds=15      # run_seconds in BENCHMARK.json
repeat=1
traced=0
workload=""
trace=0

while (($#)); do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --repeat) repeat="$2"; shift 2 ;;
    --traced) traced=1; shift ;;
    --workload) workload="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

# All build output goes to stderr: stdout carries only results.
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  jobs="$(nproc)"
  cmake --build "$build" -j "$((jobs < 4 ? jobs : 4))"
} >&2

result_value() {  # result-file metric
  python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["metrics"][sys.argv[2]]["value"])' "$1" "$2"
}

# One workload in the traced binary. bench.trace_overhead_pct needs the
# untraced binary's median solve time on the same inputs, so that runs
# first, for the same length.
run_traced() {  # workload seconds
  rm -f "$out/untraced/result-$1.json" "$out/result-$1.json"
  "$build/yewpar_perf" --workload "$1" --seed "$seed" --seconds "$2" \
    --out-dir "$out/untraced" >&2 || return
  "$build/yewpar_perf_traced" --workload "$1" --seed "$seed" \
    --seconds "$2" --trace 1 --out-dir "$out" \
    --untraced-solve-s "$(result_value "$out/untraced/result-$1.json" solve_s)"
}

if [[ -n "$workload" ]]; then
  status=0
  if [[ "$trace" == 1 ]]; then
    run_traced "$workload" "$(python3 -c "print($seconds / 2)")" >&2 ||
      status=$?
  else
    rm -f "$out/result-$workload.json"
    "$build/yewpar_perf" --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --out-dir "$out" || status=$?
  fi
  python3 "$here/compare.py" line "$out/result-$workload.json" --trace "$trace"
  exit "$status"
fi

status=0
suite_start=$SECONDS
if ((traced)); then
  for w in "${workloads[@]}"; do
    run_traced "$w" 0 || status=1
  done
  exit "$status"
fi

rm -rf "$out/runs"
for ((i = 1; i <= repeat; ++i)); do
  for w in "${workloads[@]}"; do
    start=$SECONDS
    "$build/yewpar_perf" --workload "$w" --seed "$seed" \
      --seconds "$seconds" --out-dir "$out/runs/$i" || status=1
    if ((SECONDS - start >= max_workload_s)); then
      echo "run.sh: $w took $((SECONDS - start)) s (cap ${max_workload_s} s)" >&2
      status=1
    fi
  done
done
echo "total untraced wall time: $((SECONDS - suite_start)) s" \
  "($repeat x ${#workloads[@]} workloads)"
if ((repeat > 1)); then
  python3 "$here/compare.py" spread "$out/runs"
fi
exit "$status"
