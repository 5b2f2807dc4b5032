#!/usr/bin/env python3
"""Reads the perf benchmark's result files (see bench/perf/README.md).

  compare.py line RESULT.json --trace 0|1
      Print the benchmark's one-line JSON result for one run: the
      end_to_end metrics of BENCHMARK.json (--trace 0) or its per_layer
      metrics (--trace 1).

  compare.py spread DIR
      For every workload and end-to-end metric over the result files under
      DIR: the median, (max-min)/median and the quartile spread
      (Q3-Q1)/median, next to the metric's bound.

  compare.py diff BASE_DIR CHANGE_DIR
      The benchmark's rule, per workload and per end-to-end metric: both
      medians, the change against the fixed bound, "unresolved" when the
      base runs' quartile spread exceeds the bound, and the win rate of the
      change over the pairs (i-th base run, i-th change run). A pair whose
      host.cal_ms moved by more than 10% is flagged. Exits 1 on a
      regression.

Result files are the result-<workload>.json each run writes; a set is every
such file under a directory (run.sh --repeat writes out/runs/<i>/).
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
HOST_DRIFT = 0.10


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def natural_key(path):
    return [int(t) if t.isdigit() else t for t in re.split(r"(\d+)", str(path))]


def load_set(directory):
    """{workload: [result, ...]} in natural path order (runs/2 < runs/10)."""
    runs = {}
    for path in sorted(Path(directory).rglob("result-*.json"), key=natural_key):
        with open(path) as f:
            result = json.load(f)
        runs.setdefault(result["workload"], []).append(result)
    if not runs:
        sys.exit(f"compare.py: no result-*.json under {directory}")
    return runs


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]


def quartile_spread(xs):
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / statistics.median(xs)


def cmd_line(args):
    bench = load_benchmark()
    with open(args.result) as f:
        result = json.load(f)
    wanted = bench["per_layer" if args.trace == 1 else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            sys.exit(f"compare.py: {args.result} lacks metric {m['name']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


def cmd_spread(args):
    bench = load_benchmark()
    runs = load_set(args.dir)
    print(f"{'workload':14} {'metric':12} {'n':>3} {'median':>12} "
          f"{'range/med':>9} {'iqr/med':>8} {'bound':>6}")
    for workload, results in runs.items():
        for m in bench["end_to_end"]:
            xs = values(results, m["name"])
            if not xs:
                continue
            med = statistics.median(xs)
            rng = (max(xs) - min(xs)) / med
            print(f"{workload:14} {m['name']:12} {len(xs):3} {med:12.6g} "
                  f"{rng:9.3f} {quartile_spread(xs):8.3f} {m['bound']:6.3f}")


def better(a, b, direction):
    """True when value b is strictly better than value a."""
    return b < a if direction == "lower" else b > a


def verdict(base, change, metric):
    bound, direction = metric["bound"], metric["better"]
    mb, mc = statistics.median(base), statistics.median(change)
    worse = (mc - mb) / mb if direction == "lower" else (mb - mc) / mb
    spread = quartile_spread(base)
    pairs = list(zip(base, change))
    wins = sum(better(a, b, direction) for a, b in pairs)
    all_better = all(better(a, b, direction) for a in base for b in change)
    if spread > bound:
        label = "better in every run" if all_better else "unresolved"
    elif worse > bound:
        label = "REGRESSION"
    elif wins >= 0.9 * len(pairs) and abs(mc - mb) > spread * abs(mb):
        label = "improved"
    else:
        label = "within bound"
    return mb, mc, worse, spread, wins, len(pairs), label


def cmd_diff(args):
    bench = load_benchmark()
    base_runs, change_runs = load_set(args.base), load_set(args.change)
    regressions = 0
    print(f"{'workload':14} {'metric':12} {'base':>12} {'change':>12} "
          f"{'worse':>7} {'bound':>6} {'spread':>7} {'wins':>6}  verdict")
    for workload, base in base_runs.items():
        change = change_runs.get(workload)
        if not change:
            print(f"{workload:14} (no change runs)")
            continue
        for m in bench["end_to_end"]:
            b, c = values(base, m["name"]), values(change, m["name"])
            if not b or not c:
                continue
            mb, mc, worse, spread, wins, n, label = verdict(b, c, m)
            regressions += label == "REGRESSION"
            print(f"{workload:14} {m['name']:12} {mb:12.6g} {mc:12.6g} "
                  f"{worse:+7.3f} {m['bound']:6.3f} {spread:7.3f} "
                  f"{wins:3}/{n:<2}  {label}")
        for i, (rb, rc) in enumerate(zip(base, change)):
            cb = rb["metrics"].get("host.cal_ms", {}).get("value")
            cc = rc["metrics"].get("host.cal_ms", {}).get("value")
            if cb and cc and abs(cc / cb - 1) > HOST_DRIFT:
                print(f"{workload:14} pair {i}: host.cal_ms moved "
                      f"{100 * (cc / cb - 1):+.1f}% ({cb:.1f} -> {cc:.1f} ms); "
                      f"host drift, not the change")
    return 1 if regressions else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("line")
    p.add_argument("result")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("spread")
    p.add_argument("dir")
    p = sub.add_parser("diff")
    p.add_argument("base")
    p.add_argument("change")
    args = parser.parse_args()
    return {"line": cmd_line, "spread": cmd_spread, "diff": cmd_diff}[args.cmd](args) or 0


if __name__ == "__main__":
    sys.exit(main())
