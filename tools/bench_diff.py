#!/usr/bin/env python3
"""Diffs a perfbench/run.py result against the committed baseline.

BENCH_perfbench.json (repository root) holds, per workload, the outputs of
seed 1 that are pure functions of the seed (completeness and the work counts
perfbench prints) and the timing and memory medians of the tree that wrote
it, with the machine they came from. A change that claims no behaviour
change must reproduce the deterministic outputs exactly; times and RSS
depend on the machine and are only reported.

Usage, from the repository root:

  python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1 \\
      > traced.txt
  python3 tools/bench_diff.py traced.txt
  python3 perfbench/run.py --workload churn --seed 1 --seconds 25 --trace 0 \\
      > churn.txt
  python3 tools/bench_diff.py churn.txt --workload churn

The result is the last JSON line of the file (run.py's stdout). Under
`--workload all` its metric names carry a `workload/` prefix; a single
workload's result needs --workload. A `--trace 0` result carries only
`completeness` of the deterministic outputs, a `--trace 1` result the work
counts. Run with `--seed 1`: the baseline's outputs are seed 1's.

Exit status: 0 when every deterministic output present in both matches
exactly, 1 when one differs, 2 when the input is unusable or shares no
deterministic output with the baseline.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(ROOT, "BENCH_perfbench.json")


def load_result(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError("%s is empty" % path)
    result = json.loads(lines[-1])
    if "metrics" not in result:
        raise ValueError("%s: the last line is not a run.py result" % path)
    return result


def split_by_workload(metrics, workload, workloads):
    """{workload: {metric: value}} from a result's metrics."""
    out = {}
    for name, entry in metrics.items():
        if "/" in name:
            owner, metric = name.split("/", 1)
        elif workload is not None:
            owner, metric = workload, name
        else:
            raise ValueError("metric %r has no workload prefix; name the "
                             "workload with --workload" % name)
        if owner in workloads:
            out.setdefault(owner, {})[metric] = entry["value"]
    return out


def ratio(value, base):
    return "%.3fx" % (value / base) if base else "-"


def diff(result, baseline, workload):
    by_workload = split_by_workload(result["metrics"], workload,
                                    baseline["workloads"])
    compared = 0
    mismatches = 0
    for name in sorted(by_workload):
        got = by_workload[name]
        base = baseline["workloads"][name]
        for metric, want in sorted(base["deterministic"].items()):
            if metric not in got:
                continue
            compared += 1
            if got[metric] == want:
                print("%s %s = %r (matches)" % (name, metric, want))
            else:
                mismatches += 1
                print("%s %s = %r, baseline %r: MISMATCH" %
                      (name, metric, got[metric], want))
        for metric, want in sorted(base["measured"].items()):
            if metric in got:
                print("%s %s = %.6g, baseline median %.6g (%s; reported "
                      "only)" % (name, metric, got[metric], want,
                                 ratio(got[metric], want)))
    return compared, mismatches


def main():
    parser = argparse.ArgumentParser(
        description="Diff a perfbench/run.py result against the baseline.")
    parser.add_argument("result", help="file whose last line is the result")
    parser.add_argument("--workload",
                        help="the workload of a single-workload result")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    args = parser.parse_args()
    try:
        result = load_result(args.result)
        with open(args.baseline) as f:
            baseline = json.load(f)
        if args.workload is not None and \
                args.workload not in baseline["workloads"]:
            raise ValueError("the baseline has no workload %r" %
                             args.workload)
        compared, mismatches = diff(result, baseline, args.workload)
    except (OSError, ValueError, KeyError) as e:
        print("bench_diff: %s" % e, file=sys.stderr)
        return 2
    if compared == 0:
        print("bench_diff: no deterministic output in common with the "
              "baseline", file=sys.stderr)
        return 2
    print("bench_diff: %d deterministic outputs compared, %d differ" %
          (compared, mismatches))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
