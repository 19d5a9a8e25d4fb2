#!/usr/bin/env python3
"""Entry point of the repository benchmark (perfbench/README.md).

Builds the benchmark and the library from source into .bench_build/perfbench
(once per checkout; later runs rebuild only what changed), runs one workload,
checks the result against BENCHMARK.json and prints it. The last stdout line
is the JSON result:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Usage, from the repository root:

  python3 perfbench/run.py --workload resident --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test

--trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
metrics: it spends a quarter of --seconds on an untraced run and the rest on
a traced one, and the difference between the two is the tracing overhead.
The exit code is 0 only if every call and every output check succeeded.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("resident", "churn", "faulty", "fleet")
BUILD_TIMEOUT_S = 850
# A run must end within 180 s of its start (after the build).
RUN_DEADLINE_S = 170


class BenchError(Exception):
    """A failure that ends the run without a result."""


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources not found under %s/src; run from "
                         "a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_tool(["cmake", "-S", HERE, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    run_tool(["cmake", "--build", BUILD_DIR, "-j", jobs])


def run_tool(cmd):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BenchError("failed: " + " ".join(cmd))


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {
        "end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }


def run_binary(name, args, deadline):
    """Runs a benchmark binary; returns (exit code, parsed result or None)."""
    cmd = [os.path.join(BUILD_DIR, name)] + args
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within %.0f s" % (name, timeout))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
    return proc.returncode, result


def validate(result, expected):
    """Raises BenchError unless `result` has the contract's keys and every
    `expected` (name, unit) metric, each a finite number."""
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        raise BenchError("result lacks the correct/attempted/failed/metrics "
                         "keys")
    metrics = result["metrics"]
    for name, unit in expected:
        entry = metrics.get(name)
        if not isinstance(entry, dict) or "value" not in entry:
            raise BenchError("metric %s is missing" % name)
        if entry.get("unit") != unit:
            raise BenchError("metric %s has unit %r, expected %r" %
                             (name, entry.get("unit"), unit))
        value = entry["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise BenchError("metric %s is not a finite number" % name)
    if not isinstance(result["correct"], bool):
        raise BenchError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise BenchError("%s is not a whole number" % key)
    if result["attempted"] < 1:
        raise BenchError("no operation was attempted")


def run_workload(workload, seed, seconds, trace, tiny, deadline):
    """Runs one workload; returns (ok, result restricted to BENCHMARK.json)."""
    common = ["--workload", workload, "--seed", str(seed)]
    if tiny:
        common.append("--tiny")
    if not trace:
        code, result = run_binary(
            "perfbench", common + ["--seconds", repr(seconds), "--trace", "0"],
            deadline)
        if result is None:
            raise BenchError("perfbench printed no result (exit %d)" % code)
        return code == 0 and result.get("correct") is True, result

    untraced_s = max(seconds / 4.0, min(seconds, 1.0))
    code_u, untraced = run_binary(
        "perfbench", common + ["--seconds", repr(untraced_s), "--trace", "0"],
        deadline)
    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-seed%s.tsv" % (workload, seed))
    code_t, traced = run_binary(
        "perfbench_traced",
        common + ["--seconds", repr(max(seconds - untraced_s, 0.1)),
                  "--trace", "1", "--spans", spans],
        deadline)
    if untraced is None or traced is None:
        raise BenchError("a run printed no result (exit %d, %d)" %
                         (code_u, code_t))
    untraced_cps = untraced["metrics"]["chronons_per_s"]["value"]
    traced_cps = traced["metrics"]["bench.traced_chronons_per_s"]["value"]
    metrics = dict(traced["metrics"])
    metrics["bench.untraced_chronons_per_s"] = {"value": untraced_cps,
                                                "unit": "1/s"}
    metrics["bench.trace_overhead_share"] = {
        "value": 1.0 - traced_cps / untraced_cps if untraced_cps else 0.0,
        "unit": "share"}
    print("%s bench.untraced_chronons_per_s = %r 1/s" % (workload,
                                                         untraced_cps))
    print("%s bench.trace_overhead_share = %r share" %
          (workload, metrics["bench.trace_overhead_share"]["value"]))
    result = {
        "correct": untraced["correct"] is True and traced["correct"] is True,
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "metrics": metrics,
    }
    ok = code_u == 0 and code_t == 0 and result["correct"]
    return ok, result


def restrict(result, expected):
    """`result` with only the `expected` metrics, validated."""
    out = dict(result)
    out["metrics"] = {name: result["metrics"][name] for name, _ in expected
                      if name in result["metrics"]}
    validate(out, expected)
    return out


def bench(args):
    spec = load_spec()
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    build()
    deadline = time.monotonic() + RUN_DEADLINE_S
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    all_ok = True
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        ok, result = run_workload(workload, args.seed, args.seconds,
                                  args.trace == 1, False, deadline)
        if len(workloads) > 1:
            deadline = time.monotonic() + RUN_DEADLINE_S
        result = restrict(result, expected)
        all_ok = all_ok and ok
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            key = name if len(workloads) == 1 else workload + "/" + name
            combined["metrics"][key] = entry
    print(json.dumps(combined), flush=True)
    return 0 if all_ok else 1


def self_test():
    """Tiny-size run of every workload in both modes, plus checks that the
    validators reject a missing metric or unit, tampered outputs and a bare
    directory without the library sources."""
    spec = load_spec()
    build()
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            expected = spec["per_layer"] if trace else spec["end_to_end"]
            ok, result = run_workload(workload, 7, 0.3, trace == 1, True,
                                      time.monotonic() + RUN_DEADLINE_S)
            try:
                result = restrict(result, expected)
            except BenchError as e:
                failures.append("%s trace=%d: %s" % (workload, trace, e))
                continue
            if not ok:
                failures.append("%s trace=%d: checks failed" %
                                (workload, trace))
            if trace:
                for name, entry in result["metrics"].items():
                    layer = name.split(".")[0]
                    owner = {"faults": "faulty", "shard": "fleet"}.get(layer)
                    if owner and owner != workload and entry["value"] != 0:
                        failures.append("%s reports non-zero %s" %
                                        (workload, name))
            # The validator must reject a dropped metric and a wrong unit.
            name = expected[0][0]
            for mutate in ("drop", "unit"):
                broken = json.loads(json.dumps(result))
                if mutate == "drop":
                    del broken["metrics"][name]
                else:
                    broken["metrics"][name]["unit"] = "furlongs"
                try:
                    validate(broken, expected)
                    failures.append("validator accepted a %s of %s" %
                                    (mutate, name))
                except BenchError:
                    pass
    code = subprocess.run([os.path.join(BUILD_DIR, "perfbench"),
                           "--tamper-test"], cwd=ROOT).returncode
    if code != 0:
        failures.append("tampered outputs got past the checks")
    bare = os.path.join(BUILD_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "resident",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=RUN_DEADLINE_S)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("a bare directory without sources did not fail "
                        "cleanly")
    for failure in failures:
        log("self-test: " + failure)
    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0 or not args.seconds > 0:
            parser.error("--seed must be >= 0 and --seconds > 0")
        return bench(args)
    except BenchError as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
