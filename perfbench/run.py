#!/usr/bin/env python3
"""Builds and runs the repository benchmark (README.md in this directory).

One workload per call, from the root of a checkout:

  python3 perfbench/run.py --workload cold_fanout --seed 1 --seconds 15 --trace 0

The benchmark package (CMakeLists.txt here) compiles the library sources
under src/ into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
on first use. The last line of stdout is the JSON result; the lines before
it are the human-readable report. The exit code is 0 only when every served
result matched its reference.

  python3 perfbench/run.py --self-test

runs every workload BENCHMARK.json names at toy scale and checks that each
prints every metric it names, with its unit, and that a deliberately
corrupted page fails the output check.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (target if target.is_absolute() else ROOT / target) / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "src" / "service" / "query_service.h").is_file():
        sys.exit("perfbench: library sources not found under src/")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the JSON result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out / "gsi_perfbench"


def invoke(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout lines, parsed result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-dir", str(traces)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not (isinstance(result, dict) and
            set(result) == {"correct", "attempted", "failed", "metrics"}):
        result = None
    return proc.returncode, lines, result


def self_test(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in expected.items():
            rc, _, result = invoke(binary, workload, 1, 1, trace, ["--toy"])
            where = f"{workload} --trace {trace}"
            if rc != 0 or result is None:
                problems.append(f"{where}: exit {rc}, result {result}")
                continue
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append(f"{where}: output check did not pass")
            printed = result["metrics"]
            for name, unit in metrics.items():
                got = printed.get(name)
                if got is None:
                    problems.append(f"{where}: metric {name} missing")
                elif got.get("unit") != unit:
                    problems.append(f"{where}: {name} unit {got.get('unit')}"
                                    f" != {unit}")
                elif not isinstance(got.get("value"), (int, float)) or \
                        not math.isfinite(got["value"]):
                    problems.append(f"{where}: {name} value {got.get('value')}")
            for name in printed.keys() - metrics.keys():
                problems.append(f"{where}: unexpected metric {name}")
            print(f"self-test: {where}: {len(printed)} metrics", flush=True)
    rc, _, result = invoke(binary, spec["workloads"][0]["name"], 1, 1, 0,
                           ["--toy", "--corrupt-page"])
    if rc == 0 or result is None or result["correct"] or result["failed"] < 1:
        problems.append(f"corrupted page was not rejected: exit {rc}, "
                        f"result {result}")
    else:
        print(f"self-test: corrupted page rejected ({result['failed']} "
              f"mismatch)", flush=True)
    for p in problems:
        print(f"self-test FAILED: {p}", flush=True)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    binary = build()
    if args.self_test:
        return self_test(binary)
    try:
        rc, lines, result = invoke(binary, args.workload, args.seed,
                                   args.seconds, args.trace)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    if result is None:
        sys.stderr.write("\n".join(lines) + "\n")
        sys.exit(f"perfbench: no result (exit {rc})")
    print("\n".join(lines), flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
