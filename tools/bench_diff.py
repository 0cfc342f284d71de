#!/usr/bin/env python3
"""Perf-regression gate over bench --json records.

Compares two sets of BenchMain JSON reports (see docs/BENCHMARKS.md,
"--json record schema") keyed by (bench, config) and fails when a shared
key regresses:

  * qps drops by more than --max-qps-drop    (default 15%), or
  * p50 grows by more than --max-p50-growth  (default 10%).

p50 is the simulated-latency percentile, which is proportional to
simulated device cycles — so the p50 check is the simulated-cycle-growth
gate and is bit-stable across machines. qps is wall-clock for the
service/batch benches, so benches listed in --warn-benches (default:
service_throughput, whose qps is pure host wall time on a shared CI
runner) only warn instead of failing.

Keys present on one side only are reported but never fail the gate: new
benches appear and old configs retire as the repo grows. Baseline records
with qps == 0 (or p50 == 0 for the growth check) are skipped — there is
no meaningful ratio against zero.

With --exact the comparison is equality instead, for records whose every
field is simulated (the paper benches, BENCH_paper.json): every field of
every (bench, config) record must equal the expected one, and a record or
field present on one side only fails. Each mismatch prints the key, the
field and both values. --bench limits both sides to one bench's records;
an exact comparison of no records fails.

Usage:
  tools/bench_diff.py <baseline> <current> [options]
      <baseline>/<current>: a .json report or a directory searched
      recursively for bench_*.json (a downloaded bench-json-<sha>
      artifact; other JSON there, such as the example trace export, is
      skipped).
  tools/bench_diff.py --exact [--bench NAME] <expected> <current>
      Exact gate (see above), e.g. BENCH_paper.json against a fresh run.
  tools/bench_diff.py --self-test
      Runs the embedded scenarios (registered with ctest as
      bench_diff_selftest).

Exit codes: 0 clean/soft-skip, 1 regression, 2 usage or unreadable input.
"""

import argparse
import json
import os
import sys


class InputError(Exception):
    """A report file that cannot be read as records (exit code 2)."""


def load_records(path):
    """{(bench, config): record} from a report file, or from every
    bench_*.json in a directory tree. Later files win on duplicate keys
    (should not happen in one artifact)."""
    files = []
    if os.path.isfile(path):
        files = [path]
    else:
        for dirpath, _, names in sorted(os.walk(path)):
            for name in sorted(names):
                if name.startswith("bench_") and name.endswith(".json"):
                    files.append(os.path.join(dirpath, name))
    records = {}
    for f in files:
        try:
            with open(f, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as e:
            raise InputError("%s is not readable JSON: %s" % (f, e))
        if not isinstance(data, list):
            raise InputError("%s is not a JSON array" % f)
        for rec in data:
            if not (isinstance(rec, dict) and "bench" in rec and
                    "config" in rec):
                raise InputError("%s holds a record without bench/config" %
                                 f)
            records[(rec["bench"], rec["config"])] = rec
    return records


def diff(baseline, current, max_qps_drop, max_p50_growth, warn_benches):
    """Returns (failures, warnings, lines) where lines is the full report."""
    failures, warnings, lines = [], [], []
    shared = sorted(set(baseline) & set(current))
    for key in sorted(set(baseline) - set(current)):
        lines.append("  gone:  %s / %s (baseline only — not gated)" % key)
    for key in sorted(set(current) - set(baseline)):
        lines.append("  new:   %s / %s (no baseline — not gated)" % key)
    for key in shared:
        old, new = baseline[key], current[key]
        label = "%s / %s" % key
        problems = []
        if old.get("qps", 0) > 0:
            drop = 1.0 - new.get("qps", 0) / old["qps"]
            if drop > max_qps_drop:
                problems.append("qps %.3g -> %.3g (-%.1f%% > %.0f%%)" % (
                    old["qps"], new.get("qps", 0), 100 * drop,
                    100 * max_qps_drop))
        if old.get("p50", 0) > 0:
            growth = new.get("p50", 0) / old["p50"] - 1.0
            if growth > max_p50_growth:
                problems.append(
                    "p50 %.3g -> %.3g ms (+%.1f%% > %.0f%% simulated)" % (
                        old["p50"], new.get("p50", 0), 100 * growth,
                        100 * max_p50_growth))
        if not problems:
            lines.append("  ok:    %s" % label)
        elif key[0] in warn_benches:
            warnings.append(label)
            lines.append("  WARN:  %s: %s (wall-clock bench — not gated)" %
                         (label, "; ".join(problems)))
        else:
            failures.append(label)
            lines.append("  FAIL:  %s: %s" % (label, "; ".join(problems)))
    return failures, warnings, lines


def diff_exact(expected, current):
    """Returns (failures, lines): the keys whose records differ in any field
    (or exist on one side only), and one report line per key or field."""
    failures, lines = [], []
    for key in sorted(set(expected) | set(current)):
        label = "%s / %s" % key
        if key not in current:
            failures.append(label)
            lines.append("  FAIL:  %s: record missing" % label)
            continue
        if key not in expected:
            failures.append(label)
            lines.append("  FAIL:  %s: record not expected" % label)
            continue
        old, new = expected[key], current[key]
        problems = []
        for field in sorted(set(old) | set(new)):
            if field not in new:
                problems.append("%s: expected %r, missing" %
                                (field, old[field]))
            elif field not in old:
                problems.append("%s: not expected, got %r" %
                                (field, new[field]))
            elif old[field] != new[field]:
                problems.append("%s: expected %r, got %r" %
                                (field, old[field], new[field]))
        if problems:
            failures.append(label)
            lines.extend("  FAIL:  %s: %s" % (label, p) for p in problems)
        else:
            lines.append("  ok:    %s" % label)
    return failures, lines


def only_bench(records, bench):
    """The records of `bench` (all of them when bench is None)."""
    if bench is None:
        return records
    return {k: v for k, v in records.items() if k[0] == bench}


def self_test():
    import tempfile

    def write(dirname, name, records):
        with open(os.path.join(dirname, name), "w", encoding="utf-8") as f:
            json.dump(records, f)

    def run(base_recs, cur_recs, **kwargs):
        with tempfile.TemporaryDirectory() as tmp:
            old_dir = os.path.join(tmp, "old")
            new_dir = os.path.join(tmp, "new")
            os.makedirs(old_dir)
            os.makedirs(new_dir)
            write(old_dir, "bench_a.json", base_recs)
            write(new_dir, "bench_a.json", cur_recs)
            return diff(load_records(old_dir), load_records(new_dir),
                        kwargs.get("max_qps_drop", 0.15),
                        kwargs.get("max_p50_growth", 0.10),
                        kwargs.get("warn_benches", frozenset()))

    failures = []

    def check(cond, msg):
        print(("ok:   " if cond else "FAIL: ") + msg)
        if not cond:
            failures.append(msg)

    rec = {"bench": "b", "config": "c", "qps": 100.0, "p50": 10.0,
           "p99": 20.0}

    f, _, _ = run([rec], [dict(rec, qps=90.0, p50=10.5)])
    check(f == [], "10% qps drop / 5% p50 growth passes")

    f, _, _ = run([rec], [dict(rec, qps=80.0)])
    check(len(f) == 1, "20% qps drop fails")

    f, _, _ = run([rec], [dict(rec, p50=11.5)])
    check(len(f) == 1, "15% p50 growth fails")

    f, w, _ = run([rec], [dict(rec, qps=50.0)], warn_benches={"b"})
    check(f == [] and len(w) == 1, "warn-bench regression warns, not fails")

    f, _, lines = run([rec], [dict(rec, config="other")])
    check(f == [] and any("gone:" in l for l in lines) and
          any("new:" in l for l in lines),
          "one-sided keys are reported but never gated")

    f, _, _ = run([dict(rec, qps=0.0, p50=0.0)], [dict(rec, qps=1.0)])
    check(f == [], "zero baseline values are skipped")

    f, _, _ = run([rec], [dict(rec, qps=200.0, p50=5.0)])
    check(f == [], "improvements pass")

    exact = {("b", "c"): dict(rec, bench="b", config="c"),
             ("d", "c"): dict(rec, bench="d", config="c")}
    f, _ = diff_exact(exact, {k: dict(v) for k, v in exact.items()})
    check(f == [], "exact: equal records pass")

    f, lines = diff_exact(exact, {**exact, ("b", "c"): dict(
        exact[("b", "c")], p50=10.000001)})
    check(f == ["b / c"] and
          any("b / c" in l and "p50" in l and "10.0" in l and
              "10.000001" in l for l in lines),
          "exact: one changed field fails and prints key, field, both values")

    f, _ = diff_exact(exact, {**exact, ("b", "c"): dict(
        exact[("b", "c")], extra=1)})
    check(f == ["b / c"], "exact: a field on one side only fails")

    f, _ = diff_exact(exact, {("b", "c"): exact[("b", "c")]})
    check(f == ["d / c"], "exact: a record on one side only fails")

    changed_d = {**exact, ("d", "c"): dict(exact[("d", "c")], p99=1.0)}
    f, _ = diff_exact(only_bench(exact, "b"), only_bench(changed_d, "b"))
    check(f == [], "exact: --bench compares that bench's records only")

    with tempfile.TemporaryDirectory() as tmp:
        write(tmp, "bench_a.json", [rec])
        path = os.path.join(tmp, "bench_a.json")
        check(main(["--exact", path, path]) == 0 and
              main(["--exact", "--bench", "x", path, path]) == 1,
              "exact: an exact comparison of no records fails")

    with tempfile.TemporaryDirectory() as tmp:
        write(tmp, "bench_a.json", [rec])
        write(tmp, "trace_query.json", {"traceEvents": []})
        check(load_records(tmp) == {("b", "c"): rec} and
              main([tmp, tmp]) == 0,
              "a trace export beside the records is skipped")
        write(tmp, "bench_a.json", {"bench": "b", "config": "c"})
        check(main([tmp, tmp]) == 2, "a non-array bench_*.json exits 2")
        with open(os.path.join(tmp, "bench_a.json"), "w",
                  encoding="utf-8") as f:
            f.write("[{")
        check(main([tmp, tmp]) == 2, "an unparsable bench_*.json exits 2")

    if failures:
        print("\n%d check(s) failed" % len(failures))
        return 1
    print("\nall checks passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="compare two bench --json report sets")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--max-qps-drop", type=float, default=0.15,
                        help="fail above this fractional qps drop "
                        "(default 0.15)")
    parser.add_argument("--max-p50-growth", type=float, default=0.10,
                        help="fail above this fractional p50 (simulated "
                        "cycle) growth (default 0.10)")
    parser.add_argument("--warn-benches", default="service_throughput",
                        help="comma-separated bench names that only warn "
                        "(wall-clock-noisy)")
    parser.add_argument("--exact", action="store_true",
                        help="fail unless every field of every record is "
                        "equal (simulated records)")
    parser.add_argument("--bench", default=None,
                        help="with --exact, compare this bench's records "
                        "only")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.baseline is None or args.current is None:
        parser.error("baseline and current are required (or --self-test)")
    for p in (args.baseline, args.current):
        if not os.path.exists(p):
            print("bench_diff: %s does not exist" % p, file=sys.stderr)
            return 2

    try:
        baseline = load_records(args.baseline)
        current = load_records(args.current)
    except InputError as e:
        print("bench_diff: %s" % e, file=sys.stderr)
        return 2
    if args.exact:
        baseline = only_bench(baseline, args.bench)
        current = only_bench(current, args.bench)
        if not baseline and not current:
            print("bench_diff: no records to compare exactly")
            return 1
        failures, lines = diff_exact(baseline, current)
        print("bench_diff --exact: %d expected / %d current record(s)" %
              (len(baseline), len(current)))
        for line in lines:
            print(line)
        if failures:
            print("\nbench_diff: %d record(s) differ" % len(failures))
            return 1
        print("\nbench_diff: %d record(s) equal" % len(baseline))
        return 0
    if not baseline:
        print("bench_diff: baseline has no records — nothing to gate")
        return 0
    warn_benches = frozenset(
        b for b in args.warn_benches.split(",") if b)
    failures, warnings, lines = diff(baseline, current, args.max_qps_drop,
                                     args.max_p50_growth, warn_benches)
    print("bench_diff: %d baseline / %d current record(s)" %
          (len(baseline), len(current)))
    for line in lines:
        print(line)
    if failures:
        print("\nbench_diff: %d regression(s) (thresholds: qps -%.0f%%, "
              "p50 +%.0f%%)" % (len(failures), 100 * args.max_qps_drop,
                                100 * args.max_p50_growth))
        return 1
    print("\nbench_diff: clean (%d compared, %d warning(s))" %
          (len(set(baseline) & set(current)), len(warnings)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
