#!/usr/bin/env python3
"""Schema validation for the trace JSON and the metrics the trace_query
example emits.

Runs the example binary (argv[1]), loads the trace file it writes, and
checks both the trace_event schema (every complete event carries
name/ph/ts/dur/pid/tid with sane types) and the span coverage the
observability contract promises (docs/OBSERVABILITY.md): queue wait,
query root, filter, join steps, and per-device replica lanes — the
example drives the K=4/R=2 replicated service path, so all of them must
appear.

It also parses the Prometheus exposition the example prints last: every
line is a HELP, a TYPE or a sample of the text format; each family has one
HELP then one TYPE, in strictly ascending order; histogram buckets are
cumulative and end at _count; and the counters agree with what the example
ran (two queries, the second a filter-cache hit, on a 4-device pool).
"""

import json
import os
import re
import subprocess
import sys
import tempfile

REQUIRED_SPANS = {
    "queue_wait",     # service admission -> worker pickup
    "query",          # per-query root
    "filter",         # candidate filtering phase
    "join_step",      # one per join-plan step
    "lane",           # one join per replica lane on the replicated path
    "lane_scan",      # one scan launch per replica lane
    "candidate_gather",
    "result_merge",
}


PROMETHEUS_MARKER = "--- Prometheus exposition (QueryService::ExportMetrics) ---"
NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
SAMPLE_RE = re.compile(r"^(%s)(\{%s(?:,%s)*\})? (-?[0-9.eE+-]+|\+Inf|NaN)$"
                       % (NAME, LABEL, LABEL))
COMMENT_RE = re.compile(r"^# (HELP|TYPE) (%s) (.+)$" % NAME)
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')
TYPES = {"counter", "gauge", "histogram"}


def fail(msg):
    print("FAIL: %s" % msg)
    sys.exit(1)


def parse_exposition(lines):
    """Returns ({family: type}, {family: [(name, labels, value)]}), failing
    on any line outside the text-format grammar or out of family order."""
    types = {}
    samples = {}
    family = None
    for i, line in enumerate(lines):
        m = COMMENT_RE.match(line)
        if m and m.group(1) == "HELP":
            name = m.group(2)
            if name in types or name == family:
                fail("family %s has a second HELP" % name)
            if family is not None and name <= family:
                fail("family %s follows %s: not ascending" % (name, family))
            if i + 1 >= len(lines) or not lines[i + 1].startswith(
                    "# TYPE %s " % name):
                fail("HELP of %s is not followed by its TYPE" % name)
            family = name
            continue
        if m:  # TYPE: must directly follow its family's HELP
            name, kind = m.group(2), m.group(3)
            if name != family or name in types:
                fail("stray TYPE line: %r" % line)
            if kind not in TYPES:
                fail("family %s has unknown type %r" % (name, kind))
            types[name] = kind
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            fail("exposition line is not HELP, TYPE or a sample: %r" % line)
        name, labels, value = m.group(1), m.group(2) or "", float(m.group(3))
        if family not in types:
            fail("sample before its family's TYPE: %r" % line)
        suffixes = ("_bucket", "_sum", "_count") if (
            types[family] == "histogram") else ("",)
        if name not in {family + s for s in suffixes}:
            fail("sample %s outside its family %s" % (name, family))
        samples.setdefault(family, []).append((name, labels, value))
    return types, samples


def check_histogram(family, samples):
    """Buckets never decrease and the le="+Inf" bucket equals _count, per
    label set."""
    buckets = {}
    counts = {}
    for name, labels, value in samples:
        pairs = LABEL_RE.findall(labels)
        rest = tuple(p for p in pairs if p[0] != "le")
        if name.endswith("_bucket"):
            le = [v for k, v in pairs if k == "le"]
            if len(le) != 1:
                fail("%s bucket without one le label: %s" % (family, labels))
            buckets.setdefault(rest, []).append((le[0], value))
        elif name.endswith("_count"):
            counts[rest] = value
    if not buckets:
        fail("histogram %s has no buckets" % family)
    for rest, series in buckets.items():
        values = [v for _, v in series]
        if values != sorted(values):
            fail("%s buckets decrease: %s" % (family, series))
        if series[-1][0] != "+Inf" or series[-1][1] != counts.get(rest):
            fail("%s +Inf bucket %s != _count %s"
                 % (family, series[-1], counts.get(rest)))


def check_exposition(stdout):
    text = stdout.decode("utf-8", "replace")
    if PROMETHEUS_MARKER not in text:
        fail("no Prometheus exposition in the example's output")
    lines = text.split(PROMETHEUS_MARKER, 1)[1].split("\n")[1:]
    if lines and lines[-1] == "":
        lines.pop()
    types, samples = parse_exposition(lines)
    for family, kind in types.items():
        if kind == "histogram":
            check_histogram(family, samples.get(family, []))

    def value(family, sample):
        for name, labels, v in samples.get(family, []):
            if name + labels == sample:
                return v
        fail("sample %s absent from the exposition" % sample)

    # Two queries ran and completed; the repeat hit the filter cache.
    for family, sample, want in (
            ("gsi_query_simulated_ms", "gsi_query_simulated_ms_count", 2),
            ("gsi_service_completed_total",
             'gsi_service_completed_total{status="ok"}', 2),
            ("gsi_filter_cache_hits_total", "gsi_filter_cache_hits_total", 1),
            ("gsi_pool_devices", "gsi_pool_devices", 4)):
        if value(family, sample) != want:
            fail("%s = %s, expected %s"
                 % (sample, value(family, sample), want))
    cycles = samples.get("gsi_device_simulated_cycles_total", [])
    if len(cycles) != 4:
        fail("gsi_device_simulated_cycles_total has %d samples, expected 4"
             % len(cycles))
    for family in ("gsi_service_partitioned_queries_total",
                   "gsi_pool_leases_total", "gsi_pool_replica_picks_total"):
        if family not in types:
            fail("family %s absent from the exposition" % family)
    return len(types), len(lines)


def validate_event(i, ev):
    for key in ("name", "ph", "ts", "dur", "pid", "tid"):
        if key not in ev:
            fail("event %d missing %r: %r" % (i, key, ev))
    if not isinstance(ev["name"], str) or not ev["name"]:
        fail("event %d has a non-string name: %r" % (i, ev))
    if ev["ph"] != "X":
        fail("event %d is not a complete event (ph=%r)" % (i, ev["ph"]))
    for key in ("ts", "dur"):
        if not isinstance(ev[key], (int, float)) or ev[key] < 0:
            fail("event %d has bad %s: %r" % (i, key, ev[key]))
    if "args" in ev and not isinstance(ev["args"], dict):
        fail("event %d has non-object args: %r" % (i, ev["args"]))


def main():
    if len(sys.argv) != 2:
        print("usage: trace_example_test.py <trace_query-binary>")
        return 2
    binary = sys.argv[1]

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "trace_query.json")
        proc = subprocess.run([binary, trace_path], stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=600)
        sys.stdout.buffer.write(proc.stdout)
        if proc.returncode != 0:
            fail("example exited with %d" % proc.returncode)
        with open(trace_path) as f:
            doc = json.load(f)
    families, exposition_lines = check_exposition(proc.stdout)

    if set(doc) - {"traceEvents", "displayTimeUnit"}:
        fail("unexpected top-level keys: %s" % sorted(doc))
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents missing or empty")

    spans = []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail("event %d is not an object: %r" % (i, ev))
        # Metadata events (thread naming) only need name/ph/pid/tid.
        if ev.get("ph") == "M":
            continue
        validate_event(i, ev)
        spans.append(ev)

    names = {ev["name"] for ev in spans}
    missing = REQUIRED_SPANS - names
    if missing:
        fail("required spans absent: %s (trace has %s)"
             % (sorted(missing), sorted(names)))

    # Replica lanes land on distinct device tracks (tid = device + 1).
    lane_tids = {ev["tid"] for ev in spans if ev["name"] == "lane"}
    if len(lane_tids) < 2:
        fail("expected lanes on >= 2 device tracks, got tids %s" % lane_tids)

    # Parents nest: every join_step must sit inside some enclosing span's
    # [ts, ts+dur] window on the same track. EPS absorbs float parsing of
    # the ns-exact decimal timestamps (one ns is 0.001 us).
    EPS = 0.002
    for ev in spans:
        if ev["name"] != "join_step":
            continue
        enclosing = [
            other for other in spans
            if other is not ev and other["tid"] == ev["tid"]
            and other["ts"] <= ev["ts"] + EPS
            and ev["ts"] + ev["dur"] <= other["ts"] + other["dur"] + EPS
        ]
        if not enclosing:
            fail("join_step at ts=%s tid=%s has no enclosing span"
                 % (ev["ts"], ev["tid"]))

    print("OK: %d events, %d spans, %d distinct names, lanes on tids %s; "
          "%d metric families in %d exposition lines"
          % (len(events), len(spans), len(names), sorted(lane_tids),
             families, exposition_lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
