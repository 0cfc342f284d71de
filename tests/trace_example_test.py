#!/usr/bin/env python3
"""Schema validation for the Chrome trace JSON the trace_query example emits.

Runs the example binary (argv[1]), loads the trace file it writes, and
checks both the trace_event schema (every complete event carries
name/ph/ts/dur/pid/tid with sane types) and the span coverage the
observability contract promises (docs/OBSERVABILITY.md): queue wait,
query root, filter, join steps, and per-device replica lanes — the
example drives the K=4/R=2 replicated service path, so all of them must
appear.
"""

import json
import os
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


def fail(msg):
    print("FAIL: %s" % msg)
    sys.exit(1)


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

    print("OK: %d events, %d spans, %d distinct names, lanes on tids %s"
          % (len(events), len(spans), len(names), sorted(lane_tids)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
