#!/usr/bin/env bash
# CI smoke driver: runs the example binaries and bench smokes that used to
# be hand-rolled workflow steps, one named smoke per invocation (or `all`).
# Bench smokes run at GSI_BENCH_SCALE=1 with tiny query counts — they
# exercise the end-to-end paths, not produce paper-scale numbers — and
# every `--json` record lands in $ARTIFACTS_DIR so the workflow can upload
# the full set as one artifact (the cross-run perf trajectory).
#
# Usage: ci/smoke.sh [all | sanitizer | <smoke> ...]
# Env:   BUILD_DIR (default: build), ARTIFACTS_DIR (default: bench-artifacts)
#
# `sanitizer` selects the subset the TSan/ASan CI legs run: one end-to-end
# smoke per concurrency shape (async service, pool fan-out, replica lanes)
# plus the two benches that stress Acquire*/Release wakeups, sized so an
# instrumented build finishes in minutes.

set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
ARTIFACTS_DIR="${ARTIFACTS_DIR:-bench-artifacts}"
mkdir -p "$ARTIFACTS_DIR"

ALL_SMOKES=(
  example-query-service
  example-sharded
  example-replicated
  example-replicated-chaos
  example-trace
  example-streaming
  example-storage
  bench-service
  bench-service-faults
  bench-service-paged
  bench-sharding
  bench-partition
  bench-dup-removal
  bench-join-phase
  bench-filtering
)

# The sanitizer subset now carries every system bench smoke (ROADMAP: bench
# smokes under the TSan leg) plus the chaos smoke — fault injection, quarantine and
# retry wakeups are exactly the cross-thread traffic TSan should watch.
SANITIZER_SMOKES=(
  example-query-service
  example-sharded
  example-replicated
  example-replicated-chaos
  example-streaming
  bench-service
  bench-service-faults
  bench-service-paged
  bench-sharding
  bench-partition
)

run_bench() {
  # run_bench <binary> <json-name> [ENV=VAL ...]
  local binary="$1" json="$2"
  shift 2
  echo "::group::bench $binary"
  env GSI_BENCH_SCALE=1 GSI_BENCH_QUERIES=3 "$@" \
    "$BUILD_DIR/bench/$binary" --json "$ARTIFACTS_DIR/$json"
  cat "$ARTIFACTS_DIR/$json"
  echo
  echo "::endgroup::"
}

run_smoke() {
  case "$1" in
    # Exercise the async serving paths end-to-end (submit/poll, admission
    # control, deadlines, filter cache) outside the unit-test harness.
    example-query-service)
      GSI_SERVICE_VERTICES=1000 GSI_SERVICE_QUERIES=160 \
        "$BUILD_DIR/examples/query_service"
      ;;
    # Multi-device fan-out over the shared pool.
    example-sharded)
      GSI_SHARD_EXAMPLE_SCALE=1 GSI_SHARD_EXAMPLE_DEVICES=4 \
        "$BUILD_DIR/examples/sharded_query"
      ;;
    # Partitioned data graph: the K sweep at R=1 (hash vs greedy
    # ownership), then R-way replicas (concurrent lanes + replica routing).
    example-replicated)
      GSI_REPL_EXAMPLE_SCALE=1 GSI_REPL_EXAMPLE_REPLICAS=2 \
        "$BUILD_DIR/examples/replicated_query"
      ;;
    # Chaos smoke: kill a pool device mid-burst; the burst must finish with
    # every result bit-identical (the example asserts quarantine, failover
    # and zero lost queries itself).
    example-replicated-chaos)
      GSI_REPL_EXAMPLE_SCALE=1 GSI_REPL_EXAMPLE_REPLICAS=2 \
        "$BUILD_DIR/examples/replicated_query" --kill-device
      ;;
    # End-to-end tracing: the example submits a traced query through the
    # replicated service path and writes Chrome trace JSON; validate that
    # the export parses and carries the load-bearing span names.
    example-trace)
      "$BUILD_DIR/examples/trace_query" "$ARTIFACTS_DIR/trace_query.json"
      python3 - "$ARTIFACTS_DIR/trace_query.json" <<'PYEOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
names = {e.get("name") for e in events if e.get("ph") == "X"}
missing = {"queue_wait", "query", "filter", "result_merge"} - names
assert not missing, "trace missing spans: %s (got %s)" % (missing, names)
missing = {"lane", "lane_scan", "join_step"} - names
assert not missing, "trace missing per-lane spans: %s (got %s)" % (missing,
                                                                   names)
print("trace JSON ok: %d events, %d distinct spans" % (len(events),
                                                       len(names)))
PYEOF
      ;;
    # Paged result cursors end-to-end: stream a ~100K-match result through
    # Submit -> FetchPage under a 4 KiB host budget; the example itself
    # asserts every page fits the budget and the concatenation is
    # byte-identical to a one-shot Wait.
    example-streaming)
      GSI_STREAM_VERTICES=800 GSI_STREAM_BUDGET=4096 \
        "$BUILD_DIR/examples/streaming_results"
      ;;
    # All four N(v, l) stores of Table II over one graph: builds each from
    # the label partitions and reads whole lists through every store.
    example-storage)
      "$BUILD_DIR/examples/storage_explorer" 5000 8
      ;;
    bench-service)
      run_bench bench_service_throughput bench_service.json \
        GSI_BENCH_QUERIES=5
      ;;
    # Fault sweep: one injected device failure per four queries; the JSON
    # record carries availability and the simulated retry overhead.
    bench-service-faults)
      echo "::group::bench bench_service_throughput --fault-rate"
      env GSI_BENCH_SCALE=1 GSI_BENCH_QUERIES=3 \
        "$BUILD_DIR/bench/bench_service_throughput" \
        --fault-rate 0.25 --benchmark_filter=faulted \
        --json "$ARTIFACTS_DIR/bench_service_faults.json"
      cat "$ARTIFACTS_DIR/bench_service_faults.json"
      echo
      python3 - "$ARTIFACTS_DIR/bench_service_faults.json" <<'PYEOF'
import json, sys
recs = [r for r in json.load(open(sys.argv[1])) if r["config"] == "faulted"]
assert recs, "no faulted record in --json output"
r = recs[0]
assert r["availability"] == 1.0, "queries lost under injected faults: %s" % r
assert r["retries"] >= r["injected_faults"] > 0, "faults did not trip: %s" % r
assert r["retry_overhead_ms"] > 0, "retry backoff missing: %s" % r
print("fault smoke ok: availability %.3f over %d faults, %.2f ms overhead"
      % (r["availability"], int(r["injected_faults"]), r["retry_overhead_ms"]))
PYEOF
      echo "::endgroup::"
      ;;
    # Paged-cursor leg: every result streamed through FetchPage under a
    # 256-byte page budget (small enough that multi-row results split into
    # several pages at smoke scale). The JSON assertion pins the acceptance
    # bar: page concatenation bit-identical to one-shot RunBatch, pages
    # actually fetched, and no page ever exceeding the host budget.
    bench-service-paged)
      echo "::group::bench bench_service_throughput --page-budget"
      env GSI_BENCH_SCALE=1 GSI_BENCH_QUERIES=3 \
        "$BUILD_DIR/bench/bench_service_throughput" \
        --page-budget 256 --benchmark_filter=paged \
        --json "$ARTIFACTS_DIR/bench_service_paged.json"
      cat "$ARTIFACTS_DIR/bench_service_paged.json"
      echo
      python3 - "$ARTIFACTS_DIR/bench_service_paged.json" <<'PYEOF'
import json, sys
recs = [r for r in json.load(open(sys.argv[1])) if r["config"] == "paged"]
assert recs, "no paged record in --json output"
r = recs[0]
assert r["paged_bit_identical"] == 1.0, "page concat diverged: %s" % r
assert r["pages_fetched"] > 0, "no pages fetched: %s" % r
assert r["peak_page_bytes"] <= max(r["page_budget_bytes"], 64), \
    "a page exceeded the host budget: %s" % r
print("paged smoke ok: %d pages, peak page %d B <= %d B budget, "
      "%.6f MB peak resident, bit-identical"
      % (int(r["pages_fetched"]), int(r["peak_page_bytes"]),
         int(r["page_budget_bytes"]), r["peak_result_resident_mb"]))
PYEOF
      echo "::endgroup::"
      ;;
    # 2-device fan-out exercises the device-pool path end-to-end; the
    # JSON assertion pins the heavy query's join actually spanning both.
    bench-sharding)
      run_bench bench_sharding_scalability bench_sharding.json \
        GSI_BENCH_DEVICES="1 2"
      python3 - "$ARTIFACTS_DIR/bench_sharding.json" <<'PYEOF'
import json, sys
recs = {r["config"]: r for r in json.load(open(sys.argv[1]))}
assert recs["devices=2"]["shards"] == 2, \
    "2-device join did not fan out: %s" % recs["devices=2"]
PYEOF
      ;;
    # The partitioned (K, R) grid in one run: K = 1, 2, 4 at R = 1
    # exercises the halo exchange and the memory-per-device accounting,
    # R = 2 at K = 4 the AcquireOneOfEach lanes, replica routing and the
    # service burst. The per-lane halo budget is deliberately tiny (small
    # enough to force LRU evictions at smoke scale). The bench itself
    # GSI_CHECKs every table bit-identical; the JSON assertion pins the
    # cache engaging on every record of a point that ran the cached leg:
    # hit rate > 0 and remote transactions saved. (The residency bound is
    # a unit test's: HaloCacheUnit.LruEvictionKeepsResidencyUnderBudget.)
    bench-partition)
      run_bench bench_partition_scalability bench_partition.json \
        GSI_BENCH_PARTITIONS="1 2 4" GSI_BENCH_REPLICAS="1 2" \
        GSI_BENCH_HALO_BUDGET=4096
      python3 - "$ARTIFACTS_DIR/bench_partition.json" <<'PYEOF'
import json, sys
recs = [r for r in json.load(open(sys.argv[1]))
        if "halo_cache_hit_rate" in r]
assert recs, "no halo-cache leg in --json output"
for r in recs:
    assert r["halo_bit_identical"] == 1.0, "cached table diverged: %s" % r
    assert r["halo_cache_hit_rate"] > 0, "halo cache never hit: %s" % r
    assert r["saved_remote_transactions"] > 0, \
        "cached run saved no remote transactions: %s" % r
    print("halo smoke ok: %s / %s: hit rate %.2f, %d remote transactions "
          "saved"
          % (r["bench"], r["config"], r["halo_cache_hit_rate"],
             int(r["saved_remote_transactions"])))
PYEOF
      ;;
    # Table XI under the perf gate: one record per dataset whose p50 is
    # the mean simulated join ms with duplicate removal. Removal shares
    # reads and probes, so it may never load more than the run with
    # duplicates.
    bench-dup-removal)
      run_bench bench_table11_dup_removal bench_dup_removal.json
      python3 - "$ARTIFACTS_DIR/bench_dup_removal.json" <<'PYEOF'
import json, sys
recs = json.load(open(sys.argv[1]))
assert recs, "no table11 record in --json output"
for r in recs:
    assert r["gld_removal"] <= r["gld_dups"], \
        "duplicate removal loaded more: %s" % r
    print("dup-removal smoke ok: %s: gld %d -> %d, join %.4f -> %.4f ms"
          % (r["config"], int(r["gld_dups"]), int(r["gld_removal"]),
             r["join_ms_dups"], r["p50"]))
PYEOF
      ;;
    # Table VI's conclusion: each join technique the paper adds (+DS
    # PCSR, +PC Prealloc-Combine, +SO GPU-friendly set ops) strictly
    # lowers both join GLD and simulated join ms, on every dataset.
    bench-join-phase)
      run_bench bench_table6_join_phase bench_join_phase.json
      python3 - "$ARTIFACTS_DIR/bench_join_phase.json" <<'PYEOF'
import json, sys
order = ["GSI-", "+DS", "+PC", "+SO"]
rows = {}
for r in json.load(open(sys.argv[1])):
    fields = dict(kv.split("=", 1) for kv in r["config"].split(","))
    rows.setdefault(fields["dataset"], {})[fields["config"]] = r
assert rows, "no table6 record in --json output"
for dataset, by_config in sorted(rows.items()):
    assert sorted(by_config) == sorted(order), \
        "%s: configs %s" % (dataset, sorted(by_config))
    chain = [by_config[c] for c in order]
    for prev, cur, name in zip(chain, chain[1:], order[1:]):
        assert cur["join_gld"] < prev["join_gld"], \
            "%s %s did not lower join gld: %s" % (dataset, name, chain)
        assert cur["join_ms"] < prev["join_ms"], \
            "%s %s did not lower join ms: %s" % (dataset, name, chain)
    print("join-phase smoke ok: %s: gld %s, join ms %s"
          % (dataset, " > ".join(str(int(r["join_gld"])) for r in chain),
             " > ".join("%.4f" % r["join_ms"] for r in chain)))
PYEOF
      ;;
    # Table IV's conclusion: on every dataset the GSI signature filter
    # leaves the smallest minimum candidate set and takes the least
    # simulated filter time of the three strategies.
    bench-filtering)
      run_bench bench_table4_filtering bench_filtering.json
      python3 - "$ARTIFACTS_DIR/bench_filtering.json" <<'PYEOF'
import json, sys
rows = {}
for r in json.load(open(sys.argv[1])):
    fields = dict(kv.split("=", 1) for kv in r["config"].split(","))
    rows.setdefault(fields["dataset"], {})[fields["strategy"]] = r
assert rows, "no table4 record in --json output"
for dataset, by_strategy in sorted(rows.items()):
    assert sorted(by_strategy) == ["GSI", "GpSM", "GunrockSM"], \
        "%s: strategies %s" % (dataset, sorted(by_strategy))
    gsi = by_strategy["GSI"]
    for name in ("GpSM", "GunrockSM"):
        other = by_strategy[name]
        assert gsi["min_c"] < other["min_c"], \
            "%s: GSI min |C(u)| not below %s: %s" % (dataset, name, by_strategy)
        assert gsi["filter_ms"] < other["filter_ms"], \
            "%s: GSI filter ms not below %s: %s" % (dataset, name, by_strategy)
    print("filtering smoke ok: %s: min |C(u)| GSI %.1f, GpSM %.1f, "
          "GunrockSM %.1f; filter ms %.4f, %.4f, %.4f"
          % (dataset, gsi["min_c"], by_strategy["GpSM"]["min_c"],
             by_strategy["GunrockSM"]["min_c"], gsi["filter_ms"],
             by_strategy["GpSM"]["filter_ms"],
             by_strategy["GunrockSM"]["filter_ms"]))
PYEOF
      ;;
    *)
      echo "unknown smoke: $1" >&2
      echo "known: all sanitizer ${ALL_SMOKES[*]}" >&2
      exit 2
      ;;
  esac
}

if [ "$#" -eq 0 ] || [ "$1" = "all" ]; then
  set -- "${ALL_SMOKES[@]}"
elif [ "$1" = "sanitizer" ]; then
  set -- "${SANITIZER_SMOKES[@]}"
fi
for smoke in "$@"; do
  echo "=== smoke: $smoke"
  run_smoke "$smoke"
done
