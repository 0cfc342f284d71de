#!/usr/bin/env bash
# Regenerates BENCH_paper.json: the --json records of the paper benches
# whose simulated columns the join moves (Tables VI-XI, Figs. 12-15), run
# at GSI_BENCH_SCALE=1 with the default query count and size, merged into
# one JSON array in bench order. Every recorded field is simulated, so the
# file repeats exactly on any host; a change that moves a paper number
# regenerates it in the same commit.
#
# Usage: tools/paper_records.sh [build-dir] [out]
#        (defaults: build, BENCH_paper.json)

set -euo pipefail

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_paper.json}"
BENCHES=(
  table6_join_phase
  table7_write_cache
  table8_optimizations
  table9_tune_w1
  table10_tune_w3
  table11_dup_removal
  fig12_overall
  fig13_scalability
  fig14_labels
  fig15_query_size
)

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
files=()
for b in "${BENCHES[@]}"; do
  env GSI_BENCH_SCALE=1 GSI_BENCH_QUERIES=5 GSI_BENCH_QSIZE=8 \
    "$BUILD_DIR/bench/bench_$b" --json "$tmp/$b.json" > /dev/null
  files+=("$tmp/$b.json")
done
python3 - "$OUT" "${files[@]}" <<'PYEOF'
import json, sys
records = []
for path in sys.argv[2:]:
    records.extend(json.load(open(path)))
with open(sys.argv[1], "w") as out:
    out.write("[\n")
    out.write(",\n".join("  " + json.dumps(r) for r in records))
    out.write("\n]\n")
print("wrote %d records to %s" % (len(records), sys.argv[1]))
PYEOF
