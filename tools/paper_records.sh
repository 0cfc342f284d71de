#!/usr/bin/env bash
# Regenerates BENCH_paper.json: the --json records of the paper benches
# (Tables IV-XI, Figs. 12-15), run at GSI_BENCH_SCALE=1 with the default
# query count and size, merged into one JSON array in bench order. Every
# recorded field is simulated, so the file repeats exactly on any host; a
# change that moves a paper number regenerates it in the same commit.
#
# Usage: tools/paper_records.sh [build-dir] [out]
#          (defaults: build, BENCH_paper.json) writes every bench's records.
#        tools/paper_records.sh --list
#          prints the bench names, one per line.
#        tools/paper_records.sh --check <build-dir> <bench>
#          runs one bench and compares its records exactly with its records
#          in BENCH_paper.json (tools/bench_diff.py --exact); registered
#          with ctest as paper_records_<bench>.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BENCHES=(
  table4_filtering
  table5_tune_n
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

if [[ "${1:-}" == "--list" ]]; then
  printf '%s\n' "${BENCHES[@]}"
  exit 0
fi

check=0
if [[ "${1:-}" == "--check" ]]; then
  [[ $# -eq 3 ]] || { echo "usage: $0 --check <build-dir> <bench>" >&2; exit 2; }
  [[ " ${BENCHES[*]} " == *" $3 "* ]] || {
    echo "$0: $3 is not a paper bench (see --list)" >&2
    exit 2
  }
  check=1
  BUILD_DIR="$2"
  selected=("$3")
else
  [[ $# -le 2 ]] || { echo "usage: $0 [build-dir] [out]" >&2; exit 2; }
  BUILD_DIR="${1:-build}"
  OUT="${2:-BENCH_paper.json}"
  selected=("${BENCHES[@]}")
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
files=()
for b in "${selected[@]}"; do
  env GSI_BENCH_SCALE=1 GSI_BENCH_QUERIES=5 GSI_BENCH_QSIZE=8 \
    "$BUILD_DIR/bench/bench_$b" --json "$tmp/$b.json" > /dev/null
  files+=("$tmp/$b.json")
done

if [[ $check -eq 1 ]]; then
  # Not exec: the EXIT trap must still remove $tmp.
  status=0
  python3 "$ROOT/tools/bench_diff.py" --exact --bench "${selected[0]}" \
    "$ROOT/BENCH_paper.json" "${files[0]}" || status=$?
  exit $status
fi

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
