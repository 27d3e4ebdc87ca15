#!/usr/bin/env bash
# Export and validate a chrome://tracing profile of the small scenario.
#
# Runs the `trace_export` example (event trace enabled), whose
# trace-event JSON is the run's span aggregate laid out as a flame
# graph: one "X" event per span path. Then validates it:
#   1. it parses as a non-empty JSON array of objects,
#   2. timestamps are monotonically non-decreasing (chrome://tracing
#      requires sorted events),
#   3. every event is an "X" with `dur >= 0`, an `args.path` and
#      `args.count >= 1`,
#   4. every child path's interval [ts, ts + dur] lies inside its
#      parent path's interval, and every parent path is present.
#
# Usage: scripts/trace.sh [output.json]   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-trace_events.json}

cargo run --release -q --example trace_export -- --small --out "$OUT"

echo "validating $OUT ..."

# 1. Parses as a non-empty array of objects.
jq -e 'type == "array" and length > 0 and all(.[]; type == "object")' \
    "$OUT" > /dev/null || { echo "FAIL: not a JSON array of objects" >&2; exit 1; }

# 2. Timestamps sorted ascending.
jq -e '[.[].ts] as $ts | $ts == ($ts | sort)' "$OUT" > /dev/null \
    || { echo "FAIL: timestamps not monotonically non-decreasing" >&2; exit 1; }

# 3. Well-formed X (complete) events carrying the aggregate.
jq -e 'all(.[]; .ph == "X" and .dur >= 0 and (.args.path | type) == "string"
                and .args.count >= 1)' "$OUT" > /dev/null \
    || { echo "FAIL: malformed X (complete) events" >&2; exit 1; }

# 4. Children nest inside their parents.
jq -e '(map({key: .args.path, value: {ts, end: (.ts + .dur)}}) | from_entries) as $iv
       | all(.[] | select(.args.path | contains("/"));
             (.args.path | sub("/[^/]*$"; "")) as $parent
             | $iv[$parent] != null
               and $iv[$parent].ts <= .ts
               and (.ts + .dur) <= $iv[$parent].end)' "$OUT" > /dev/null \
    || { echo "FAIL: a child span escapes its parent" >&2; exit 1; }

n_events=$(jq 'length' "$OUT")
n_nested=$(jq '[.[] | select(.args.path | contains("/"))] | length' "$OUT")
echo "ok: $n_events span paths ($n_nested nested), sorted and nested"
echo "open $OUT at chrome://tracing or https://ui.perfetto.dev"
