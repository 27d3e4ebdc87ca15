#!/usr/bin/env bash
# Fail the build if non-test `unwrap()` / `expect()` use creeps back
# into the layers that were converted to typed errors. Lines inside a
# file's trailing `#[cfg(test)]` module do not count: tests may unwrap
# freely.
#
# The per-directory baselines below are the post-conversion counts.
# Lowering a baseline after removing panicking calls is encouraged;
# raising one needs a very good reason in review.
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A UNWRAP_BASELINE=(
  [crates/dns/src]=0
  [crates/atlas/src]=0
  [crates/rssac/src]=0
  [crates/core/src/analysis]=0
  [crates/topology/src]=0
  [crates/attack/src]=0
  [crates/bgp/src]=0
  [crates/anycast/src]=0
  [crates/netsim/src]=1
)

# `.expect(` baselines: dns, atlas and netsim carry a handful of provably
# infallible expects (writes into Vec/String buffers and the like);
# everything else — including the analysis layer, where figure11's
# raster expect used to panic on non-rastered letters — holds at zero.
declare -A EXPECT_BASELINE=(
  [crates/dns/src]=9
  [crates/atlas/src]=1
  [crates/rssac/src]=0
  [crates/core/src/analysis]=0
  [crates/topology/src]=0
  [crates/attack/src]=0
  [crates/bgp/src]=0
  [crates/anycast/src]=0
  [crates/netsim/src]=2
)

count_nontest() { # dir, pattern
  local dir=$1 pattern=$2 total=0 in_file
  while IFS= read -r file; do
    in_file=$(awk '/#\[cfg\(test\)\]/ { in_test = 1 } !in_test' "$file" \
      | grep -c "$pattern" || true)
    total=$((total + in_file))
  done < <(find "$dir" -name '*.rs')
  echo "$total"
}

status=0
check() { # label, pattern, baseline-map-name
  local label=$1 pattern=$2 count allowed
  declare -n baseline=$3
  for dir in "${!baseline[@]}"; do
    count=$(count_nontest "$dir" "$pattern")
    allowed=${baseline[$dir]}
    if ((count > allowed)); then
      echo "FAIL $dir: $count non-test $label calls (baseline $allowed)" >&2
      status=1
    else
      echo "ok   $dir: $count non-test $label calls (baseline $allowed)"
    fi
  done
}

check "unwrap()" '\.unwrap(' UNWRAP_BASELINE
check "expect()" '\.expect(' EXPECT_BASELINE

if ((status != 0)); then
  echo >&2
  echo "Replace unwrap()/expect() with typed errors (RootcastError and" >&2
  echo "friends) or graceful degradation; see DESIGN.md's fault-model" >&2
  echo "section." >&2
fi
exit "$status"
