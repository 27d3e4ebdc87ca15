#!/usr/bin/env bash
# Fail if the probe kernel is compiled out of line. `execute_probe_fused`
# is the probe lanes' inner loop (78.6 M calls in the canonical run) and
# is marked #[inline(always)]; an outlined copy there costs the
# canonical run several percent. Builds the release root_event_nov2015
# example and fails if `nm -C` lists an `execute_probe_fused` symbol.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --example root_event_nov2015 -p rootcast-examples
target_dir="${CARGO_TARGET_DIR:-target}"
bin="$target_dir/release/examples/root_event_nov2015"

symbols="$(nm -C "$bin")"
if [ -z "$symbols" ]; then
  echo "kernel_inlined: $bin has no symbols to check" >&2
  exit 1
fi
if outlined="$(grep 'execute_probe_fused' <<<"$symbols")"; then
  echo "kernel_inlined: execute_probe_fused is compiled out of line:" >&2
  echo "$outlined" >&2
  exit 1
fi
echo "kernel_inlined: execute_probe_fused is inlined at every call site"
