#!/usr/bin/env bash
# Fail the build if `unsafe` spreads. Counts the lines that use the
# `unsafe` keyword (comments do not count; test modules do) in every
# crate under crates/ and vendor/, against the baselines below, and
# requires a `// SAFETY:` comment directly above each such line.
#
# The workspace crates hold at zero: each has `#![forbid(unsafe_code)]`,
# and so does the vendored rayon, whose fan-outs run on scoped threads.
# Of the vendored stand-ins only rand_chacha needs it: it enters its
# SSE2 keystream function and stores its 16-byte lanes (two blocks).
# Lowering a baseline is encouraged; raising one needs a very good
# reason in review.
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A UNSAFE_BASELINE=(
  [vendor/rand_chacha/src]=2
)

# Prints "<count> <missing-SAFETY count>" for the .rs files under a dir,
# and each uncommented use on stderr.
count_unsafe() { # dir
  find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { safety = 0 }
    /^[[:space:]]*\/\// { if ($0 ~ /SAFETY:/) safety = 1; next }
    {
      code = $0
      sub(/\/\/.*/, "", code)
      if (code ~ /(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/) {
        n++
        if (!safety) {
          bad++
          print FILENAME ":" FNR ": `unsafe` without a // SAFETY: comment above" > "/dev/stderr"
        }
      }
      safety = 0
    }
    END { print n + 0, bad + 0 }'
}

status=0
for dir in crates/*/src vendor/*/src; do
  read -r count bad < <(count_unsafe "$dir")
  allowed=${UNSAFE_BASELINE[$dir]:-0}
  if ((count > allowed || bad > 0)); then
    echo "FAIL $dir: $count unsafe lines (baseline $allowed), $bad without SAFETY" >&2
    status=1
  else
    echo "ok   $dir: $count unsafe lines (baseline $allowed)"
  fi
done

if ((status != 0)); then
  echo >&2
  echo "Keep unsafe code in the vendored stand-ins that need it, one" >&2
  echo "block per obligation, each under a // SAFETY: comment that says" >&2
  echo "why it holds." >&2
fi
exit "$status"
