#!/usr/bin/env python3
"""Build the rootcast benchmark from source and run one workload.

Run from the root of a rootcast checkout:

    python3 perfbench/run.py --workload paper_canonical --seed 1 --seconds 15 --trace 0

The benchmark binary is built in release mode with cargo (offline) into
$CARGO_TARGET_DIR, or .bench_build when that is unset. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON
result. The exit code is the benchmark's: 0 only when every output
check passed.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
BINARY = "rootcast-perfbench"


def source_rev():
    """The git revision, or a digest of the sources when not in git."""
    try:
        top, rev = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            return rev
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".rs", ".toml", ".txt"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, check=True
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        print("run.py: no rootcast sources next to perfbench/", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(MANIFEST),
        ],
        cwd=ROOT,
        env={**os.environ, "CARGO_TARGET_DIR": str(target)},
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1
    bench = subprocess.run(
        [
            str(target / "release" / BINARY),
            *sys.argv[1:],
            "--rev",
            source_rev(),
            "--rustc",
            rustc_version(),
            "--out-dir",
            str(ROOT / "perfbench" / "results"),
        ],
        cwd=ROOT,
    )
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
