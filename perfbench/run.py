#!/usr/bin/env python3
"""Builds the benchmark and the release `recordd` from source, then runs
one workload of the benchmark.

    python3 perfbench/run.py --workload dspstone-matrix --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout. Build output goes to
$CARGO_TARGET_DIR (default `.bench_build`); span files and scratch cache
directories go to `.bench_build/perfbench-out`. The last line of
standard output is the result as one JSON object.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(args, env):
    # cargo's progress goes to stderr; keep stdout for the result
    return subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False,
    ).returncode


def main():
    for needed in ("Cargo.toml", "crates", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: `{needed}` is missing: run from a full checkout",
                  file=sys.stderr)
            return 2
    env = dict(os.environ)
    target_dir = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target_dir = os.path.join(ROOT, target_dir)  # relative paths are relative to ROOT
    env["CARGO_TARGET_DIR"] = target_dir
    if build(["--bin", "recordd", "--manifest-path", os.path.join(ROOT, "Cargo.toml")], env):
        print("perfbench: building recordd failed", file=sys.stderr)
        return 2
    if build(["--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")], env):
        print("perfbench: building the benchmark failed", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".bench_build", "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    exe = os.path.join(target_dir, "release", "perfbench")
    recordd = os.path.join(target_dir, "release", "recordd")
    return subprocess.run(
        [exe, *sys.argv[1:], "--recordd", recordd, "--out-dir", out_dir], cwd=ROOT, check=False
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
