#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. The benchmark is a Cargo package of
its own (perfbench/Cargo.toml) that builds the repository's crates from
source into $CARGO_TARGET_DIR (default: .bench_build), then runs the
workload in a process of its own. Scratch stores go under
$CARGO_TARGET_DIR/perfbench-work and are removed when the workload ends.
The workload process is pinned to one CPU, so that thread placement and
cross-CPU wake-ups do not vary from run to run, and runs with one malloc
arena (MALLOC_ARENA_MAX=1): with one arena per thread, whether the
server's connection thread of `serve` reuses an arena or makes a new one
depends on thread timing, and its peak resident memory jumped between
about 110 and 150 MB from run to run of the same seed. The last line of standard
output is the result as one JSON object; the exit code is 0 only when the
build succeeded and every check passed.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(root / "perfbench" / "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr, check=False)
    binary = target / "release" / "checkelide-perfbench"
    if build.returncode != 0 or not binary.is_file():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True, check=False)
    env["PERFBENCH_RUSTC"] = rustc.stdout.strip() or "unknown"
    env["PERFBENCH_NPROC"] = str(os.cpu_count() or 0)
    env["MALLOC_ARENA_MAX"] = "1"
    cpu = max(os.sched_getaffinity(0))
    sys.stdout.flush()
    run = subprocess.run(
        [str(binary), *sys.argv[1:], "--work-dir", str(target / "perfbench-work")],
        cwd=root, env=env, check=False,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
