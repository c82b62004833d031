#!/usr/bin/env python3
"""Build and run the LASER reproduction's benchmark from source.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark crate and the `experiments` binary (release, offline)
into $CARGO_TARGET_DIR (default: .bench_build), then runs the benchmark.
Build output goes to stderr; the last stdout line is the result object.
Workloads and metrics are described in perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, target, *extra):
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest, *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.run(command, env=env, stdout=sys.stderr).returncode


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                             os.path.join(ROOT, ".bench_build"))
    for manifest, extra in (
        (os.path.join(HERE, "Cargo.toml"), ()),
        (os.path.join(ROOT, "Cargo.toml"),
         ("-p", "laser-bench", "--bin", "experiments")),
    ):
        code = build(manifest, target, *extra)
        if code != 0:
            print(f"perfbench: building {manifest} failed", file=sys.stderr)
            return code if code > 0 else 1
    release = os.path.join(target, "release")
    command = [os.path.join(release, "perfbench"), *sys.argv[1:],
               "--experiments", os.path.join(release, "experiments"),
               "--work-dir", os.path.join(ROOT, ".perfbench_work")]
    # One malloc arena: with one per worker thread, the figure workloads'
    # peak RSS varied by 20% from run to run with the threads' timing.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
