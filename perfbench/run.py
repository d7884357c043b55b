#!/usr/bin/env python3
"""Build the serving benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload crawl --seed 1 --seconds 15 --trace 0

It builds the `perfbench` harness and the `annotation-server` binary in
release mode (into `$CARGO_TARGET_DIR`, default `.bench_build`), then runs
the harness, which prints one JSON result line as the last line of its
standard output. Build output goes to standard error. Any failure exits
non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(here, "Cargo.toml"),
            "-p", "perfbench", "-p", "tu_server",
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    release = os.path.join(target, "release")
    harness = [
        os.path.join(release, "perfbench"),
        "--server-bin", os.path.join(release, "annotation-server"),
    ]
    return subprocess.run(harness + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
