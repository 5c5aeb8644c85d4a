#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the `perfbench` package and the
`oasis-serve` binary in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then runs one measurement.  The report goes to stdout; its
last line is the JSON result.  Exits non-zero, printing no result, when the
build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "oasis-engine", "--bin", "oasis-serve"],
    ]
    for args in builds:
        command = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        # Build output goes to stderr so stdout carries only the report.
        if subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        "--server", os.path.join(release, "oasis-serve"),
        "--root", ROOT,
    ] + sys.argv[1:]
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
