#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fig3-tcp --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds, with cargo and in release mode,
the `fgdsm-node` worker (from the repository's own workspace) and the
`perfbench` binary (the package in this directory) into
`$CARGO_TARGET_DIR`, default `.bench_build`, then runs the binary with
the given arguments. Its standard output is passed through;
its last line is the JSON result. Build output goes to standard error.
"""

import os
import subprocess
import sys


def main():
    for need in ("Cargo.toml", "crates", "src"):
        if not os.path.exists(need):
            sys.stderr.write(
                f"run.py: no {need} here: run from the root of a full checkout\n"
            )
            return 2
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    manifest = os.path.join(os.path.dirname(os.path.abspath(__file__)), "Cargo.toml")
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    for what, args in (
        ("fgdsm-node", ["--bin", "fgdsm-node"]),
        ("perfbench", ["--manifest-path", manifest]),
    ):
        if subprocess.run(cargo + args, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write(f"run.py: building {what} failed\n")
            return 1
    binary = os.path.join(target_dir, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
