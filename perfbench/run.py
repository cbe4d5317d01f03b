#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `c3-live-node` binary (from the repository workspace) and the
`c3-perfbench` package, then runs `c3-perfbench` with the arguments
given. Cargo's output goes to stderr, so the last line of stdout is the
benchmark's result. Build products go to `CARGO_TARGET_DIR`
(`.bench_build` at the repository root when unset); scratch files of the
node fleet go under it too. Exits non-zero, without a result, when the
build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    scratch = os.path.join(target, "perfbench-tmp")
    os.makedirs(scratch, exist_ok=True)
    env["TMPDIR"] = scratch

    builds = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "c3-live-node", "--bin", "c3-live-node"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    release = os.path.join(target, "release")
    env["C3_NODE_BIN"] = os.path.join(release, "c3-live-node")
    bench = [os.path.join(release, "c3-perfbench")] + sys.argv[1:]
    return subprocess.run(bench, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
