#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload solve-lowdiam --seed 1 --seconds 10 --trace 0

Run from the repository root. The Go build cache, module cache and binary
live under .bench_build/ so nothing is written outside the checkout. The
exit code is the benchmark's; a failed build exits non-zero without a
result line.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"), "perfbench")
    if not os.path.isabs(out):
        out = os.path.join(root, out)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOMODCACHE=os.path.join(out, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOENV="off",
        GOTELEMETRY="off",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
