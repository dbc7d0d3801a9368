#!/usr/bin/env python3
"""Build the simulator benchmark from source and run it.

Run from the repository root:

    python3 simbench/run.py --workload kvs-peak --seed 1 --seconds 15 --trace 0

The Go build cache and the binary live in .bench_build/ under the root,
so nothing is written outside the checkout. Arguments are passed to the
binary unchanged; see simbench/README.md. The exit code is the build's
when it fails, the benchmark's otherwise.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    binary = os.path.join(build, "simbench")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "go-cache"),
        GOPATH=os.path.join(build, "go-path"),
        GOMODCACHE=os.path.join(build, "go-path", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
    )
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    except FileNotFoundError:
        print("simbench: the go toolchain is not on PATH", file=sys.stderr)
        return 2
    if built.returncode != 0:
        return built.returncode
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
