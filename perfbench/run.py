#!/usr/bin/env python3
"""Build the host-performance benchmark from source, then run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload kv_hotshard --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Every argument goes to the benchmark program (perfbench/perfbench.ml);
its last line of output is the result. The build lands in .bench_build
at the root. Exits non-zero, printing no result, when the build fails.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"


def dune():
    path = shutil.which("dune")
    if path:
        return [path]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found")


def main():
    root = os.getcwd()
    build = subprocess.run(
        dune() + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                  "--profile", "release", TARGET],
        cwd=root, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    exe = os.path.join(root, BUILD_DIR, "default", "perfbench", "perfbench.exe")
    sys.stdout.flush()
    sys.exit(subprocess.run([exe] + sys.argv[1:], cwd=root).returncode)


if __name__ == "__main__":
    main()
