#!/usr/bin/env python3
"""Build and run the campaign benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The benchmark executable is built
from source with dune (release profile, build directory `.bench_build`, no
shared build cache, so nothing is written outside the checkout), then run
with the same arguments; its standard output, whose last line is
the JSON result, is passed through unchanged.  If the build fails, this
script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--cache", "disabled", TARGET],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stderr)
        sys.stderr.write("perfbench: build failed\n")
        return 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
