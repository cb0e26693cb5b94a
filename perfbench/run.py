#!/usr/bin/env python3
"""Build the benchmark and the compiler from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gen-compile --seed 1 --seconds 18 --trace 0

The arguments are passed to perfbench/main.exe unchanged (see LAYERS.md
for the workloads and metrics).  The last line of standard output is the
benchmark's JSON result; build output goes to standard error.  Exits
non-zero, printing no result, when the build or the run fails.
"""

import os
import subprocess
import sys

BENCH = os.path.join("_build", "default", "perfbench", "main.exe")
RPROMOTE = os.path.join("_build", "default", "bin", "rpromote.exe")


def main():
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/rpromote.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0 or not os.path.exists(BENCH):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([BENCH, *sys.argv[1:], "--rpromote", RPROMOTE]).returncode


if __name__ == "__main__":
    sys.exit(main())
