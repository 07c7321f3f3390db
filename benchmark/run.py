#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of the repository:

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Every argument is passed on to psn_bench.exe (see benchmark/README.md);
the build's own output goes to stderr, so the last line of stdout is the
benchmark's JSON result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "benchmark", "psn_bench.exe")


def main() -> int:
    try:
        # No shared build cache: the build reads and writes only here.
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled", "./benchmark/psn_bench.exe"],
            stdout=sys.stderr,
        )
    except OSError as e:
        print(f"run.py: cannot run dune: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("run.py: the build failed", file=sys.stderr)
        return build.returncode or 2
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
