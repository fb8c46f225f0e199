#!/usr/bin/env python3
"""Build `ifc` and `perfbench.exe` from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload check-hot --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Build output and progress
go to standard error. Sockets, store snapshots, daemon logs and span
files are written under `.perfbench/` in the checkout. See README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("check-hot", "check-cold-mls", "cert-store")
SOURCES = ("dune-project", "bin/dune", "lib", "test/corpus/fuzz")
BENCH = "_build/default/perfbench/perfbench.exe"
IFC = "_build/default/bin/ifc.exe"
WORK = ".perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [path for path in SOURCES if not os.path.exists(path)]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found: run from the root "
              "of a full checkout", file=sys.stderr)
        return 2

    # Without an opam environment on PATH, let opam supply one.
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    build = subprocess.run(
        dune + ["build", "--root", ".", "--cache=disabled", "-j", "2", IFC, BENCH],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    # Replace this process, so signals reach the benchmark, which stops
    # its daemons before exiting.
    os.execv(BENCH, [BENCH, "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--ifc", IFC, "--corpus", "test/corpus/fuzz", "--work", WORK])


if __name__ == "__main__":
    sys.exit(main())
