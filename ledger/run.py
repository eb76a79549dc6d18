#!/usr/bin/env python3
"""Builds and runs the ResAcc ledger benchmark.

    python3 ledger/run.py --workload sparse-uniform --seed 1 --seconds 30

Run from the repository root. Builds the ResAcc library, the resacc_serve
tool and the benchmark program from source into .bench_build/ (CMake, Release),
generates the two benchmark graphs once as .rsg snapshots, then runs one
workload. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the full record of the run
(host, build, graph checksums, metrics, spans) is written to
.bench_build/records/. Exits nonzero on a build failure or a failed
correctness check.

    python3 ledger/run.py --selftest

builds and runs the benchmark's own tests instead.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "cmake")
WORKLOADS = ("sparse-uniform", "hub-batch", "zipf-topk-churn")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "ledger_bench", "ledger_test", "resacc_serve_cli"],
                   stdout=sys.stderr, check=True)


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    same_tree = len(out) == 2 and os.path.samefile(out[0], ROOT)
    return out[1] if same_tree else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    # Compilers and tools keep their temporary files inside the checkout.
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(OUT, "tmp")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"ledger: build failed: {err}", file=sys.stderr)
        return 1
    bench = os.path.join(BUILD, "ledger_bench")
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "ledger_test")]).returncode

    graphs = os.path.join(OUT, "graphs")
    records = os.path.join(OUT, "records")
    os.makedirs(records, exist_ok=True)
    gen = subprocess.run([bench, "gen", "--dir=" + graphs], stdout=sys.stderr)
    if gen.returncode != 0:
        return gen.returncode
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [bench, "run", "--workload=" + args.workload,
           f"--seed={args.seed}", f"--seconds={args.seconds:g}",
           f"--trace={args.trace}", "--dir=" + graphs,
           "--serve=" + os.path.join(BUILD, "resacc", "tools", "resacc_serve"),
           "--server-log=" + os.path.join(OUT, "server.log"),
           "--record=" + os.path.join(records, name + ".json"),
           "--git-sha=" + git_sha()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
