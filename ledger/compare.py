#!/usr/bin/env python3
"""Compares two sets of ledger run records.

    python3 ledger/compare.py BASE_DIR_OR_FILES... -- CHANGE_DIR_OR_FILES...

Each side is a list of record files (or directories of them) written by
ledger/run.py to .bench_build/records/. Refuses (exit 2) when the two sides
were measured on different hosts or builds: hardware_concurrency,
cpu_model, build_type and compiler must all match. Otherwise prints, per
workload and metric, each side's median and quartiles and the change of
the median, and marks an end-to-end metric REGRESSED when it got worse by
more than its bound in BENCHMARK.json (exit 1 if any did).
"""

import glob
import json
import os
import statistics
import sys

HOST_BUILD_FIELDS = ("hardware_concurrency", "cpu_model", "build_type",
                     "compiler")


def load(paths):
    records = []
    for path in paths:
        files = sorted(glob.glob(os.path.join(path, "*.json"))) \
            if os.path.isdir(path) else [path]
        for name in files:
            with open(name) as f:
                records.append(json.load(f))
    return records


def host_build(records):
    keys = {tuple(r.get(k) for k in HOST_BUILD_FIELDS) for r in records}
    if len(keys) != 1:
        raise SystemExit(f"refusing: mixed host/build fields within a side: "
                         f"{sorted(keys)}")
    return keys.pop()


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv):
    if "--" not in argv:
        raise SystemExit(__doc__)
    split = argv.index("--")
    base, change = load(argv[:split]), load(argv[split + 1:])
    if not base or not change:
        raise SystemExit("no records on one side")
    base_host, change_host = host_build(base), host_build(change)
    if base_host != change_host:
        print("refusing to compare records from different hosts or builds:")
        for field, a, b in zip(HOST_BUILD_FIELDS, base_host, change_host):
            if a != b:
                print(f"  {field}: {a!r} vs {b!r}")
        return 2

    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                             "BENCHMARK.json")
    bounds = {}
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        bounds = {m["name"]: (m["bound"], m["better"])
                  for m in spec.get("end_to_end", [])}

    def by_key(records):
        out = {}
        for r in records:
            for name, metric in r["metrics"].items():
                out.setdefault((r["workload"], name), []).append(
                    metric["value"])
        return out

    a, b = by_key(base), by_key(change)
    regressed = False
    for key in sorted(set(a) & set(b)):
        qa, qb = quartiles(a[key]), quartiles(b[key])
        change_frac = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        verdict = ""
        if key[1] in bounds:
            bound, better = bounds[key[1]]
            worse = change_frac if better == "lower" else -change_frac
            if worse > bound:
                verdict = "REGRESSED"
                regressed = True
        print(f"{key[0]:16s} {key[1]:28s} base {qa[1]:.5g} "
              f"[{qa[0]:.5g}, {qa[2]:.5g}] n={len(a[key])}  change "
              f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}] n={len(b[key])}  "
              f"{change_frac:+.1%} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
