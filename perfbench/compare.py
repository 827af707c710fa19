#!/usr/bin/env python3
"""Compares two sets of perfbench result records.

    python3 perfbench/compare.py --base A/*.json --new B/*.json

Records are the files perfbench/run.py writes under
<build dir>/perfbench-results/.  For every workload and end-to-end metric it
prints the base and new medians and the change as a share of the base
median, flagged when it is worse than the metric's bound in BENCHMARK.json.

Exit codes: 0 no metric worse than its bound, 1 some metric worse,
3 the records come from different host fingerprints (CPU, core count,
compiler, build type or build options) and are not compared at all.
"""

import argparse
import json
import os
import statistics
import sys

HOST_KEYS = ("cpu", "nproc", "compiler", "build_type", "vsan_native",
             "vsan_obs")
EXIT_REGRESSION = 1
EXIT_FINGERPRINT = 3


def load(paths):
    records = []
    for path in paths:
        with open(path) as f:
            record = json.load(f)
        if record.get("trace") == 0:
            records.append(record)
    return records


def host(record):
    return tuple((k, record["fingerprint"].get(k)) for k in HOST_KEYS)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = parser.parse_args()
    base, new = load(args.base), load(args.new)
    hosts = {host(r) for r in base + new}
    if len(hosts) != 1:
        print("refusing to compare results from different hosts:")
        for h in sorted(hosts):
            print("  " + ", ".join("%s=%s" % kv for kv in h))
        return EXIT_FINGERPRINT
    with open(args.benchmark) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}

    worse = False
    for workload in sorted({r["workload"] for r in base + new}):
        print(workload)
        for name, m in spec.items():
            a = [r["metrics"][name] for r in base if r["workload"] == workload]
            b = [r["metrics"][name] for r in new if r["workload"] == workload]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma
            regress = (change > m["bound"] if m["better"] == "lower"
                       else -change > m["bound"])
            worse = worse or regress
            print("  %-20s %12.5g -> %12.5g %-5s %+7.1f%% (n=%d/%d)%s" % (
                name, ma, mb, m["unit"], 100 * change, len(a), len(b),
                "  WORSE than bound %.0f%%" % (100 * m["bound"])
                if regress else ""))
    return EXIT_REGRESSION if worse else 0


if __name__ == "__main__":
    sys.exit(main())
