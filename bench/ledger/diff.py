#!/usr/bin/env python3
"""Compares two perf-ledger entries metric by metric.

    python3 bench/ledger/diff.py bench/ledger/15.json bench/ledger/16.json [--e2e]

Prints, per workload, each metric's median over the entry's runs (untraced
runs for the end-to-end metrics, traced runs for the per-layer ones) in a
and in b, and the ratio b / a. An end-to-end metric that is worse in b by
more than its BENCHMARK.json bound is flagged "!!", and the exit code is
then 1. BENCHMARK.json is only read. Runs whose environment stamps differ
(nproc, workers, kernel backend, build type) are reported, since their
numbers do not compare. --e2e prints the end-to-end metrics only.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
STAMP_KEYS = ("nproc", "workers", "kernel_backend", "build_type", "comparable")


def medians(entry):
    """{(workload, trace): {metric: median value}} and the stamps seen."""
    values = defaultdict(lambda: defaultdict(list))
    stamps = set()
    for run in entry["runs"]:
        stamps.add(tuple(run["report"].get(k) for k in STAMP_KEYS))
        for name, metric in run["result"]["metrics"].items():
            values[(run["workload"], run["trace"])][name].append(metric["value"])
    return ({key: {name: statistics.median(v) for name, v in metrics.items()}
             for key, metrics in values.items()}, stamps)


def worse_beyond(metric, a, b):
    """True when b is worse than a by more than the metric's relative bound."""
    if a == 0:
        return False
    ratio = b / a
    if metric["better"] == "lower":
        return ratio > 1 + metric["bound"]
    return ratio < 1 - metric["bound"]


def main():
    args = [a for a in sys.argv[1:] if a != "--e2e"]
    traces = (0,) if "--e2e" in sys.argv[1:] else (0, 1)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a_entry, b_entry = (json.loads(Path(p).read_text()) for p in args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    (a, a_stamps), (b, b_stamps) = medians(a_entry), medians(b_entry)
    print(f"a = {a_entry['label']}, b = {b_entry['label']}")
    if len(a_stamps | b_stamps) > 1:
        print(f"note: environment stamps differ {sorted(map(str, a_stamps | b_stamps))}")
    flagged = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in traces:
            ma, mb = a.get((workload, trace)), b.get((workload, trace))
            if ma is None or mb is None:
                continue
            print(f"\n{workload} --trace {trace}")
            for name in sorted(set(ma) & set(mb)):
                if (name in end_to_end) != (trace == 0):
                    continue
                va, vb = ma[name], mb[name]
                ratio = f"{vb / va:8.3f}" if va else "       -"
                flag = ""
                if name in end_to_end and worse_beyond(end_to_end[name], va, vb):
                    flag = "  !! beyond bound"
                    flagged += 1
                print(f"  {name:44s} {va:14.6g} {vb:14.6g} {ratio}{flag}")
    print(f"\n{flagged} end-to-end metric(s) worse beyond their bound")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
