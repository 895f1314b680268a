#!/usr/bin/env python3
"""Records one perf-ledger entry: perfbench's output for every workload.

    python3 bench/ledger/record.py --label 16 --out bench/ledger/16.json \
        [--seeds 1 2 3] [--seconds 10]

Run from the repository root. For each seed, each workload BENCHMARK.json
names is run untraced and traced through perfbench/run.py. The entry keeps
each run's report line (perfbench's environment stamp, the graphs, the answer
digest) and its result line (the metrics). bench/ledger/diff.py compares two
entries.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.splitlines()
    report = json.loads(lines[-2])
    report.pop("trace_file", None)  # a path in this host's build tree
    return {"workload": workload, "seed": seed, "trace": trace,
            "report": report, "result": json.loads(lines[-1])}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                print(f"record.py: {workload} seed {seed} --trace {trace}", file=sys.stderr,
                      flush=True)
                runs.append(run(workload, seed, args.seconds, trace))
    entry = {"label": args.label, "seeds": args.seeds, "seconds": args.seconds, "runs": runs}
    Path(args.out).write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
