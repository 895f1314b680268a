#!/usr/bin/env python3
"""Records one perf-ledger entry: perfbench's output for every workload.

    python3 bench/ledger/record.py --label 16 --out bench/ledger/16.json \
        [--seeds 1 2 3] [--seconds 10]

    python3 bench/ledger/record.py --label 20 --out bench/ledger/20.json \
        --against ../parent --against-label 19 --against-out /tmp/19.json \
        [--seeds 1 2 3] [--seconds 10]

Run from the repository root. For each seed, each workload BENCHMARK.json
names is run untraced and traced through perfbench/run.py. The entry keeps
each run's report line (perfbench's environment stamp, the graphs, the answer
digest) and its result line (the metrics). bench/ledger/diff.py compares two
entries.

--against DIR also records an entry for a second checkout in DIR (usually
the parent commit, unpacked with `git archive`), through DIR's own
perfbench/run.py. The two trees run in alternation: each workload and trace
setting runs on both back to back, and which tree goes first flips from one
seed to the next. A host that slows down or speeds up during the recording
then shifts both entries alike, where two entries recorded one after the
other would read the drift as a change between them. The second entry is
written to --against-out under --against-label. Each tree builds perfbench
in its own directory: DIR/.bench_build, or $CARGO_TARGET_DIR/against when
CARGO_TARGET_DIR is set.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def run(root, env, workload, seed, seconds, trace):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.splitlines()
    report = json.loads(lines[-2])
    report.pop("trace_file", None)  # a path in this host's build tree
    return {"workload": workload, "seed": seed, "trace": trace,
            "report": report, "result": json.loads(lines[-1])}


def against_env():
    """The environment of the --against tree's runs: its own build directory."""
    env = dict(os.environ)
    if "CARGO_TARGET_DIR" in env:
        env["CARGO_TARGET_DIR"] = str(Path(env["CARGO_TARGET_DIR"]).resolve() / "against")
    return env


def write_entry(label, path, args, runs):
    entry = {"label": label, "seeds": args.seeds, "seconds": args.seconds, "runs": runs}
    Path(path).write_text(json.dumps(entry, indent=1) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--against", type=Path,
                        help="a second checkout to record in alternation with this one")
    parser.add_argument("--against-label", help="the --against entry's label")
    parser.add_argument("--against-out", help="where to write the --against entry")
    args = parser.parse_args()
    if args.against is not None and (args.against_label is None or args.against_out is None):
        parser.error("--against needs --against-label and --against-out")
    if args.against is not None and not (args.against / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py under {args.against}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # (name, root, environment, runs); the --against tree is the second side.
    sides = [("this tree", ROOT, dict(os.environ), [])]
    if args.against is not None:
        sides.append(("--against", args.against.resolve(), against_env(), []))
    for i, seed in enumerate(args.seeds):
        order = sides if i % 2 == 0 else sides[::-1]
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                for name, root, env, runs in order:
                    print(f"record.py: {name}: {workload} seed {seed} --trace {trace}",
                          file=sys.stderr, flush=True)
                    runs.append(run(root, env, workload, seed, args.seconds, trace))
    write_entry(args.label, args.out, args, sides[0][3])
    if args.against is not None:
        write_entry(args.against_label, args.against_out, args, sides[1][3])
    return 0


if __name__ == "__main__":
    sys.exit(main())
