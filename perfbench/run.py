#!/usr/bin/env python3
"""Builds and runs perfbench, the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S]
    python3 perfbench/run.py --self-check

Run from the repository root. The perfbench executable (a CMake package
in this directory) is configured and built in $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset; later runs rebuild incrementally.
Its stdout is passed through: its last line is the JSON result.

--workload all runs every workload of BENCHMARK.json untraced and traced and
prints each result line after a "# <workload> --trace <0|1>" header; it exits
non-zero if any run fails.

--self-check runs every workload at a tiny scale and fails unless each
prints exactly the metrics BENCHMARK.json names, with their units; unless a
run with a deliberately wrong expected answer fails; and unless two runs of
one seed give the same answers and the same exact work counters.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def source_id():
    """The git commit when there is one, else a digest of src/."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    h = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-" + h.hexdigest()[:12]


def build():
    """Configures (once) and builds perfbench; returns the build directory."""
    if not (ROOT / "src" / "c3list.hpp").is_file():
        raise RuntimeError(f"no c3 sources under {ROOT / 'src'}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return build_dir


def run_bench(build_dir, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [str(build_dir / "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", str(build_dir / "out"),
           "--commit", source_id(), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def self_check(build_dir):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mapped = {m["metric"] for m in json.loads((HERE / "metric_map.json").read_text())}
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
            log("self-check FAILED: " + what)

    for metric in spec["per_layer"]:
        expect(metric["name"] in mapped, f"{metric['name']} has no entry in metric_map.json")
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, lines = run_bench(build_dir, workload, 1, 0.5, trace, ["--tiny"])
            tag = f"{workload} --trace {trace}"
            expect(code == 0 and lines, f"{tag}: exit {code}")
            if not lines:
                continue
            result = json.loads(lines[-1])
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{tag}: not correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace],
                   f"{tag}: metrics differ from BENCHMARK.json: "
                   f"missing {sorted(set(wanted[trace]) - set(got))}, "
                   f"extra {sorted(set(got) - set(wanted[trace]))}, "
                   f"units {sorted(k for k in got if k in wanted[trace] and got[k] != wanted[trace][k])}")

    # The gate must catch a wrong expected answer.
    code, lines = run_bench(build_dir, "paper_sweep", 1, 0.5, 0, ["--tiny", "--inject-fault"])
    expect(code != 0 and lines and not json.loads(lines[-1])["correct"],
           "an injected wrong expected answer did not fail the run")

    # Same seed: same answers and exact work counters. New seed: new answers.
    runs = [run_bench(build_dir, "paper_sweep", seed, 0.5, 1, ["--tiny"]) for seed in (7, 7, 8)]
    reports = [json.loads(lines[-2]) for _, lines in runs]
    counts = [{k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()
               if v["unit"] == "count"} for _, lines in runs]
    expect(reports[0]["digest"] == reports[1]["digest"], "same seed, different answers")
    expect(counts[0] == counts[1], "same seed, different work counters")
    expect(reports[0]["digest"] != reports[2]["digest"], "new seed, same answers")

    print(json.dumps({"self_check": "pass" if not problems else "fail", "problems": problems}))
    return 0 if not problems else 1


def run_all(build_dir, seed, seconds):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, lines = run_bench(build_dir, workload, seed, seconds, trace)
            print(f"# {workload} --trace {trace}", flush=True)
            print(lines[-1] if lines else "{}", flush=True)
            failed = failed or code != 0
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and not args.workload:
        parser.error("--workload is required")
    try:
        build_dir = build()
        if args.self_check:
            return self_check(build_dir)
        if args.workload == "all":
            return run_all(build_dir, args.seed, args.seconds)
        code, lines = run_bench(build_dir, args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 2
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
