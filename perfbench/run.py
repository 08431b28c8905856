#!/usr/bin/env python3
r"""Repository benchmark: builds the benchmark binary from this source tree
and runs one workload against the real server over loopback TCP.

One run:
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1). Earlier lines carry the
host fingerprint and, for --trace 0, one line per round.

Steadiness report (runs every workload of BENCHMARK.json, or those named,
once per seed, and prints each end-to-end metric's median and quartiles
next to its bound):
    python3 perfbench/run.py --steadiness [--runs 10] [--first-seed 1]
                             [--workload <name> ...]

Everything is built and written under .bench_build/ at the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "cmake" / "adaptidx_perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; False on failure."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        log("run.py: the adaptidx source tree (src/, CMakeLists.txt) is not "
            f"next to perfbench/ under {ROOT}; nothing to build")
        return False
    cmake_dir = BUILD / "cmake"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"run.py: build step failed: {' '.join(cmd)}")
            return False
    return BINARY.is_file()


def run_once(workload, seed, seconds, trace, echo=True):
    """One run of the binary; returns (exit code, parsed last line or None)."""
    work = BUILD / f"work-{workload}-{os.getpid()}"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work)]
    if trace:
        cmd += ["--spans", str(BUILD / f"spans-{workload}.tsv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if echo:
        for line in lines:
            print(line, flush=True)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None or not {"correct", "attempted", "failed",
                              "metrics"} <= set(result):
        log("run.py: the benchmark printed no result line")
        return done.returncode or 1, None
    return done.returncode, result


def steadiness(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    failed = False
    for name in names:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            code, result = run_once(name, seed, spec["run_seconds"], 0,
                                    echo=False)
            if code != 0 or result is None or not result["correct"]:
                log(f"{name} seed {seed}: run failed (exit {code})")
                failed = True
                continue
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
            log(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
        print(f"\n{name}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  verdict")
        for m in spec["end_to_end"]:
            vals = values.get(m["name"], [])
            if len(vals) < 2:
                print(f"  {m['name']:16s} missing")
                failed = True
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = ("steady" if spread < m["bound"] / 3 else
                       "within bound" if spread <= m["bound"] else "NOISY")
            if m["name"] == "setup_s" and verdict == "NOISY":
                verdict = "noisy (set-up spread is not gated)"
            elif verdict == "NOISY":
                failed = True
            print(f"  {m['name']:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {m['bound']:6.2f}  {verdict}")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if not build():
        return 2
    if args.steadiness:
        return steadiness(args)
    if not args.workload or len(args.workload) != 1:
        log("run.py: give exactly one --workload")
        return 2
    code, result = run_once(args.workload[0], args.seed, args.seconds,
                            args.trace)
    if result is None:
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
