#!/usr/bin/env python3
"""Builds and runs one BSG4Bot benchmark run.

    python3 perfbench/run.py --workload train|serve_hot|serve_cold \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. The first run configures and builds the
repository's library plus the benchmark binary into .bench_build/perfbench
(Release); later runs only re-check the build. The last line of standard
output is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1), each with its unit. The line before it is the
run's hardware fingerprint and seed. Exit status is 0 only when the build
succeeded, every output check passed and the metrics match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "bsg_perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def cores():
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def build():
    """Configures (once) and builds the binary; returns True on success."""
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(cores()),
                  "--target", "bsg_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return BINARY.exists()


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    """(name -> unit) that BENCHMARK.json promises for this kind of run."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def check_result(result, trace):
    """Returns a list of problems with the result object."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = result["metrics"]
    for name, m in metrics.items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: value {m.get('value')!r} is not a number")
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: m.get("unit") for name, m in metrics.items()}
        for name, unit in expected.items():
            if name not in got:
                problems.append(f"missing metric {name}")
            elif got[name] != unit:
                problems.append(f"{name}: unit {got[name]} != {unit}")
        for name in sorted(set(got) - set(expected)):
            problems.append(f"metric {name} is not in BENCHMARK.json")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["train", "serve_hot", "serve_cold"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: every metric and check, in seconds")
    args = ap.parse_args()

    if not build():
        return 1
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        log(f"bsg_perfbench exited {proc.returncode} without a result")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"last line is not JSON: {lines[-1][:200]}")
        return 1
    problems = check_result(result, args.trace)
    for p in problems:
        log(f"result problem: {p}")
    if problems:
        return 1
    print(lines[-2])
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"]:
        log(f"output checks failed (bsg_perfbench exit {proc.returncode})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
