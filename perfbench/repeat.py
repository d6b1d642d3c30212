#!/usr/bin/env python3
"""Repeat runner: medians, spreads and agreement within the bounds.

Runs perfbench/run.py once per (workload, seed) and prints, for every
end-to-end metric, the median, the quartiles and the spread (interquartile
distance as a share of the median, quartiles from
statistics.quantiles(values, n=4)).

With two sides it also checks that they agree: for each metric the second
side's median may be worse than the first's by at most the metric's bound
in BENCHMARK.json, and every spread except setup_s's must stay within the
bound. Two sides are either two sets of runs of one checkout (--sets 2) or
two checkouts (--baseline DIR --candidate DIR, e.g. the parent commit and a
change, each a plain source tree). Runs alternate which side goes first for
each seed, so drift over time does not favour one side.

    python3 perfbench/repeat.py --workloads serve_cold --seeds 1-5
    python3 perfbench/repeat.py --seeds 1-10 --sets 2 --out runs.json
    python3 perfbench/repeat.py --seeds 11-20 \
        --baseline ../parent --candidate .

Exit status 1 when a run fails or a check does not hold.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, str(Path(checkout) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"  run failed: {workload} seed {seed} in {checkout} "
              f"(exit {proc.returncode})", flush=True)
        return None
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"  {workload} seed {seed} [{Path(checkout).resolve().name}] "
          f"{wall:.0f}s", flush=True)
    return values


def spread(values):
    """(median, q1, q3, iqr/median) of a list of numbers."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def worse_by(base, new, better):
    """Relative change of `new` against `base`, positive when worse."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return -change if better == "higher" else change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="",
                    help="comma list (default: every BENCHMARK.json workload)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--sets", type=int, choices=[1, 2], default=1)
    ap.add_argument("--baseline", help="checkout of the first side")
    ap.add_argument("--candidate", help="checkout of the second side")
    ap.add_argument("--out", help="write every run's metrics here (JSON)")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    if args.baseline or args.candidate:
        sides = [args.baseline or str(ROOT), args.candidate or str(ROOT)]
    else:
        sides = [str(ROOT)] * args.sets
    metrics = spec["end_to_end"]

    runs = {w: [[] for _ in sides] for w in workloads}
    ok = True
    for w in workloads:
        for i, seed in enumerate(seeds):
            order = list(range(len(sides)))
            if i % 2:
                order.reverse()  # alternate which side runs first
            for s in order:
                values = run_once(sides[s], w, seed, seconds, 0)
                if values is None:
                    ok = False
                    continue
                runs[w][s].append(values)

    for w in workloads:
        print(f"\n{w}  ({len(seeds)} seeds x {len(sides)} side(s), "
              f"{seconds:g} s runs)")
        print(f"  {'metric':<16}{'side':>5}{'median':>14}{'q1':>14}"
              f"{'q3':>14}{'spread':>9}{'bound':>7}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for s in range(len(sides)):
                vals = [r[name] for r in runs[w][s] if name in r]
                if not vals:
                    ok = False
                    continue
                med, q1, q3, sp = spread(vals)
                meds.append(med)
                verdict = "ok"
                if name != "setup_s" and sp > bound:
                    verdict, ok = "SPREAD > bound", False
                elif name != "setup_s" and sp > bound / 3:
                    verdict = "spread > bound/3"
                print(f"  {name:<16}{s:>5}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{sp:>9.4f}{bound:>7.2f}  {verdict}")
            if len(meds) == 2:
                w_by = worse_by(meds[0], meds[1], m["better"])
                verdict = "agree" if w_by <= bound else "WORSE than bound"
                ok = ok and w_by <= bound
                print(f"  {name:<16}{'1v0':>5}{'':>14}{'':>14}{'':>14}"
                      f"{w_by:>+9.4f}{bound:>7.2f}  {verdict}")

    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seeds": seeds, "seconds": seconds, "sides": sides,
             "runs": runs}, indent=1))
    print("\nresult:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
