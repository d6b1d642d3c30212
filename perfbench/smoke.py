#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

For every workload (those in BENCHMARK.json, and serve_cold) it runs
perfbench/run.py --smoke once untraced and once traced. It asserts that the
run passed its output checks and printed every end-to-end (untraced) or
per-layer (traced) metric named in BENCHMARK.json, with that metric's unit
and a finite number. It also
asserts that perfbench/metrics.json tags exactly the per-layer metrics of
BENCHMARK.json, each with the end-to-end metrics and workloads it should
move, and that perfbench/README.md documents every metric.

    python3 perfbench/smoke.py
"""
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # serve_cold is runnable but not in BENCHMARK.json (its open-loop latency
    # is too unsteady on the 4-core host; see README.md), so it is smoked
    # here too.
    workloads = [w["name"] for w in spec["workloads"]] + ["serve_cold"]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []

    tags = json.loads((HERE / "metrics.json").read_text())["per_layer"]
    tagged = {t["name"]: t for t in tags}
    if set(tagged) != set(layer):
        failures.append(f"metrics.json names differ from BENCHMARK.json: "
                        f"{sorted(set(tagged) ^ set(layer))}")
    for name, t in tagged.items():
        if name in layer and t["unit"] != layer[name]:
            failures.append(f"metrics.json unit of {name}: {t['unit']}")
        for move in t["moves"]:
            if move["metric"] not in e2e:
                failures.append(f"{name} moves unknown metric {move}")
            if move["workload"] not in workloads + ["all"]:
                failures.append(f"{name} moves on unknown workload {move}")
    readme = (HERE / "README.md").read_text()
    for name in list(e2e) + list(layer):
        if f"`{name}`" not in readme:
            failures.append(f"README.md does not document `{name}`")

    for w in workloads:
        for trace, expected in ((0, e2e), (1, layer)):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", "1", "--seconds", "2", "--trace", str(trace),
                   "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
            label = f"{w} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                failures.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            fingerprint = json.loads(lines[-2])
            if fingerprint.get("seed") != 1 or "fingerprint" not in fingerprint:
                failures.append(f"{label}: no seed/fingerprint line")
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            if not result["correct"]:
                failures.append(f"{label}: correct is false")
            for name, unit in expected.items():
                m = metrics.get(name)
                if m is None:
                    failures.append(f"{label}: {name} not printed")
                elif m["unit"] != unit:
                    failures.append(f"{label}: {name} unit {m['unit']}")
                elif not (isinstance(m["value"], (int, float)) and
                          math.isfinite(m["value"])):
                    failures.append(f"{label}: {name} = {m['value']!r}")
            extra = set(metrics) - set(expected)
            if extra:
                failures.append(f"{label}: unexpected metrics {sorted(extra)}")
            print(f"{label}: {len(metrics)} metrics", flush=True)

    for f in failures:
        print("FAIL:", f)
    print("smoke:", "PASS" if not failures else "FAIL")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
