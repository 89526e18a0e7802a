#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json through perfbench/run.py with
--size tiny on two seeds, untraced and traced, and checks that each run
exits 0, prints every named metric with its BENCHMARK.json unit (as a
"<workload> <metric> = <value> <unit>" line and in the final JSON line),
and fails none of its correctness checks.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
                       "--size", "tiny"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=600)
                tag = f"{workload} seed {seed} trace {trace}"
                before = len(problems)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                    continue
                result = json.loads(lines[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{tag}: result keys {sorted(result)}")
                if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                    problems.append(f"{tag}: {result['failed']} of {result['attempted']} "
                                    "checks failed")
                metrics = result["metrics"]
                if set(metrics) != set(wanted[trace]):
                    problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                    f"{sorted(set(metrics) ^ set(wanted[trace]))}")
                for name, unit in wanted[trace].items():
                    got = metrics.get(name, {})
                    if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                        problems.append(f"{tag}: {name} reported as {got}")
                    if not any(l.startswith(f"{workload} {name} = ") and l.endswith(f" {unit}")
                               for l in lines):
                        problems.append(f"{tag}: no printed line for {name} [{unit}]")
                if not any(l.startswith(f"{workload} failed_ratio = 0 ") for l in lines):
                    problems.append(f"{tag}: failed_ratio is not 0")
                if len(problems) == before:
                    print(f"ok   {tag}: {result['attempted']} checks", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
