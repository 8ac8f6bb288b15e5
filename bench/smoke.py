#!/usr/bin/env python3
"""Smoke run of the benchmark at tiny sizes.

    python3 bench/smoke.py

Runs every workload with ``--tiny``, untraced and traced, and checks that
each run prints every metric of ``BENCHMARK.json`` with its unit, that every
end-to-end value is positive, that no job failed, and that every per-layer
metric is non-zero on at least one workload (zero everywhere would mean its
layer is never reached). Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("exact", "estimate", "derandomize", "cli")


def run(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    reached = set()
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            label = f"{workload} trace={trace}"
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{label}: metrics or units differ from BENCHMARK.json {key}")
            if trace == 0:
                problems += [f"{label}: {n} is not positive" for n, m in result["metrics"].items() if m["value"] <= 0]
            if result["failed"] or not result["correct"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} jobs failed")
            reached |= {name for name, m in result["metrics"].items() if m["value"] != 0}
            ratio = result["failed"] / result["attempted"]
            print(f"{label}: {len(got)} metrics, failed_ratio {ratio:g} ({result['failed']} of {result['attempted']} jobs)")
    problems += [f"{m['name']} is zero on every workload" for m in spec["per_layer"] if m["name"] not in reached]
    for problem in problems:
        print("FAIL", problem)
    print("smoke:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
