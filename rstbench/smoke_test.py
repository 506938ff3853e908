#!/usr/bin/env python3
"""The benchmark's own test: every workload at the smoke size, untraced
and traced, must print exactly the metrics BENCHMARK.json lists (names
and units, in the result JSON) with no failed or wrong operation.

    python3 rstbench/smoke_test.py

Run from the repository root; exits non-zero on the first mismatch.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace):
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "rstbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} trace={trace}: exit "
                 f"{completed.returncode}\n{completed.stdout}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run(workload, trace)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            problems = []
            if printed != expected[trace]:
                missing = sorted(set(expected[trace]) - set(printed))
                extra = sorted(set(printed) - set(expected[trace]))
                units = sorted(n for n in set(printed) & set(expected[trace])
                               if printed[n] != expected[trace][n])
                problems.append(f"missing={missing} extra={extra} "
                                f"unit_mismatch={units}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"error_rate = {result['failed']}"
                                f"/{result['attempted']}")
            if result["attempted"] < 1:
                problems.append("no operation attempted")
            if problems:
                sys.exit(f"FAIL {workload} trace={trace}: "
                         + "; ".join(problems))
            print(f"ok   {workload} trace={trace}: "
                  f"{len(printed)} metrics, error_rate = 0 "
                  f"({result['attempted']} operations)")


if __name__ == "__main__":
    main()
