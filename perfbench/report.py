"""Run every workload untraced and traced, and print every metric.

    python3 perfbench/report.py

Run from the repository root. For each workload in BENCHMARK.json this
runs perfbench/run.py twice on seed 1, for run_seconds: once with
--trace 0 for the end-to-end metrics and once with --trace 1 for the
per-layer ones and the tracing overhead (trace.overhead). It passes on
what run.py prints: each metric with its unit, the failures and the
wrong outputs. To that it adds the regression bounds from
BENCHMARK.json and whether the two runs' output digests agree. Exits 1
when an output is wrong or the digests differ.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1


def _run(workload: str, seed: int, seconds: int, trace: int):
    """Runs run.py, passes its report on, and returns its result and
    output digest."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}")
    *lines, last = proc.stdout.strip().splitlines()
    print("\n".join(lines))
    path = os.path.join(HERE, "out", f"{workload}-s{seed}-t{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.loads(last), json.load(fh)["digest"]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    print("regression bounds, as a share of the parent's median: "
          + ", ".join(f"{m['name']} {m['bound']}"
                      for m in bench["end_to_end"]))
    ok = True
    for w in bench["workloads"]:
        print(f"\n== {w['name']}: {w['why']}")
        plain, plain_digest = _run(w["name"], SEED, bench["run_seconds"], 0)
        traced, traced_digest = _run(w["name"], SEED, bench["run_seconds"],
                                     1)
        same = plain_digest == traced_digest
        print(f"digests of the untraced and traced runs "
              f"{'agree' if same else 'DIFFER'}")
        correct = plain["correct"] and traced["correct"]
        print(f"output checks: {'all passed' if correct else 'FAILED'}")
        ok = ok and correct and same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
