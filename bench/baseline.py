"""Record a baseline: every workload over seeds 1-10, plus one traced run each.

Usage::

    python3 bench/baseline.py

Runs last ``run_seconds`` from ``BENCHMARK.json`` and the result goes to
``bench/baseline.json``.  For each workload and end-to-end metric it stores the values, their
median and quartiles, and the spread (interquartile distance over the
median) that must stay below the metric's bound in ``BENCHMARK.json``; it also
stores the per-layer metrics of one traced run and the environment.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SEEDS = list(range(1, 11))


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), [line.split(None, 1)[1] for line in lines[:-1]]


def environment() -> dict:
    with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
        models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": models[0] if models else platform.processor(),
        "blas_threads": "OMP/OPENBLAS/MKL_NUM_THREADS set to nproc in the worker",
    }


def main() -> int:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    doc = {"claim": None, "environment": environment(), "run_seconds": seconds,
           "seeds": SEEDS, "workloads": {}}
    for workload in WORKLOADS:
        values, notes, correct = {}, [], True
        for seed in SEEDS:
            result, lines = _run(workload, seed, seconds, 0)
            correct &= result["correct"] and result["failed"] == 0
            notes.append(next(line for line in lines if line.startswith("tail ")) + "; " +
                         next(line for line in lines if line.startswith("attempted=")))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        end_to_end = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            end_to_end[m["name"]] = {
                "unit": m["unit"], "median": statistics.median(v),
                "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(v), "values": v,
            }
        traced, lines = _run(workload, SEEDS[0], seconds, 1)
        doc["workloads"][workload] = {
            "correct": correct and traced["correct"],
            "end_to_end": end_to_end,
            "runs": notes,
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "per_layer_kinds": [line for line in lines if line.startswith("kind ")],
        }
        with open(BENCH / "baseline.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
