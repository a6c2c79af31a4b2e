"""Benchmark of the ``uspatial`` CLI on four seeded workloads.

Run from anywhere inside a checkout of the repository::

    python3 bench/run.py --workload knn-scan --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One run generates the workload's datasets from ``--seed`` (in this
process), times interpreter start plus ``import uncertain_spatial.cli``
several times, then starts a fresh worker interpreter that sends requests
through ``uncertain_spatial.cli.main(argv)`` in a closed loop with one
client for ``--seconds``.  Afterwards every output is checked, and a small
instance of the workload is cross-checked against the exact possible-worlds
oracle (untimed).  Human-readable lines come first; the last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
metric names and units are those declared in ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics (tracing off); ``--trace 1``
runs each request through the CLI and through a traced replica and reports
per-layer metrics, including the tracing overhead.

A refusal by the exact trajectory backend's joint cap (exit 2 with the
documented error) is the program's specified answer to an over-large exact
query; it is counted as refused, not failed, and it is not a served request:
refusals are left out of the latency percentiles and of throughput, and their
count is printed beside them.  Latency percentiles order failed requests
after every success; a failed request that lands on a reported percentile is
given the run's largest latency.  The tail is the highest percentile that
leaves at least ten requests above it.  Throughput is successful requests
over the wall time of the request loop.  ``setup_s`` is the median of many timed start-ups, half taken before the
request loop and half after it, so that a slow spell of the host during one
of them moves it little.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import CHECKS, check_pcnn, is_refusal, pcnn_oracle_agreement  # noqa: E402
from workloads import WORKLOADS, oracle_instance  # noqa: E402

#: Timed interpreter start-ups per run, besides the worker's own start.
SETUP_SAMPLES = 16
#: Requests that must lie above the tail percentile.
TAIL_ABOVE = 10


class BenchError(Exception):
    """The benchmark could not run (not a wrong program output)."""


def declared_units(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_worker(args, env, timeout):
    """Run the worker to completion; return (monotonic spawn time, its JSON summary)."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        env=env, cwd=str(ROOT), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest percentile with TAIL_ABOVE requests above it."""
    return max(0, n - TAIL_ABOVE - 1)


def latency_summary(latencies_ms, verdicts):
    """(p50, tail, tail percentile, answered requests above the tail).

    Refused requests are left out and failed ones are ordered last.
    """
    worst = max(latencies_ms)
    values = [v for _, v in sorted(
        (1, worst) if verdict == "failed" else (0, ms)
        for ms, verdict in zip(latencies_ms, verdicts) if verdict != "refused"
    )]
    n = len(values)
    idx = tail_index(n)
    return statistics.median(values), values[idx], 100.0 * (idx + 1) / n, n - idx - 1


def _use_program() -> None:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


def run_cli(argv):
    """Run the CLI in this process, untimed; return (exit code, stdout, stderr)."""
    _use_program()
    from uncertain_spatial import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def check_outputs(records, requests, inputs):
    """Per record 'ok', 'refused' or 'failed', and the reasons of the first failures.

    Identical requests must give byte-identical output; the schedules repeat
    requests within every pattern period, and the plain sibling of every
    ``--maximal`` pcnn request comes earlier in its period.
    """
    first_out, plain_outputs = {}, {}
    verdicts, reasons = [], []

    def check(req, rec):
        if rec["rc"] != 0:
            return f"exit {rec['rc']}: {rec['err'].strip()[:200]}"
        key = json.dumps(req["argv"])
        if first_out.setdefault(key, rec["out"]) != rec["out"]:
            return "repeated request gave different output"
        try:
            doc = json.loads(rec["out"])
        except ValueError:
            return "stdout is not one JSON document"
        params = req["params"]
        if params["command"] != "pcnn":
            return CHECKS[params["command"]](req, doc, inputs["existence"])
        plain_key = json.dumps(dict(params, maximal=False), sort_keys=True)
        if not params.get("maximal"):
            plain_outputs[plain_key] = doc
        return check_pcnn(req, doc, *inputs["trajectories"], plain_outputs.get(plain_key))

    for rec in records:
        req = requests[rec["i"] % len(requests)]
        if is_refusal(rec["rc"], rec["err"]):
            verdicts.append("refused")
            continue
        reason = check(req, rec)
        verdicts.append("ok" if reason is None else "failed")
        if reason is not None and len(reasons) < 5:
            reasons.append(f"request {rec['i']} ({req['kind']}): {reason}")
    return verdicts, reasons


def oracle_problems(workload: str, seed: int, workdir: str):
    """A small instance of the workload: CLI probabilities against the exact oracle."""
    _use_program()
    from uncertain_spatial import worlds
    from uncertain_spatial.model import QueryPoint, load_database
    from uncertain_spatial.predicates import KnnPredicate, RangePredicate

    problems = []
    inst = oracle_instance(workload, seed, workdir)
    if workload == "pcnn-traj":
        base = ["pcnn", "--dataset", inst["path"], "--tau", "1e-06"]
        rc_e, out_e, err_e = run_cli(base + ["--backend", "exact"])
        rc_s, out_s, err_s = run_cli(base + ["--backend", "sampled", "--samples", "4000", "--seed", "42"])
        if rc_e or rc_s:
            return [f"oracle pcnn exited {rc_e}/{rc_s}: {err_e or err_s}"]
        reason = pcnn_oracle_agreement(json.loads(out_e), json.loads(out_s), 4000)
        return ["oracle pcnn: " + reason] if reason else []
    with open(inst["path"], "rb") as fh:
        db = load_database(fh)
    for req in inst["requests"]:
        p = req["params"]
        rc, out, err = run_cli(req["argv"])
        if rc != 0:
            problems.append(f"oracle {req['kind']} exited {rc}: {err.strip()}")
            continue
        doc = json.loads(out)
        q = p["query_object"] if "query_object" in p else QueryPoint(p["query_x"], p["query_y"])
        if p["command"] == "range":
            pred = RangePredicate(p["epsilon"])
        else:
            pred = KnnPredicate(p["k"] if p["command"] == "knn" else p["nn"])
        want = worlds.object_based(db, q, pred)
        got = doc["probabilities"]
        bad = [oid for oid in want if abs(got.get(oid, -1.0) - want[oid]) > 1e-9]
        if bad or set(got) != set(want):
            problems.append(f"oracle {req['kind']}: probabilities differ for {bad[:3]}")
        if p["command"] == "range":
            mass = [0.0] * (len(db) + 1)
            for w in worlds.enumerate_worlds(db):
                mass[len(worlds.evaluate_world(db, w, q, pred))] += w.prob
            diff = max(abs(a - b) for a, b in zip(mass, doc["count_distribution"]))
            if diff > 1e-9:
                problems.append(f"oracle range: count distribution off by {diff}")
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: generate, time set-up, run the worker, check, compute metrics."""
    base = ROOT / ".bench_work"
    work = base / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_workload(workload, seed, seconds, trace, work, base)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(workload, seed, seconds, trace, work, base):
    inputs = WORKLOADS[workload](seed, str(work))
    requests = inputs["requests"]
    req_path = work / "requests.json"
    req_path.write_text(json.dumps(requests), encoding="utf-8")
    env = worker_env()

    spawn_worker(["--probe"], env, 30)  # fills the bytecode cache; not timed
    setup, import_ms = [], []

    def time_setup(times):
        for _ in range(times):
            t0, summary = spawn_worker(["--probe"], env, 20)
            setup.append(summary["ready"] - t0)
            import_ms.append(summary["import_ms"])

    time_setup(SETUP_SAMPLES // 2)
    records_path = work / "records.jsonl"
    spans_path = base / f"spans-{workload}-seed{seed}.jsonl"
    args = ["--requests", str(req_path), "--records", str(records_path),
            "--seconds", str(seconds), "--trace", str(int(trace)), "--spans", str(spans_path)]
    t0, summary = spawn_worker(args, env, seconds + 100)
    setup.append(summary["ready"] - t0)
    import_ms.append(summary["import_ms"])
    loop_s, rss_kb = summary["loop_s"], summary["rss_kb"]
    time_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)

    with open(records_path, "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    verdicts, problems = check_outputs(records, requests, inputs)
    problems += oracle_problems(workload, seed, str(work))
    n = len(records)
    refused = verdicts.count("refused")
    result = {"attempted": n, "failed": verdicts.count("failed"), "refused": refused,
              "problems": problems}
    kinds = {}
    for r in records:
        kinds.setdefault(requests[r["i"] % len(requests)]["kind"], []).append(1000.0 * r["s"])
    result["kinds"] = {k: (len(v), statistics.median(v)) for k, v in sorted(kinds.items())}

    if trace:
        from traced import summarize

        with open(spans_path, "r", encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
        untraced = math.fsum(r["s"] for r in records)
        traced = math.fsum(r["traced_s"] for r in records)
        layer = summarize(spans, n)
        layer["trajectories.refused_frac"] = refused / n
        layer["cli.import_ms"] = statistics.median(import_ms)
        layer["trace.overhead_frac"] = (traced - untraced) / untraced
        result["metrics"] = layer
        if not all(r["replica_ok"] for r in records):
            problems.append("traced replica output differs from the CLI output")
        return result

    p50, tail, pct, above = latency_summary([1000.0 * r["s"] for r in records], verdicts)
    result["metrics"] = {
        "setup_s": statistics.median(setup),
        "request_p50_ms": p50,
        "request_tail_ms": tail,
        "throughput_rps": verdicts.count("ok") / loop_s,
        "peak_rss_mb": rss_kb * 1024 / 1e6,
    }
    result["tail"] = (f"p{pct:.1f} with {above} of {n - refused} answered requests above; "
                      f"setup median of {len(setup)}")
    return result


def print_human(workload, result, units):
    for name, value in result["metrics"].items():
        print(f"{workload:13s} {name:32s} {value:14.6g} {units[name]}")
    print(f"{workload:13s} attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed'] / result['attempted']:.4g} refused={result['refused']}")
    if "tail" in result:
        print(f"{workload:13s} tail {result['tail']}")
    for kind, (count, median) in result["kinds"].items():
        print(f"{workload:13s} kind {kind:20s} n={count:<4d} median {median:10.1f} ms")
    for problem in result["problems"]:
        print(f"{workload:13s} PROBLEM {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "uncertain_spatial" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            if set(results[name]["metrics"]) != set(units):
                raise BenchError("measured metrics differ from those BENCHMARK.json declares")
            print_human(name, results[name], units)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    prefix = (lambda w: "") if len(names) == 1 else (lambda w: w + ".")
    print(json.dumps({
        "correct": all(not r["problems"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            prefix(w) + n: {"value": v, "unit": units[n]}
            for w, r in results.items() for n, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
