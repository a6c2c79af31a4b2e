"""The measured process: one fresh interpreter per workload run.

Usage (from ``run.py``, with ``src`` on ``PYTHONPATH``)::

    python3 bench/worker.py --probe
    python3 bench/worker.py --requests R.json --records OUT.jsonl --seconds S --trace 0|1 [--spans SPANS.jsonl]

``--probe`` imports the CLI module and prints the monotonic clock reading
when the import finished, so the parent can time interpreter start plus
import.  Otherwise the worker runs a closed loop with one client and no
think time: it calls ``uncertain_spatial.cli.main(argv)`` in-process for
each scheduled request, capturing stdout and stderr as a ``uspatial`` call's
pipes would, until ``--seconds`` have passed.  Each request's exit code,
latency and output go to the records file after its timer stops.  The last
line of stdout is a JSON summary, with the loop's wall time from the first
request's start to the last record's write.

With ``--trace 1`` every request runs twice, through the CLI and through the
traced replica, alternating which goes first; the replica's output must equal
the CLI's byte for byte.
"""

import contextlib
import io
import sys
import time


def _probe_import():
    t0 = time.perf_counter()
    import uncertain_spatial.cli as cli

    import_ms = (time.perf_counter() - t0) * 1000.0
    return cli, time.monotonic(), import_ms


def _call_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, time.perf_counter() - t0, out.getvalue(), err.getvalue()


def _call_replica(replica, params):
    t0 = time.perf_counter()
    rc, out, err = replica.run(params)
    dt = time.perf_counter() - t0
    replica.tracer.finish_request()
    return rc, dt, out, err


def main(argv):
    cli, ready, import_ms = _probe_import()
    import argparse
    import json
    import resource

    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--requests")
    parser.add_argument("--records")
    parser.add_argument("--spans")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    summary = {"ready": ready, "import_ms": import_ms}
    if args.probe:
        print(json.dumps(summary))
        return 0

    with open(args.requests, "r", encoding="utf-8") as fh:
        requests = json.load(fh)
    if args.trace:
        from traced import Replica, Tracer

        replica = Replica(Tracer())
    start = time.monotonic()
    deadline = start + args.seconds
    i = 0
    with open(args.records, "w", encoding="utf-8") as records:
        while i == 0 or time.monotonic() < deadline:
            req = requests[i % len(requests)]
            traced = None
            if args.trace:
                replica.tracer.request = i
                if i % 2:  # alternate which side runs first
                    traced = _call_replica(replica, req["params"])
            rc, dt, out, err = _call_cli(cli, req["argv"])
            record = {"i": i, "rc": rc, "s": dt, "out": out, "err": err}
            if args.trace:
                t_rc, t_dt, t_out, t_err = traced or _call_replica(replica, req["params"])
                record["traced_s"] = t_dt
                record["replica_ok"] = t_rc == rc and t_out == out and (rc == 0 or t_err == err)
            records.write(json.dumps(record) + "\n")
            i += 1
    summary["loop_s"] = time.monotonic() - start
    if args.trace:
        replica.tracer.write(args.spans)
    summary["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
