"""Traced replicas of the CLI commands the workloads send.

Each replica calls the same public library functions as the matching
``uspatial`` command and builds the same JSON document, with a span around
every call into a layer.  Spans record a name, start, end, parent span and
request id and stay in memory until the run ends.  Counts are attached to
spans after the span has ended, so counting is not inside any timed layer.
The worker compares each replica's output with the CLI's output byte for
byte, so a replica that drifts from the command it mirrors is caught.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from uncertain_spatial.bernoulli import poisson_binomial_recurrence
from uncertain_spatial.cli import dumps_canonical
from uncertain_spatial.model import (
    CapExceededError,
    QueryPoint,
    ValidationError,
    load_database,
)
from uncertain_spatial.predicates import KnnPredicate, RangePredicate
from uncertain_spatial.queries import (
    ProbabilisticPredicate,
    RangeQuery,
    object_probabilities,
    range_count_distribution,
    rank_distribution,
)
from uncertain_spatial.representatives import (
    cluster_representatives,
    max_cover_representatives,
)
from uncertain_spatial.sampling import estimate_result_probabilities, sample_worlds
from uncertain_spatial.trajectories import (
    ExactTrajectoryBackend,
    SampledTrajectoryBackend,
    load_trajectory_dataset,
    maximal_timestamp_sets,
    pc_tau_nn,
    pcnn_query,
)


class Tracer:
    """In-memory span store; one open-span stack, one request at a time."""

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._deferred: List[Callable[[], None]] = []
        self.request: Optional[int] = None

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": perf_counter(), "end": None, "parent": parent,
             "req": self.request, "counts": {}}
        )
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, token: int) -> None:
        self.spans[token]["end"] = perf_counter()
        self._stack.pop()

    def count(self, token: int, **counts) -> None:
        self.spans[token]["counts"].update(counts)

    def defer(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` when the request's timing has ended."""
        self._deferred.append(fn)

    def unwind(self) -> None:
        """Close the spans an exception left open."""
        while self._stack:
            self.end(self._stack[-1])

    def finish_request(self) -> None:
        for fn in self._deferred:
            fn()
        self._deferred.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


class _TimedKernel:
    """The CLI's default kernel, with a span and trial counts per call."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __call__(self, probs: Sequence[float]):
        tok = self.tracer.begin("bernoulli.kernel")
        result = poisson_binomial_recurrence(probs)
        self.tracer.end(tok)

        def tally(tok=tok, probs=probs):
            self.tracer.count(
                tok, trials=len(probs), nontrivial=sum(1 for p in probs if 0.0 < p < 1.0)
            )

        self.tracer.defer(tally)
        return result


class _CountingBackend:
    """Wraps a trajectory backend and counts ``pfann`` calls and qualifying ones."""

    def __init__(self, inner, tau: float):
        self.inner, self.tau = inner, tau
        self.calls = self.hits = 0

    def pfann(self, object_id, timestamps):
        p = self.inner.pfann(object_id, timestamps)
        self.calls += 1
        self.hits += p >= self.tau
        return p


def _sorted(probs: Dict[str, float]) -> Dict[str, float]:
    return {oid: probs[oid] for oid in sorted(probs)}


class Replica:
    """Runs one request through the library with spans; returns (rc, stdout, stderr)."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.kernel = _TimedKernel(tracer)

    def run(self, params: dict):
        command = params["command"]
        try:
            doc = getattr(self, "_" + command)(params)
        except CapExceededError as exc:
            self.tracer.unwind()
            return 2, "", json.dumps({"error": str(exc)}) + "\n"
        except ValidationError as exc:
            self.tracer.unwind()
            return 1, "", json.dumps({"error": str(exc)}) + "\n"
        tok = self.tracer.begin("cli.serialize")
        text = dumps_canonical(doc) + "\n"
        self.tracer.end(tok)
        self.tracer.count(tok, bytes=len(text.encode("utf-8")))
        return 0, text, ""

    def _load(self, path):
        tok = self.tracer.begin("model.load")
        with open(path, "rb") as fh:
            db = load_database(fh)
        self.tracer.end(tok)
        self.tracer.count(tok, instances=sum(len(o.instances) for o in db))
        return db

    def _scored(self, fn, *args):
        tok = self.tracer.begin("queries.compute")
        result = fn(*args)
        self.tracer.end(tok)
        if isinstance(result, dict):
            self.tracer.count(
                tok, scored=len(result), zeros=sum(1 for p in result.values() if p == 0.0)
            )
        return result

    def _select(self, predicate: ProbabilisticPredicate, probs):
        tok = self.tracer.begin("queries.select")
        selected = predicate.select(probs)
        self.tracer.end(tok)
        return selected

    @staticmethod
    def _point(params) -> QueryPoint:
        return QueryPoint(params["query_x"], params["query_y"])

    def _knn(self, params):
        db = self._load(params["dataset"])
        q = self._point(params)
        probs = self._scored(object_probabilities, db, q, KnnPredicate(params["k"]), self.kernel)
        return {"k": params["k"], "query": [q.x, q.y], "semantics": "object",
                "probabilities": _sorted(probs)}

    def _topk(self, params):
        db = self._load(params["dataset"])
        q = params["query_object"]
        probs = self._scored(object_probabilities, db, q, KnnPredicate(params["nn"]), self.kernel)
        selected = self._select(ProbabilisticPredicate(kind="topk", k=params["k"]), probs)
        return {"k": params["k"], "nn": params["nn"], "query": q,
                "probabilities": _sorted(probs), "result": list(selected.members)}

    def _rank(self, params):
        db = self._load(params["dataset"])
        q = self._point(params)
        cd = self._scored(rank_distribution, db, q, params["object"], self.kernel)
        return {"object": params["object"], "query": [q.x, q.y], "ranks": list(cd.mass)}

    def _range(self, params):
        db = self._load(params["dataset"])
        q = self._point(params)
        eps = params["epsilon"]
        probs = self._scored(object_probabilities, db, q, RangePredicate(eps), self.kernel)
        counts = self._scored(range_count_distribution, db, RangeQuery(q, eps), self.kernel)
        doc = {"epsilon": eps, "query": [q.x, q.y], "probabilities": _sorted(probs),
               "count_distribution": list(counts.mass)}
        if params.get("tau") is not None:
            selected = self._select(ProbabilisticPredicate(kind="threshold", tau=params["tau"]), probs)
            doc["tau"] = params["tau"]
            doc["result"] = list(selected.members)
        return doc

    def _reps(self, params):
        db = self._load(params["dataset"])
        q = self._point(params)
        tr = self.tracer
        tok = tr.begin("sampling.sample")
        X = sample_worlds(db, params["samples"], params["seed"])
        tr.end(tok)
        tr.count(tok, cells=params["samples"] * len(db))
        tok = tr.begin("sampling.group")
        pr = estimate_result_probabilities(X, q, KnnPredicate(params["nn"]))
        tr.end(tok)
        tr.count(tok, distinct=len(pr))
        tok = tr.begin("representatives.select")
        if params["method"] == "maxcover":
            reps = max_cover_representatives(pr, params["tau"], params["n_reps"], 0.95)
        else:
            reps = cluster_representatives(pr, 0.95, mode="complete", tau_max=None, k=None)
        tr.end(tok)
        tr.count(tok, m=len(pr))
        return {
            "representatives": [
                {"result": list(r.result.members), "tau": r.tau, "phi": r.phi,
                 "alpha": r.alpha, "support": r.support}
                for r in reps
            ],
            "samples": params["samples"],
            "seed": params["seed"],
        }

    def _pcnn(self, params):
        tr = self.tracer
        tok = tr.begin("trajectories.load")
        with open(params["dataset"], "rb") as fh:
            dataset = load_trajectory_dataset(fh)
        tr.end(tok)
        tau = params["tau"]
        tok = tr.begin("trajectories.build")
        if params["backend"] == "sampled":
            inner = SampledTrajectoryBackend(dataset, params["samples"], params["seed"])
        else:
            inner = ExactTrajectoryBackend(dataset)
        tr.end(tok)
        backend = _CountingBackend(inner, tau)
        tok = tr.begin("trajectories.lattice")
        tr.defer(lambda: tr.count(tok, candidates=backend.calls, qualifying=backend.hits))
        if params.get("object") is not None:
            oid = params["object"]
            found = pc_tau_nn(dataset, oid, dataset.timestamps, tau, backend)
            results = {oid: found} if found else {}
        else:
            results = pcnn_query(dataset, dataset.timestamps, tau, backend)
        tr.end(tok)
        if params.get("maximal"):
            tok = tr.begin("trajectories.maximal")
            results = {oid: maximal_timestamp_sets(sets) for oid, sets in results.items()}
            tr.end(tok)
        return {
            "tau": tau,
            "results": {
                oid: [{"timestamps": list(ts.timestamps), "p": ts.probability} for ts in sets]
                for oid, sets in results.items()
            },
        }


def summarize(spans: List[dict], n_requests: int) -> Dict[str, float]:
    """Per-layer metrics per request from the spans of a traced run.

    Times are milliseconds per request; counts are per request; ``*_frac``
    values are ratios of totals over the run.  A layer the workload never
    calls reports 0.
    """
    n = max(1, n_requests)
    dur: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, float] = {}
    child_time: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + (span["end"] - span["start"])
    for i, span in enumerate(spans):
        name = span["name"]
        d = span["end"] - span["start"]
        dur[name] = dur.get(name, 0.0) + d
        self_time[name] = self_time.get(name, 0.0) + d - child_time.get(i, 0.0)
        calls[name] = calls.get(name, 0) + 1
        for key, value in span["counts"].items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
    ms = lambda name: 1000.0 * dur.get(name, 0.0) / n
    c = lambda key: counts.get(key, 0)
    frac = lambda a, b: a / b if b else 0.0
    m_sq = sum(s["counts"].get("m", 0) ** 2 for s in spans if s["name"] == "representatives.select")
    m_sum = c("representatives.select.m")
    return {
        "model.load_ms": ms("model.load"),
        "model.instances": c("model.load.instances") / n,
        "bernoulli.kernel_ms": ms("bernoulli.kernel"),
        "bernoulli.calls": calls.get("bernoulli.kernel", 0) / n,
        "bernoulli.trials": c("bernoulli.kernel.trials") / n,
        "bernoulli.nontrivial_frac": frac(c("bernoulli.kernel.nontrivial"), c("bernoulli.kernel.trials")),
        "queries.self_ms": 1000.0 * self_time.get("queries.compute", 0.0) / n,
        "queries.zero_frac": frac(c("queries.compute.zeros"), c("queries.compute.scored")),
        "queries.select_ms": ms("queries.select"),
        "sampling.sample_ms": ms("sampling.sample"),
        "sampling.group_ms": ms("sampling.group"),
        "sampling.cells": c("sampling.sample.cells") / n,
        "sampling.distinct_results": c("sampling.group.distinct") / n,
        "representatives.select_ms": ms("representatives.select"),
        "representatives.jaccard_pairs": (m_sq - m_sum) / 2.0 / n,
        "representatives.matrix_mb": 8.0 * m_sq / 1e6 / n,
        "trajectories.load_ms": ms("trajectories.load"),
        "trajectories.build_ms": ms("trajectories.build"),
        "trajectories.lattice_ms": ms("trajectories.lattice"),
        "trajectories.candidates": c("trajectories.lattice.candidates") / n,
        "trajectories.useful_frac": frac(c("trajectories.lattice.qualifying"), c("trajectories.lattice.candidates")),
        "trajectories.maximal_ms": ms("trajectories.maximal"),
        "cli.serialize_ms": ms("cli.serialize"),
        "cli.output_kb": c("cli.serialize.bytes") / 1000.0 / n,
    }

