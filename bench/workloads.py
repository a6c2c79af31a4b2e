"""The four benchmark workloads: datasets, request schedules and small oracle instances.

A request is a dict with the CLI ``argv``, a ``kind`` naming its request
type, and ``params`` holding the same values in structured form for the
checkers and the traced replica.  Schedules repeat a fixed pattern of kinds
in a fixed order, so every run, whatever its seed, sends the same mix; the
seed moves the data and the query points.  The pattern shares are chosen so
that the median and the tail percentile of a run sit inside one request
kind rather than on the step between two kinds.
"""

from __future__ import annotations

import itertools
import os
from typing import Dict

from generate import (
    DatabaseSpec,
    TrajectorySpec,
    certain_objects_with,
    clustered_database,
    dump,
    existence_probabilities,
    ring_neighbourhoods,
    rng_for,
    trajectory_dataset,
)

#: Requests generated per run; a run that gets through all of them starts over.
SCHEDULE_LENGTH = 400

KNN_SPEC = DatabaseSpec(
    n_objects=100,
    instance_counts=(2, 3, 4, 5, 6, 7, 8),
    uncertain_share=0.3,
    n_clusters=5,
    extent=1000.0,
    cluster_spread=40.0,
    instance_spread=15.0,
)
RANGE_SPEC = DatabaseSpec(
    n_objects=10000,
    instance_counts=(1, 2, 3, 4, 5, 6, 7),
    uncertain_share=0.3,
    n_clusters=20,
    extent=2000.0,
    cluster_spread=60.0,
    instance_spread=8.0,
)
#: Background objects of reps-sampled; the ring objects bring the total to 350.
REPS_BACKGROUND_SPEC = DatabaseSpec(
    n_objects=350 - (6 + 8 + 10 + 13 + 14),
    instance_counts=(2, 3, 4, 5, 6),
    uncertain_share=0.3,
    n_clusters=10,
    extent=1000.0,
    cluster_spread=25.0,
    instance_spread=12.0,
)
#: Ring sizes of reps-sampled; a 4-NN query at a ring centre has close to
#: C(size, 4) distinct sampled results: 15, 70, 210, about 700 and about 1000.
REPS_RINGS = (6, 8, 10, 13, 14)
#: The shadow candidate wins with these probabilities (shuffled over the 16
#: timestamps); its qualifying sets number about 2500, 1100 and 520 at tau
#: 0.05, 0.1 and 0.2.
PCNN_SPEC = TrajectorySpec(
    n_candidates=48,
    n_timestamps=16,
    follow=(0.97,) * 5 + (0.5,) * 5 + (0.2,) * 6,
)

#: Kind patterns, repeated in order.  With a 25 s run, the median falls
#: among knn, pcnn-0.05 and the cheap reps requests, and the tail (ten
#: requests above it) among topk, pcnn-maximal-0.1 and maxcover-715.
KNN_PATTERN = ("knn", "knn", "topk", "knn", "rank", "knn", "topk", "knn")
RANGE_PATTERN = ("range", "range-tau")
REPS_PATTERN = (
    "maxcover-15", "maxcover-715", "cluster-70", "maxcover-70",
    "maxcover-210", "maxcover-715", "cluster-70", "maxcover-1000",
    "maxcover-15", "maxcover-715", "cluster-70", "maxcover-70",
    "maxcover-210", "maxcover-715", "cluster-70", "maxcover-715",
)
#: Refused exact-object requests are left out of the percentiles, so the
#: pcnn median sits in the middle of pcnn-0.05's share of the answered ones.
PCNN_PATTERN = (
    "pcnn-0.05", "pcnn-0.1", "pcnn-maximal-0.1", "exact-object",
    "pcnn-0.05", "pcnn-0.2", "pcnn-0.05", "pcnn-maximal-0.1",
)
#: Sampling seed passed to every sampled request.
SAMPLE_SEED = 42


def _near(rng, centre, spread):
    return rng.gauss(centre[0], spread), rng.gauss(centre[1], spread)


def _arg(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _request(kind: str, command: str, dataset: str, **params) -> dict:
    argv = [command, "--dataset", dataset]
    for key, value in params.items():
        if value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        argv += [flag] if value is True else [flag, _arg(value)]
    return {"kind": kind, "argv": argv, "params": dict(params, command=command, dataset=dataset)}


def build_knn_scan(seed: int, workdir: str) -> dict:
    doc, centres = clustered_database(KNN_SPEC, rng_for("knn-scan", seed, "db"))
    path = os.path.join(workdir, "knn-scan.json")
    dump(doc, path)
    rng = rng_for("knn-scan", seed, "requests")
    query_objects = certain_objects_with(doc, 2)
    ids = [o["id"] for o in doc["objects"]]
    ks = itertools.cycle((1, 5, 10))
    requests = []
    for i, kind in zip(range(SCHEDULE_LENGTH), itertools.cycle(KNN_PATTERN)):
        x, y = _near(rng, centres[i % len(centres)], KNN_SPEC.cluster_spread)
        if kind == "knn":
            requests.append(_request(kind, "knn", path, query_x=x, query_y=y, k=next(ks)))
        elif kind == "topk":
            requests.append(
                _request(kind, "topk", path, query_object=rng.choice(query_objects), nn=5, k=3)
            )
        else:
            requests.append(_request(kind, "rank", path, query_x=x, query_y=y, object=rng.choice(ids)))
    return {"files": [path], "requests": requests, "existence": existence_probabilities(doc)}


def build_range_bulk(seed: int, workdir: str) -> dict:
    doc, centres = clustered_database(RANGE_SPEC, rng_for("range-bulk", seed, "db"))
    path = os.path.join(workdir, "range-bulk.json")
    dump(doc, path)
    rng = rng_for("range-bulk", seed, "requests")
    requests = []
    for i, kind in zip(range(SCHEDULE_LENGTH), itertools.cycle(RANGE_PATTERN)):
        x, y = _near(rng, centres[i % len(centres)], RANGE_SPEC.cluster_spread)
        tau = 0.5 if kind == "range-tau" else None
        requests.append(
            _request(kind, "range", path, query_x=x, query_y=y, epsilon=rng.uniform(20.0, 120.0), tau=tau)
        )
    return {"files": [path], "requests": requests, "existence": existence_probabilities(doc)}


def reps_database(seed: int, background: DatabaseSpec, rings, n_instances: int, purpose: str):
    """Clustered background objects plus ring neighbourhoods, and the ring centres."""
    doc, _ = clustered_database(background, rng_for("reps-sampled", seed, purpose + "-db"))
    ring_objects, centres = ring_neighbourhoods(
        rings, n_instances, rng_for("reps-sampled", seed, purpose + "-rings")
    )
    doc["objects"] += ring_objects
    return doc, centres


def build_reps_sampled(seed: int, workdir: str) -> dict:
    doc, centres = reps_database(seed, REPS_BACKGROUND_SPEC, REPS_RINGS, 8, "main")
    path = os.path.join(workdir, "reps-sampled.json")
    dump(doc, path)
    ring_of = {15: 0, 70: 1, 210: 2, 715: 3, 1000: 4}
    requests = []
    for kind in itertools.islice(itertools.cycle(REPS_PATTERN), SCHEDULE_LENGTH):
        method, distinct = kind.rsplit("-", 1)
        x, y = centres[ring_of[int(distinct)]]
        if method == "maxcover":
            extra = dict(method="maxcover", tau=0.3, n_reps=3)
        else:
            extra = dict(method="cluster")
        requests.append(
            _request(kind, "reps", path, query_x=x, query_y=y, nn=4, samples=10000, seed=SAMPLE_SEED, **extra)
        )
    return {"files": [path], "requests": requests, "existence": existence_probabilities(doc)}


def build_pcnn_traj(seed: int, workdir: str) -> dict:
    doc = trajectory_dataset(PCNN_SPEC, rng_for("pcnn-traj", seed, "traj"))
    path = os.path.join(workdir, "pcnn-traj.json")
    dump(doc, path)
    rng = rng_for("pcnn-traj", seed, "requests")
    candidates = [o["id"] for o in doc["objects"]]
    requests = []
    for kind in itertools.islice(itertools.cycle(PCNN_PATTERN), SCHEDULE_LENGTH):
        if kind == "exact-object":
            requests.append(
                _request(kind, "pcnn", path, tau=0.1, backend="exact", object=rng.choice(candidates[1:]))
            )
        else:
            tau = float(kind.rsplit("-", 1)[1])
            requests.append(
                _request(
                    kind, "pcnn", path, tau=tau, backend="sampled", samples=4000,
                    seed=SAMPLE_SEED, maximal="maximal" in kind,
                )
            )
    return {"files": [path], "requests": requests, "trajectories": (candidates, doc["timestamps"])}


WORKLOADS = {
    "knn-scan": build_knn_scan,
    "range-bulk": build_range_bulk,
    "reps-sampled": build_reps_sampled,
    "pcnn-traj": build_pcnn_traj,
}


def oracle_instance(workload: str, seed: int, workdir: str) -> Dict:
    """A small instance of the workload's generator, at most 2^13 worlds.

    It names a dataset file and, for the database workloads, the CLI
    requests whose probabilities the oracle check compares against exact
    enumeration.
    """
    rng = rng_for(workload, seed, "oracle")
    if workload == "pcnn-traj":
        spec = TrajectorySpec(n_candidates=4, n_timestamps=4, follow=(0.97, 0.5, 0.5, 0.2))
        doc = trajectory_dataset(spec, rng)
        path = os.path.join(workdir, "oracle-pcnn.json")
        dump(doc, path)
        return {"path": path, "doc": doc}
    if workload == "reps-sampled":
        background = DatabaseSpec(2, (2, 3), 0.5, 1, 200.0, 25.0, 12.0)
        doc, centres = reps_database(seed, background, (5,), 3, "oracle")
        centre = centres[0]
        queries = [("knn", dict(query_x=centre[0], query_y=centre[1], k=4))]
    else:
        counts = (1, 2, 3) if workload == "range-bulk" else (2, 3)
        spec = DatabaseSpec(9, counts, 0.3, 2, 300.0, 30.0, 15.0)
        doc, centres = clustered_database(spec, rng)
        x, y = _near(rng, centres[0], 30.0)
        if workload == "range-bulk":
            queries = [("range", dict(query_x=x, query_y=y, epsilon=40.0))]
        else:
            queries = [
                ("knn", dict(query_x=x, query_y=y, k=2)),
                ("topk", dict(query_object=certain_objects_with(doc, 2)[0], nn=2, k=1)),
            ]
    path = os.path.join(workdir, f"oracle-{workload}.json")
    dump(doc, path)
    return {"path": path, "doc": doc, "requests": [_request(c, c, path, **p) for c, p in queries]}
