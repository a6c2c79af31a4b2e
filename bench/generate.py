"""Seeded synthetic inputs for the benchmark workloads.

Every function here is pure Python and draws from ``random.Random`` seeded
with a string, so the same seed gives the same files on any platform and
under any ``PYTHONHASHSEED``.  The seed moves positions and probabilities;
sizes that set the cost of a request (object counts, instance-count
multisets, the share of existentially uncertain objects, the shadow
trajectory's win probabilities) are fixed by construction, so runs with
different seeds do comparable work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

#: Existence probability range of the existentially uncertain objects.
EXISTENCE_RANGE = (0.5, 0.95)
#: Ring geometry: object distance from the ring centre, instance spread
#: around the shared pattern, per-object jitter, and where rings sit.
RING_RADIUS, RING_SPREAD, RING_JITTER = 10.0, 8.0, 1.0
RING_ORIGIN, RING_SPACING = (0.0, -400.0), 200.0
#: Trajectory geometry: the other candidates keep outside NEAR_RADIUS and
#: inside FIELD_RADIUS of the query; each has 1..MAX_ALTERNATIVES positions.
NEAR_RADIUS, FIELD_RADIUS, MAX_ALTERNATIVES = 5.0, 120.0, 3


def rng_for(workload: str, seed: int, purpose: str) -> random.Random:
    """An independent, reproducible stream per (workload, seed, purpose)."""
    return random.Random(f"{workload}/{seed}/{purpose}")


@dataclass(frozen=True)
class DatabaseSpec:
    """Shape of a clustered uncertain database.

    ``instance_counts`` is cycled over the objects and then shuffled, so the
    total instance count does not depend on the seed.  Exactly
    ``round(uncertain_share * n_objects)`` objects are existentially
    uncertain; their instance probabilities sum to a value in
    ``EXISTENCE_RANGE``.
    """

    n_objects: int
    instance_counts: Sequence[int]
    uncertain_share: float
    n_clusters: int
    extent: float
    cluster_spread: float
    instance_spread: float


def clustered_database(spec: DatabaseSpec, rng: random.Random):
    """A dataset document in the CLI's JSON format, and the cluster centres.

    Objects are assigned round-robin to clusters; an object's centre is a
    Gaussian draw around its cluster centre and its instances are Gaussian
    draws around the object's centre.
    """
    counts = [spec.instance_counts[i % len(spec.instance_counts)] for i in range(spec.n_objects)]
    rng.shuffle(counts)
    uncertain = set(rng.sample(range(spec.n_objects), round(spec.uncertain_share * spec.n_objects)))
    centres = [
        (rng.uniform(0.1, 0.9) * spec.extent, rng.uniform(0.1, 0.9) * spec.extent)
        for _ in range(spec.n_clusters)
    ]
    objects = []
    for i, count in enumerate(counts):
        cx, cy = centres[i % spec.n_clusters]
        ox, oy = rng.gauss(cx, spec.cluster_spread), rng.gauss(cy, spec.cluster_spread)
        weights = [rng.uniform(0.2, 1.0) for _ in range(count)]
        total = math.fsum(weights)
        scale = rng.uniform(*EXISTENCE_RANGE) if i in uncertain else 1.0
        instances = [
            {
                "x": rng.gauss(ox, spec.instance_spread),
                "y": rng.gauss(oy, spec.instance_spread),
                "p": w / total * scale,
            }
            for w in weights
        ]
        objects.append({"id": f"o{i:05d}", "instances": instances})
    return {"objects": objects}, centres


def ring_neighbourhoods(ring_sizes: Sequence[int], n_instances: int, rng: random.Random):
    """Surely existing objects in rings of the given sizes, and the ring centres.

    All objects of a ring share one pattern of instance offsets and
    probabilities, rotated to their place on the ring and moved by a small
    Gaussian jitter; so their distances from the ring centre are close to
    exchangeable and a kNN query at the centre has close to C(size, k)
    distinct results (with 8 instances, 10,000 samples and k=4, within 2%
    for sizes up to 14).  Rings lie along a line away from the clustered
    objects.
    """
    objects, centres = [], []
    for r, size in enumerate(ring_sizes):
        cx, cy = RING_ORIGIN[0] + r * RING_SPACING, RING_ORIGIN[1]
        centres.append((cx, cy))
        weights = [rng.uniform(0.2, 1.0) for _ in range(n_instances)]
        total = math.fsum(weights)
        pattern = [
            (rng.gauss(0.0, RING_SPREAD), rng.gauss(0.0, RING_SPREAD), w / total)
            for w in weights
        ]
        for j in range(size):
            a = 2.0 * math.pi * j / size
            c, s = math.cos(a), math.sin(a)
            instances = []
            for dx, dy, p in pattern:
                px, py = RING_RADIUS + dx, dy
                instances.append(
                    {
                        "x": cx + c * px - s * py + rng.gauss(0.0, RING_JITTER),
                        "y": cy + s * px + c * py + rng.gauss(0.0, RING_JITTER),
                        "p": p,
                    }
                )
            objects.append({"id": f"r{r:02d}.{j:02d}", "instances": instances})
    return objects, centres


@dataclass(frozen=True)
class TrajectorySpec:
    """Shape of an uncertain-trajectory dataset with one shadow candidate.

    The shadow candidate has, at each timestamp, one alternative right next
    to the query (probability ``follow[t]``) and one far away; every other
    candidate keeps all its alternatives between NEAR_RADIUS and
    FIELD_RADIUS of the query.  So the shadow is the nearest neighbour at t with
    probability exactly ``follow[t]``, and its qualifying timestamp sets are
    the subsets whose ``follow`` product reaches tau: the lattice size is set
    by ``follow``, not by the seed.  ``follow`` is shuffled over timestamps.
    """

    n_candidates: int
    n_timestamps: int
    follow: Sequence[float]


def trajectory_dataset(spec: TrajectorySpec, rng: random.Random) -> dict:
    """A trajectory dataset document in the CLI's JSON format."""
    follow = list(spec.follow)
    rng.shuffle(follow)
    timestamps = list(range(spec.n_timestamps))
    query_path = []
    x, y = 0.0, 0.0
    for _ in timestamps:
        x, y = x + rng.uniform(5.0, 15.0), y + rng.uniform(-5.0, 5.0)
        query_path.append((x, y))

    def alt(px, py, p):
        return {"x": px, "y": py, "p": p}

    def polar(centre, lo, hi):
        r, a = rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi)
        return centre[0] + r * math.cos(a), centre[1] + r * math.sin(a)

    shadow = {}
    for t, q in zip(timestamps, query_path):
        near = polar(q, 0.5, NEAR_RADIUS * 0.5)
        far = polar(q, FIELD_RADIUS * 1.5, FIELD_RADIUS * 2.0)
        shadow[str(t)] = [alt(*near, follow[t]), alt(*far, 1.0 - follow[t])]
    objects = [{"id": "c00", "per_timestamp": shadow}]
    for c in range(1, spec.n_candidates):
        per_t = {}
        for t, q in zip(timestamps, query_path):
            k = rng.randint(1, MAX_ALTERNATIVES)
            weights = [rng.uniform(0.2, 1.0) for _ in range(k)]
            total = math.fsum(weights)
            probs = [w / total for w in weights]
            probs[-1] = 1.0 - math.fsum(probs[:-1])
            per_t[str(t)] = [
                alt(*polar(q, NEAR_RADIUS, FIELD_RADIUS), p) for p in probs
            ]
        objects.append({"id": f"c{c:02d}", "per_timestamp": per_t})
    query = {
        "id": "q",
        "per_timestamp": {str(t): [alt(*q, 1.0)] for t, q in zip(timestamps, query_path)},
    }
    return {"timestamps": timestamps, "query": query, "objects": objects}


def dump(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def existence_probabilities(doc: dict) -> Dict[str, float]:
    """Per-object existence probability of a generated database document."""
    return {
        obj["id"]: min(1.0, math.fsum(inst["p"] for inst in obj["instances"]))
        for obj in doc["objects"]
    }


def certain_objects_with(doc: dict, n_instances: int) -> List[str]:
    """Ids of objects that surely exist and have exactly n instances."""
    return [
        obj["id"]
        for obj in doc["objects"]
        if len(obj["instances"]) == n_instances
        and math.fsum(inst["p"] for inst in obj["instances"]) >= 1.0 - 1e-9
    ]
