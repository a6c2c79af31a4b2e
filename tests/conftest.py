"""Shared fixtures and independent test oracles."""

from __future__ import annotations

import itertools
import os
from pathlib import Path

import numpy as np
import pytest

from uncertain_spatial import (
    Instance,
    UncertainDatabase,
    UncertainObject,
    euclidean_distance,
    load_database,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # On CI every falsifying example also prints its ``@reproduce_failure`` blob, so a rare
    # counterexample found there can be replayed locally.
    settings.register_profile("ci", print_blob=True)
    if os.environ.get("CI"):
        settings.load_profile("ci")


def fixture_db(name: str) -> UncertainDatabase:
    with open(FIXTURES / name, "rb") as fh:
        return load_database(fh)


@pytest.fixture
def worlds_db():
    return fixture_db("worlds_demo.json")


@pytest.fixture
def range_db():
    return fixture_db("range_demo.json")


@pytest.fixture
def knn_db():
    return fixture_db("knn_demo.json")


@pytest.fixture
def consensus_db():
    return fixture_db("consensus_demo.json")


def make_object(oid: str, specs) -> UncertainObject:
    """Build an object from (x, y, p) triples."""
    return UncertainObject(
        id=oid,
        instances=tuple(
            Instance(object_id=oid, index=i, position=(float(x), float(y)), prob=float(p))
            for i, (x, y, p) in enumerate(specs)
        ),
    )


def random_db(
    rng: np.random.Generator,
    max_objects: int = 8,
    max_instances: int = 3,
    max_worlds: int = 5000,
    allow_existential: bool = True,
) -> UncertainDatabase:
    """A random database small enough for exhaustive world enumeration."""
    while True:
        n_obj = int(rng.integers(2, max_objects + 1))
        objects = []
        for i in range(n_obj):
            m = int(rng.integers(1, max_instances + 1))
            raw = rng.random(m) + 0.05
            scale = 1.0
            if allow_existential and rng.random() < 0.4:
                scale = float(rng.uniform(0.3, 0.95))
            probs = raw / raw.sum() * scale
            specs = [
                (rng.uniform(-10, 10), rng.uniform(-10, 10), probs[j]) for j in range(m)
            ]
            objects.append(make_object(f"O{i:02d}", specs))
        db = UncertainDatabase(tuple(objects))
        count = 1
        for obj in db.objects:
            count *= len(obj.instances) + (1 if obj.is_existentially_uncertain else 0)
        if count <= max_worlds:
            return db


def brute_force_bernoulli_pmf(probs) -> np.ndarray:
    """Poisson-binomial pmf by enumerating all 2^N outcomes (N <= ~20)."""
    p = np.asarray(list(probs), dtype=float)
    n = p.size
    codes = np.arange(1 << n, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(n)) & 1
    weights = np.where(bits == 1, p, 1.0 - p).prod(axis=1)
    return np.bincount(bits.sum(axis=1), weights=weights, minlength=n + 1)


def world_rank_of(db, world, q_pos, oid):
    """Rank of an object among existing objects by (distance, id); None if absent."""
    placements = {
        obj.id: obj.instances[world.choices[obj.id]].position
        for obj in db.objects
        if world.choices[obj.id] is not None
    }
    if oid not in placements:
        return None
    ranked = sorted(
        placements, key=lambda i: (euclidean_distance(q_pos, placements[i]), i)
    )
    return ranked.index(oid) + 1


def exhaustive_best_cover(pr, dist, tau: float, n: int) -> int:
    """Optimal support-weighted cover over all representative subsets of size <= n."""
    supports = [r.support for r in pr]
    best = 0
    indices = range(len(pr))
    for size in range(1, n + 1):
        for combo in itertools.combinations(indices, size):
            covered = sum(
                s
                for i, s in enumerate(supports)
                if any(dist[i][j] <= tau for j in combo)
            )
            best = max(best, covered)
    return best
