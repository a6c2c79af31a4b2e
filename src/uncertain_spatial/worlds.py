"""Exact possible-worlds enumeration and query probabilities.

This is the deliberately brute-force ground-truth oracle: every non-zero
probability combination of instance choices (or absences) is materialized,
so it is only usable on desk-scale databases.  The enumeration size is
guarded by a cap (default 2^22 worlds) with an explicit error.

The query argument of the result operations may be a fixed :class:`QueryPoint`
or the id of a database object; in the latter case the named object acts as an
uncertain query, is enumerated jointly with the rest of the database, and is
excluded from every result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Optional, Union

import numpy as np

from .bernoulli import CountDistribution
from .model import (
    PROB_TOL,
    CapExceededError,
    QueryPoint,
    UncertainDatabase,
    ValidationError,
    resolve_query,
)

#: Default limit on the number of enumerated worlds.
DEFAULT_WORLD_CAP = 2**22


@dataclass(frozen=True, order=True)
class ResultSet:
    """A canonical deterministic query result: sorted, duplicate-free object ids."""

    members: "tuple[str, ...]"

    def __post_init__(self):
        canonical = tuple(sorted(set(self.members)))
        if canonical != self.members:
            object.__setattr__(self, "members", canonical)

    @classmethod
    def of(cls, ids: Iterable[str]) -> "ResultSet":
        return cls(tuple(ids))

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, oid: str) -> bool:
        return oid in self.members


@dataclass(frozen=True)
class PossibleWorld:
    """One concrete instantiation of every object: instance index or ``None`` (absent)."""

    choices: "dict[str, Optional[int]]"
    prob: float


def world_count(db: UncertainDatabase) -> int:
    """Number of possible worlds (absence counts as a branch where applicable)."""
    total = 1
    for obj in db.objects:
        total *= len(obj.instances) + (1 if obj.is_existentially_uncertain else 0)
    return total


def enumerate_worlds(
    db: UncertainDatabase, cap: int = DEFAULT_WORLD_CAP
) -> Iterator[PossibleWorld]:
    """Yield every non-zero-probability world exactly once, in deterministic order.

    Objects branch in database order; within an object, instances branch in
    file order with the absence branch last.  Raises :class:`CapExceededError`
    when the database spans more than ``cap`` worlds.
    """
    n_worlds = world_count(db)
    if n_worlds > cap:
        raise CapExceededError(
            f"database too large for oracle: {n_worlds} worlds exceed cap {cap}"
        )
    branches = []
    for obj in db.objects:
        opts = [(inst.index, inst.prob) for inst in obj.instances]
        if obj.is_existentially_uncertain:
            opts.append((None, obj.absence_prob))
        branches.append((obj.id, opts))

    def rec(i: int, choices: Dict[str, Optional[int]], prob: float):
        if i == len(branches):
            yield PossibleWorld(dict(choices), prob)
            return
        oid, opts = branches[i]
        for idx, p in opts:
            choices[oid] = idx
            yield from rec(i + 1, choices, prob * p)
        del choices[oid]

    yield from rec(0, {}, 1.0)


def query_probability(
    db: UncertainDatabase,
    predicate: Callable[[PossibleWorld], bool],
    cap: int = DEFAULT_WORLD_CAP,
) -> float:
    """Total probability of the worlds satisfying a world-level predicate."""
    return math.fsum(w.prob for w in enumerate_worlds(db, cap) if predicate(w))


def _world_placements(db: UncertainDatabase, world: PossibleWorld, skip: Optional[str]):
    placements = {}
    for obj in db.objects:
        if obj.id == skip:
            continue
        idx = world.choices[obj.id]
        if idx is not None:
            placements[obj.id] = obj.instances[idx].position
    return placements


def evaluate_world(
    db: UncertainDatabase,
    world: PossibleWorld,
    q: Union[QueryPoint, str],
    predicate,
) -> ResultSet:
    """Deterministic result of the predicate in one concrete world."""
    qobj = resolve_query(db, q)
    if qobj is None:
        return predicate.evaluate(q.position, _world_placements(db, world, None))
    idx = world.choices[q]
    if idx is None:  # zero-probability branch for a validated query object
        return ResultSet.of(())
    return predicate.evaluate(qobj.instances[idx].position, _world_placements(db, world, q))


def result_based(
    db: UncertainDatabase,
    q: Union[QueryPoint, str],
    predicate,
    cap: int = DEFAULT_WORLD_CAP,
) -> "dict[ResultSet, float]":
    """Probability of each distinct deterministic result across all worlds."""
    dist: Dict[ResultSet, list] = {}
    for world in enumerate_worlds(db, cap):
        res = evaluate_world(db, world, q, predicate)
        dist.setdefault(res, []).append(world.prob)
    return {res: math.fsum(ps) for res, ps in sorted(dist.items())}


def object_based(
    db: UncertainDatabase,
    q: Union[QueryPoint, str],
    predicate,
    cap: int = DEFAULT_WORLD_CAP,
) -> "dict[str, float]":
    """Marginal probability of each object belonging to the query result.

    Every non-query object appears in the output, including those with zero
    probability.
    """
    return object_and_count_based(db, q, predicate, cap)[0]


def object_and_count_based(
    db: UncertainDatabase,
    q: Union[QueryPoint, str],
    predicate,
    cap: int = DEFAULT_WORLD_CAP,
) -> "tuple[dict[str, float], CountDistribution]":
    """Per-object marginals (as :func:`object_based`) and the result-size distribution.

    One enumeration feeds both; the size mass is summed over the worlds in
    enumeration order.
    """
    qobj = resolve_query(db, q)
    acc: Dict[str, list] = {obj.id: [] for obj in db.objects if obj is not qobj}
    mass = np.zeros(len(acc) + 1)
    for world in enumerate_worlds(db, cap):
        res = evaluate_world(db, world, q, predicate)
        for oid in res:
            acc[oid].append(world.prob)
        mass[len(res)] += world.prob
    return {oid: math.fsum(ps) for oid, ps in acc.items()}, CountDistribution(mass)


def object_based_from_result_based(rd: "dict[ResultSet, float]") -> "dict[str, float]":
    """Derive per-object probabilities by summing over the results containing each object."""
    total = math.fsum(rd.values())
    if abs(total - 1.0) > PROB_TOL:
        raise ValidationError(f"result distribution sums to {total}, expected 1")
    acc: Dict[str, list] = {}
    for res, p in rd.items():
        for oid in res:
            acc.setdefault(oid, []).append(p)
    return {oid: math.fsum(ps) for oid, ps in sorted(acc.items())}
