"""Monte-Carlo sampling of possible worlds and support estimation.

Worlds are drawn with SplitMix64 (Steele, Lea & Flood's seedable mix
generator): sample i uses the substream keyed by ``mix64(seed + (i+1)*GAMMA)``
and draws one uniform per object through a second mix step.  Substreams depend
only on (seed, sample index), so sampling is deterministic, order-independent,
and trivially parallel; extending a sample set re-creates its prefix exactly.

Each object's branch (instance index, or absence when the instance
probabilities sum to less than one) is chosen by inverting the cumulative
distribution at the drawn uniform, which samples the database without bias
because objects are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Union

import numpy as np

from .bernoulli import CountDistribution
from .model import (
    InstanceTable,
    QueryPoint,
    UncertainDatabase,
    ValidationError,
    distance_matrix,
    resolve_query,
)
from .predicates import KnnPredicate, RangePredicate, SpatialPredicate
from .worlds import PossibleWorld, ResultSet

#: World count and seed of a sampled query unless a caller sets them.
DEFAULT_SAMPLES = 10000
DEFAULT_SEED = 42

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_GAMMA_U = np.uint64(_GAMMA)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer (murmur-style avalanche) over uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _substreams(seed: int, n: int) -> np.ndarray:
    """Per-sample stream keys for samples 0..n-1."""
    idx = np.arange(n, dtype=np.uint64)
    return _mix64(np.uint64(seed & _MASK64) + (idx + np.uint64(1)) * _GAMMA_U)


def _uniforms(streams: np.ndarray, counter: int) -> np.ndarray:
    """One uniform in [0, 1) per stream for the given draw counter (a Python int)."""
    key = np.uint64(((counter + 1) * _GAMMA) & _MASK64)
    z = _mix64(streams + key)
    return (z >> np.uint64(11)) * 2.0**-53


def _branches(table: InstanceTable, j: int, u: np.ndarray) -> np.ndarray:
    """Object j's branch at each uniform: an instance index, or -1 for absence.

    Past the cumulative sum lies absence, or round-off in a certain object (its last instance).
    """
    lo, hi = table.first[j], table.first[j + 1]
    idx = np.searchsorted(np.cumsum(table.prob[lo:hi]), u, side="right")
    idx[idx == hi - lo] = hi - lo - 1 if table.certain[j] else -1
    return idx


@dataclass(frozen=True)
class SampleSet:
    """A multiset of n independently sampled possible worlds.

    Object j's column (its branch in every sample) is drawn on demand by
    ``column(j)``; since a column depends only on (seed, sample index, j),
    a query that reads a few columns sees exactly the worlds that drawing
    every column would give.
    """

    db: UncertainDatabase
    seed: int
    n: int

    def __len__(self) -> int:
        return self.n

    @cached_property
    def _streams(self) -> np.ndarray:
        return _substreams(self.seed, self.n)

    def column(self, j: int) -> np.ndarray:
        """Instance index drawn for object j (database order) per sample; -1 when absent."""
        return _branches(self.db.table, j, _uniforms(self._streams, j))

    @cached_property
    def choices(self) -> np.ndarray:
        """``choices[i, j]`` is ``column(j)[i]``: every column, materialized."""
        choices = np.empty((self.n, len(self.db)), dtype=np.int32)
        for j in range(len(self.db)):
            choices[:, j] = self.column(j)
        choices.flags.writeable = False
        return choices

    def worlds(self) -> Iterator[PossibleWorld]:
        """Materialize the samples as possible worlds (probabilities recomputed)."""
        objs = self.db.objects
        for row in self.choices.tolist():
            prob = 1.0
            for obj, idx in zip(objs, row):
                prob *= obj.absence_prob if idx < 0 else obj.instances[idx].prob
            picks = {obj.id: None if idx < 0 else idx for obj, idx in zip(objs, row)}
            yield PossibleWorld(picks, prob)


@dataclass(frozen=True)
class PossibleResult:
    """A distinct sampled query result and its number of occurrences."""

    result: ResultSet
    support: int


def sample_worlds(db: UncertainDatabase, n: int, seed: int = DEFAULT_SEED) -> SampleSet:
    """Draw n independent worlds; identical (db, n-prefix, seed) gives identical samples."""
    if n < 1:
        raise ValidationError("sample count must be at least 1")
    return SampleSet(db=db, seed=seed, n=n)


def _sampled_members(table: InstanceTable, q_row, q_positions, column, n: int, predicate):
    """Boolean membership per (sample, row) of ``table``, columns in id order.

    ``column(j)`` draws row j's branch (an instance index, or -1 when absent) in each of
    the n samples; ``q_row`` is the query's own row (``None`` for a point) and
    ``q_positions`` its instance positions.  Only rows that are members in some world are
    drawn; the others stay all-False.  For kNN, ``bound`` is the k-th smallest farthest
    distance of a certainly-existing row, so every world has k rows within it: a row always
    farther than ``bound`` is never a member and never ranks ahead of one, and ranks among
    the kept columns equal ranks among all of them.  Distance ties go to the lower id rank.

    Returns (member matrix, the rows of its columns).
    """
    cols = [j for j in np.argsort(table.id_rank).tolist() if j != q_row]
    inst_dist = distance_matrix(q_positions, table.positions)  # per (query position, instance)
    near = np.minimum.reduceat(inst_dist.min(axis=0), table.first[:-1])

    if isinstance(predicate, RangePredicate):
        bound = predicate.epsilon
    elif isinstance(predicate, KnnPredicate):
        far = np.maximum.reduceat(inst_dist.max(axis=0), table.first[:-1])
        reach = np.sort(far[[j for j in cols if table.certain[j]]])
        bound = reach[predicate.k - 1] if len(reach) >= predicate.k else math.inf
    else:
        raise ValidationError(f"unsupported spatial predicate {predicate!r}")
    keep = [c for c, j in enumerate(cols) if near[j] <= bound]

    q_idx = np.zeros(n, dtype=np.int64) if q_row is None else column(q_row)
    dist = np.empty((n, len(keep)))
    for out_j, c in enumerate(keep):
        idx = column(cols[c])
        dist[:, out_j] = np.where(idx < 0, np.inf, inst_dist[q_idx, table.first[cols[c]] + idx])
    if isinstance(predicate, RangePredicate):
        kept = dist <= predicate.epsilon
    else:
        # a stable argsort of id-ordered columns is the tie rule: its first k present are
        # members; for k = 1, argmin picks the same first minimum
        if predicate.k == 1 and dist.shape[1]:
            top = np.argmin(dist, axis=1)[:, None]
        else:
            top = np.argsort(dist, axis=1, kind="stable")[:, : predicate.k]
        kept = np.zeros(dist.shape, dtype=bool)
        np.put_along_axis(kept, top, np.take_along_axis(np.isfinite(dist), top, axis=1), axis=1)
    member = np.zeros((n, len(cols)), dtype=bool)
    member[:, keep] = kept
    return member, cols


def _membership_matrix(X: SampleSet, q, predicate: SpatialPredicate):
    """``X``'s (sample, object) membership, columns in sorted-id order, and their ids."""
    db = X.db
    qobj = resolve_query(db, q)
    if qobj is None:
        q_col, q_positions = None, [q.position]
    else:
        q_col, q_positions = db.index(q), [inst.position for inst in qobj.instances]
    member, cols = _sampled_members(db.table, q_col, q_positions, X.column, len(X), predicate)
    return member, [db.object_ids[j] for j in cols]


def _supports_from_membership(member: np.ndarray, ids: List[str]) -> List[PossibleResult]:
    """Group identical rows: pack each row into bytes and count the distinct byte strings."""
    packed = np.packbits(member, axis=1)
    if packed.shape[1] == 0:  # no candidates: every row is the empty result
        packed = np.zeros((len(member), 1), dtype=np.uint8)
    rows = np.ascontiguousarray(packed).view(np.dtype((np.void, packed.shape[1])))[:, 0]
    _, first, counts = np.unique(rows, return_index=True, return_counts=True)
    pairs = [
        PossibleResult(ResultSet(tuple(ids[b] for b in np.flatnonzero(member[i]))), int(count))
        for i, count in zip(first.tolist(), counts.tolist())
    ]
    pairs.sort(key=lambda pr: (-pr.support, pr.result))
    return pairs


def estimate_result_probabilities(
    X: SampleSet, q: Union[QueryPoint, str], predicate: SpatialPredicate
) -> List[PossibleResult]:
    """Distinct sampled results with their supports; supports sum to |X|.

    ``support / |X|`` is an unbiased estimator of the probability that the
    result is the true query outcome.
    """
    member, ids = _membership_matrix(X, q, predicate)
    return _supports_from_membership(member, ids)


def _frequencies(member: np.ndarray, ids: List[str]) -> Dict[str, float]:
    return {oid: float(f) for oid, f in zip(ids, member.mean(axis=0))}


def estimate_object_probabilities(
    X: SampleSet, q: Union[QueryPoint, str], predicate: SpatialPredicate
) -> Dict[str, float]:
    """Per-object membership frequency across the sampled worlds."""
    return _frequencies(*_membership_matrix(X, q, predicate))


def estimate_range(
    X: SampleSet, q: Union[QueryPoint, str], epsilon: float
) -> "tuple[Dict[str, float], CountDistribution]":
    """Per-object in-range frequencies and the empirical distribution of the in-range count
    (a query object never counts), from one pass."""
    member, ids = _membership_matrix(X, q, RangePredicate(epsilon))
    mass = np.bincount(member.sum(axis=1), minlength=member.shape[1] + 1).astype(float)
    return _frequencies(member, ids), CountDistribution(mass / len(member))
