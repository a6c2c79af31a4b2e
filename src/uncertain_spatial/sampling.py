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


def _draw(table: InstanceTable, j: int, streams: np.ndarray, counter: int) -> np.ndarray:
    """Row j's branch per stream at draw ``counter``.  A draw depends only on (stream,
    counter), so drawing a row in some of the samples gives the full draw there.  A
    certain one-instance row is 0 in every world and is not drawn."""
    if table.certain[j] and table.first[j + 1] - table.first[j] == 1:
        return np.zeros(len(streams), dtype=np.int64)
    return _branches(table, j, _uniforms(streams, counter))


@dataclass(frozen=True)
class SampleSet:
    """A multiset of n independently sampled possible worlds.

    Object j's column (its branch in every sample) is drawn on demand by
    ``column(j)``, with draw counter j; since a column depends only on (seed,
    sample index, j), a query that reads a few columns, or a column in a few
    samples, sees exactly the worlds that drawing every column would give.
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
        return _draw(self.db.table, j, self._streams, j)

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


def _sampled_members(table: InstanceTable, q_row, q_positions, streams, counters, predicate):
    """Boolean membership per (sample, row) of ``table``, columns in id order.

    Row j's branch (an instance index, or -1 when absent) in sample i is drawn from
    ``streams[i]`` with draw counter ``counters[j]``; ``q_row`` is the query's own row
    (``None`` for a point) and ``q_positions`` its instance positions.  Only rows that are
    members in some world are drawn; the others stay all-False.  For kNN, ``bound`` is the
    k-th smallest farthest distance of a certainly-existing row, so every world has k rows
    within it: a row always farther than ``bound`` is never a member and never ranks ahead
    of one, and ranks among the kept columns equal ranks among all of them.  Distance ties
    go to the lower id rank.

    For k = 1 the kept rows are walked nearest-first by ``near``, their nearest possible
    distance, each drawn only in the samples still undecided; a sample leaves the walk once
    its nearest drawn distance is strictly below the next row's ``near``, since no later row
    can come closer or tie it.  Otherwise every kept row is drawn in every sample.

    Returns (member matrix, the rows of its columns).
    """
    n = len(streams)
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

    # a one-position query reads row 0 of inst_dist; otherwise its draw per sample
    q_idx = None if len(inst_dist) == 1 else _draw(table, q_row, streams, counters[q_row])

    def distances(c, s):
        """Kept column c's drawn distance in samples ``s`` (indices or a slice); inf when absent."""
        j = cols[c]
        idx = _draw(table, j, streams[s], counters[j])
        if q_idx is None:
            d = inst_dist[0, table.first[j]:table.first[j + 1]][idx]
        else:
            d = inst_dist[q_idx[s], table.first[j] + idx]
        return d if table.certain[j] else np.where(idx < 0, np.inf, d)

    if isinstance(predicate, KnnPredicate) and predicate.k == 1:
        walk = sorted(keep, key=lambda c: near[cols[c]])  # stable: equal near in id order
        win = np.full(n, -1)  # per sample, the column nearest so far; -1 while none is present
        live, best = np.arange(n), np.full(n, np.inf)  # undecided samples, their best distance
        for step, c in enumerate(walk):
            d = distances(c, live)
            take = d < best
            tie = d == best
            if tie.any():  # to the lower column; an absent draw ties only where win is -1
                take |= tie & (win[live] > c)
            win[live[take]] = c
            if step + 1 == len(walk):
                break
            best = np.minimum(best, d)
            stay = best >= near[cols[walk[step + 1]]]
            live, best = live[stay], best[stay]
            if not len(live):
                break
        member = np.zeros((n, len(cols)), dtype=bool)
        hit = np.flatnonzero(win >= 0)
        member[hit, win[hit]] = True
        return member, cols

    dist = np.empty((n, len(keep)))
    for out_j, c in enumerate(keep):
        dist[:, out_j] = distances(c, slice(None))
    if isinstance(predicate, RangePredicate):
        kept = dist <= predicate.epsilon
    else:
        # a stable argsort of id-ordered columns is the tie rule: its first k present are members
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
    member, cols = _sampled_members(db.table, q_col, q_positions, X._streams, range(len(db)),
                                    predicate)
    return member, [db.object_ids[j] for j in cols]


def _supports_from_membership(member: np.ndarray, ids: List[str]) -> List[PossibleResult]:
    """Group identical rows by one sort of their packed bytes.

    Only the columns that some sample sets are packed; a stable sort of the byte columns
    (``np.lexsort``, last key first) brings equal rows together, and each run of equal rows is
    one distinct result, whose members are read from one ``np.nonzero`` over the runs' first
    rows.  Results come sorted by falling support, then by members.
    """
    used = np.flatnonzero(member.any(axis=0))
    if not len(used):  # no sample sets any column: every row is the empty result
        return [PossibleResult(ResultSet(()), len(member))]
    rows = member[:, used]
    packed = np.packbits(rows, axis=1)
    order = np.lexsort(packed.T[::-1])
    packed = packed[order]
    starts = np.flatnonzero(np.r_[True, (packed[1:] != packed[:-1]).any(axis=1)])
    counts = np.diff(np.r_[starts, len(packed)]).tolist()
    which, cols = np.nonzero(rows[order[starts]])
    bounds = np.searchsorted(which, np.arange(len(starts) + 1)).tolist()
    names, cols = [ids[j] for j in used.tolist()], cols.tolist()
    pairs = [
        PossibleResult(ResultSet(tuple(map(names.__getitem__, cols[lo:hi]))), count)
        for lo, hi, count in zip(bounds, bounds[1:], counts)
    ]
    pairs.sort(key=lambda pr: (-pr.support, pr.result.members))  # the order of ResultSets
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
