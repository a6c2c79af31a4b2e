"""Uncertain trajectories and continuous nearest-neighbor timestamp queries.

A trajectory assigns, per timestamp, a set of alternative positions with
probabilities summing to one; draws are independent across timestamps and
across trajectories.  The core query asks, for a candidate object o and a
timestamp set T_i, for the probability that o is the strict nearest neighbor
of the query trajectory at every timestamp of T_i (ties break by object id;
the query is never a competitor).

Because that probability is anti-monotone in T_i, all qualifying subsets of a
query interval are found level-wise, Apriori style: only supersets whose
(k-1)-subsets all qualified are ever validated.  Timestamps the object surely
wins are searched like any other.

Each timestamp is a set of x-tuples, as in a spatial database: a dataset keeps
one instance table per timestamp (the query as row 0), and both probability
backends read only those tables.  The exact backend reads each timestamp as a
spatial database queried by the query trajectory's alternatives, so an object's
win there is its 1-NN probability from the spatial kNN engine's one per-object
kNN function (its closer masses, tie rule and truncated fold); wins multiply
across timestamps, which is exact under the independence model.  The sampled
backend shares one fixed sample set across the whole lattice, so estimated
probabilities are anti-monotone by construction.  It draws and ranks each
timestamp through the sampling module's 1-NN membership core, the one the
spatial estimators use, so an object is drawn only in the worlds where it can
still be nearest.
``answer_pcnn`` is the one entry point over both.

In the JSON format, timestamps are distinct integers, written as canonical
decimal ``per_timestamp`` keys, and ids are strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import Dict, IO, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .model import (
    PROB_TOL,
    CapExceededError,
    InstanceTable,
    UncertainDatabase,
    ValidationError,
    json_xyp,
    parse_json,
)
from .predicates import KnnPredicate
from .queries import _closer_block, _object_knn, _query_mix
from .sampling import DEFAULT_SAMPLES, DEFAULT_SEED, _sampled_members, _substreams

#: Default cap on lattice candidates validated.
DEFAULT_LATTICE_CAP = 10**6


@dataclass(frozen=True)
class UncertainTrajectory:
    """Per-timestamp alternative positions with probabilities summing to one."""

    id: str
    per_timestamp: "dict[int, tuple[tuple[tuple[float, float], float], ...]]"

    def __post_init__(self):
        for t, alts in self.per_timestamp.items():
            if not alts:
                raise ValidationError(
                    f"trajectory {self.id!r}: timestamp {t} has no alternatives"
                )
            total = math.fsum(p for _, p in alts)
            if abs(total - 1.0) > PROB_TOL:
                raise ValidationError(
                    f"trajectory {self.id!r}: probabilities at timestamp {t} "
                    f"sum to {total}, expected 1"
                )
            for pos, p in alts:
                if not (p > 0.0):
                    raise ValidationError(
                        f"trajectory {self.id!r}: non-positive probability at timestamp {t}"
                    )
                if not all(math.isfinite(c) for c in pos):
                    raise ValidationError(
                        f"trajectory {self.id!r}: non-finite position at timestamp {t}"
                    )

    @property
    def timestamps(self) -> "tuple[int, ...]":
        return tuple(sorted(self.per_timestamp))


@dataclass(frozen=True)
class TrajectoryDataset:
    """A query trajectory plus candidate objects over a shared timestamp domain."""

    timestamps: "tuple[int, ...]"
    query: UncertainTrajectory
    objects: "tuple[UncertainTrajectory, ...]"

    def __post_init__(self):
        domain = tuple(sorted(self.timestamps))
        object.__setattr__(self, "timestamps", domain)
        if not domain:
            raise ValidationError("trajectory dataset has no timestamps")
        seen = {self.query.id}
        for traj in self.objects:
            if traj.id in seen:
                raise ValidationError(f"duplicate trajectory id {traj.id!r}")
            seen.add(traj.id)
        repeated = sorted({a for a, b in zip(domain, domain[1:]) if a == b})
        if repeated:
            raise ValidationError(f"trajectory dataset repeats timestamps {repeated}")
        for traj in (self.query, *self.objects):
            if traj.timestamps != domain:
                raise ValidationError(
                    f"trajectory {traj.id!r} does not cover the shared timestamp domain"
                )

    @property
    def object_ids(self) -> "tuple[str, ...]":
        return tuple(t.id for t in self.objects)

    @cached_property
    def tables(self) -> "dict[int, InstanceTable]":
        """Per timestamp, the instance table of the query (row 0) and the objects, built on
        first use."""
        rows = (self.query, *self.objects)
        ids = [traj.id for traj in rows]
        return {t: InstanceTable.of(ids, [traj.per_timestamp[t] for traj in rows])
                for t in self.timestamps}


class TimestampSet(NamedTuple):
    """A qualifying subset of the query interval, its timestamps ascending, with its
    all-timestamps NN probability."""

    timestamps: "tuple[int, ...]"
    probability: float


def _parse_trajectory(record) -> UncertainTrajectory:
    try:
        trajectory_id = record["id"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"trajectory record has no id: {record!r:.40}") from exc
    if not isinstance(trajectory_id, str):
        raise ValidationError(f"trajectory id {trajectory_id!r} is not a string")
    try:
        raw = record["per_timestamp"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(
            f"trajectory {trajectory_id!r} missing per_timestamp"
        ) from exc
    if not isinstance(raw, dict):
        raise ValidationError(
            f"trajectory {trajectory_id!r}: per_timestamp must be an object"
        )
    parsed = {}
    for key, alts in raw.items():
        try:
            t = int(key)
        except ValueError:
            t = None
        if t is None or str(t) != key:
            raise ValidationError(f"trajectory {trajectory_id!r}: bad timestamp key {key!r}")
        try:
            parsed[t] = tuple(((x, y), p) for x, y, p in map(json_xyp, alts))
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValidationError(
                f"trajectory {trajectory_id!r}: malformed alternative at timestamp {key}"
            ) from exc
    return UncertainTrajectory(id=trajectory_id, per_timestamp=parsed)


def loads_trajectory_dataset(text: Union[str, bytes]) -> TrajectoryDataset:
    """Parse the trajectory dataset JSON format."""
    doc = parse_json(text, "trajectory")
    try:
        timestamps = doc["timestamps"]
        query_rec = doc["query"]
        object_recs = doc["objects"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"trajectory dataset missing field: {exc}") from exc
    # type, not isinstance: a bool is an int
    if not isinstance(timestamps, list) or any(type(t) is not int for t in timestamps):
        raise ValidationError('trajectory dataset "timestamps" must be an array of integers')
    if not isinstance(object_recs, list):
        raise ValidationError('trajectory dataset "objects" must be an array')
    query = _parse_trajectory(query_rec)
    objects = tuple(_parse_trajectory(rec) for rec in object_recs)
    return TrajectoryDataset(timestamps=timestamps, query=query, objects=objects)


def load_trajectory_dataset(source: Union[str, bytes, IO]) -> TrajectoryDataset:
    if hasattr(source, "read"):
        source = source.read()
    return loads_trajectory_dataset(source)


class ExactTrajectoryBackend:
    """Exact NN probabilities, per timestamp from the spatial kNN engine.

    At one timestamp the trajectories are x-tuples of a spatial database and the
    query is an object of it, mixed over its alternatives, so an object's win is
    its kNN probability with k = 1, from ``queries``' one per-object kNN function.
    Win events at distinct timestamps involve disjoint independent draws,
    so the all-timestamps probability is the product of per-timestamp wins; the
    per-timestamp values are cached across the whole lattice run.  When no closer
    mass m of any (query alternative, object alternative) pair moves ``1.0 - m``
    off 1.0, the win is returned as exactly 1.0, so adding a surely won timestamp
    to a set leaves the product bit for bit as is.
    """

    def __init__(self, dataset: TrajectoryDataset):
        self.dataset = dataset
        self._win_cache: Dict[Tuple[str, int], float] = {}
        self._mixes: Dict[int, tuple] = {}

    def _win_probability(self, object_id: str, t: int) -> float:
        key = (object_id, t)
        if key in self._win_cache:
            return self._win_cache[key]
        if t not in self._mixes:  # the query trajectory resolved once per timestamp
            ds = self.dataset
            db = UncertainDatabase.from_table((ds.query.id, *ds.object_ids), ds.tables[t])
            self._mixes[t] = _query_mix(db, ds.query.id)
        rest, mix = self._mixes[t]
        j = rest.index(object_id)
        table = rest.table
        targets = np.arange(table.first[j], table.first[j + 1])
        if all((1.0 - _closer_block(table, dist, targets) == 1.0).all() for _, dist in mix):
            win = 1.0
        else:
            win = _object_knn(table, mix, 1, j)
        self._win_cache[key] = win
        return win

    def pfann(self, object_id: str, timestamps: Iterable[int]) -> float:
        prob = 1.0
        for t in sorted(set(timestamps)):
            prob *= self._win_probability(object_id, t)
        return prob


class SampledTrajectoryBackend:
    """Monte-Carlo NN probabilities from one fixed shared sample set.

    At the b-th of T timestamps, row r of the instance table (the query is row 0)
    draws its alternative with counter r * T + b.  A row is drawn only in the worlds
    where it can still be nearest: rows are walked nearest first, and a world is
    decided once its nearest drawn alternative is strictly closer than the next row
    can come.  A row always farther than some object's farthest alternative is never
    drawn, nor is a one-alternative row; a draw depends only on (seed, world, counter),
    so what is skipped moves no other draw.
    ``tidsets[oid][t]`` is an n-bit int whose bit i is set when the object is the
    strict nearest neighbor of the query at timestamp t in world i, so per world and
    timestamp exactly one object's bit is set.  A set's estimate is the share of
    worlds in the AND of its timestamps' tidsets, so estimates are exactly
    anti-monotone under subset containment; a surely won timestamp's tidset holds
    every world, so adding it changes no estimate.
    """

    def __init__(self, dataset: TrajectoryDataset, n: int, seed: int = DEFAULT_SEED):
        if n < 1:
            raise ValidationError("sample count must be at least 1")
        self.dataset = dataset
        self.n = n
        self.seed = seed
        self._all = (1 << n) - 1
        self.tidsets = self._build_tidsets()

    def _build_tidsets(self) -> "dict[str, dict[int, int]]":
        ds = self.dataset
        n_t = len(ds.timestamps)
        ids = ds.object_ids
        tidsets = {oid: dict.fromkeys(ds.timestamps, 0) for oid in ids}
        streams = _substreams(self.seed, self.n)
        for b, t in enumerate(ds.timestamps):
            table = ds.tables[t]
            # row r draws with counter r * n_t + b; the query is row 0; one nearest per sample
            member, rows = _sampled_members(
                table, 0, table.positions[: table.first[1]], streams,
                range(b, b + n_t * len(table.id_rank), n_t), KnnPredicate(1))
            hit = np.flatnonzero(member.any(axis=0))
            # bit i of a column packed little-endian is sample i
            packed = np.packbits(member[:, hit].T, axis=1, bitorder="little")
            for c, row in zip(hit.tolist(), packed):
                tidsets[ids[rows[c] - 1]][t] = int.from_bytes(row.tobytes(), "little")
        return tidsets

    def pfann(self, object_id: str, timestamps: Iterable[int]) -> float:
        tids = self.tidsets[object_id]
        worlds = self._all
        for t in timestamps:
            worlds &= tids[t]
        return worlds.bit_count() / self.n


Backend = Union[ExactTrajectoryBackend, SampledTrajectoryBackend]


def pc_tau_nn(
    dataset: TrajectoryDataset,
    object_id: str,
    timestamps: Iterable[int],
    tau: float,
    backend: Optional[Backend] = None,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> List[TimestampSet]:
    """All subsets of the query interval where the object's NN probability >= tau.

    Level-wise Apriori search: the singletons are validated first, and each next
    level joins two qualifying sets that share all but their last timestamp into
    ``base + (t,)`` (Agrawal and Srikant's prefix join), validated only when every
    one-smaller subset qualified.  A timestamp the object surely wins
    needs no special case: its factor of 1.0 leaves every probability as it
    is.  At most ``lattice_cap`` sets are validated.  Results are sorted by
    size, then lexicographically.
    """
    if not 0.0 < tau <= 1.0:
        raise ValidationError("tau must lie in (0, 1]")
    if backend is None:
        backend = ExactTrajectoryBackend(dataset)
    domain = tuple(sorted(set(timestamps)))
    if not domain:
        raise ValidationError("query interval must be non-empty")
    unknown = set(domain) - set(dataset.timestamps)
    if unknown:
        raise ValidationError(f"timestamps {sorted(unknown)} outside the dataset domain")

    qualified: Dict[Tuple[int, ...], float] = {}
    level = [(t,) for t in domain]
    validated = 0
    while level:
        found = {}
        for cand in level:
            validated += 1
            if validated > lattice_cap:
                raise CapExceededError(
                    f"lattice exceeded {lattice_cap} candidates for object {object_id!r}"
                )
            p = backend.pfann(object_id, cand)
            if p >= tau:
                found[cand] = p
        qualified.update(found)
        # found sets come in lexicographic order, so those sharing all but their last
        # timestamp are adjacent; joining two gives base + (t,), two of whose one-smaller
        # subsets are the pair itself; the rest drop one of base's first len(base) - 1
        level = []
        for _, group in groupby(found, key=lambda s: s[:-1]):
            group = list(group)
            for i, base in enumerate(group):
                for other in group[i + 1:]:
                    t = other[-1]
                    if all(base[:d] + base[d + 1:] + (t,) in found
                           for d in range(len(base) - 1)):
                        level.append(base + (t,))
    return list(map(TimestampSet._make, qualified.items()))


def pcnn_query(
    dataset: TrajectoryDataset,
    timestamps: Iterable[int],
    tau: float,
    backend: Optional[Backend] = None,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
) -> Dict[str, List[TimestampSet]]:
    """Run the qualifying-subsets query for every object; empty outputs are omitted."""
    if not 0.0 < tau <= 1.0:  # checked here too: a dataset without objects runs no search
        raise ValidationError("tau must lie in (0, 1]")
    if backend is None:
        backend = ExactTrajectoryBackend(dataset)
    domain = tuple(sorted(set(timestamps)))
    results = {}
    for traj in dataset.objects:
        found = pc_tau_nn(dataset, traj.id, domain, tau, backend, lattice_cap)
        if found:
            results[traj.id] = found
    return results


def answer_pcnn(
    dataset: TrajectoryDataset,
    tau: float,
    backend: str = "exact",
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
    object_id: Optional[str] = None,
    maximal: bool = False,
) -> Dict[str, List[TimestampSet]]:
    """Qualifying timestamp sets over the whole domain, per object with any.

    ``backend`` is ``exact`` (the kNN engine per timestamp) or ``sampled`` shared
    Monte-Carlo worlds (``samples`` worlds from ``seed``).  With ``object_id`` only that object is
    searched; with ``maximal`` only sets that no reported set strictly contains are kept.
    """
    if backend == "exact":
        engine: Backend = ExactTrajectoryBackend(dataset)
    elif backend == "sampled":
        engine = SampledTrajectoryBackend(dataset, samples, seed)
    else:
        raise ValidationError(f"unknown trajectory backend {backend!r}; expected exact or sampled")
    if object_id is None:
        results = pcnn_query(dataset, dataset.timestamps, tau, engine)
    elif object_id not in dataset.object_ids:
        raise ValidationError(f"object {object_id!r} not in dataset")
    else:
        found = pc_tau_nn(dataset, object_id, dataset.timestamps, tau, engine)
        results = {object_id: found} if found else {}
    if maximal:
        results = {oid: maximal_timestamp_sets(sets) for oid, sets in results.items()}
    return results


def maximal_timestamp_sets(results: Sequence[TimestampSet]) -> List[TimestampSet]:
    """Filter to sets that are not proper subsets of another reported set.

    Distinct sets go largest first, each kept unless a kept set strictly contains
    it; input order and duplicates are preserved.
    """
    maximal: Set[frozenset] = set()
    for s in sorted({frozenset(ts.timestamps) for ts in results}, key=len, reverse=True):
        if not any(s < m for m in maximal):
            maximal.add(s)
    return [ts for ts in results if frozenset(ts.timestamps) in maximal]
