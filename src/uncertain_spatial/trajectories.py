"""Uncertain trajectories and continuous nearest-neighbor timestamp queries.

A trajectory assigns, per timestamp, a set of alternative positions with
probabilities summing to one; draws are independent across timestamps and
across trajectories.  The core query asks, for a candidate object o and a
timestamp set T_i, for the probability that o is the strict nearest neighbor
of the query trajectory at every timestamp of T_i (ties break by object id;
the query is never a competitor).

Because that probability is anti-monotone in T_i, the qualifying subsets of a
query interval are closed under subsets, and they are found depth first over
prefix classes, as Eclat enumerates them: a qualifying set is extended only by
the later timestamps that extend its own prefix, and ``--maximal`` looks ahead
on a class's prefix with all its members, as GenMax does.  Timestamps the object
surely wins are searched like any other.

Each timestamp is a set of x-tuples, as in a spatial database: a dataset keeps
one instance table per timestamp (the query as row 0), the loader fills those
tables straight from the parsed records, and both probability backends read
only them.  The exact backend reads each timestamp as a
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
from itertools import chain
from typing import Dict, IO, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .model import (
    _NUMBER_TYPES,
    _XYP,
    PROB_TOL,
    CapExceededError,
    InstanceTable,
    UncertainDatabase,
    ValidationError,
    _id_ranks,
    _object_sums,
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


class TrajectoryDataset:
    """A query trajectory plus candidate objects over a shared timestamp domain.

    A dataset is stored as one instance table per timestamp (``tables``): row 0 is the query,
    rows 1.. the objects in dataset order, and ``row_ids`` names the rows.
    ``TrajectoryDataset(timestamps, query, objects)`` checks the trajectories and builds the
    tables from them on first use.  The loader builds a dataset straight from its tables, and
    ``query``, ``objects`` and their ``per_timestamp`` are then built from the tables on first
    use.  Datasets compare equal when their timestamps, ids and tables are equal.
    """

    def __init__(self, timestamps: Iterable[int], query: UncertainTrajectory,
                 objects: Iterable[UncertainTrajectory]):
        domain = tuple(sorted(timestamps))
        objects = tuple(objects)
        if not domain:
            raise ValidationError("trajectory dataset has no timestamps")
        seen = {query.id}
        for traj in objects:
            if traj.id in seen:
                raise ValidationError(f"duplicate trajectory id {traj.id!r}")
            seen.add(traj.id)
        repeated = sorted({a for a, b in zip(domain, domain[1:]) if a == b})
        if repeated:
            raise ValidationError(f"trajectory dataset repeats timestamps {repeated}")
        for traj in (query, *objects):
            if traj.timestamps != domain:
                raise ValidationError(
                    f"trajectory {traj.id!r} does not cover the shared timestamp domain"
                )
        self.timestamps = domain
        self.row_ids = (query.id, *(traj.id for traj in objects))
        self.query = query
        self.objects = objects

    @classmethod
    def _from_tables(cls, timestamps: "tuple[int, ...]", row_ids: "tuple[str, ...]",
                     tables: "dict[int, InstanceTable]") -> "TrajectoryDataset":
        """The dataset of checked per-timestamp tables, over sorted distinct ``timestamps``."""
        ds = cls.__new__(cls)
        ds.timestamps, ds.row_ids, ds.tables = timestamps, row_ids, tables
        return ds

    @property
    def object_ids(self) -> "tuple[str, ...]":
        return self.row_ids[1:]

    @cached_property
    def tables(self) -> "dict[int, InstanceTable]":
        """Per timestamp, the instance table of the query (row 0) and the objects, built on
        first use."""
        rows = (self.query, *self.objects)
        return {t: InstanceTable.of(self.row_ids, [traj.per_timestamp[t] for traj in rows])
                for t in self.timestamps}

    @cached_property
    def query(self) -> UncertainTrajectory:
        """The query trajectory, built from the tables on first use."""
        return self._trajectory(0)

    @cached_property
    def objects(self) -> "tuple[UncertainTrajectory, ...]":
        """The candidate trajectories in dataset order, built from the tables on first use."""
        return tuple(map(self._trajectory, range(1, len(self.row_ids))))

    def _trajectory(self, r: int) -> UncertainTrajectory:
        per_timestamp = {}
        for t in self.timestamps:
            table = self.tables[t]
            lo, hi = table.first[r], table.first[r + 1]
            positions = map(tuple, table.positions[lo:hi].tolist())
            per_timestamp[t] = tuple(zip(positions, table.prob[lo:hi].tolist()))
        return UncertainTrajectory(id=self.row_ids[r], per_timestamp=per_timestamp)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrajectoryDataset):
            return NotImplemented
        return (self.timestamps, self.row_ids) == (other.timestamps, other.row_ids) and (
            self.tables == other.tables)

    def __repr__(self) -> str:
        return (f"TrajectoryDataset(timestamps={self.timestamps!r}, query={self.query!r}, "
                f"objects={self.objects!r})")


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


def _read_records(doc) -> TrajectoryDataset:
    """A parsed document as a validated dataset, record by record.

    The loader re-reads a document with it when any screen flags the document, so that the
    first failing record, in file order and the query first, raises its own message; the
    dataset's checks on ids and timestamps come last.
    """
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


def _screened_dataset(doc) -> Optional[TrajectoryDataset]:
    """The dataset of a parsed document, read straight into its tables, or ``None`` when any
    screen flags the document.

    One timestamp-major pass checks the fields and collects, per timestamp, each row's
    alternatives, so that a timestamp's rows are one contiguous slice of the raw ``x``, ``y``,
    ``p`` values.  The timestamps must be distinct integers, the ids distinct strings, and each
    record's ``per_timestamp`` keys exactly the canonical decimal timestamps.  Vector screens
    then flag a value that is not a JSON number, a non-finite coordinate, a probability outside
    (0, 1 + PROB_TOL], an empty alternative list and a sum farther than PROB_TOL from 1.
    """
    try:
        timestamps, objects = doc["timestamps"], doc["objects"]
        if type(timestamps) is not list or type(objects) is not list:
            return None
        records = [doc["query"], *objects]
        ids = tuple(rec["id"] for rec in records)
        pers = [rec["per_timestamp"] for rec in records]
        if not all(type(t) is int for t in timestamps) or not all(type(i) is str for i in ids):
            return None
        domain = tuple(sorted(timestamps))
        if not (domain and len(set(domain)) == len(domain) and len(set(ids)) == len(ids)
                and all(type(per) is dict and len(per) == len(domain) for per in pers)):
            return None
        sizes, alternatives = [], []
        for key in map(str, domain):
            for per in pers:
                alts = per[key]
                if type(alts) is not list:
                    return None
                sizes.append(len(alts))
                alternatives += alts
        values = list(chain.from_iterable(map(_XYP, alternatives)))
        if not _NUMBER_TYPES.issuperset(map(type, values)):
            return None
        xyp = np.array(values, dtype=float).reshape(-1, 3)
    except (KeyError, TypeError, OverflowError):
        return None
    positions, prob = xyp[:, :2].copy(), xyp[:, 2].copy()
    in_range = np.isfinite(positions).all() and ((prob > 0.0) & (prob <= 1.0 + PROB_TOL)).all()
    if not (in_range and all(sizes)):
        return None
    first = np.concatenate(([0], np.cumsum(sizes)))
    owner = np.repeat(np.arange(len(sizes)), sizes)
    sums = _object_sums(prob, owner, first)
    if (np.abs(sums - 1.0) > PROB_TOL).any():
        return None
    # the fields ``InstanceTable.from_arrays`` gives each timestamp: one id order for all of
    # them, and per row the sum just taken (``np.bincount`` adds each row alone, in order)
    n = len(ids)
    id_rank = _id_ranks(ids)
    certain = (sums >= 1.0 - PROB_TOL).reshape(len(domain), n)
    tables = {}
    for b, t in enumerate(domain):
        lo, hi = first[b * n], first[(b + 1) * n]
        tables[t] = InstanceTable(
            positions=positions[lo:hi], prob=prob[lo:hi], owner=owner[lo:hi] - b * n,
            first=first[b * n : (b + 1) * n + 1] - lo, id_rank=id_rank, certain=certain[b])
    return TrajectoryDataset._from_tables(domain, ids, tables)


def loads_trajectory_dataset(text: Union[str, bytes]) -> TrajectoryDataset:
    """Parse the trajectory dataset JSON format, straight into the per-timestamp tables.

    A document that passes every screen of ``_screened_dataset`` fills the tables directly and
    builds no trajectory.  A document that any screen flags is re-read by ``_read_records``,
    which raises the first failing record's message in file order.
    """
    doc = parse_json(text, "trajectory")
    dataset = _screened_dataset(doc)
    if dataset is None:
        return _read_records(doc)
    return dataset


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
            db = UncertainDatabase.from_table(ds.row_ids, ds.tables[t])
            self._mixes[t] = _query_mix(db, ds.row_ids[0])
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
    maximal: bool = False,
) -> List[TimestampSet]:
    """All subsets of the query interval where the object's NN probability >= tau.

    Depth first over prefix classes, as Eclat enumerates (Zaki, IEEE TKDE 2000): the
    qualifying singletons form the root class, and a qualifying set ``s`` of a class is
    extended by each later member ``u`` of that class; the ``s + (u,)`` that qualify form
    ``s``'s own class.  Both backends' probabilities are anti-monotone (a tidset AND, or a
    product of factors at most 1.0), so the qualifying sets are closed under subsets and the
    search reaches each of them once.  It emits each set before its extensions, that is in
    lexicographic order; results are sorted by size, then lexicographically, each with
    ``backend.pfann`` of the sorted set.  A timestamp the object surely wins needs no special
    case: its factor of 1.0 leaves every probability as it is.

    With ``maximal`` only the sets that no qualifying set strictly contains are returned.  A
    class of two or more members first validates its prefix with all its members (GenMax's
    look-ahead, Gouda and Zaki, ICDM 2001) and reports that set whole when it qualifies;
    otherwise only the sets without a qualifying extension are kept, and
    ``maximal_timestamp_sets`` drops those inside another.

    At most ``lattice_cap`` sets are validated, look-aheads included.
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

    pfann = backend.pfann
    validated = 0

    def validate(cand: "tuple[int, ...]") -> float:
        nonlocal validated
        validated += 1
        if validated > lattice_cap:
            raise CapExceededError(
                f"lattice exceeded {lattice_cap} candidates for object {object_id!r}"
            )
        return pfann(object_id, cand)

    found: List[Tuple[Tuple[int, ...], float]] = []
    # a class is a qualifying prefix and its members: the later timestamps u, each with the
    # probability of prefix + (u,), which qualified; (prefix, members, i) resumes the class
    # at member i once member i - 1's own classes are done.  An explicit stack, not a
    # recursive nested function: such a function is a reference cycle left for the cyclic
    # collector on every call, and a chain as long as the domain needs no recursion limit.
    roots = [(t, p) for t in domain if (p := validate((t,))) >= tau]
    stack = [((), roots, 0)] if roots else []
    while stack:
        prefix, members, i = stack.pop()
        if i == 0 and maximal and len(members) > 1:
            whole = prefix + tuple(u for u, _ in members)
            p = validate(whole)
            if p >= tau:
                found.append((whole, p))
                continue
        if i + 1 < len(members):
            stack.append((prefix, members, i + 1))
        u, p = members[i]
        s = prefix + (u,)
        tail = [(v, q) for v, _ in members[i + 1:] if (q := validate(s + (v,))) >= tau]
        if tail:
            stack.append((s, tail, 0))
        if not (maximal and tail):
            found.append((s, p))
    found.sort(key=lambda entry: len(entry[0]))
    results = list(map(TimestampSet._make, found))
    return maximal_timestamp_sets(results) if maximal else results


def pcnn_query(
    dataset: TrajectoryDataset,
    timestamps: Iterable[int],
    tau: float,
    backend: Optional[Backend] = None,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
    maximal: bool = False,
) -> Dict[str, List[TimestampSet]]:
    """Run the qualifying-subsets query for every object; empty outputs are omitted."""
    if not 0.0 < tau <= 1.0:  # checked here too: a dataset without objects runs no search
        raise ValidationError("tau must lie in (0, 1]")
    if backend is None:
        backend = ExactTrajectoryBackend(dataset)
    domain = tuple(sorted(set(timestamps)))
    results = {}
    for oid in dataset.object_ids:
        found = pc_tau_nn(dataset, oid, domain, tau, backend, lattice_cap, maximal)
        if found:
            results[oid] = found
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
    searched; with ``maximal`` the search returns only the sets no qualifying set strictly
    contains.
    """
    if backend == "exact":
        engine: Backend = ExactTrajectoryBackend(dataset)
    elif backend == "sampled":
        engine = SampledTrajectoryBackend(dataset, samples, seed)
    else:
        raise ValidationError(f"unknown trajectory backend {backend!r}; expected exact or sampled")
    if object_id is None:
        return pcnn_query(dataset, dataset.timestamps, tau, engine, maximal=maximal)
    if object_id not in dataset.object_ids:
        raise ValidationError(f"object {object_id!r} not in dataset")
    found = pc_tau_nn(dataset, object_id, dataset.timestamps, tau, engine, maximal=maximal)
    return {object_id: found} if found else {}


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
