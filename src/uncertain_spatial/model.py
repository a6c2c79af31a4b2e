"""Domain model for discretely-uncertain spatial databases.

An uncertain object is a block of mutually exclusive point instances, each
carrying a probability; if the probabilities sum to less than one, the
remainder is the probability that the object does not exist at all
(existential uncertainty).  Distinct objects are stochastically independent.
Databases are immutable after construction and safe to share across threads.

A database is stored as its instance table (``UncertainDatabase.table``): the one
flat-array form of its instances, which the loader fills straight from the parsed
records and every query path reads.  ``Instance`` and ``UncertainObject`` values are
views built from the table on demand, one object at a time, for the callers that want
them (the possible-worlds oracle, a query object, the tests).
A trajectory dataset keeps one such table per timestamp.
Every distance is the float ``euclidean_distance`` gives for the pair, also when
``distance_matrix`` computes many at once, so distance ties fall alike on every path.
"""

from __future__ import annotations

import gc
import json
import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain
from typing import IO, Iterable, Optional, Sequence, Union

import numpy as np

#: Tolerance for probability-sum checks.  Double-precision accumulation over
#: up to ~10^4 instances stays well inside this bound.
PROB_TOL = 1e-9

class UncertainSpatialError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(UncertainSpatialError):
    """A dataset, parameter, or query violates a model invariant."""


class CapExceededError(UncertainSpatialError):
    """An exact computation would exceed its configured size cap."""


def euclidean_distance(a: "tuple[float, float]", b: "tuple[float, float]") -> float:
    """Euclidean distance between two 2-D points."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def distance_matrix(points, positions: np.ndarray) -> np.ndarray:
    """``euclidean_distance(points[a], positions[b])`` at ``[a, b]``, bit for bit.

    The differences are exact IEEE subtractions; the norm must be ``math.hypot``,
    as ``np.hypot`` rounds some pairs differently.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    dx, dy = pts[:, :1] - positions[:, 0], pts[:, 1:] - positions[:, 1]
    norms = map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist())
    return np.fromiter(norms, dtype=float, count=dx.size).reshape(dx.shape)


@dataclass(frozen=True)
class QueryPoint:
    """A certain 2-D query location."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValidationError("query point coordinates must be finite")

    @property
    def position(self) -> "tuple[float, float]":
        return (self.x, self.y)


@dataclass(frozen=True)
class Instance:
    """One alternative position of an uncertain object.

    Instances within an object are mutually exclusive; ``index`` is the
    position in the object's file order and is the system-wide tiebreaker
    after the object id.
    """

    object_id: str
    index: int
    position: "tuple[float, float]"
    prob: float

    def __post_init__(self):
        x, y = self.position
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValidationError(
                f"object {self.object_id!r}: instance {self.index} has non-finite coordinates"
            )
        if not (self.prob > 0.0):
            raise ValidationError(
                f"object {self.object_id!r}: instance {self.index} has probability <= 0"
            )
        if self.prob > 1.0 + PROB_TOL:
            raise ValidationError(
                f"object {self.object_id!r}: instance {self.index} has probability > 1"
            )


@dataclass(frozen=True)
class UncertainObject:
    """A block of mutually exclusive instances (an x-tuple).

    The existence probability is the sum of the instance probabilities; a sum
    below one (beyond tolerance) makes the object existentially uncertain.
    """

    id: str
    instances: "tuple[Instance, ...]"

    def __post_init__(self):
        if not self.instances:
            raise ValidationError(f"object {self.id!r} has no instances")
        total = math.fsum(inst.prob for inst in self.instances)
        if total > 1.0 + PROB_TOL:
            raise ValidationError(
                f"object {self.id!r}: instance probabilities sum to {total}, exceeding 1"
            )
        if not (total > 0.0):
            raise ValidationError(f"object {self.id!r}: instance probabilities sum to 0")

    @property
    def absence_prob(self) -> float:
        return max(0.0, 1.0 - math.fsum(inst.prob for inst in self.instances))

    @property
    def is_existentially_uncertain(self) -> bool:
        return math.fsum(inst.prob for inst in self.instances) < 1.0 - PROB_TOL


@dataclass(frozen=True, eq=False)
class InstanceTable:
    """Every instance of a database as flat arrays, in database and file order.

    Rows ``first[j]:first[j + 1]`` are object j's instances.  Beside each position and
    probability sits the owner's database position.  Per object, ``id_rank[j]`` is the rank
    of its id among the database's ids (the distance tie rule) and ``certain[j]`` says that
    it exists in every world.
    """

    positions: np.ndarray
    prob: np.ndarray
    owner: np.ndarray
    first: np.ndarray
    id_rank: np.ndarray
    certain: np.ndarray

    @classmethod
    def of(cls, ids: Sequence[str], blocks: Sequence[Sequence[tuple]]) -> "InstanceTable":
        """The table of objects ``ids``, object j's instances being the ``(position, prob)``
        pairs of ``blocks[j]`` in order."""
        flat = [alt for block in blocks for alt in block]
        return cls.from_arrays(
            ids,
            np.array([pos for pos, _ in flat], dtype=float).reshape(-1, 2),
            np.array([p for _, p in flat], dtype=float),
            [len(block) for block in blocks],
        )

    @classmethod
    def from_arrays(cls, ids: Sequence[str], positions, prob, sizes) -> "InstanceTable":
        """The table of objects ``ids`` whose instances, ``sizes[j]`` for object j, are the
        rows of ``positions`` and ``prob`` in order."""
        sizes = np.asarray(sizes, dtype=np.int64)
        owner = np.repeat(np.arange(len(ids)), sizes)
        first = np.concatenate(([0], np.cumsum(sizes)))
        return cls(
            positions=positions,
            prob=prob,
            owner=owner,
            first=first,
            id_rank=_id_ranks(ids),
            certain=_object_sums(prob, owner, first) >= 1.0 - PROB_TOL,
        )

    def without(self, j: int) -> "InstanceTable":
        """The table with object j's rows taken out; the objects after it move up one place."""
        lo, hi = self.first[j], self.first[j + 1]
        owner = np.delete(self.owner, np.s_[lo:hi])
        id_rank = np.delete(self.id_rank, j)
        return InstanceTable(
            positions=np.delete(self.positions, np.s_[lo:hi], axis=0),
            prob=np.delete(self.prob, np.s_[lo:hi]),
            owner=owner - (owner > j),
            first=np.concatenate((self.first[: j + 1], self.first[j + 2 :] - (hi - lo))),
            id_rank=id_rank - (id_rank > self.id_rank[j]),
            certain=np.delete(self.certain, j),
        )

    def object(self, j: int, object_id: str) -> UncertainObject:
        """Object j, named ``object_id``, built from its rows; the constructors check every
        value."""
        lo, hi = self.first[j], self.first[j + 1]
        rows = zip(self.positions[lo:hi].tolist(), self.prob[lo:hi].tolist())
        return UncertainObject(
            id=object_id,
            instances=tuple(
                Instance(object_id=object_id, index=i, position=(x, y), prob=p)
                for i, ((x, y), p) in enumerate(rows)
            ),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, InstanceTable):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in pairs)


def _id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Each id's rank among ``ids`` in sorted order: an ``InstanceTable``'s ``id_rank``."""
    rank = np.empty(len(ids), dtype=np.int64)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def _object_sums(prob: np.ndarray, owner: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Each object's probability sum, exact on the side of 1 ± ``PROB_TOL`` it falls.

    ``np.bincount`` adds in order; for m positive terms that float lies within
    m·eps·sum of the exact sum (Higham, Accuracy and Stability of Numerical
    Algorithms, §4.2).  Where that bound reaches 1 - PROB_TOL or 1 + PROB_TOL,
    ``math.fsum`` gives the sum instead, so comparisons with either edge decide
    as ``math.fsum`` would.  Each probability lies in (0, 1 + PROB_TOL], as the loader's
    screens and the constructors ensure, so no sum overflows.
    """
    sizes = np.diff(first)
    sums = np.bincount(owner, weights=prob, minlength=len(sizes))
    slack = sizes * np.finfo(float).eps * np.maximum(sums, 1.0)
    near = (np.abs(sums - (1.0 - PROB_TOL)) <= slack) | (np.abs(sums - (1.0 + PROB_TOL)) <= slack)
    for j in np.flatnonzero(near).tolist():
        sums[j] = math.fsum(prob[first[j] : first[j + 1]].tolist())
    return sums


class UncertainDatabase:
    """An ordered collection of independent uncertain objects, stored as its instance table.

    Inter-object independence is assumed throughout: the probability of a
    possible world is the product of the per-object choice probabilities.

    ``UncertainDatabase(objects)`` builds the table from objects; the loader builds a
    database from a table with ``from_table``.  ``db[oid]``, iteration and ``objects``
    build ``UncertainObject`` values from the table on first use, one object at a time,
    and keep them; a database made by ``without`` shares them with its parent.
    Databases are immutable and compare equal when their ids and tables are equal.
    """

    def __init__(self, objects: Iterable[UncertainObject] = ()):
        objects = tuple(objects)
        ids = tuple(obj.id for obj in objects)
        blocks = [[(inst.position, inst.prob) for inst in obj.instances] for obj in objects]
        self._attach(ids, InstanceTable.of(ids, blocks), dict(zip(ids, objects)))

    @classmethod
    def from_table(cls, ids: "tuple[str, ...]", table: InstanceTable) -> "UncertainDatabase":
        """The database of objects ``ids`` whose instances are the table's rows."""
        db = cls.__new__(cls)
        db._attach(ids, table, {})
        return db

    def _attach(self, ids: "tuple[str, ...]", table: InstanceTable, built: dict) -> None:
        positions = dict(zip(ids, range(len(ids))))
        if len(positions) < len(ids):
            seen = set()
            for oid in ids:
                if oid in seen:
                    raise ValidationError(f"duplicate object id {oid!r}")
                seen.add(oid)
        self.object_ids = ids
        self.table = table
        self._positions = positions
        self._built = built

    def __len__(self) -> int:
        return len(self.object_ids)

    def __iter__(self):
        return iter(self.objects)

    def __getitem__(self, object_id: str) -> UncertainObject:
        j = self._positions[object_id]
        obj = self._built.get(object_id)
        if obj is None:
            obj = self._built.setdefault(object_id, self.table.object(j, object_id))
        return obj

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._positions

    def __eq__(self, other) -> bool:
        if not isinstance(other, UncertainDatabase):
            return NotImplemented
        return self.object_ids == other.object_ids and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.object_ids)

    def __repr__(self) -> str:
        return f"UncertainDatabase({len(self)} objects, {len(self.table.prob)} instances)"

    def index(self, object_id: str) -> int:
        """Position of the object in database order; ``KeyError`` when absent."""
        return self._positions[object_id]

    @cached_property
    def objects(self) -> "tuple[UncertainObject, ...]":
        """Every object in database order, built on first use."""
        return tuple(map(self.__getitem__, self.object_ids))

    def without(self, object_id: str) -> "UncertainDatabase":
        """A copy of the database with one object removed (order preserved)."""
        j = self._positions[object_id]
        rest = UncertainDatabase.__new__(UncertainDatabase)
        ids = self.object_ids[:j] + self.object_ids[j + 1 :]
        rest._attach(ids, self.table.without(j), self._built)
        return rest


def resolve_query(db: UncertainDatabase, q: Union[QueryPoint, str]) -> Optional[UncertainObject]:
    """The object a query id names (``None`` for a point); it must exist in every world."""
    if not isinstance(q, str):
        return None
    qobj = db[q]
    if qobj.is_existentially_uncertain:
        raise ValidationError(
            f"query object {q!r} is existentially uncertain; a query must exist"
        )
    return qobj


_JSON_NUMBERS = (int, float)  # type, not isinstance: a bool is an int


def json_xyp(record) -> "tuple[float, float, float]":
    """A parsed JSON record's ``x``, ``y`` and ``p`` as floats; each must be a JSON number.

    A bool or a string raises ``TypeError``, an integer beyond float range ``OverflowError``
    and a missing field ``KeyError``.
    """
    x, y, p = record["x"], record["y"], record["p"]
    if type(x) not in _JSON_NUMBERS or type(y) not in _JSON_NUMBERS or type(p) not in _JSON_NUMBERS:
        raise TypeError(f"{record!r:.60} holds a value that is not a JSON number")
    return float(x), float(y), float(p)


_NUMBER_TYPES = frozenset(_JSON_NUMBERS)
_XYP = operator.itemgetter("x", "y", "p")


def _object_from_record(rec) -> UncertainObject:
    """One parsed object record as a validated object, instance by instance.

    The loader re-reads a file with it when any screen flags the file, so that the first
    failing record, in file order, raises its own message.
    """
    try:
        oid = rec["id"]
        raw_instances = rec["instances"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"object record missing field: {exc}") from exc
    if not isinstance(oid, str):
        raise ValidationError(f"object id {oid!r} is not a string")
    if not isinstance(raw_instances, list):
        raise ValidationError(f"object {oid!r}: instances must be an array")
    instances = []
    for idx, inst in enumerate(raw_instances):
        try:
            x, y, p = json_xyp(inst)
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValidationError(f"object {oid!r}: malformed instance {idx}") from exc
        instances.append(Instance(object_id=oid, index=idx, position=(x, y), prob=p))
    return UncertainObject(id=oid, instances=tuple(instances))


def _screened(records: list) -> "Optional[tuple[tuple[str, ...], InstanceTable]]":
    """The ids and instance table of the records, or ``None`` when any screen flags them.

    One pass over the records checks their fields and collects ids, instance counts and
    the raw ``x``, ``y``, ``p`` values; vector screens then flag a value that is not a
    JSON number, a non-finite coordinate, a probability outside (0, 1 + PROB_TOL], an
    empty object and a probability sum above 1 + PROB_TOL.
    """
    ids, sizes, instances = [], [], []
    for rec in records:
        try:
            oid, raw = rec["id"], rec["instances"]
        except (KeyError, TypeError):
            return None
        if not isinstance(oid, str) or not isinstance(raw, list):
            return None
        ids.append(oid)
        sizes.append(len(raw))
        instances += raw
    try:
        values = list(chain.from_iterable(map(_XYP, instances)))
        if not _NUMBER_TYPES.issuperset(map(type, values)):
            return None
        xyp = np.array(values, dtype=float).reshape(-1, 3)
    except (KeyError, TypeError, OverflowError):
        return None
    positions, prob = xyp[:, :2].copy(), xyp[:, 2].copy()
    in_range = np.isfinite(positions).all() and ((prob > 0.0) & (prob <= 1.0 + PROB_TOL)).all()
    if not (in_range and all(sizes)):
        return None
    table = InstanceTable.from_arrays(ids, positions, prob, sizes)
    if (_object_sums(prob, table.owner, table.first) > 1.0 + PROB_TOL).any():
        return None
    return tuple(ids), table


def database_from_dicts(objects: Iterable[dict]) -> UncertainDatabase:
    """Build a validated database from parsed JSON object records, straight into its table.

    Records that pass every screen of ``_screened`` fill the table directly.  Records that
    any screen flags are re-read one at a time in file order by ``_object_from_record``:
    the first failing record raises its own message, and duplicate ids are checked last.
    """
    records = list(objects)
    screened = _screened(records)
    if screened is None:
        return UncertainDatabase(map(_object_from_record, records))
    return UncertainDatabase.from_table(*screened)


def parse_json(text: Union[str, bytes], what: str):
    """``json.loads`` of a document, the cyclic garbage collector paused meanwhile.

    The parser's many container allocations set the collector off again and again although
    a fresh document holds no cycles; its previous state is restored afterwards.  A
    malformed (or too deeply nested) document raises ``malformed <what> JSON``.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"malformed {what} JSON: {exc}") from exc
    finally:
        if enabled:
            gc.enable()


def loads_database(text: Union[str, bytes]) -> UncertainDatabase:
    """Parse the dataset JSON format; object and instance order is preserved."""
    doc = parse_json(text, "dataset")
    if not isinstance(doc, dict) or not isinstance(doc.get("objects"), list):
        raise ValidationError('dataset JSON must be an object with an "objects" array')
    return database_from_dicts(doc["objects"])


def load_database(source: Union[str, bytes, IO]) -> UncertainDatabase:
    """Load a database from a byte/str payload or a readable stream."""
    if hasattr(source, "read"):
        source = source.read()
    return loads_database(source)
