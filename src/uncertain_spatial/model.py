"""Domain model for discretely-uncertain spatial databases.

An uncertain object is a block of mutually exclusive point instances, each
carrying a probability; if the probabilities sum to less than one, the
remainder is the probability that the object does not exist at all
(existential uncertainty).  Distinct objects are stochastically independent.
Databases are immutable after construction and safe to share across threads.

A database's instance table (``UncertainDatabase.table``, built on first use) is
the one flat-array form of its instances, read by the kNN, rank and sampling paths;
a trajectory dataset keeps one such table per timestamp.
Every distance is the float ``euclidean_distance`` gives for the pair, also when
``distance_matrix`` computes many at once, so distance ties fall alike on every path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Dict, Iterable, Optional, Sequence, Union

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
    def existence_prob(self) -> float:
        """Probability that the object exists (sum of instance probabilities)."""
        return min(1.0, math.fsum(inst.prob for inst in self.instances))

    @property
    def absence_prob(self) -> float:
        return max(0.0, 1.0 - math.fsum(inst.prob for inst in self.instances))

    @property
    def is_existentially_uncertain(self) -> bool:
        return math.fsum(inst.prob for inst in self.instances) < 1.0 - PROB_TOL


@dataclass(frozen=True)
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
        sizes = [len(block) for block in blocks]
        flat = [alt for block in blocks for alt in block]
        id_rank = np.empty(len(ids), dtype=np.int64)
        id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
        return cls(
            positions=np.array([pos for pos, _ in flat], dtype=float).reshape(-1, 2),
            prob=np.array([p for _, p in flat], dtype=float),
            owner=np.repeat(np.arange(len(ids)), sizes),
            first=np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))),
            id_rank=id_rank,
            certain=np.array(
                [math.fsum(p for _, p in block) >= 1.0 - PROB_TOL for block in blocks], dtype=bool
            ),
        )


@dataclass(frozen=True)
class UncertainDatabase:
    """An ordered collection of independent uncertain objects.

    Inter-object independence is assumed throughout: the probability of a
    possible world is the product of the per-object choice probabilities.
    """

    objects: "tuple[UncertainObject, ...]"
    _positions: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        positions = {}
        for i, obj in enumerate(self.objects):
            if obj.id in positions:
                raise ValidationError(f"duplicate object id {obj.id!r}")
            positions[obj.id] = i
        object.__setattr__(self, "_positions", positions)

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self):
        return iter(self.objects)

    def __getitem__(self, object_id: str) -> UncertainObject:
        return self.objects[self._positions[object_id]]

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._positions

    def index(self, object_id: str) -> int:
        """Position of the object in database order; ``KeyError`` when absent."""
        return self._positions[object_id]

    @property
    def object_ids(self) -> "tuple[str, ...]":
        return tuple(obj.id for obj in self.objects)

    @cached_property
    def table(self) -> InstanceTable:
        """The database's instance table, built on first use."""
        return InstanceTable.of(
            self.object_ids,
            [[(inst.position, inst.prob) for inst in obj.instances] for obj in self.objects],
        )

    def without(self, object_id: str) -> "UncertainDatabase":
        """A copy of the database with one object removed (order preserved)."""
        i = self._positions[object_id]
        return UncertainDatabase(self.objects[:i] + self.objects[i + 1 :])


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


def database_from_dicts(objects: Iterable[dict]) -> UncertainDatabase:
    """Build a validated database from parsed JSON object records."""
    built = []
    for rec in objects:
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
        built.append(UncertainObject(id=oid, instances=tuple(instances)))
    return UncertainDatabase(tuple(built))


def loads_database(text: Union[str, bytes]) -> UncertainDatabase:
    """Parse the dataset JSON format; object and instance order is preserved."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed dataset JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("objects"), list):
        raise ValidationError('dataset JSON must be an object with an "objects" array')
    return database_from_dicts(doc["objects"])


def load_database(source: Union[str, bytes, IO]) -> UncertainDatabase:
    """Load a database from a byte/str payload or a readable stream."""
    if hasattr(source, "read"):
        source = source.read()
    return loads_database(source)


def dumps_database(db: UncertainDatabase) -> str:
    """Canonical serialization of a database.

    Floats are emitted with full round-trip precision so that reloading an
    emitted database reproduces it bit-identically.
    """
    doc = {
        "objects": [
            {
                "id": obj.id,
                "instances": [
                    {"x": inst.position[0], "y": inst.position[1], "p": inst.prob}
                    for inst in obj.instances
                ],
            }
            for obj in db.objects
        ]
    }
    return json.dumps(doc, separators=(",", ":"))
