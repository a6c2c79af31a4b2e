"""Production-path probabilistic spatial queries.

Per-object probabilities for range, kNN, and rank queries are computed in
polynomial time by reducing each to the distribution of a sum of independent
Bernoulli trials: for a fixed candidate instance at distance d, every other
object is a trial that succeeds when it ends up strictly closer than d (ties
broken by object id).  Probabilistic query predicates (threshold, top-k,
possibilistic) then filter the per-object probabilities.

Range counts and rank call the Bernoulli-sum kernel that their ``kernel`` argument
names.  kNN needs only P(at most k-1 closer), the first k entries of each distribution:
it skips the instances that k surely closer objects shut out and folds the rest, a block
at a time, through ``bernoulli.truncated_recurrence``.  It calls no kernel, so ``gf``
gives ``pbr``'s kNN and top-k floats; ``object_probabilities`` keeps its ``kernel``
argument for the callers that pass one.

Queries may be a fixed :class:`QueryPoint` or the id of a database object;
an object query is mixed over its own instances and never appears in results.
``_query_points`` is the one place that resolves a query into those alternatives.

The ``answer_*`` functions are the one place that picks a backend by name:
``pbr`` and ``gf`` are the two Bernoulli-sum kernels, ``exact`` is the
possible-worlds oracle and ``sampled`` estimates from Monte-Carlo worlds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .bernoulli import (
    CountDistribution,
    generating_function,
    poisson_binomial_recurrence,
    truncated_recurrence,
)
from .model import (
    InstanceTable,
    QueryPoint,
    UncertainDatabase,
    UncertainObject,
    ValidationError,
    distance_matrix,
    euclidean_distance,
    resolve_query,
)
from .predicates import KnnPredicate, RangePredicate, SpatialPredicate
from .sampling import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    PossibleResult,
    estimate_object_probabilities,
    estimate_range,
    estimate_result_probabilities,
    sample_worlds,
)
from .worlds import (  # enumerate_worlds is re-exported for the CLI's worlds listing
    ResultSet,
    enumerate_worlds,
    object_and_count_based,
    object_based,
    result_based,
)

#: Bernoulli-sum kernel signature; the recurrence is the default path and the
#: generating-function expansion is the drop-in alternative (range and rank).
Kernel = Callable[[Sequence[float]], CountDistribution]

KERNELS: Dict[str, Kernel] = {"pbr": poisson_binomial_recurrence, "gf": generating_function}
BACKENDS = ("pbr", "gf", "exact", "sampled")

#: Probabilities are rounded to this many decimal digits before predicate
#: comparisons, so threshold and tie decisions are stable across kernels.
COMPARISON_DIGITS = 12

Query = Union[QueryPoint, str]

#: Most (target instance, database instance) pairs compared in one vector pass
#: of the kNN and rank closer masses, and most (object, target instance) masses
#: one kNN fold holds; bounds their memory at a few MB.
BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class RangeQuery:
    """A range query region: center point plus non-negative radius."""

    center: QueryPoint
    epsilon: float

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValidationError("epsilon must be finite and non-negative")


@dataclass(frozen=True)
class ProbabilisticPredicate:
    """Filter on per-object result probabilities.

    ``threshold`` keeps objects with probability >= tau; ``topk`` keeps the k
    most probable objects (boundary ties included, so the result may exceed
    k); ``possibilistic`` keeps every object with non-zero probability.
    """

    kind: str
    tau: Optional[float] = None
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind == "threshold":
            if self.tau is None or not (0.0 <= self.tau <= 1.0):
                raise ValidationError("threshold predicate requires tau in [0, 1]")
        elif self.kind == "topk":
            if self.k is None or self.k < 1:
                raise ValidationError("topk predicate requires integer k >= 1")
        elif self.kind != "possibilistic":
            raise ValidationError(f"unknown probabilistic predicate kind {self.kind!r}")

    def select(self, probabilities: Dict[str, float]) -> ResultSet:
        # rounding keeps p <= 0 at or below 0, which neither threshold test keeps, so the
        # threshold tests round only p > 0
        items = probabilities.items()
        if self.kind == "possibilistic" or (self.kind == "threshold" and self.tau == 0.0):
            return ResultSet.of(
                oid for oid, p in items if p > 0.0 and round(p, COMPARISON_DIGITS) > 0.0
            )
        if self.kind == "threshold":
            return ResultSet.of(
                oid for oid, p in items if p > 0.0 and round(p, COMPARISON_DIGITS) >= self.tau
            )
        rounded = {oid: round(p, COMPARISON_DIGITS) for oid, p in items}
        ranked = sorted(rounded, key=lambda oid: (-rounded[oid], oid))
        if len(ranked) <= self.k:
            return ResultSet.of(ranked)
        boundary = rounded[ranked[self.k - 1]]
        return ResultSet.of(oid for oid in ranked if rounded[oid] >= boundary)


def in_range_probability(obj: UncertainObject, rq: RangeQuery) -> float:
    """Total probability mass of the object's instances inside the query region."""
    center = rq.center.position
    total = math.fsum(
        inst.prob
        for inst in obj.instances
        if euclidean_distance(center, inst.position) <= rq.epsilon
    )
    return min(1.0, total)


def _in_range_probabilities(table: InstanceTable, rq: RangeQuery) -> List[float]:
    """``in_range_probability`` of every object of the table, in database order.

    One distance row and an in-range mask give the answer: an object with no instance
    in range gets 0.0, one with a single instance in range its probability, and only
    objects with two or more are summed by ``math.fsum``.  The row is ``np.hypot``'s, which
    may round one ulp away from ``euclidean_distance``; rows within 4 ulps of epsilon, where
    the two could fall on opposite sides, are recomputed by ``math.hypot``.
    """
    (cx, cy), eps = rq.center.position, rq.epsilon
    dx, dy = cx - table.positions[:, 0], cy - table.positions[:, 1]
    with np.errstate(over="ignore"):  # math.hypot overflows to inf silently too
        dist = np.hypot(dx, dy)
    edge = np.flatnonzero(np.abs(dist - eps) <= 4 * np.spacing(eps))
    dist[edge] = list(map(math.hypot, dx[edge].tolist(), dy[edge].tolist()))
    inside = dist <= eps
    owner, prob = table.owner[inside], table.prob[inside]
    hits = np.bincount(owner, minlength=len(table.first) - 1)
    total = np.zeros(len(hits))
    single = hits[owner] == 1
    total[owner[single]] = prob[single]
    multi = np.flatnonzero(hits > 1)
    if multi.size:  # an object's instances are adjacent in the table, so in ``prob`` too
        starts, in_range = np.searchsorted(owner, multi).tolist(), prob.tolist()
        for j, start, count in zip(multi.tolist(), starts, hits[multi].tolist()):
            total[j] = math.fsum(in_range[start : start + count])
    return np.minimum(1.0, total).tolist()


def range_count_distribution(
    db: UncertainDatabase,
    rq: RangeQuery,
    kernel: Kernel = poisson_binomial_recurrence,
) -> CountDistribution:
    """Distribution of the number of objects inside the query region.

    Each object contributes one Bernoulli trial with success probability
    equal to its in-range probability; the trials are independent, so the
    count is Poisson-binomial.
    """
    return kernel(_in_range_probabilities(db.table, rq))


def _closer_block(table: InstanceTable, dist: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Every object's probability of lying closer than each target instance, (objects, targets).

    ``dist`` is every instance's distance from the query.  A competitor instance counts
    when it is strictly nearer, or equally near and its owner's id precedes the target
    owner's; absence counts as not closer.  ``np.bincount`` adds each object's instances
    in order, so every mass is the same float as a sequential loop; instances beyond the
    farthest target would add only zeros and are left out.  A target's own object reads
    0.0, a trial that never succeeds.
    """
    m, n = len(targets), len(table.first) - 1
    d = dist[targets, None]
    near = np.flatnonzero(dist <= d.max())
    owner, dn = table.owner[near], dist[near]
    ahead = table.id_rank[owner] < table.id_rank[table.owner[targets]][:, None]
    closer = (dn < d) | ((dn == d) & ahead)
    cells = (owner * m + np.arange(m)[:, None]).ravel()
    weights = np.where(closer, table.prob[near], 0.0).ravel()
    mass = np.minimum(1.0, np.bincount(cells, weights, minlength=n * m).reshape(n, m))
    mass[table.owner[targets], np.arange(m)] = 0.0
    return mass


def _block_size(dist: np.ndarray) -> int:
    """Target instances per closer block: at most ``BLOCK_CELLS`` (target, instance) pairs."""
    return max(1, BLOCK_CELLS // max(1, len(dist)))


def _knn_probabilities(
    table: InstanceTable, dist: np.ndarray, k: int, targets: np.ndarray
) -> np.ndarray:
    """Each object's kNN probability, in database order, summed over its instances in ``targets``.

    A target instance contributes its probability times P(at most k-1 objects closer), the
    first min(k, N) entries of the Poisson-binomial row over its closer masses
    (:func:`~uncertain_spatial.bernoulli.truncated_recurrence`, for a block of targets at
    once).  Objects whose masses sum to exactly 1.0 are surely closer than any instance
    beyond their farthest one, so a target strictly farther than the k-th smallest such
    reach has k trials at exactly 1.0 and contributes exactly 0; it is never scored.  The
    contributions add per object in table order, then clamp at 1.
    """
    n = len(table.first) - 1
    full = np.minimum(1.0, np.bincount(table.owner, weights=table.prob, minlength=n))
    sure = full == 1.0
    if np.count_nonzero(sure) >= k:
        reach = np.full(n, -math.inf)
        np.maximum.at(reach, table.owner, dist)
        targets = targets[dist[targets] <= np.partition(reach[sure], k - 1)[k - 1]]
    # nearest targets first, so that a block's competitors are the few instances within reach
    order = np.argsort(dist[targets], kind="stable")
    at_most = np.empty(len(targets))
    fold, step = max(1, BLOCK_CELLS // max(1, n)), _block_size(dist)
    for start in range(0, len(targets), fold):
        chunk = targets[order[start : start + fold]]
        masses = np.empty((n, len(chunk)))
        for i in range(0, len(chunk), step):
            masses[:, i : i + step] = _closer_block(table, dist, chunk[i : i + step])
        at_most[order[start : start + fold]] = truncated_recurrence(masses, min(k, n)).sum(axis=1)
    weights = table.prob[targets] * at_most
    return np.minimum(1.0, np.bincount(table.owner[targets], weights, minlength=n))


def _query_points(db: UncertainDatabase, q: Query):
    """The database without the query object, and per query alternative its weight and
    position; a point query is one alternative of weight 1."""
    qobj = resolve_query(db, q)
    if qobj is None:
        return db, [(1.0, q)]
    return db.without(q), [(inst.prob, QueryPoint(*inst.position)) for inst in qobj.instances]


def _query_mix(db: UncertainDatabase, q: Query):
    """The database without the query object, and per query alternative its weight and its
    distance to every instance of that database."""
    rest, points = _query_points(db, q)
    dist = distance_matrix([point.position for _, point in points], rest.table.positions)
    return rest, [(w, row) for (w, _), row in zip(points, dist)]


def _target_index(db: UncertainDatabase, q: Query, oid: str) -> int:
    """Database position of the object to score; ``KeyError`` when it is not in the database."""
    if oid == q:
        raise ValidationError(
            f"object {oid!r} is the query object; it is not ranked against itself"
        )
    return db.index(oid)


def _object_knn(table: InstanceTable, mix, k: int, j: int) -> float:
    """Object j's kNN probability over the query alternatives ``mix``, as ``_query_mix``
    gives them: the weighted parts add by ``math.fsum``, then clamp at 1."""
    targets = np.arange(table.first[j], table.first[j + 1])
    parts = (w * _knn_probabilities(table, dist, k, targets)[j] for w, dist in mix)
    return min(1.0, math.fsum(parts))


def knn_object_probability(db: UncertainDatabase, q: Query, k: int, oid: str) -> float:
    """Probability that the object belongs to the k-nearest-neighbor result.

    For every instance u of the object, the number of other objects strictly
    closer than u is a Poisson-binomial count; u contributes
    ``P(u) * P(at most k-1 closer)``, read from the truncated fold.
    """
    if k < 1:
        raise ValidationError("k must be a positive integer")
    rest, mix = _query_mix(db, q)
    return _object_knn(rest.table, mix, k, _target_index(rest, q, oid))


def rank_distribution(
    db: UncertainDatabase,
    q: Query,
    oid: str,
    kernel: Kernel = poisson_binomial_recurrence,
) -> CountDistribution:
    """Distribution over the object's rank 1..N by distance from the query.

    ``mass[j-1]`` is the probability of rank j (exactly j-1 objects closer).
    Worlds where the object does not exist carry no rank, so the mass sums to
    the object's existence probability.  Each instance's closer masses, the
    object's own trial left out, go through ``kernel`` once.
    """
    rest, mix = _query_mix(db, q)
    j = _target_index(rest, q, oid)
    table = rest.table
    lo, hi = table.first[j], table.first[j + 1]
    mass = 0.0
    for w, dist in mix:
        part = np.zeros(len(rest))
        step = _block_size(dist)
        for start in range(lo, hi, step):
            stop = min(start + step, hi)
            rows = np.delete(_closer_block(table, dist, np.arange(start, stop)), j, axis=0).T
            for p, trials in zip(table.prob[start:stop].tolist(), rows):
                part += p * kernel(trials).mass
        mass = mass + w * part
    return CountDistribution(np.minimum(1.0, mass))


def _position_probabilities(
    db: UncertainDatabase, point: QueryPoint, predicate: SpatialPredicate
) -> List[float]:
    """Each object's probability of satisfying the predicate at a fixed point, in database order."""
    if isinstance(predicate, RangePredicate):
        return _in_range_probabilities(db.table, RangeQuery(point, predicate.epsilon))
    if isinstance(predicate, KnnPredicate):
        dist = distance_matrix([point.position], db.table.positions)[0]
        return _knn_probabilities(db.table, dist, predicate.k, np.arange(len(dist))).tolist()
    raise ValidationError(f"unsupported spatial predicate {predicate!r}")


def object_probabilities(
    db: UncertainDatabase,
    q: Query,
    predicate: SpatialPredicate,
    kernel: Kernel = poisson_binomial_recurrence,
) -> Dict[str, float]:
    """Per-object probability of satisfying the spatial predicate, for all objects.

    Neither predicate calls ``kernel``: in-range probabilities are sums and kNN reads the
    truncated fold.  The argument keeps the signature of the kernel-taking queries.
    """
    rest, points = _query_points(db, q)
    acc = 0.0
    for w, point in points:
        acc = acc + w * np.array(_position_probabilities(rest, point, predicate))
    return dict(zip(rest.object_ids, np.minimum(1.0, acc).tolist()))


def _kernel(backend: str) -> Kernel:
    if backend not in KERNELS:
        raise ValidationError(f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}")
    return KERNELS[backend]


def answer_objects(
    db: UncertainDatabase,
    q: Query,
    predicate: SpatialPredicate,
    backend: str = "pbr",
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> Dict[str, float]:
    """Per-object probability of satisfying the predicate, from the named backend."""
    if backend == "exact":
        return object_based(db, q, predicate)
    if backend == "sampled":
        return estimate_object_probabilities(sample_worlds(db, samples, seed), q, predicate)
    return object_probabilities(db, q, predicate, _kernel(backend))


def answer_range(
    db: UncertainDatabase,
    q: Query,
    epsilon: float,
    backend: str = "pbr",
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> Tuple[Dict[str, float], CountDistribution]:
    """Per-object in-range probabilities and the in-range count distribution, from the backend."""
    predicate = RangePredicate(epsilon)
    if backend == "exact":
        return object_and_count_based(db, q, predicate)
    if backend == "sampled":
        return estimate_range(sample_worlds(db, samples, seed), q, epsilon)
    kernel = _kernel(backend)
    rest, points = _query_points(db, q)
    acc = mass = 0.0
    for w, point in points:
        trials = _position_probabilities(rest, point, predicate)
        acc = acc + w * np.array(trials)
        mass = mass + w * kernel(trials).mass
    return (dict(zip(rest.object_ids, np.minimum(1.0, acc).tolist())),
            CountDistribution(np.minimum(1.0, mass)))


def sampled_results(
    db: UncertainDatabase,
    q: Query,
    predicate: SpatialPredicate,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> List[PossibleResult]:
    """Distinct results over ``samples`` worlds drawn with ``seed``, most supported first."""
    return estimate_result_probabilities(sample_worlds(db, samples, seed), q, predicate)


def answer_results(
    db: UncertainDatabase,
    q: Query,
    predicate: SpatialPredicate,
    backend: str = "pbr",
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> List[Tuple[ResultSet, float]]:
    """Probability of each distinct query result, most probable first, ties by result.

    The kernels give per-object marginals only, so ``pbr`` and ``gf`` answer
    through the exact oracle and its world cap.
    """
    if backend == "sampled":
        found = sampled_results(db, q, predicate, samples, seed)
        pairs = [(pr.result, pr.support / samples) for pr in found]
    else:
        if backend != "exact":
            _kernel(backend)  # rejects unknown names; a kernel has no result sets to give
        pairs = list(result_based(db, q, predicate).items())
    pairs.sort(key=lambda item: (-item[1], item[0]))
    return pairs


def answer_rank(
    db: UncertainDatabase, q: Query, oid: str, backend: str = "pbr"
) -> CountDistribution:
    """Rank distribution of one object through the named kernel (``pbr`` or ``gf``)."""
    return rank_distribution(db, q, oid, _kernel(backend))
