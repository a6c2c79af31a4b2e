"""Property tests: the sampled estimators against brute force over the same sampled worlds,
the Poisson-binomial kernels against the exact oracle, range from the instance table against
the object-by-object path, the kernels and the instance-table kNN and rank paths against
loops that visit every trial and instance one at a time, the truncated kNN fold against the
per-instance kernel path it replaced, the
batched distances against ``euclidean_distance``, exact invariance of every path under integer
translation and quarter-turn rotation, the maximal-set filter against the quadratic one, and the
exact trajectory backend against the kNN engine and the oracle, both backends and the lattice
over timestamp sets against an enumeration of the joint trajectory worlds, the depth-first
lattice against the level-wise Apriori one, the sampled backend against a per-sample loop,
PAM, the weighted silhouette and the auto-k choice against the one-candidate loops they
replaced, grouping of sampled rows against a ``Counter``, max-cover against the one-candidate
greedy loop, and the one-pass JSON writer against the item-by-item one."""

import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from uncertain_spatial import (  # noqa: E402
    KnnPredicate,
    QueryPoint,
    RangePredicate,
    ResultSet,
    UncertainDatabase,
    estimate_object_probabilities,
    estimate_result_probabilities,
    PossibleResult,
    alpha_confidence,
    evaluate_world,
    jaccard_distance,
    max_cover_representatives,
    object_based,
    pam_kmedoids,
    sample_worlds,
)
from uncertain_spatial.bernoulli import (  # noqa: E402
    CountDistribution,
    generating_function,
    poisson_binomial_recurrence,
)
from uncertain_spatial.cli import dumps_canonical  # noqa: E402
from uncertain_spatial.model import PROB_TOL, distance_matrix, euclidean_distance  # noqa: E402
from uncertain_spatial.queries import (  # noqa: E402
    KERNELS,
    answer_objects,
    answer_range,
    knn_object_probability,
    object_probabilities,
    rank_distribution,
)
from uncertain_spatial.representatives import (  # noqa: E402
    Representative,
    _choose_clustering,
    _distance_matrix,
    _weighted_silhouette,
)
from uncertain_spatial.sampling import _supports_from_membership  # noqa: E402
from uncertain_spatial.trajectories import (  # noqa: E402
    ExactTrajectoryBackend,
    SampledTrajectoryBackend,
    TimestampSet,
    TrajectoryDataset,
    UncertainTrajectory,
    maximal_timestamp_sets,
    pc_tau_nn,
)

from conftest import make_object  # noqa: E402
from test_cli import item_by_item  # noqa: E402
from test_trajectories import grid_dataset, reference_bitmap  # noqa: E402

#: Integer-grid coordinates make equal distances, and so id tie-breaks, common.
GRID = st.integers(0, 4)


@st.composite
def databases(draw):
    """Up to six objects on a 5x5 grid, some existentially uncertain."""
    objects = []
    for i in range(draw(st.integers(1, 6))):
        m = draw(st.integers(1, 3))
        weights = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
        total = sum(weights) + draw(st.sampled_from((0, 0, 1, 3)))  # extra = absence weight
        objects.append(
            make_object(f"O{i}", [(draw(GRID), draw(GRID), w / total) for w in weights])
        )
    return UncertainDatabase(tuple(objects))


@st.composite
def queries(draw):
    """(db, query, predicate): a grid point or a certain object, range or kNN."""
    db = draw(databases())
    certain = [o.id for o in db.objects if not o.is_existentially_uncertain]
    if certain and draw(st.booleans()):
        q = draw(st.sampled_from(certain))
    else:
        q = QueryPoint(float(draw(GRID)), float(draw(GRID)))
    if draw(st.booleans()):
        pred = RangePredicate(draw(st.sampled_from((0.0, 1.0, math.sqrt(2), 2.0, math.sqrt(5), 3.0))))
    else:
        pred = KnnPredicate(draw(st.integers(1, len(db))))
    return db, q, pred


@settings(max_examples=300, deadline=None)
@given(queries(), st.integers(1, 40), st.integers(0, 2**32))
def test_sampled_estimates_match_brute_force(case, n, seed):
    db, q, pred = case
    X = sample_worlds(db, n, seed)
    results = [evaluate_world(db, w, q, pred) for w in X.worlds()]

    supports = Counter(results)
    expected = sorted(supports.items(), key=lambda item: (-item[1], item[0]))
    got = [(r.result, r.support) for r in estimate_result_probabilities(X, q, pred)]
    assert got == expected

    candidates = sorted(o.id for o in db.objects if o.id != q)
    hits = Counter(oid for r in results for oid in r)
    probs = estimate_object_probabilities(X, q, pred)
    assert list(probs) == candidates
    assert probs == {oid: hits[oid] / n for oid in candidates}


def _assert_close(got, expected):
    assert list(got) == list(expected)
    for oid, p in expected.items():
        assert abs(got[oid] - p) <= 1e-12, oid


@settings(max_examples=200, deadline=None)
@given(queries())
def test_kernels_match_the_oracle(case):
    """pbr and gf give the exact per-object probabilities and range count distribution."""
    db, q, pred = case
    exact = answer_objects(db, q, pred, "exact")
    for backend in ("pbr", "gf"):
        _assert_close(answer_objects(db, q, pred, backend), exact)
    if isinstance(pred, RangePredicate):
        exact_probs, exact_counts = answer_range(db, q, pred.epsilon, "exact")
        _assert_close(exact_probs, exact)
        for backend in ("pbr", "gf"):
            probs, counts = answer_range(db, q, pred.epsilon, backend)
            _assert_close(probs, exact)
            assert len(counts) == len(exact_counts) == len(exact) + 1
            assert max(abs(counts.mass - exact_counts.mass)) <= 1e-12


def _reference_range(db, q, epsilon, kernel):
    """Range object by object: ``in_range_probability``'s fsum per object, the query
    object's instances mixed in turn over the other objects, the mixes clamped at 1."""
    if isinstance(q, str):
        rest = UncertainDatabase(tuple(o for o in db.objects if o.id != q))
        positions = [(inst.prob, inst.position, rest) for inst in db[q].instances]
    else:
        positions = [(1.0, q.position, db)]
    probs, mass = {}, 0.0
    for w, center, rest in positions:
        trials = [
            min(1.0, math.fsum(
                inst.prob for inst in obj.instances
                if euclidean_distance(center, inst.position) <= epsilon
            ))
            for obj in rest.objects
        ]
        for obj, p in zip(rest.objects, trials):
            probs[obj.id] = probs.get(obj.id, 0.0) + w * p
        mass = mass + w * kernel(trials).mass
    return {oid: min(1.0, p) for oid, p in probs.items()}, CountDistribution(np.minimum(1.0, mass))


@st.composite
def range_cases(draw):
    """(db, query, epsilon) on the grid: up to five instances per object, many exactly at
    distance epsilon, some objects existentially uncertain, a grid point or a certain object."""
    objects = []
    for i in range(draw(st.integers(1, 7))):
        weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
        total = sum(weights) + draw(st.sampled_from((0, 0, 1, 3)))
        objects.append(make_object(f"O{i}", [(draw(GRID), draw(GRID), w / total) for w in weights]))
    db = UncertainDatabase(tuple(objects))
    certain = [o.id for o in db.objects if not o.is_existentially_uncertain]
    if certain and draw(st.booleans()):
        q = draw(st.sampled_from(certain))
    else:
        q = QueryPoint(float(draw(GRID)), float(draw(GRID)))
    epsilon = draw(st.sampled_from((0.0, 1.0, math.sqrt(2), 2.0, math.sqrt(5), 3.0, 2.5, 10.0)))
    return db, q, epsilon


@settings(max_examples=300, deadline=None)
@given(range_cases())
def test_range_from_the_table_matches_the_object_by_object_path(case):
    """``answer_range`` reads one distance row of the table; it gives the object-by-object
    floats exactly, for both kernels, and the oracle's within the tolerance."""
    db, q, epsilon = case
    exact_probs, exact_counts = answer_range(db, q, epsilon, "exact")
    for backend, kernel in KERNELS.items():
        probs, counts = answer_range(db, q, epsilon, backend)
        want_probs, want_counts = _reference_range(db, q, epsilon, kernel)
        assert list(probs) == list(want_probs) and probs == want_probs
        assert counts.mass.tolist() == want_counts.mass.tolist()
        assert all(abs(probs[oid] - p) <= PROB_TOL for oid, p in exact_probs.items())
        assert max(abs(counts.mass - exact_counts.mass)) <= PROB_TOL


def _recurrence_over_every_trial(probs):
    """The row recurrence run on every trial, certain ones included."""
    p = np.asarray(list(probs), dtype=float)
    row = np.zeros(p.size + 1)
    row[0] = 1.0
    for j in range(1, p.size + 1):
        pj = p[j - 1]
        row[1 : j + 1] = row[:j] * pj + row[1 : j + 1] * (1.0 - pj)
        row[0] *= 1.0 - pj
    return CountDistribution(row)


def _convolution_over_every_trial(probs):
    """The generating-function product over every trial, certain ones included."""
    coeffs = np.array([1.0])
    for pi in np.asarray(list(probs), dtype=float):
        coeffs = np.convolve(coeffs, np.array([1.0 - pi, pi]))
    return CountDistribution(coeffs)


#: Trials mixing certain values, the two floats just below 1 and uniform draws.
TRIALS = st.lists(
    st.one_of(st.sampled_from((0.0, 1.0, 1 - 2**-52, 1 - 2**-53)), st.floats(0.0, 1.0)),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(TRIALS)
@example([])
def test_kernels_skip_certain_trials_bit_exactly(probs):
    for kernel, every_trial in (
        (poisson_binomial_recurrence, _recurrence_over_every_trial),
        (generating_function, _convolution_over_every_trial),
    ):
        expected = every_trial(probs).mass
        assert np.array_equal(kernel(probs).mass, expected)
        assert np.array_equal(kernel(np.array(probs, dtype=float)).mass, expected)


def _closer_probability(competitor, q_pos, d, target_id):
    """Scalar reference: the competitor's mass strictly closer than d, ties to the smaller id."""
    total = 0.0
    for inst in competitor.instances:
        di = euclidean_distance(q_pos, inst.position)
        if di < d or (di == d and competitor.id < target_id):
            total += inst.prob
    return min(1.0, total)


def _closer_counts(db, point, oid, kernel):
    """Scalar reference: (instance probability, closer-count distribution) per instance."""
    others = [obj for obj in db.objects if obj.id != oid]
    for inst in db[oid].instances:
        d = euclidean_distance(point.position, inst.position)
        yield inst.prob, kernel([_closer_probability(c, point.position, d, oid) for c in others])


def _positions(db, q):
    if isinstance(q, str):
        rest = db.without(q)
        return [(inst.prob, QueryPoint(*inst.position), rest) for inst in db[q].instances]
    return [(1.0, q, db)]


def _reference_knn(db, q, k, oid, kernel):
    parts = []
    for w, point, rest in _positions(db, q):
        total = 0.0
        for p, closer in _closer_counts(rest, point, oid, kernel):
            total += p * float(closer.mass[:k].sum())
        parts.append(w * min(1.0, total))
    return math.fsum(parts)


def _reference_rank(db, q, oid, kernel):
    mass = 0.0
    for w, point, rest in _positions(db, q):
        part = np.zeros(len(rest))
        for p, closer in _closer_counts(rest, point, oid, kernel):
            part += p * closer.mass
        mass = mass + w * part
    return CountDistribution(mass).mass


@st.composite
def knn_cases(draw):
    """(db, query, k): a grid point or a certain object, k anywhere in 1..N."""
    db = draw(databases())
    certain = [o.id for o in db.objects if not o.is_existentially_uncertain]
    if certain and len(db) > 1 and draw(st.booleans()):
        q = draw(st.sampled_from(certain))
    else:
        q = QueryPoint(float(draw(GRID)), float(draw(GRID)))
    n = len(db) - isinstance(q, str)
    return db, q, draw(st.integers(1, n))


@settings(max_examples=300, deadline=None)
@given(knn_cases())
def test_distance_table_matches_the_scalar_reference(case):
    """kNN probabilities and rank masses equal the per-instance scalar loop bit for bit."""
    db, q, k = case
    targets = [oid for oid in db.object_ids if oid != q]
    for kernel, every_trial in (
        (poisson_binomial_recurrence, _recurrence_over_every_trial),
        (generating_function, _convolution_over_every_trial),
    ):
        expected = {oid: _reference_knn(db, q, k, oid, every_trial) for oid in targets}
        assert {oid: knn_object_probability(db, q, k, oid) for oid in targets} == expected
        # all objects at once, accumulated over the query's positions as object_probabilities does
        acc = {}
        for w, point, rest in _positions(db, q):
            for oid in rest.object_ids:
                p = _reference_knn(rest, point, k, oid, every_trial)
                acc[oid] = acc.get(oid, 0.0) + w * p
        assert object_probabilities(db, q, KnnPredicate(k), kernel) == acc
        for oid in targets:
            assert np.array_equal(
                rank_distribution(db, q, oid, kernel).mass, _reference_rank(db, q, oid, every_trial)
            )


def _closer_masses_one_at_a_time(table, dist, j):
    """The engine before the truncated fold: each instance of object j, its probability and
    every other object's closer mass, the target's own column deleted."""
    n = len(table.first) - 1
    ahead = table.id_rank[table.owner] < table.id_rank[j]
    for i in range(table.first[j], table.first[j + 1]):
        closer = (dist < dist[i]) | ((dist == dist[i]) & ahead)
        mass = np.bincount(table.owner, weights=np.where(closer, table.prob, 0.0), minlength=n)
        yield float(table.prob[i]), np.delete(np.minimum(1.0, mass), j)


def _knn_probability_by_kernel(masses, k, kernel):
    """The engine before the truncated fold: a full kernel row per instance, skipped when
    k trials are certain."""
    total = 0.0
    for p, trials in masses:
        if np.count_nonzero(trials == 1.0) < k:
            total += p * float(kernel(trials).mass[:k].sum())
    return min(1.0, total)


def _kernel_path(db, q, k, kernel):
    """Per object, ``object_probabilities`` and ``knn_object_probability`` as the per-instance
    kernel path computed them."""
    acc, parts = 0.0, {}
    for w, point, rest in _positions(db, q):
        dist = distance_matrix([point.position], rest.table.positions)[0]
        probs = [
            _knn_probability_by_kernel(_closer_masses_one_at_a_time(rest.table, dist, j), k, kernel)
            for j in range(len(rest))
        ]
        acc = acc + w * np.array(probs)
        for oid, p in zip(rest.object_ids, probs):
            parts.setdefault(oid, []).append(w * p)
    one = {oid: min(1.0, math.fsum(ps)) for oid, ps in parts.items()}
    return dict(zip(rest.object_ids, np.minimum(1.0, acc).tolist())), one


@st.composite
def near_one_cases(draw):
    """(db, query, k): up to nine objects on the grid whose masses sum to exactly 1, to 1 plus
    or minus round-off, to 1 - 1e-12 (certain within the tolerance) or to less; a grid point
    or a certain object; k anywhere in 1..N+2."""
    objects = []
    for i in range(draw(st.integers(1, 9))):
        m = draw(st.integers(1, 3))
        weights = draw(st.lists(st.integers(1, 7), min_size=m, max_size=m))
        total = sum(weights) + draw(st.sampled_from((0, 0, 0, 1, 3)))
        probs = [w / total for w in weights]
        probs[-1] -= draw(st.sampled_from((0.0, 0.0, 1e-12)))
        objects.append(make_object(f"O{i}", [(draw(GRID), draw(GRID), p) for p in probs]))
    db = UncertainDatabase(tuple(objects))
    certain = [o.id for o in db.objects if not o.is_existentially_uncertain]
    if certain and len(db) > 1 and draw(st.booleans()):
        q = draw(st.sampled_from(certain))
    else:
        q = QueryPoint(float(draw(GRID)), float(draw(GRID)))
    return db, q, draw(st.integers(1, len(db) - isinstance(q, str) + 2))


#: Six objects and k = 8: the fold stops at six entries, because numpy adds eight or more
#: floats pairwise, and two padding zeros would move the last bit of the sum.
WIDTH_CASE = (
    UncertainDatabase(tuple(
        make_object(f"O{i}", [(2, y, p)])
        for i, (y, p) in enumerate([(2, 2 / 3), (1, 1.0), (1, 1.0), (0, 0.7), (3, 0.8), (4, 1.0)])
    )),
    QueryPoint(0.0, 2.0),
    8,
)


@settings(max_examples=300, deadline=None)
@given(near_one_cases())
@example(WIDTH_CASE)
def test_truncated_fold_matches_the_kernel_path(case):
    """All-object and one-object kNN probabilities from the pruned, truncated fold equal the
    per-instance kernel path bit for bit, under either kernel argument."""
    db, q, k = case
    for kernel in (poisson_binomial_recurrence, generating_function):
        every, one = _kernel_path(db, q, k, kernel)
        assert object_probabilities(db, q, KnnPredicate(k), kernel) == every
        assert {oid: knn_object_probability(db, q, k, oid) for oid in one} == one


@st.composite
def coordinates(draw):
    """A coordinate at a magnitude from 1e-3 to 1e8, of either sign."""
    return draw(st.floats(-1.0, 1.0)) * 10.0 ** draw(st.integers(-3, 8))


POINTS = st.lists(st.tuples(coordinates(), coordinates()), max_size=8)


def _euclidean_matrix(points, positions):
    return np.array(
        [[euclidean_distance(p, q) for q in positions] for p in points], dtype=float
    ).reshape(len(points), len(positions))


@settings(max_examples=100, deadline=None)
@given(POINTS, POINTS, st.integers(0, 2**32 - 1), st.integers(-3, 8), st.integers(-3, 8))
@example([], [], 0, 0, 0)
def test_distance_matrix_is_euclidean_distance_bit_for_bit(
    points, positions, seed, e_points, e_positions
):
    """Drawn edge values plus a seeded block of generic floats (where ``np.hypot`` would differ)."""
    rng = np.random.default_rng(seed)
    points = points + [tuple(p) for p in rng.uniform(-1, 1, (20, 2)) * 10.0**e_points]
    positions = positions + [tuple(p) for p in rng.uniform(-1, 1, (40, 2)) * 10.0**e_positions]
    for pts, pos in ((points, positions), ([], positions), (points, [])):
        got = distance_matrix(pts, np.array(pos, dtype=float).reshape(-1, 2))
        assert np.array_equal(got, _euclidean_matrix(pts, pos))


def _translate(dx, dy):
    return lambda x, y: (x + dx, y + dy)


def _quarter_turn(x, y):
    return (-y, x)


def _moved(db, q, f):
    """The database and query with every instance (and a query point) mapped by f."""
    objects = tuple(
        make_object(o.id, [(*f(*inst.position), inst.prob) for inst in o.instances])
        for o in db.objects
    )
    return UncertainDatabase(objects), q if isinstance(q, str) else QueryPoint(*f(q.x, q.y))


def _answers(db, q, k, eps):
    """Every kernel kNN, rank, range and sampled-support answer for one query."""
    targets = [oid for oid in db.object_ids if oid != q]
    out = []
    for backend in ("pbr", "gf"):
        probs, counts = answer_range(db, q, eps, backend)
        out += [
            answer_objects(db, q, KnnPredicate(k), backend),
            probs,
            counts.mass.tolist(),
            [rank_distribution(db, q, oid, KERNELS[backend]).mass.tolist() for oid in targets],
        ]
    X = sample_worlds(db, 50, 3)
    for pred in (KnnPredicate(k), RangePredicate(eps)):
        out.append([(r.result, r.support) for r in estimate_result_probabilities(X, q, pred)])
    return out


@settings(max_examples=150, deadline=None)
@given(
    knn_cases(),
    st.sampled_from((0.0, 1.0, math.sqrt(2), 2.0, math.sqrt(5), 3.0)),
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(1, 3),
)
def test_integer_translation_and_quarter_turns_change_nothing(case, eps, dx, dy, turns):
    """Grid distances keep every bit when moved or turned, so every answer is ``==``."""
    db, q, k = case
    expected = _answers(db, q, k, eps)
    assert _answers(*_moved(db, q, _translate(dx, dy)), k, eps) == expected
    turned = (db, q)
    for _ in range(turns):
        turned = _moved(*turned, _quarter_turn)
    assert _answers(*turned, k, eps) == expected


def _quadratic_maximal(results):
    """The all-pairs filter: keep an entry unless another entry's set strictly contains it."""
    keep = []
    for ts in results:
        s = set(ts.timestamps)
        if not any(s < set(other.timestamps) for other in results if other is not ts):
            keep.append(ts)
    return keep


@st.composite
def timestamp_families(draw):
    """Entries over six timestamps with repeated sets and entries; not downward-closed."""
    pool = draw(st.lists(st.frozensets(st.integers(0, 5), min_size=1), min_size=1, max_size=12))
    entries = [
        TimestampSet(tuple(s), draw(st.sampled_from((0.1, 0.5, 1.0))))
        for s in draw(st.lists(st.sampled_from(pool), max_size=30))
    ]
    if entries and draw(st.booleans()):
        entries.append(draw(st.sampled_from(entries)))  # the same object twice
    return entries


@settings(max_examples=300, deadline=None)
@given(timestamp_families())
@example([])
def test_maximal_sets_match_the_quadratic_filter(results):
    assert maximal_timestamp_sets(results) == _quadratic_maximal(results)


def _timestamp_database(ds, t):
    """The trajectories' alternatives at timestamp t as a spatial database, the query first."""
    return UncertainDatabase(
        make_object(tr.id, [(x, y, p) for (x, y), p in tr.per_timestamp[t]])
        for tr in (ds.query, *ds.objects)
    )


def _surely_wins(ds, object_id, t):
    """No competitor alternative lies nearer any query alternative than an alternative of the
    object does, or as near with an id sorting first."""
    alts = {tr.id: tr.per_timestamp[t] for tr in ds.objects}
    return all(
        euclidean_distance(q_pos, pos) > d
        or (euclidean_distance(q_pos, pos) == d and cid > object_id)
        for q_pos, _ in ds.query.per_timestamp[t]
        for d in (euclidean_distance(q_pos, o_pos) for o_pos, _ in alts[object_id])
        for cid, c_alts in alts.items()
        if cid != object_id
        for pos, _ in c_alts
    )


@st.composite
def trajectory_datasets(draw, max_objects=4, max_alts=3, max_timestamps=3):
    """Up to ``max_objects`` objects over up to ``max_timestamps`` timestamps on a 5x5 grid,
    1 to ``max_alts`` alternatives each, ids out of database order, so distance ties and id
    tie-breaks are common."""
    n_t = draw(st.integers(1, max_timestamps))

    def trajectory(tid):
        per = {}
        for t in range(n_t):
            weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=max_alts))
            per[t] = tuple(
                ((float(draw(GRID)), float(draw(GRID))), w / sum(weights)) for w in weights
            )
        return UncertainTrajectory(id=tid, per_timestamp=per)

    ids = draw(st.permutations([f"o{i}" for i in range(draw(st.integers(1, max_objects)))]))
    return TrajectoryDataset(
        timestamps=tuple(range(n_t)), query=trajectory("q"), objects=tuple(map(trajectory, ids))
    )


#: o0 surely wins, and its alternatives' probabilities 1/6, 4/6, 1/6 add up to
#: 0.9999999999999999 in order: the kNN engine gives that float, the backend 1.0.
SURE_WIN = TrajectoryDataset(
    timestamps=(0,),
    query=UncertainTrajectory(id="q", per_timestamp={0: (((0.0, 0.0), 1.0),)}),
    objects=(
        UncertainTrajectory(id="o0", per_timestamp={
            0: (((1.0, 0.0), 1 / 6), ((0.0, 1.0), 4 / 6), ((1.0, 1.0), 1 / 6))}),
        UncertainTrajectory(id="o1", per_timestamp={0: (((4.0, 4.0), 1.0),)}),
    ),
)


@settings(max_examples=300, deadline=None)
@given(trajectory_datasets())
@example(SURE_WIN)
def test_exact_trajectory_wins_are_the_knn_engine(ds):
    """A single-timestamp win is the 1-NN object probability of that timestamp's database
    queried by the query trajectory, or exactly 1.0 when the object surely wins; it lies
    within 1e-12 of the possible-worlds oracle."""
    backend = ExactTrajectoryBackend(ds)
    for t in ds.timestamps:
        db = _timestamp_database(ds, t)
        oracle = object_based(db, "q", KnnPredicate(1))
        for oid in ds.object_ids:
            win = backend.pfann(oid, (t,))
            if _surely_wins(ds, oid, t):
                assert win == 1.0
            else:
                assert win == knn_object_probability(db, "q", 1, oid)
            assert abs(win - oracle[oid]) <= 1e-12


def _trajectory_oracle(ds):
    """Per (object, timestamp set), its P(nearest at every timestamp of the set) and whether
    that held in every world or in none.

    Each set's worlds are the joint alternatives of every trajectory, the query included, at
    the set's timestamps; a world's probability is the product of its alternatives'.  Distance
    ties go to the lower id.
    """
    rows = (ds.query, *ds.objects)
    oracle = {}
    for size in range(1, len(ds.timestamps) + 1):
        for subset in itertools.combinations(ds.timestamps, size):
            won = {oid: [] for oid in ds.object_ids}
            worlds = 0
            for world in itertools.product(*(tr.per_timestamp[t] for t in subset for tr in rows)):
                worlds += 1
                winners = set()
                for b in range(size):
                    (q, _), *alts = world[b * len(rows) : (b + 1) * len(rows)]
                    nearest = min(zip(alts, ds.object_ids),
                                  key=lambda alt: (euclidean_distance(q, alt[0][0]), alt[1]))
                    winners.add(nearest[1])
                if len(winners) == 1:
                    won[winners.pop()].append(math.prod(p for _, p in world))
            for oid, weights in won.items():
                oracle[oid, subset] = (math.fsum(weights), len(weights) == worlds, not weights)
    return oracle


TAUS = st.floats(0.01, 1.0) | st.sampled_from((0.25, 0.5, 1.0))


@settings(max_examples=100, deadline=None)
@given(trajectory_datasets(max_objects=3, max_alts=2), TAUS)
def test_exact_pfann_and_pcnn_match_the_trajectory_oracle(ds, tau):
    """Over timestamp sets of one to three timestamps, exact ``pfann`` lies within 1e-12 of
    the enumerated joint worlds, and ``pc_tau_nn`` returns exactly the sets the oracle
    qualifies, in size-then-lexicographic order, and with ``maximal`` exactly the maximal
    ones, unless an oracle value lies within 1e-9 of tau."""
    oracle = _trajectory_oracle(ds)
    backend = ExactTrajectoryBackend(ds)
    for oid in ds.object_ids:
        values = {sub: v for (o, sub), (v, _, _) in oracle.items() if o == oid}
        for sub, value in values.items():
            assert abs(backend.pfann(oid, sub) - value) <= 1e-12
        if all(abs(v - tau) > 1e-9 for v in values.values()):
            found = pc_tau_nn(ds, oid, ds.timestamps, tau, backend)
            want = sorted((sub for sub, v in values.items() if v >= tau), key=lambda s: (len(s), s))
            assert [ts.timestamps for ts in found] == want
            found = pc_tau_nn(ds, oid, ds.timestamps, tau, backend, maximal=True)
            assert [ts.timestamps for ts in found] == [
                sub for sub in want if not any(set(sub) < set(other) for other in want)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(trajectory_datasets(max_objects=3, max_alts=2), st.integers(0, 2**32 - 1))
def test_sampled_pfann_matches_the_trajectory_oracle(ds, seed):
    """Sampled ``pfann`` over 2,000 worlds lies within 4 binomial standard errors of the
    enumerated joint worlds, and equals 1.0 or 0.0 where the object wins in every world or
    in none.  Derandomized, so that the bound is checked on a fixed set of cases."""
    n = 2000
    backend = SampledTrajectoryBackend(ds, n, seed=seed)
    for (oid, sub), (value, always, never) in _trajectory_oracle(ds).items():
        estimate = backend.pfann(oid, sub)
        if always or never:
            assert estimate == (1.0 if always else 0.0)
        else:
            assert abs(estimate - value) <= 4 * math.sqrt(value * (1 - value) / n)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 7, 8, 9, 300]), st.data())
def test_sampled_pfann_is_the_share_of_covering_samples(seed, n, data):
    """A sampled estimate equals, with ==, the count of samples in which the object is nearest
    at every timestamp of the set, over n; the empty set gives 1.0."""
    n_t = data.draw(st.integers(1, 6))
    sure = data.draw(st.sets(st.integers(0, n_t - 1)))
    ds = grid_dataset(np.random.default_rng(seed), n_t=n_t, n_obj=3, sure=sure)
    backend = SampledTrajectoryBackend(ds, n, seed=seed)
    won = reference_bitmap(ds, n, seed)
    subsets = [(), ds.timestamps] + data.draw(
        st.lists(st.sets(st.sampled_from(ds.timestamps)), max_size=6))
    for oid in ds.object_ids:
        for sub in subsets:
            covering = set(range(n)).intersection(*(won[oid][t] for t in sub))
            assert backend.pfann(oid, sub) == len(covering) / n
    assert all(backend.pfann("o0", (t,)) == 1.0 for t in sure)


def _apriori(backend, oid, domain, tau):
    """The level-wise Apriori search: each level joins two found sets that share all but
    their last timestamp, and validates the join only when every one-smaller subset was
    found."""
    qualified = {}
    level = [(t,) for t in domain]
    while level:
        found = {}
        for cand in level:
            p = backend.pfann(oid, cand)
            if p >= tau:
                found[cand] = p
        qualified.update(found)
        level = []
        for _, group in itertools.groupby(found, key=lambda s: s[:-1]):
            group = list(group)
            for i, base in enumerate(group):
                for other in group[i + 1:]:
                    t = other[-1]
                    if all(base[:d] + base[d + 1:] + (t,) in found for d in range(len(base) - 1)):
                        level.append(base + (t,))
    return [TimestampSet(s, p) for s, p in qualified.items()]


@settings(max_examples=150, deadline=None)
@given(trajectory_datasets(max_objects=3, max_alts=3, max_timestamps=7), st.floats(0.01, 0.9),
       st.integers(0, 2**32 - 1))
def test_depth_first_search_returns_the_apriori_output(ds, tau, seed):
    """On both backends, the depth-first search returns the sets, order and floats of the
    level-wise Apriori search, and with ``maximal`` the maximal sets of that output."""
    for backend in (ExactTrajectoryBackend(ds), SampledTrajectoryBackend(ds, 300, seed=seed)):
        for oid in ds.object_ids:
            full = pc_tau_nn(ds, oid, ds.timestamps, tau, backend)
            assert full == _apriori(backend, oid, ds.timestamps, tau)
            maximal = pc_tau_nn(ds, oid, ds.timestamps, tau, backend, maximal=True)
            assert maximal == maximal_timestamp_sets(full)


SCALARS = (st.none() | st.booleans() | st.integers() | st.text(max_size=3)
           | st.floats(allow_nan=False, allow_infinity=False))
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=4), max_leaves=10)


@st.composite
def record_lists(draw):
    """Lists of dicts that share their str keys, each key's values of one kind, and
    sometimes a stray item."""
    keys = draw(st.lists(st.text(max_size=3), unique=True, max_size=3))
    kinds = [st.floats(allow_nan=False, allow_infinity=False), st.integers(), st.text(max_size=3),
             st.lists(st.integers(), max_size=4), JSON]
    columns = [draw(st.sampled_from(kinds)) for _ in keys]
    records = [{k: draw(c) for k, c in zip(keys, columns)} for _ in range(draw(st.integers(0, 5)))]
    if records and draw(st.booleans()):
        records.insert(draw(st.integers(0, len(records))), draw(JSON))
    return records


@settings(max_examples=300, deadline=None)
@given(record_lists() | JSON)
def test_canonical_json_one_pass_paths_match_item_by_item(value):
    assert dumps_canonical(value) == item_by_item(value)


def _reference_pam(dist, weights, k):
    """PAM one candidate at a time: a greedy build, then the best swap per pass."""
    m = dist.shape[0]
    first = int(np.argmin((dist * weights[None, :]).sum(axis=1)))
    medoids = [first]
    nearest = dist[first].copy()
    while len(medoids) < k:
        best, best_cost = None, math.inf
        for cand in range(m):
            if cand in medoids:
                continue
            cost = float((np.minimum(nearest, dist[cand]) * weights).sum())
            if cost < best_cost - 1e-15:
                best, best_cost = cand, cost
        medoids.append(best)
        nearest = np.minimum(nearest, dist[best])

    def total_cost(meds):
        return float((dist[meds].min(axis=0) * weights).sum())

    current = total_cost(medoids)
    while True:
        best_swap, best_cost = None, current
        for med in sorted(medoids):
            for cand in range(m):
                if cand in medoids:
                    continue
                cost = total_cost([c for c in medoids if c != med] + [cand])
                if cost < best_cost - 1e-12:
                    best_swap, best_cost = (med, cand), cost
        if best_swap is None:
            break
        medoids = [c for c in medoids if c != best_swap[0]] + [best_swap[1]]
        current = best_cost
    medoids = sorted(medoids)
    return medoids, np.argmin(dist[medoids], axis=0)


def _reference_silhouette(dist, weights, labels):
    """The weighted mean silhouette, one point and one cluster at a time."""
    k = labels.max() + 1
    cluster_w = np.array([weights[labels == c].sum() for c in range(k)])
    score_sum, weight_sum = 0.0, 0.0
    for i in range(dist.shape[0]):
        c = labels[i]
        within = cluster_w[c] - 1
        if within <= 0:
            continue
        a = float((dist[i, labels == c] * weights[labels == c]).sum()) / within
        b = math.inf
        for other in range(k):
            if other != c and cluster_w[other] != 0:
                mean = float((dist[i, labels == other] * weights[labels == other]).sum())
                b = min(b, mean / cluster_w[other])
        if not math.isfinite(b):
            continue
        denom = max(a, b)
        s = 0.0 if denom == 0.0 else (b - a) / denom
        score_sum += weights[i] * s
        weight_sum += weights[i]
    return 0.0 if weight_sum == 0.0 else score_sum / weight_sum


def _reference_choice(dist, weights):
    m = dist.shape[0]
    best, best_score = None, -math.inf
    for k in range(2, min(8, m - 1) + 1):
        medoids, labels = _reference_pam(dist, weights, k)
        score = _reference_silhouette(dist, weights, labels)
        if score > best_score + 1e-12:
            best, best_score = (medoids, labels), score
    return best if best is not None else _reference_pam(dist, weights, min(2, m))


@st.composite
def result_families(draw):
    """m distinct results over a universe of at most 8 objects, so that Jaccard distances
    tie often, with supports 1..500; m reaches 135, past numpy's 128-element pairwise
    summation block, and k reaches min(9, m)."""
    m = draw(st.integers(2, 135))
    universe = draw(st.integers((m - 1).bit_length(), 8))
    masks = draw(st.permutations(range(2**universe)))[:m]
    supports = draw(st.lists(st.integers(1, 500), min_size=m, max_size=m))
    pr = [PossibleResult(ResultSet.of(f"o{j}" for j in range(universe) if mask >> j & 1), s)
          for mask, s in zip(masks, supports)]
    return pr, draw(st.integers(1, min(9, m)))


@settings(max_examples=40, deadline=None)
@given(result_families())
def test_pam_silhouette_and_k_choice_match_the_one_candidate_loops(case):
    """Whole-row pricing picks the medoids, labels and k that the one-candidate loops do."""
    pr, k = case
    dist = _distance_matrix(pr)
    weights = np.array([r.support for r in pr], dtype=float)
    medoids, labels = pam_kmedoids(dist, weights, k)
    ref_medoids, ref_labels = _reference_pam(dist, weights, k)
    assert medoids == ref_medoids and np.array_equal(labels, ref_labels)
    assert _weighted_silhouette(dist, weights, labels) == _reference_silhouette(
        dist, weights, labels)
    chosen, ref_chosen = _choose_clustering(dist, weights), _reference_choice(dist, weights)
    assert chosen[0] == ref_chosen[0] and np.array_equal(chosen[1], ref_chosen[1])


@st.composite
def membership_matrices(draw):
    """A bool (sample, object) matrix 0-40 columns wide (0-5 packed bytes) with 1-500 rows:
    independent cells at some density, all-False rows, one repeated row, or rows drawn from
    a few distinct prototypes; and the columns' ids, sorted or shuffled."""
    n, width = draw(st.integers(1, 500)), draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["cells", "all-false", "one-row", "prototypes"]))
    if shape == "cells":
        member = rng.random((n, width)) < draw(st.sampled_from([0.02, 0.2, 0.5, 0.9]))
    elif shape == "all-false":
        member = np.zeros((n, width), dtype=bool)
    elif shape == "one-row":
        member = np.repeat(rng.random((1, width)) < 0.5, n, axis=0)
    else:
        prototypes = rng.random((draw(st.integers(1, 6)), width)) < 0.3
        member = prototypes[rng.integers(0, len(prototypes), n)]
    if draw(st.booleans()):  # some rows empty among the others
        member[rng.random(n) < 0.3] = False
    ids = [f"o{j:02d}" for j in range(width)]
    if draw(st.booleans()):
        rng.shuffle(ids)
    return member, ids


@settings(max_examples=200, deadline=None)
@given(membership_matrices())
def test_supports_from_membership_counts_the_distinct_rows(case):
    """Grouping by one sort of the packed rows gives a ``Counter`` of the row tuples, as
    results sorted by falling support, then by members."""
    member, ids = case
    counts = Counter(tuple(row) for row in member.tolist())
    want = sorted(
        (PossibleResult(ResultSet.of(i for i, hit in zip(ids, row) if hit), count)
         for row, count in counts.items()),
        key=lambda pr: (-pr.support, pr.result),
    )
    assert _supports_from_membership(member, ids) == want


def _reference_max_cover(pr, tau, n, alpha):
    """Greedy cover one candidate at a time over ``jaccard_distance``: in list order, take a
    candidate whose uncovered support within tau beats the best so far, or ties it with a
    smaller result."""
    near = [[jaccard_distance(a.result, b.result) <= tau for b in pr] for a in pr]
    n_samples = sum(r.support for r in pr)
    uncovered, chosen = set(range(len(pr))), []
    while uncovered and len(chosen) < n:
        best, best_gain = None, -1
        for i in range(len(pr)):
            gain = sum(pr[j].support for j in uncovered if near[i][j])
            if gain > best_gain or (gain == best_gain and pr[i].result < pr[best].result):
                best, best_gain = i, gain
        covered = sum(r.support for r, hit in zip(pr, near[best]) if hit)
        phi = alpha_confidence(covered / n_samples, n_samples, alpha)
        chosen.append(Representative(pr[best].result, tau, phi, alpha, covered))
        uncovered = {j for j in uncovered if not near[best][j]}
    return chosen


#: Jaccard distances as the matrix computes them (1 - |I| / |U|) and their neighbours.
EXACT_TAUS = [0.0, 1 - 3 / 4, 1 / 3, 1 - 2 / 3, 1 - 1 / 2, 2 / 3, 1 - 1 / 3, 1.0]


@settings(max_examples=60, deadline=None)
@given(result_families(), st.integers(0, 3), st.sampled_from(EXACT_TAUS) | st.floats(0.0, 1.0),
       st.integers(1, 6), st.sampled_from([0.5, 0.9, 0.95]), st.data())
def test_max_cover_matches_the_one_candidate_loop(case, empties, tau, n, alpha, data):
    """Max-cover over the dense ``within`` matrix and its updated gains picks the results the
    one-candidate loop picks, with the same tau, phi and support, also with the empty result
    repeated (as ``random_pr`` lists make it)."""
    pr = list(case[0])
    for _ in range(empties):
        pr.insert(data.draw(st.integers(0, len(pr))),
                  PossibleResult(ResultSet(()), data.draw(st.integers(1, 500))))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the normal-approximation warning of small supports
        assert max_cover_representatives(pr, tau, n, alpha) == _reference_max_cover(
            pr, tau, n, alpha)
