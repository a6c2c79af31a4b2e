"""Property tests: the sampled estimators against brute force over the same sampled worlds,
the Poisson-binomial kernels against the exact oracle, range from the instance table against
the object-by-object path, the kernels and the instance-table kNN and rank paths against
loops that visit every trial and instance one at a time, the
batched distances against ``euclidean_distance``, exact invariance of every path under integer
translation and quarter-turn rotation, the maximal-set filter against the quadratic one, and the
exact trajectory backend against the kNN engine and the oracle, and PAM, the weighted silhouette
and the auto-k choice against the one-candidate loops they replaced."""

import math
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
    evaluate_world,
    object_based,
    pam_kmedoids,
    sample_worlds,
)
from uncertain_spatial.bernoulli import (  # noqa: E402
    CountDistribution,
    generating_function,
    poisson_binomial_recurrence,
)
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
    _choose_clustering,
    _distance_matrix,
    _weighted_silhouette,
)
from uncertain_spatial.trajectories import (  # noqa: E402
    ExactTrajectoryBackend,
    TimestampSet,
    TrajectoryDataset,
    UncertainTrajectory,
    maximal_timestamp_sets,
)

from conftest import make_object  # noqa: E402

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
    object's instances mixed in turn over the other objects."""
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
    return probs, CountDistribution(mass)


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
            total += p * closer.prob_at_most(k - 1)
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
        assert {oid: knn_object_probability(db, q, k, oid, kernel) for oid in targets} == expected
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
def trajectory_datasets(draw):
    """Up to four objects over up to three timestamps on a 5x5 grid, 1-3 alternatives each,
    ids out of database order, so distance ties and id tie-breaks are common."""
    n_t = draw(st.integers(1, 3))

    def trajectory(tid):
        per = {}
        for t in range(n_t):
            weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
            per[t] = tuple(
                ((float(draw(GRID)), float(draw(GRID))), w / sum(weights)) for w in weights
            )
        return UncertainTrajectory(id=tid, per_timestamp=per)

    ids = draw(st.permutations([f"o{i}" for i in range(draw(st.integers(1, 4)))]))
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
