"""Property tests: the sampled estimators against brute force over the same sampled worlds,
and the Poisson-binomial kernels against the exact oracle."""

import math
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from uncertain_spatial import (  # noqa: E402
    KnnPredicate,
    QueryPoint,
    RangePredicate,
    UncertainDatabase,
    estimate_object_probabilities,
    estimate_result_probabilities,
    evaluate_world,
    sample_worlds,
)
from uncertain_spatial.queries import answer_objects, answer_range  # noqa: E402

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
