"""World sampling: determinism, unbiasedness, support estimation."""

import math
from fractions import Fraction

import numpy as np
import pytest

from uncertain_spatial import (
    KnnPredicate,
    QueryPoint,
    RangePredicate,
    UncertainDatabase,
    ValidationError,
    estimate_object_probabilities,
    estimate_result_probabilities,
    jaccard_distance,
    result_based,
    sample_worlds,
)
from uncertain_spatial.model import distance_matrix
from uncertain_spatial.sampling import _sampled_members, estimate_range
from uncertain_spatial.worlds import ResultSet

from conftest import make_object, random_db

Q0 = QueryPoint(0.0, 0.0)


class TestSampleWorlds:
    def test_certain_database_yields_one_world(self):
        db = UncertainDatabase((make_object("A", [(0, 0, 1.0)]),))
        X = sample_worlds(db, 500, seed=1)
        assert np.all(X.choices == 0)
        worlds = list(X.worlds())
        assert all(w.choices == {"A": 0} and w.prob == 1.0 for w in worlds)

    def test_branch_frequencies_within_five_sigma(self):
        db = UncertainDatabase((make_object("U", [(0, 0, 0.7), (1, 0, 0.2)]),))
        n = 100000
        X = sample_worlds(db, n, seed=99)
        col = X.choices[:, 0]
        for value, p in [(0, 0.7), (1, 0.2), (-1, 0.1)]:
            freq = np.count_nonzero(col == value) / n
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 5 * sigma, (value, freq)

    def test_same_seed_reproduces(self):
        rng = np.random.default_rng(31)
        db = random_db(rng)
        a = sample_worlds(db, 1000, seed=5)
        b = sample_worlds(db, 1000, seed=5)
        assert np.array_equal(a.choices, b.choices)

    def test_different_seed_differs(self):
        rng = np.random.default_rng(32)
        db = random_db(rng)
        a = sample_worlds(db, 1000, seed=5)
        b = sample_worlds(db, 1000, seed=6)
        assert not np.array_equal(a.choices, b.choices)

    def test_per_sample_substreams_are_prefix_stable(self):
        """Extending a sample set re-creates its prefix exactly."""
        rng = np.random.default_rng(33)
        db = random_db(rng)
        a = sample_worlds(db, 64, seed=9)
        b = sample_worlds(db, 256, seed=9)
        assert np.array_equal(a.choices, b.choices[:64])

    def test_large_instance_count_does_not_wrap(self):
        """Instance indices above 32767 survive materialization."""
        m = 40000
        db = UncertainDatabase((make_object("U", [(i, 0, 1 / m) for i in range(m)]),))
        X = sample_worlds(db, 20000, seed=3)
        assert np.array_equal(X.column(0), X.choices[:, 0])
        assert X.choices.max() >= 32768
        assert abs(np.mean(X.choices[:, 0] < 20000) - 0.5) <= 0.02

    def test_sample_count_validated(self):
        db = UncertainDatabase((make_object("A", [(0, 0, 1.0)]),))
        with pytest.raises(ValidationError):
            sample_worlds(db, 0)


class TestResultEstimation:
    def test_certain_database_single_result(self):
        db = UncertainDatabase(
            (make_object("A", [(1, 0, 1.0)]), make_object("B", [(9, 0, 1.0)]))
        )
        X = sample_worlds(db, 300, seed=2)
        pr = estimate_result_probabilities(X, Q0, KnnPredicate(1))
        assert len(pr) == 1
        assert pr[0].result == ResultSet.of(["A"])
        assert pr[0].support == 300

    def test_supports_sum_to_sample_count(self):
        rng = np.random.default_rng(34)
        for _ in range(5):
            db = random_db(rng, max_objects=5)
            X = sample_worlds(db, 777, seed=int(rng.integers(1000)))
            pr = estimate_result_probabilities(X, Q0, RangePredicate(8.0))
            assert sum(r.support for r in pr) == 777

    def test_toy_two_nn_supports(self, consensus_db):
        """The uncertain-query fixture's three results occur near 0.3/0.3/0.4."""
        n = 30000
        X = sample_worlds(consensus_db, n, seed=11)
        pr = estimate_result_probabilities(X, "Q", KnnPredicate(2))
        found = {r.result.members: r.support / n for r in pr}
        for members, p in [(("A", "C"), 0.3), (("B", "C"), 0.3), (("D", "E"), 0.4)]:
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(found[members] - p) <= 5 * sigma

    def test_estimator_is_unbiased_against_oracle(self):
        """Mean over repeated sample sets approaches the exact result distribution."""
        rng = np.random.default_rng(35)
        for _ in range(3):
            db = random_db(rng, max_objects=5, max_worlds=500)
            q = QueryPoint(rng.uniform(-10, 10), rng.uniform(-10, 10))
            pred = KnnPredicate(2)
            oracle = {r.members: p for r, p in result_based(db, q, pred).items()}
            reps, n = 50, 2000
            sums = {members: 0.0 for members in oracle}
            for rep in range(reps):
                X = sample_worlds(db, n, seed=1000 + rep)
                for r in estimate_result_probabilities(X, q, pred):
                    if r.result.members in sums:
                        sums[r.result.members] += r.support / n
            for members, p in oracle.items():
                if p < 0.05:
                    continue
                mean = sums[members] / reps
                sigma = math.sqrt(p * (1 - p) / (n * reps))
                assert abs(mean - p) <= 5 * sigma, (members, mean, p)

    def test_object_probabilities_match_membership(self, knn_db):
        X = sample_worlds(knn_db, 100000, seed=13)
        est = estimate_object_probabilities(X, Q0, KnnPredicate(2))
        for oid, p in [("A", 0.1), ("B", 0.94), ("C", 0.96)]:
            sigma = math.sqrt(p * (1 - p) / len(X))
            assert abs(est[oid] - p) <= 5 * sigma

    def test_count_distribution_estimate(self, range_db):
        X = sample_worlds(range_db, 100000, seed=14)
        _, cd = estimate_range(X, Q0, 100.0)
        expected = [0.0, 0.056, 0.542, 0.348, 0.054, 0.0, 0.0]
        for k, p in enumerate(expected):
            sigma = math.sqrt(p * (1 - p) / len(X)) if 0 < p < 1 else 0.0
            assert abs(cd.mass[k] - p) <= 5 * sigma + 1e-12


    def test_absent_draws_are_never_members(self):
        """An absent object's draw (-1) is +inf away: it never ranks, nor lies in range."""
        db = UncertainDatabase((
            make_object("A", [(1, 0, 0.5)]),
            make_object("B", [(2, 0, 1.0)]),
        ))
        X = sample_worlds(db, 400, seed=4)
        present = X.column(0) == 0
        assert 0 < present.sum() < 400
        supports = {
            r.result.members: r.support
            for r in estimate_result_probabilities(X, Q0, KnnPredicate(1))
        }
        assert supports == {("A",): int(present.sum()), ("B",): int((~present).sum())}
        near = estimate_result_probabilities(X, Q0, RangePredicate(1e9))
        assert {r.result.members: r.support for r in near} == {
            ("A", "B"): int(present.sum()), ("B",): int((~present).sum())
        }


class TestJaccardDistance:
    def test_known_values(self):
        assert jaccard_distance(ResultSet.of("AB"), ResultSet.of("AC")) == pytest.approx(2 / 3)
        assert jaccard_distance(ResultSet.of("AB"), ResultSet.of("AB")) == 0.0
        assert jaccard_distance(ResultSet.of("AB"), ResultSet.of("CD")) == 1.0
        assert jaccard_distance(ResultSet.of(""), ResultSet.of("")) == 0.0

    def test_metric_axioms_exact(self):
        """Triangle inequality checked in exact rational arithmetic."""
        rng = np.random.default_rng(36)
        universe = list("ABCDEF")

        def rand_set():
            mask = rng.random(len(universe)) < 0.5
            return ResultSet.of([u for u, m in zip(universe, mask) if m])

        def exact_jaccard(r1, r2):
            s1, s2 = set(r1.members), set(r2.members)
            if not (s1 | s2):
                return Fraction(0)
            return 1 - Fraction(len(s1 & s2), len(s1 | s2))

        for _ in range(300):
            a, b, c = rand_set(), rand_set(), rand_set()
            dab, dbc, dac = exact_jaccard(a, b), exact_jaccard(b, c), exact_jaccard(a, c)
            assert dac <= dab + dbc
            assert jaccard_distance(a, b) == pytest.approx(float(dab), abs=1e-15)
            assert jaccard_distance(a, b) == jaccard_distance(b, a)
            assert jaccard_distance(a, a) == 0.0


class TestNearestMember:
    def test_nearest_first_walk_matches_the_stable_argsort(self):
        """For k = 1 the nearest-first walk picks, per sample, the member a stable argsort of
        fully drawn id-ordered columns ranks first: by a point or a multi-instance query
        object, on grid ties, with absent draws, certain one-instance rows and rows that are
        never drawn, at 1, 7 and 64 samples."""
        def by_stable_argsort(table, q_row, q_positions, column, n):
            cols = [j for j in np.argsort(table.id_rank).tolist() if j != q_row]
            inst_dist = distance_matrix(q_positions, table.positions)
            q_idx = np.zeros(n, dtype=np.int64) if q_row is None else column(q_row)
            dist = np.full((n, len(cols)), np.inf)
            for c, j in enumerate(cols):
                idx = column(j)
                dist[:, c] = np.where(idx < 0, np.inf, inst_dist[q_idx, table.first[j] + idx])
            top = np.argsort(dist, axis=1, kind="stable")[:, :1]
            member = np.zeros(dist.shape, dtype=bool)
            present = np.take_along_axis(np.isfinite(dist), top, axis=1)
            np.put_along_axis(member, top, present, axis=1)
            return member, cols

        rng = np.random.default_rng(17)
        kinds = set()
        for _ in range(60):
            objects = []
            for i in rng.permutation(int(rng.integers(1, 9))).tolist():
                m = int(rng.integers(1, 4))
                scale = 0.5 if rng.random() < 0.5 else 1.0
                specs = [(rng.integers(0, 3), rng.integers(0, 3), scale / m) for _ in range(m)]
                objects.append(make_object(f"O{i}", specs))
            db = UncertainDatabase(tuple(objects))
            queries = [(None, [(float(rng.integers(0, 3)), float(rng.integers(0, 3)))])]
            certain = [j for j, obj in enumerate(db.objects) if not obj.is_existentially_uncertain]
            if certain:
                j = int(rng.choice(certain))
                queries.append((j, [inst.position for inst in db.objects[j].instances]))
            for n in (1, 7, 64):
                X = sample_worlds(db, n, seed=int(rng.integers(1 << 30)))
                for q_row, positions in queries:
                    kinds.add((q_row is None, len(positions) > 1, n))
                    got = _sampled_members(db.table, q_row, positions, X._streams,
                                           range(len(db)), KnnPredicate(1))
                    want = by_stable_argsort(db.table, q_row, positions, X.column, n)
                    assert got[1] == want[1]
                    assert np.array_equal(got[0], want[0])
        assert {(False, True, n) for n in (1, 7, 64)} <= kinds  # multi-instance query objects
