"""Query engine: per-object probabilities, predicates, ranks."""

import math

import numpy as np
import pytest

from uncertain_spatial import (
    Instance,
    KnnPredicate,
    ProbabilisticPredicate,
    QueryPoint,
    RangePredicate,
    RangeQuery,
    UncertainDatabase,
    ValidationError,
    enumerate_worlds,
    generating_function,
    in_range_probability,
    knn_object_probability,
    object_based,
    poisson_binomial_recurrence,
    query_probability,
    range_count_distribution,
    rank_distribution,
)

from uncertain_spatial import queries
from uncertain_spatial.cli import main
from uncertain_spatial.queries import answer_objects, answer_range, object_probabilities

from conftest import FIXTURES, fixture_db, make_object, random_db, world_rank_of

Q0 = QueryPoint(0.0, 0.0)
RANGE100 = RangeQuery(Q0, 100.0)


class TestRangeProbability:
    def test_partially_inside(self, range_db):
        """Two of B's four positions fall inside the region, 0.1 + 0.2 in total."""
        assert in_range_probability(range_db["B"], RANGE100) == pytest.approx(0.3, abs=1e-12)

    def test_fully_outside(self, range_db):
        assert in_range_probability(range_db["E"], RANGE100) == 0.0

    def test_certain_inside(self, range_db):
        assert in_range_probability(range_db["A"], RANGE100) == 1.0

    def test_boundary_is_inclusive(self):
        obj = make_object("X", [(3, 4, 1.0)])
        assert in_range_probability(obj, RangeQuery(Q0, 5.0)) == 1.0
        assert in_range_probability(obj, RangeQuery(Q0, 4.999999)) == 0.0

    @pytest.mark.parametrize(
        "x, y, epsilon",
        [(0.3, 0.5, 0.58309518948453), (0.04, 0.49, 0.49162994213127414)],
    )
    def test_edge_follows_euclidean_distance(self, x, y, epsilon):
        """``np.hypot`` and ``math.hypot`` put these instances on opposite sides of the
        boundary; every range path agrees with ``in_range_probability``."""
        assert (np.hypot(x, y) <= epsilon) != (math.hypot(x, y) <= epsilon)
        db = UncertainDatabase((make_object("A", [(x, y, 0.5)]), make_object("B", [(x, y, 1.0)])))
        expected = {o.id: in_range_probability(o, RangeQuery(Q0, epsilon)) for o in db.objects}
        assert object_probabilities(db, Q0, RangePredicate(epsilon)) == expected
        cd = range_count_distribution(db, RangeQuery(Q0, epsilon))
        assert cd.mass[0] == (0.0 if expected["B"] else 1.0)


class TestCountDistribution:
    def test_fixture_distribution(self, range_db):
        cd = range_count_distribution(range_db, RANGE100)
        np.testing.assert_allclose(
            cd.mass, [0.0, 0.056, 0.542, 0.348, 0.054, 0.0, 0.0], atol=1e-9
        )

    def test_against_world_enumeration(self, range_db):
        """Exact oracle: probability of each in-range count over all worlds."""
        pred = RangePredicate(100.0)

        def count_is(k):
            def check(world):
                placements = {
                    obj.id: obj.instances[world.choices[obj.id]].position
                    for obj in range_db.objects
                    if world.choices[obj.id] is not None
                }
                return len(pred.evaluate(Q0.position, placements)) == k

            return check

        cd = range_count_distribution(range_db, RANGE100)
        for k in range(len(range_db) + 1):
            assert cd.mass[k] == pytest.approx(
                query_probability(range_db, count_is(k)), abs=1e-9
            )

    def test_empty_database(self):
        cd = range_count_distribution(UncertainDatabase(()), RANGE100)
        np.testing.assert_array_equal(cd.mass, [1.0])

    def test_all_certain_in_range(self):
        db = UncertainDatabase(
            tuple(make_object(f"O{i}", [(i, 0, 1.0)]) for i in range(4))
        )
        cd = range_count_distribution(db, RangeQuery(Q0, 10.0))
        np.testing.assert_allclose(cd.mass, [0, 0, 0, 0, 1.0], atol=1e-12)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            db = random_db(rng, max_objects=12, max_worlds=4000)
            eps = float(rng.uniform(0, 15))
            q = QueryPoint(rng.uniform(-10, 10), rng.uniform(-10, 10))
            cd = range_count_distribution(db, RangeQuery(q, eps))
            pred = RangePredicate(eps)
            for k in range(len(db) + 1):
                oracle = query_probability(
                    db,
                    lambda w, k=k: len(
                        pred.evaluate(
                            q.position,
                            {
                                o.id: o.instances[w.choices[o.id]].position
                                for o in db.objects
                                if w.choices[o.id] is not None
                            },
                        )
                    )
                    == k,
                )
                assert cd.mass[k] == pytest.approx(oracle, abs=1e-9)


class TestThresholdQuery:
    """Threshold selection as the CLI runs it: ``ProbabilisticPredicate.select`` over
    ``object_probabilities``."""

    def test_fixture_result(self, range_db):
        probs = object_probabilities(range_db, Q0, RangePredicate(100.0))
        res = ProbabilisticPredicate(kind="threshold", tau=0.5).select(probs)
        assert res.members == ("A", "D")

    def test_tau_zero_is_possibilistic(self, range_db):
        probs = object_probabilities(range_db, Q0, RangePredicate(100.0))
        res = ProbabilisticPredicate(kind="threshold", tau=0.0).select(probs)
        assert res.members == ("A", "B", "C", "D")

    def test_tau_one(self, range_db):
        probs = object_probabilities(range_db, Q0, RangePredicate(100.0))
        res = ProbabilisticPredicate(kind="threshold", tau=1.0).select(probs)
        assert res.members == ("A",)

    def test_knn_predicate_threshold(self, knn_db):
        probs = object_probabilities(knn_db, Q0, KnnPredicate(2))
        res = ProbabilisticPredicate(kind="threshold", tau=0.95).select(probs)
        assert res.members == ("C",)

    def test_antitone_in_tau(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            db = random_db(rng, max_objects=6)
            q = QueryPoint(rng.uniform(-10, 10), rng.uniform(-10, 10))
            probs = object_probabilities(db, q, RangePredicate(float(rng.uniform(0, 15))))
            taus = sorted(rng.uniform(0, 1, size=4))
            results = [
                set(ProbabilisticPredicate(kind="threshold", tau=t).select(probs)) for t in taus
            ]
            for lo, hi in zip(results, results[1:]):
                assert hi <= lo


class TestTopkPredicate:
    """Top-k selection as the CLI runs it: ``ProbabilisticPredicate.select`` over
    ``object_probabilities``; ``topk`` itself checks k against the database size."""

    def test_fixture_result(self, range_db):
        probs = object_probabilities(range_db, Q0, RangePredicate(100.0))
        res = ProbabilisticPredicate(kind="topk", k=3).select(probs)
        assert res.members == ("A", "B", "D")

    def test_k_equals_database_size(self, range_db):
        probs = object_probabilities(range_db, Q0, RangePredicate(100.0))
        res = ProbabilisticPredicate(kind="topk", k=len(range_db)).select(probs)
        assert res.members == range_db.object_ids

    def test_boundary_ties_are_included(self):
        db = UncertainDatabase(
            (
                make_object("A", [(1, 0, 0.5), (200, 0, 0.5)]),
                make_object("B", [(2, 0, 0.5), (300, 0, 0.5)]),
                make_object("C", [(400, 0, 1.0)]),
            )
        )
        probs = object_probabilities(db, Q0, RangePredicate(10.0))
        res = ProbabilisticPredicate(kind="topk", k=1).select(probs)
        assert res.members == ("A", "B")

    def test_structure_min_inside_max_outside(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            db = random_db(rng, max_objects=6)
            q = QueryPoint(rng.uniform(-10, 10), rng.uniform(-10, 10))
            pred = RangePredicate(float(rng.uniform(0, 15)))
            k = int(rng.integers(1, len(db) + 1))
            res = ProbabilisticPredicate(kind="topk", k=k).select(object_probabilities(db, q, pred))
            assert len(res) >= k
            probs = {
                o.id: in_range_probability(o, RangeQuery(q, pred.epsilon))
                for o in db.objects
            }
            inside = [probs[oid] for oid in res]
            outside = [probs[oid] for oid in probs if oid not in res]
            if outside:
                assert min(inside) >= max(outside) - 1e-12

    def test_k_out_of_range(self, capsys):
        with pytest.raises(ValidationError):
            ProbabilisticPredicate(kind="topk", k=0)
        argv = ["topk", "--dataset", str(FIXTURES / "range_demo.json"),
                "--query-x", "0", "--query-y", "0", "--epsilon", "100", "--k", "7"]
        assert main(argv) == 1
        assert capsys.readouterr().err == '{"error": "k must be within 1..6"}\n'


class TestKnnObjectProbability:
    def test_fixture_values(self, knn_db):
        for oid, expected in [("A", 0.1), ("B", 0.94), ("C", 0.96)]:
            assert knn_object_probability(knn_db, Q0, 2, oid) == pytest.approx(
                expected, abs=1e-12
            )

    def test_generating_function_kernel_agrees(self, knn_db):
        every = object_probabilities(knn_db, Q0, KnnPredicate(2), kernel=generating_function)
        for oid in "ABC":
            a = knn_object_probability(knn_db, Q0, 2, oid)
            assert a == pytest.approx(every[oid], abs=1e-12)

    def test_certain_object_with_enough_slots(self):
        db = UncertainDatabase(
            (
                make_object("A", [(1, 0, 1.0)]),
                make_object("B", [(2, 0, 0.6), (3, 0, 0.4)]),
                make_object("C", [(4, 0, 0.5)]),
            )
        )
        assert knn_object_probability(db, Q0, 3, "A") == 1.0

    def test_random_against_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            db = random_db(rng, max_objects=6)
            q = QueryPoint(rng.uniform(-10, 10), rng.uniform(-10, 10))
            k = int(rng.integers(1, len(db) + 1))
            oracle = object_based(db, q, KnnPredicate(k))
            for oid in db.object_ids:
                kernel_p = knn_object_probability(db, q, k, oid)
                assert kernel_p == pytest.approx(oracle[oid], abs=1e-9)

    def test_unknown_object_rejected(self, knn_db):
        with pytest.raises(KeyError):
            knn_object_probability(knn_db, Q0, 1, "nope")

    def test_query_object_rejected(self, consensus_db):
        with pytest.raises(ValidationError, match="'Q' is the query object"):
            knn_object_probability(consensus_db, "Q", 1, "Q")

    def test_zero_exactly_when_k_objects_are_certainly_closer(self):
        """C scores exactly 0.0 with two objects surely closer than both its instances and
        exactly 1.0 with three slots; the kNN engine calls no kernel on the way."""
        db = UncertainDatabase(
            (
                make_object("A", [(1, 0, 1.0)]),
                make_object("B", [(0, 2, 1.0)]),
                make_object("C", [(3, 0, 0.5), (0, 5, 0.5)]),
            )
        )

        def kernel(trials):
            raise AssertionError("the kNN engine called a kernel")

        assert knn_object_probability(db, Q0, 2, "C") == 0.0
        assert knn_object_probability(db, Q0, 3, "C") == 1.0
        assert object_probabilities(db, Q0, KnnPredicate(2), kernel) == {
            "A": 1.0, "B": 1.0, "C": 0.0
        }

    def test_equal_distances_break_by_object_id(self):
        """Two instances at identical distance rank by id, kernel and oracle alike."""
        db = UncertainDatabase(
            (
                make_object("A", [(1, 0, 0.5)]),
                make_object("B", [(0, 1, 1.0)]),
            )
        )
        oracle = object_based(db, Q0, KnnPredicate(1))
        assert oracle == {"A": 0.5, "B": 0.5}
        assert knn_object_probability(db, Q0, 1, "A") == pytest.approx(0.5, abs=1e-12)
        assert knn_object_probability(db, Q0, 1, "B") == pytest.approx(0.5, abs=1e-12)


class TestKnnBackends:
    def test_gf_and_pbr_name_one_truncated_fold(self):
        """kNN and top-k read the truncated recurrence whatever the kernel argument, so
        ``--backend gf`` answers them with ``pbr``'s floats; the generating function stays
        the independent kernel of rank and range."""
        db = fixture_db("clustered_demo.json")
        q = QueryPoint(600.0, 450.0)

        def kernel(trials):
            raise AssertionError("the kNN engine called a kernel")

        for k in (1, 5, 10):
            pbr = answer_objects(db, q, KnnPredicate(k), "pbr")
            assert answer_objects(db, q, KnnPredicate(k), "gf") == pbr
            assert object_probabilities(db, q, KnnPredicate(k), kernel) == pbr
            assert answer_objects(db, "o00032", KnnPredicate(k), "gf") == answer_objects(
                db, "o00032", KnnPredicate(k), "pbr"
            )
        with pytest.raises(AssertionError, match="called a kernel"):
            rank_distribution(db, q, "o00070", kernel)


class TestRankDistribution:
    def test_certain_singleton(self):
        db = UncertainDatabase((make_object("A", [(3, 0, 1.0)]),))
        cd = rank_distribution(db, Q0, "A")
        np.testing.assert_array_equal(cd.mass, [1.0])

    def test_fixture_rank_one(self, knn_db):
        """Object A is ranked first exactly when its near instance is drawn."""
        cd = rank_distribution(knn_db, Q0, "A")
        assert cd.mass[0] == pytest.approx(0.1, abs=1e-12)
        oracle = math.fsum(
            w.prob
            for w in enumerate_worlds(knn_db)
            if world_rank_of(knn_db, w, Q0.position, "A") == 1
        )
        assert cd.mass[0] == pytest.approx(oracle, abs=1e-12)

    def test_random_against_oracle(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            db = random_db(rng, max_objects=5)
            q = QueryPoint(rng.uniform(-10, 10), rng.uniform(-10, 10))
            oid = str(rng.choice(db.object_ids))
            cd = rank_distribution(db, q, oid)
            for rank in range(1, len(db) + 1):
                oracle = math.fsum(
                    w.prob
                    for w in enumerate_worlds(db)
                    if world_rank_of(db, w, q.position, oid) == rank
                )
                assert cd.mass[rank - 1] == pytest.approx(oracle, abs=1e-9)

    def test_mass_sums_to_existence(self):
        db = UncertainDatabase(
            (
                make_object("A", [(1, 0, 0.5), (2, 0, 0.4)]),
                make_object("B", [(3, 0, 1.0)]),
            )
        )
        cd = rank_distribution(db, Q0, "A")
        assert cd.total() == pytest.approx(0.9, abs=1e-9)

    def test_query_object_rejected(self, consensus_db):
        with pytest.raises(ValidationError, match="'Q' is the query object"):
            rank_distribution(consensus_db, "Q", "Q")


class TestDistanceTableBlocks:
    @pytest.mark.parametrize("block_instances", [1, 3])
    def test_block_size_does_not_change_results(self, block_instances, monkeypatch):
        """Target instances compared one or three at a time give the same floats."""
        db = fixture_db("clustered_demo.json")
        q = QueryPoint(600.0, 450.0)
        expected = object_probabilities(db, q, KnnPredicate(5))
        ranks = rank_distribution(db, q, "o00070").mass
        n_instances = sum(len(obj.instances) for obj in db.objects)
        monkeypatch.setattr(queries, "BLOCK_CELLS", block_instances * n_instances)
        assert object_probabilities(db, q, KnnPredicate(5)) == expected
        assert np.array_equal(rank_distribution(db, q, "o00070").mass, ranks)


class TestProbabilisticPredicate:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ProbabilisticPredicate(kind="threshold", tau=1.5)
        with pytest.raises(ValidationError):
            ProbabilisticPredicate(kind="topk", k=0)
        with pytest.raises(ValidationError):
            ProbabilisticPredicate(kind="nonsense")

    def test_possibilistic_selection(self):
        pred = ProbabilisticPredicate(kind="possibilistic")
        assert pred.select({"A": 0.2, "B": 0.0, "C": 1e-15}).members == ("A",)


class TestUncertainQuery:
    def test_threshold_with_query_object(self, consensus_db):
        """Per-object kNN probabilities mix over the query object's positions."""
        probs = object_probabilities(consensus_db, "Q", KnnPredicate(2))
        assert ProbabilisticPredicate(kind="threshold", tau=0.5).select(probs).members == ("C",)
        oracle = object_based(consensus_db, "Q", KnnPredicate(2))
        for oid in oracle:
            assert knn_object_probability(consensus_db, "Q", 2, oid) == pytest.approx(
                oracle[oid], abs=1e-9
            )


class TestDegenerateDatabases:
    @pytest.mark.parametrize("backend", ["pbr", "gf", "exact", "sampled"])
    def test_empty_database(self, backend):
        db = UncertainDatabase(())
        assert answer_objects(db, Q0, KnnPredicate(1), backend) == {}
        probs, counts = answer_range(db, Q0, 1.0, backend)
        assert probs == {} and counts.mass.tolist() == [1.0]

    @pytest.mark.parametrize("backend", ["pbr", "gf", "exact", "sampled"])
    def test_query_object_is_the_only_object(self, backend):
        db = UncertainDatabase((make_object("Q", [(0, 0, 0.5), (1, 0, 0.5)]),))
        assert answer_objects(db, "Q", KnnPredicate(1), backend) == {}
        probs, counts = answer_range(db, "Q", 1.0, backend)
        assert probs == {} and counts.mass.tolist() == [1.0]

    @pytest.mark.parametrize("backend", ["pbr", "gf"])
    def test_load_and_range_build_no_instance(self, backend, monkeypatch):
        """The loader fills the instance table and range reads it; no ``Instance`` is made."""
        built = []
        check = Instance.__post_init__
        monkeypatch.setattr(Instance, "__post_init__", lambda i: built.append(i) or check(i))
        db = fixture_db("clustered_demo.json")
        probs, _ = answer_range(db, QueryPoint(600.0, 450.0), 50.0, backend)
        assert built == [] and len(probs) == len(db)
        db["o00001"]  # a lookup builds that one object only
        assert [inst.object_id for inst in built] == ["o00001"] * len(db["o00001"].instances)

    def test_one_instance_objects(self):
        db = UncertainDatabase(tuple(make_object(f"O{i}", [(i, 0, 1.0)]) for i in range(4)))
        assert object_probabilities(db, Q0, KnnPredicate(2)) == {
            "O0": 1.0, "O1": 1.0, "O2": 0.0, "O3": 0.0
        }
        assert rank_distribution(db, Q0, "O2").mass.tolist() == [0.0, 0.0, 1.0, 0.0]
