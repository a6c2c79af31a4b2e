"""Dataset model: validation, serialization round-trips, distance metric."""

import gc
import json
import math

import numpy as np
import pytest

from uncertain_spatial import (
    QueryPoint,
    UncertainDatabase,
    ValidationError,
    euclidean_distance,
    loads_database,
)

from uncertain_spatial import model
from uncertain_spatial.model import PROB_TOL, InstanceTable, distance_matrix, parse_json

from conftest import FIXTURES, make_object, random_db


class TestLoading:
    def test_worlds_demo_existence(self, worlds_db):
        """U2's instance probabilities sum to 0.9, leaving 0.1 absence mass."""
        u2 = worlds_db["U2"]
        assert u2.is_existentially_uncertain
        assert abs(u2.absence_prob - 0.1) < 1e-12
        assert not worlds_db["U1"].is_existentially_uncertain

    def test_certain_single_instance(self):
        db = loads_database('{"objects":[{"id":"A","instances":[{"x":0,"y":0,"p":1.0}]}]}')
        assert db["A"].absence_prob == 0.0
        assert not db["A"].is_existentially_uncertain

    def test_order_preserved(self, range_db):
        assert range_db.object_ids == ("A", "B", "C", "D", "E", "F")
        assert [i.index for i in range_db["B"].instances] == [0, 1, 2, 3]

    def test_lookup_by_id(self, range_db):
        assert [range_db.index(oid) for oid in range_db.object_ids] == list(range(6))
        assert "C" in range_db and "Z" not in range_db
        rest = range_db.without("C")
        assert rest.object_ids == ("A", "B", "D", "E", "F")
        assert rest.index("D") == 2 and rest["D"] is range_db["D"]
        assert type(range_db)(range_db.objects) == range_db
        assert hash(type(range_db)(range_db.objects)) == hash(range_db)
        for lookup in (range_db.__getitem__, range_db.index, range_db.without):
            with pytest.raises(KeyError):
                lookup("Z")

    def test_prob_sum_above_one_rejected(self):
        doc = '{"objects":[{"id":"X","instances":[{"x":0,"y":0,"p":0.7},{"x":1,"y":0,"p":0.5}]}]}'
        with pytest.raises(ValidationError, match="X"):
            loads_database(doc)

    def test_nonpositive_prob_rejected(self):
        doc = '{"objects":[{"id":"Y","instances":[{"x":0,"y":0,"p":0.0}]}]}'
        with pytest.raises(ValidationError, match="Y"):
            loads_database(doc)

    def test_duplicate_id_rejected(self):
        doc = (
            '{"objects":[{"id":"Z","instances":[{"x":0,"y":0,"p":0.5}]},'
            '{"id":"Z","instances":[{"x":1,"y":0,"p":0.5}]}]}'
        )
        with pytest.raises(ValidationError, match="Z"):
            loads_database(doc)

    def test_malformed_json_rejected(self):
        with pytest.raises(ValidationError, match="JSON"):
            loads_database("{not json")

    def test_non_finite_coordinates_rejected(self):
        doc = '{"objects":[{"id":"N","instances":[{"x":1e999,"y":0,"p":0.5}]}]}'
        with pytest.raises(ValidationError, match="N"):
            loads_database(doc)

    def test_empty_instances_rejected(self):
        with pytest.raises(ValidationError):
            loads_database('{"objects":[{"id":"E","instances":[]}]}')

    @pytest.mark.parametrize("name", ["worlds_demo.json", "range_demo.json", "clustered_demo.json"])
    def test_flagged_valid_file_is_reread_into_the_same_database(self, name, monkeypatch):
        """When a screen flags records that the per-record reader accepts, the re-read
        builds the database the screened path builds."""
        records = json.loads((FIXTURES / name).read_text())["objects"]
        screened = model.database_from_dicts(records)
        monkeypatch.setattr(model, "_screened", lambda records: None)
        reread = model.database_from_dicts(records)
        assert reread.object_ids == screened.object_ids
        assert reread.table == screened.table


class TestParseJson:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_paused_while_parsing_and_restored(self, enabled, monkeypatch):
        seen = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text: seen.append(gc.isenabled()) or loads(text))
        (gc.enable if enabled else gc.disable)()
        try:
            assert parse_json('{"objects": []}', "dataset") == {"objects": []}
            with pytest.raises(ValidationError, match="^malformed dataset JSON: Expecting"):
                parse_json("{", "dataset")
            assert gc.isenabled() == enabled
        finally:
            gc.enable()
        assert seen == [False, False]

    def test_too_deep_nesting_is_malformed(self):
        with pytest.raises(ValidationError, match="^malformed config JSON: "):
            parse_json("[" * 100000, "config")


def dumps_database(db: UncertainDatabase) -> str:
    """The database in the dataset JSON format; ``json.dumps`` writes each float so that it
    reloads bit for bit."""
    objects = [
        {"id": obj.id, "instances": [
            {"x": inst.position[0], "y": inst.position[1], "p": inst.prob}
            for inst in obj.instances
        ]}
        for obj in db.objects
    ]
    return json.dumps({"objects": objects}, separators=(",", ":"))


class TestSerialization:
    def test_round_trip_is_bit_identical(self, worlds_db, range_db, knn_db):
        for db in (worlds_db, range_db, knn_db):
            text = dumps_database(db)
            again = dumps_database(loads_database(text))
            assert text == again

    def test_round_trip_random(self):
        rng = np.random.default_rng(20240811)
        for _ in range(25):
            db = random_db(rng)
            text = dumps_database(db)
            reloaded = loads_database(text)
            assert dumps_database(reloaded) == text
            for a, b in zip(db.objects, reloaded.objects):
                assert a == b

    def test_emitted_shape_matches_interface(self, knn_db):
        doc = json.loads(dumps_database(knn_db))
        inst = doc["objects"][0]["instances"][0]
        assert set(inst) == {"x", "y", "p"}


class TestDistance:
    @pytest.mark.parametrize(
        "a,b,expected",
        [((0, 0), (3, 4), 5.0), ((1, 1), (1, 1), 0.0), ((0, 0), (1, 0), 1.0)],
    )
    def test_known_values(self, a, b, expected):
        assert euclidean_distance(a, b) == expected

    def test_metric_axioms(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-50, 50, size=(300, 3, 2))
        for a, b, c in pts:
            dab = euclidean_distance(a, b)
            assert dab >= 0.0
            assert dab == euclidean_distance(b, a)
            assert euclidean_distance(a, a) == 0.0
            assert euclidean_distance(a, c) <= dab + euclidean_distance(b, c) + 1e-12

    def test_query_point_requires_finite(self):
        with pytest.raises(ValidationError):
            QueryPoint(math.nan, 0.0)


class TestInstanceTable:
    def test_layout(self):
        """Instances flat in database and file order; id ranks and certainty per object."""
        db = UncertainDatabase((
            make_object("B", [(0, 0, 0.5), (3, 4, 0.25)]),
            make_object("A", [(1, 2, 1.0)]),
            make_object("C", [(5, 6, 0.5), (7, 8, 0.5)]),
        ))
        t = db.table
        assert t.positions.tolist() == [[0, 0], [3, 4], [1, 2], [5, 6], [7, 8]]
        assert t.prob.tolist() == [0.5, 0.25, 1.0, 0.5, 0.5]
        assert t.owner.tolist() == [0, 0, 1, 2, 2]
        assert t.first.tolist() == [0, 2, 3, 5]
        assert t.id_rank.tolist() == [1, 0, 2]
        assert t.certain.tolist() == [False, True, True]
        assert db.table is t  # built once

    def test_of_matches_the_build_from_objects(self):
        """``InstanceTable.of`` gives the arrays once built from the ``Instance`` objects."""

        def from_objects(db):
            objs = db.objects
            sizes = [len(obj.instances) for obj in objs]
            flat = [inst for obj in objs for inst in obj.instances]
            id_rank = np.empty(len(objs), dtype=np.int64)
            id_rank[sorted(range(len(objs)), key=lambda j: objs[j].id)] = np.arange(len(objs))
            return InstanceTable(
                positions=np.array([i.position for i in flat], dtype=float).reshape(-1, 2),
                prob=np.array([i.prob for i in flat], dtype=float),
                owner=np.repeat(np.arange(len(objs)), sizes),
                first=np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))),
                id_rank=id_rank,
                certain=np.array([not o.is_existentially_uncertain for o in objs], dtype=bool),
            )

        rng = np.random.default_rng(9)
        edges = [  # certain within the tolerance, and just outside it
            make_object("edge-in", [(0, 0, 0.5), (1, 1, 0.5 - PROB_TOL / 2)]),
            make_object("edge-out", [(2, 2, 1.0 - 2 * PROB_TOL)]),
        ]
        dbs = [UncertainDatabase(())]
        for _ in range(20):
            objs = list(random_db(rng).objects) + edges
            dbs.append(UncertainDatabase(tuple(objs[i] for i in rng.permutation(len(objs)))))
        for db in dbs:
            got, want = db.table, from_objects(db)
            for name in ("positions", "prob", "owner", "first", "id_rank", "certain"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert np.array_equal(a, b), name

    def test_empty_database(self):
        t = UncertainDatabase(()).table
        assert t.positions.shape == (0, 2)
        assert t.prob.size == t.owner.size == t.id_rank.size == t.certain.size == 0
        assert t.first.tolist() == [0]
        assert distance_matrix([(1.0, 1.0)], t.positions).shape == (1, 0)

    def test_distance_matrix_matches_euclidean_distance(self):
        db = random_db(np.random.default_rng(8))
        points = [(0.1, -3.0), (7.5, 2.25)]
        got = distance_matrix(points, db.table.positions)
        flat = [inst.position for obj in db.objects for inst in obj.instances]
        assert got.tolist() == [[euclidean_distance(p, q) for q in flat] for p in points]
