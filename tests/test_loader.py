"""The columnar loader: errors as a record-by-record loader gives them, and the table it fills.

``database_from_dicts`` reads the parsed records straight into the instance table and
checks them with vector screens.  ``_reference_load`` below is the record-by-record
loader it replaced: one ``Instance`` per instance record and one ``UncertainObject`` per
object record, in file order, then the duplicate-id check.  Whatever the records hold,
both must accept the same records and raise the same message.
"""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from uncertain_spatial import Instance, UncertainDatabase, UncertainObject  # noqa: E402
from uncertain_spatial.model import (  # noqa: E402
    PROB_TOL,
    InstanceTable,
    ValidationError,
    database_from_dicts,
    json_xyp,
)

from conftest import make_object, random_db  # noqa: E402

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _reference_load(records):
    """The record-by-record loader: its objects, or the ``ValidationError`` it raises."""
    built = []
    for rec in records:
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
    seen = set()
    for obj in built:
        if obj.id in seen:
            raise ValidationError(f"duplicate object id {obj.id!r}")
        seen.add(obj.id)
    return tuple(built)


def _outcome(load, records):
    """``("ok", result)`` or ``("error", message)`` of one load of a fresh copy."""
    try:
        return "ok", load(copy.deepcopy(records))
    except ValidationError as exc:
        return "error", str(exc)


def _table_of(objects):
    ids = [obj.id for obj in objects]
    return InstanceTable.of(ids, [[(i.position, i.prob) for i in obj.instances] for obj in objects])


def _assert_loads_alike(records):
    got, want = _outcome(database_from_dicts, records), _outcome(_reference_load, records)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return None
    db, objects = got[1], want[1]
    assert db.table == _table_of(objects)
    assert db.objects == objects  # built lazily from the table
    assert db.table == _table_of(db.objects)
    assert db.table.certain.tolist() == [not o.is_existentially_uncertain for o in objects]
    return db


FAULTS = (
    "non-finite", "p<=0", "p>1", "sum>1", "not-a-number", "missing-key",
    "missing-field", "empty", "duplicate-id", "id-not-str", "instances-not-list", "overflow",
    "sum-overflows",
)


def _corrupt(draw, records, k, fault):
    """Put one fault into record k (at a drawn instance where the fault sits in one)."""
    rec = records[k]
    insts = rec["instances"]
    inst = insts[draw(st.integers(0, len(insts) - 1))]
    if fault == "non-finite":
        inst[draw(st.sampled_from("xy"))] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    elif fault == "p<=0":
        inst["p"] = draw(st.sampled_from([0.0, -0.0, -0.25, math.nan]))
    elif fault == "p>1":
        inst["p"] = draw(st.sampled_from([1.5, 1.0 + 2 * PROB_TOL, math.inf]))
    elif fault == "sum>1":
        insts.insert(draw(st.integers(0, len(insts))), {"x": 0, "y": 0, "p": 1.0})
    elif fault == "not-a-number":
        value = draw(st.sampled_from([True, False, "1", "0.5", None, []]))
        inst[draw(st.sampled_from("xyp"))] = value
    elif fault == "missing-key":
        del inst[draw(st.sampled_from("xyp"))]
    elif fault == "missing-field":
        del rec[draw(st.sampled_from(["id", "instances"]))]
    elif fault == "empty":
        rec["instances"] = []
    elif fault == "duplicate-id":
        other = records[draw(st.sampled_from([j for j in range(len(records)) if j != k]))]
        rec["id"] = other.get("id", "A")
    elif fault == "id-not-str":
        rec["id"] = draw(st.sampled_from([7, None, ["a"]]))
    elif fault == "instances-not-list":
        rec["instances"] = draw(st.sampled_from([{"x": 0, "y": 0, "p": 1.0}, "0", 1]))
    elif fault == "overflow":
        inst[draw(st.sampled_from("xyp"))] = 10**400
    else:
        big = draw(st.sampled_from([1e308, -1e308]))
        rec["instances"] = [{"x": 0, "y": 0, "p": big}, *insts, {"x": 1, "y": 1, "p": big}]


@st.composite
def corrupted(draw):
    """A fixture's object records with one to three faults, each in a different record."""
    fixture = draw(st.sampled_from(["range_demo.json", "knn_demo.json", "worlds_demo.json"]))
    records = json.loads((FIXTURES / fixture).read_text())["objects"]
    targets = draw(st.lists(st.integers(0, len(records) - 1), min_size=1, max_size=3, unique=True))
    for k in targets:
        _corrupt(draw, records, k, draw(st.sampled_from(FAULTS)))
    return records


@settings(max_examples=400, deadline=None)
@given(corrupted())
def test_faults_raise_what_the_record_by_record_loader_raises(records):
    _assert_loads_alike(records)


#: Per-object sums at and next to both edges of the tolerance.
EDGE_TOTALS = [
    1.0, 0.6, 1.0 - PROB_TOL, 1.0 + PROB_TOL,
    math.nextafter(1.0 - PROB_TOL, 0.0), math.nextafter(1.0 - PROB_TOL, 2.0),
    math.nextafter(1.0 + PROB_TOL, 0.0), math.nextafter(1.0 + PROB_TOL, 2.0),
]


@st.composite
def records_near_the_edges(draw):
    """Valid-looking records whose probability sums sit at 1 ± PROB_TOL, integers included."""
    records = []
    for i in range(draw(st.integers(0, 6))):
        head = draw(st.lists(st.sampled_from([0.05, 0.1, 0.2, 1 / 7]), max_size=3))
        total = draw(st.sampled_from(EDGE_TOTALS))
        probs = head + [total - math.fsum(head)]
        if draw(st.booleans()):
            probs.reverse()
        coord = st.integers(-3, 3) | st.floats(-1e6, 1e6, allow_nan=False)
        instances = [{"x": draw(coord), "y": draw(coord), "p": p} for p in probs]
        records.append({"id": f"o{draw(st.integers(0, 9))}", "instances": instances})
    return records


@settings(max_examples=400, deadline=None)
@given(records_near_the_edges())
def test_loaded_table_is_the_table_of_its_objects(records):
    """The loader's table equals ``InstanceTable.of`` of the objects it builds lazily."""
    _assert_loads_alike(records)


def test_one_hundred_objects_load_alike():
    records = json.loads((FIXTURES / "clustered_demo.json").read_text())["objects"]
    db = _assert_loads_alike(records)
    assert len(db) == 100


@pytest.mark.parametrize("edge, share", [(1.0 - PROB_TOL, 0.5), (1.0 + PROB_TOL, 0.6)])
def test_sum_screen_defers_to_fsum_at_the_edge(edge, share):
    """Three terms whose sum in order lands across an edge from their exact sum.

    Below 1 - PROB_TOL in order but not exactly, the object is certain; above
    1 + PROB_TOL in order but not exactly, it loads (and is certain).
    """
    tail = share * math.ulp(edge)
    probs = [math.nextafter(edge, 0.0), tail, tail]
    in_order = 0.0
    for p in probs:
        in_order += p
    assert (in_order < edge <= math.fsum(probs)) or (math.fsum(probs) <= edge < in_order)
    records = [{"id": "a", "instances": [{"x": i, "y": 0, "p": p} for i, p in enumerate(probs)]}]
    db = _assert_loads_alike(records)
    assert db.table.certain.tolist() == [True]


class TestWithout:
    def test_without_slices_the_table(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            db = random_db(rng)
            for oid in db.object_ids:
                rest = db.without(oid)
                kept = [obj for obj in db.objects if obj.id != oid]
                assert rest.table == _table_of(kept)
                assert rest == UncertainDatabase(tuple(kept))
                assert rest.objects == tuple(kept)

    def test_without_the_only_object(self):
        db = UncertainDatabase((make_object("A", [(0, 0, 0.5), (1, 1, 0.5)]),))
        assert db.without("A").table == UncertainDatabase(()).table
