"""The trajectory loader: errors as a record-by-record loader gives them, and the tables it fills.

``_reference_load`` below is the record-by-record trajectory loader: each record parsed and
checked in file order (the query first), then the dataset's checks on its ids and timestamps.
Whatever a document holds, ``loads_trajectory_dataset`` must accept the same documents, raise
the same exception with the same message, and fill per-timestamp tables equal to the ones the
reference's trajectories give.
"""

import copy
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from uncertain_spatial import loads_trajectory_dataset, trajectories  # noqa: E402
from uncertain_spatial.model import PROB_TOL, InstanceTable, ValidationError, json_xyp  # noqa: E402

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TRAJECTORY_FIXTURES = ("pcnn_demo.json", "pcnn_certain.json", "pcnn_wide.json", "pcnn_shadow.json")


def _reference_trajectory(record):
    """One record as ``(id, {timestamp: ((position, p), ...)})``, checked alternative by
    alternative."""
    try:
        tid = record["id"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"trajectory record has no id: {record!r:.40}") from exc
    if not isinstance(tid, str):
        raise ValidationError(f"trajectory id {tid!r} is not a string")
    try:
        raw = record["per_timestamp"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"trajectory {tid!r} missing per_timestamp") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"trajectory {tid!r}: per_timestamp must be an object")
    per = {}
    for key, alts in raw.items():
        try:
            t = int(key)
        except ValueError:
            t = None
        if t is None or str(t) != key:
            raise ValidationError(f"trajectory {tid!r}: bad timestamp key {key!r}")
        try:
            per[t] = tuple(((x, y), p) for x, y, p in map(json_xyp, alts))
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValidationError(
                f"trajectory {tid!r}: malformed alternative at timestamp {key}") from exc
    for t, alts in per.items():
        if not alts:
            raise ValidationError(f"trajectory {tid!r}: timestamp {t} has no alternatives")
        total = math.fsum(p for _, p in alts)
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(
                f"trajectory {tid!r}: probabilities at timestamp {t} sum to {total}, expected 1")
        for pos, p in alts:
            if not (p > 0.0):
                raise ValidationError(
                    f"trajectory {tid!r}: non-positive probability at timestamp {t}")
            if not all(math.isfinite(c) for c in pos):
                raise ValidationError(f"trajectory {tid!r}: non-finite position at timestamp {t}")
    return tid, per


def _reference_load(text):
    """The sorted timestamps and the ``(id, per_timestamp)`` rows, query first, or the error."""
    doc = json.loads(text)
    try:
        timestamps = doc["timestamps"]
        query_rec = doc["query"]
        object_recs = doc["objects"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"trajectory dataset missing field: {exc}") from exc
    if not isinstance(timestamps, list) or any(type(t) is not int for t in timestamps):
        raise ValidationError('trajectory dataset "timestamps" must be an array of integers')
    if not isinstance(object_recs, list):
        raise ValidationError('trajectory dataset "objects" must be an array')
    rows = [_reference_trajectory(query_rec)] + [_reference_trajectory(r) for r in object_recs]
    domain = tuple(sorted(timestamps))
    if not domain:
        raise ValidationError("trajectory dataset has no timestamps")
    seen = set()
    for tid, _ in rows:
        if tid in seen:
            raise ValidationError(f"duplicate trajectory id {tid!r}")
        seen.add(tid)
    repeated = sorted({a for a, b in zip(domain, domain[1:]) if a == b})
    if repeated:
        raise ValidationError(f"trajectory dataset repeats timestamps {repeated}")
    for tid, per in rows:
        if tuple(sorted(per)) != domain:
            raise ValidationError(f"trajectory {tid!r} does not cover the shared timestamp domain")
    return domain, rows


def _outcome(load, text):
    """``("ok", result)`` or the error's type and message, as the CLI would report it."""
    try:
        return "ok", load(text)
    except (ValidationError, ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


def _assert_loads_alike(text):
    got, want = _outcome(loads_trajectory_dataset, text), _outcome(_reference_load, text)
    assert got[0] == want[0], (got, want)
    if got[0] != "ok":
        assert got[1] == want[1]
        return None
    ds, (domain, rows) = got[1], want[1]
    assert "query" not in vars(ds)  # a valid document fills the tables with no re-read
    ids = tuple(tid for tid, _ in rows)
    assert ds.timestamps == domain
    assert (ds.query.id, *ds.object_ids) == ids
    for t in domain:
        assert ds.tables[t] == InstanceTable.of(ids, [per[t] for _, per in rows])
    # the trajectories, built from the tables on first use, hold the same alternatives
    assert [(tr.id, tr.per_timestamp) for tr in (ds.query, *ds.objects)] == rows
    return ds


def _records(doc):
    return [doc["query"], *doc["objects"]]


def _alternative(draw, rec):
    alts = draw(st.sampled_from(list(rec["per_timestamp"].values())))
    return alts[draw(st.integers(0, len(alts) - 1))]


FAULTS = (
    "not-a-number", "nan", "inf", "huge", "overflow", "p<=0", "sum", "key-form",
    "missing-timestamp", "extra-timestamp", "empty", "duplicate-id", "id-not-str",
    "missing-field", "per-not-dict", "alts-not-list", "alt-not-dict", "alt-missing-key",
    "record-not-dict",
)
DOC_FAULTS = (
    "timestamps-repeat", "timestamps-not-int", "timestamps-empty", "objects-not-list",
    "missing-top", "doc-not-dict", "huge-pair",
)


def _corrupt(draw, doc, k, fault):
    """Put one fault into record k (the query is record 0)."""
    rec = _records(doc)[k]
    per = rec["per_timestamp"]
    key = draw(st.sampled_from(sorted(per)))
    alt = _alternative(draw, rec)
    if fault == "not-a-number":
        alt[draw(st.sampled_from("xyp"))] = draw(st.sampled_from([True, False, "1", None, []]))
    elif fault == "nan":
        alt[draw(st.sampled_from("xyp"))] = math.nan
    elif fault == "inf":
        alt[draw(st.sampled_from("xyp"))] = draw(st.sampled_from([math.inf, -math.inf]))
    elif fault == "huge":
        alt[draw(st.sampled_from("xyp"))] = draw(st.sampled_from([1e308, -1e308]))
    elif fault == "overflow":
        alt[draw(st.sampled_from("xyp"))] = draw(st.sampled_from([10**400, -(10**400)]))
    elif fault == "p<=0":
        alt["p"] = draw(st.sampled_from([0, 0.0, -0.0, -0.25]))
    elif fault == "sum":
        alt["p"] += draw(st.sampled_from([2e-9, -2e-9, 1e-9, -1e-9, 0.5e-9, -0.5e-9]))
    elif fault == "key-form":
        per[draw(st.sampled_from(["0" + key, " " + key, "+" + key, key + ".0", "x"]))] = per.pop(key)
    elif fault == "missing-timestamp":
        del per[key]
    elif fault == "extra-timestamp":
        per[str(max(map(int, per)) + draw(st.integers(1, 2)))] = copy.deepcopy(per[key])
    elif fault == "empty":
        per[key] = draw(st.sampled_from([[], {}, ""]))
    elif fault == "duplicate-id":
        others = [r.get("id") for r in _records(doc) if isinstance(r, dict) and r is not rec]
        rec["id"] = draw(st.sampled_from(others or ["q"]))
    elif fault == "id-not-str":
        rec["id"] = draw(st.sampled_from([7, None, ["a"]]))
    elif fault == "missing-field":
        del rec[draw(st.sampled_from(["id", "per_timestamp"]))]
    elif fault == "per-not-dict":
        rec["per_timestamp"] = draw(st.sampled_from([[], "0", 1]))
    elif fault == "alts-not-list":
        per[key] = draw(st.sampled_from([{"x": 0, "y": 0, "p": 1.0}, "0", 1, None]))
    elif fault == "alt-not-dict":
        alts = per[key]
        alts[draw(st.integers(0, len(alts) - 1))] = draw(st.sampled_from([[0, 0, 1.0], None, "x"]))
    elif fault == "alt-missing-key":
        del alt[draw(st.sampled_from("xyp"))]
    else:
        replacement = draw(st.sampled_from(["q", None, [], 3]))
        if k == 0:
            doc["query"] = replacement
        else:
            doc["objects"][k - 1] = replacement


def _corrupt_doc(draw, doc, fault):
    timestamps = doc["timestamps"]
    if fault == "timestamps-repeat":
        timestamps.append(draw(st.sampled_from(timestamps)))
    elif fault == "timestamps-not-int":
        timestamps[draw(st.integers(0, len(timestamps) - 1))] = draw(
            st.sampled_from([True, 1.0, "1", None]))
    elif fault == "timestamps-empty":
        doc["timestamps"] = []
    elif fault == "objects-not-list":
        doc["objects"] = draw(st.sampled_from([{}, "o1", None]))
    elif fault == "missing-top":
        del doc[draw(st.sampled_from(["timestamps", "query", "objects"]))]
    elif fault == "doc-not-dict":
        return draw(st.sampled_from([[], "x", 1, None]))
    else:  # two probabilities of 1e308, or inf and -inf, at one timestamp of an intact record
        pers = [r["per_timestamp"] for r in _records(doc)
                if isinstance(r, dict) and isinstance(r.get("per_timestamp"), dict)]
        if pers:
            per = draw(st.sampled_from(pers))
            pair = draw(st.sampled_from([(1e308, 1e308), (math.inf, -math.inf)]))
            per[draw(st.sampled_from(sorted(per)))] = [{"x": 0, "y": 0, "p": p} for p in pair]
    return doc


@st.composite
def corrupted(draw):
    """A fixture's document with one to three faults, each in a different record, and
    sometimes one more in the document's top level."""
    doc = json.loads((FIXTURES / draw(st.sampled_from(TRAJECTORY_FIXTURES))).read_text())
    n = len(_records(doc))
    targets = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    for k in targets:
        if isinstance(_records(doc)[k], dict):
            _corrupt(draw, doc, k, draw(st.sampled_from(FAULTS)))
    if draw(st.integers(0, 3)) == 0:
        doc = _corrupt_doc(draw, doc, draw(st.sampled_from(DOC_FAULTS)))
    return json.dumps(doc)


@settings(max_examples=500, deadline=None)
@given(corrupted())
def test_faults_raise_what_the_record_by_record_loader_raises(text):
    _assert_loads_alike(text)


#: Per-timestamp sums at and next to both edges of the tolerance.
EDGE_TOTALS = [
    1.0, 1.0 - PROB_TOL, 1.0 + PROB_TOL, 1.0 - 2 * PROB_TOL, 1.0 + 2 * PROB_TOL,
    math.nextafter(1.0 - PROB_TOL, 0.0), math.nextafter(1.0 - PROB_TOL, 2.0),
    math.nextafter(1.0 + PROB_TOL, 0.0), math.nextafter(1.0 + PROB_TOL, 2.0),
]


@st.composite
def documents_near_the_edges(draw):
    """Valid-looking documents whose per-timestamp sums sit at 1 ± PROB_TOL, with integer
    coordinates and timestamps in any order."""
    timestamps = draw(st.lists(st.integers(-5, 40), min_size=1, max_size=4, unique=True))
    coord = st.integers(-3, 3) | st.floats(-1e6, 1e6, allow_nan=False)

    def record(tid):
        per = {}
        for t in draw(st.permutations(timestamps)):
            head = draw(st.lists(st.sampled_from([0.05, 0.1, 0.2, 1 / 7, 1 / 3]), max_size=4))
            probs = head + [draw(st.sampled_from(EDGE_TOTALS)) - math.fsum(head)]
            if draw(st.booleans()):
                probs.reverse()
            per[str(t)] = [{"x": draw(coord), "y": draw(coord), "p": p} for p in probs]
        return {"id": tid, "per_timestamp": per}

    ids = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "q"]), min_size=1, max_size=5))
    return json.dumps({"timestamps": timestamps, "query": record(ids[0]),
                       "objects": [record(tid) for tid in ids[1:]]})


@settings(max_examples=300, deadline=None)
@given(documents_near_the_edges())
def test_sums_at_the_tolerance_edges_load_alike(text):
    _assert_loads_alike(text)


@pytest.mark.parametrize("edge, loads", [(1.0 - PROB_TOL, True), (1.0 + PROB_TOL, False)])
def test_sum_screen_decides_as_fsum_at_the_edge(edge, loads):
    """Three probabilities whose sum in order lands on the other side of an edge than their
    exact sum: just outside 1 - PROB_TOL in order but inside exactly, the document loads;
    just inside 1 + PROB_TOL in order but outside exactly, it does not."""
    base = math.nextafter(edge, 0.0)
    tail = 0.4 * math.ulp(base)
    probs = [base, tail, tail]
    in_order = 0.0
    for p in probs:
        in_order += p
    assert (abs(math.fsum(probs) - 1.0) <= PROB_TOL) == loads
    assert (abs(in_order - 1.0) <= PROB_TOL) != loads
    alts = [{"x": i, "y": 0, "p": p} for i, p in enumerate(probs)]
    doc = {"timestamps": [0], "query": {"id": "q", "per_timestamp": {"0": alts}},
           "objects": [{"id": "o", "per_timestamp": {"0": [{"x": 1, "y": 1, "p": 1}]}}]}
    assert (_assert_loads_alike(json.dumps(doc)) is not None) == loads


@pytest.mark.parametrize("fixture", TRAJECTORY_FIXTURES)
def test_fixtures_load_alike(fixture):
    assert _assert_loads_alike((FIXTURES / fixture).read_text()) is not None


@pytest.mark.parametrize("fixture", TRAJECTORY_FIXTURES)
def test_flagged_valid_file_is_reread_into_the_same_dataset(fixture, monkeypatch):
    """A valid document that a screen flags is re-read record by record into an equal dataset,
    its trajectories built first and its tables from them."""
    text = (FIXTURES / fixture).read_text()
    screened = loads_trajectory_dataset(text)
    assert "query" not in vars(screened)  # no trajectory is built on a clean file
    monkeypatch.setattr(trajectories, "_screened_dataset", lambda doc: None)
    reread = loads_trajectory_dataset(text)
    assert "query" in vars(reread)
    assert reread == screened  # the same timestamps, ids and tables
    assert (reread.query, reread.objects) == (screened.query, screened.objects)


def _from_arrays_tables(doc):
    """Per timestamp, ``InstanceTable.from_arrays`` over the records' raw values, query first."""
    records = _records(doc)
    ids = [rec["id"] for rec in records]
    tables = {}
    for t in sorted(doc["timestamps"]):
        alts = [rec["per_timestamp"][str(t)] for rec in records]
        flat = [json_xyp(alt) for block in alts for alt in block]
        tables[t] = InstanceTable.from_arrays(
            ids, np.array([(x, y) for x, y, _ in flat], dtype=float).reshape(-1, 2),
            np.array([p for _, _, p in flat], dtype=float), [len(block) for block in alts])
    return tables


EDGE_DOC = {  # ids out of order; sums at 1 - PROB_TOL and just inside 1 + PROB_TOL
    "timestamps": [3, 1],
    "query": {"id": "q", "per_timestamp": {
        "1": [{"x": 0, "y": 0, "p": 1.0 - PROB_TOL}],
        "3": [{"x": 1, "y": 0, "p": 0.5}, {"x": 0, "y": 2, "p": 0.5}]}},
    "objects": [
        {"id": "b", "per_timestamp": {
            "1": [{"x": 2, "y": 1, "p": 0.25}, {"x": 3, "y": 1, "p": 0.75}],
            "3": [{"x": 2, "y": 2, "p": math.nextafter(1.0 + PROB_TOL, 0.0)}]}},
        {"id": "a", "per_timestamp": {
            "1": [{"x": 5, "y": 5, "p": math.nextafter(1.0 - PROB_TOL, 2.0)}],
            "3": [{"x": 1, "y": 1, "p": 1}]}},
    ],
}


@pytest.mark.parametrize("text", [(FIXTURES / f).read_text() for f in TRAJECTORY_FIXTURES]
                         + [json.dumps(EDGE_DOC)])
def test_screened_tables_equal_from_arrays_field_for_field(text):
    """The screen fills each timestamp's table with one id order and the sums it took; every
    field equals, dtype and all, what ``InstanceTable.from_arrays`` gives that timestamp."""
    ds = loads_trajectory_dataset(text)
    assert "query" not in vars(ds)
    want = _from_arrays_tables(json.loads(text))
    assert list(ds.tables) == list(want)
    for t, table in ds.tables.items():
        for f in fields(InstanceTable):
            got, ref = getattr(table, f.name), getattr(want[t], f.name)
            assert got.dtype == ref.dtype and got.shape == ref.shape, (t, f.name)
            assert np.array_equal(got, ref), (t, f.name)
