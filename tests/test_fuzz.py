"""Loader and CLI fuzzing: whatever a dataset file holds, the CLI keeps its error contract.

Each case mutates a fixture dataset (a spatial database or a trajectory dataset) at
random, sometimes truncates the text, and runs one command on it.  The exit status
must be 0, 1 or 2; a nonzero status must come with empty stdout and exactly one JSON
error line on stderr, never a traceback.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from uncertain_spatial.cli import main  # noqa: E402

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

SPATIAL_COMMANDS = [
    ["worlds"],
    ["range", "--query-x", "0", "--query-y", "0", "--epsilon", "1", "--tau", "0.5"],
    ["knn", "--query-object", "U1", "--k", "2"],
    ["knn", "--query-x", "0", "--query-y", "0", "--k", "1", "--semantics", "result",
     "--backend", "sampled", "--samples", "50"],
    ["topk", "--query-x", "0", "--query-y", "0", "--k", "1", "--nn", "1", "--backend", "gf"],
    ["rank", "--query-x", "0", "--query-y", "0", "--object", "U3"],
    ["reps", "--query-x", "0", "--query-y", "0", "--nn", "1", "--samples", "50", "--tau", "0.2"],
]
TRAJECTORY_COMMANDS = [
    ["pcnn", "--tau", "0.3"],
    ["pcnn", "--tau", "0.3", "--maximal", "--object", "o1"],
    ["pcnn", "--tau", "0.3", "--backend", "sampled", "--samples", "50"],
]

#: Keys of both formats, timestamp keys and fixture ids, so that additions land in
#: places the loaders read.
KEYS = st.sampled_from(
    ["id", "x", "y", "p", "instances", "objects", "timestamps", "query", "per_timestamp",
     "0", "1", "2", "U1", "o1"]
)
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.sampled_from([10**400, 2**63, -0.0, 0.5, 1.0, 2.9, math.inf, -math.inf, math.nan])
    | st.sampled_from(["", "1", "0.5", " 10 ", "1_0", "U1", "o1", "q"])
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_text(draw, fixture):
    """The fixture's JSON after one to three replacements, deletions or additions."""
    doc = json.loads((FIXTURES / fixture).read_text())
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[path[-1]] = draw(VALUES)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(KEYS)] = draw(VALUES)
        else:
            parent.insert(path[-1], draw(VALUES))
    text = json.dumps(doc)
    if draw(st.integers(0, 7)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _check_contract(path, text, argv):
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv[:1] + ["--dataset", str(path)] + argv[1:])
    assert code in (0, 1, 2)
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        lines = err.getvalue().split("\n")
        assert len(lines) == 2 and lines[1] == ""
        assert isinstance(json.loads(lines[0])["error"], str)


FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "dataset.json"


@FUZZ
@given(mutated_text("worlds_demo.json"), st.sampled_from(SPATIAL_COMMANDS))
def test_mutated_database_keeps_the_error_contract(scratch, text, argv):
    _check_contract(scratch, text, argv)


@FUZZ
@given(mutated_text("pcnn_demo.json"), st.sampled_from(TRAJECTORY_COMMANDS))
def test_mutated_trajectory_dataset_keeps_the_error_contract(scratch, text, argv):
    _check_contract(scratch, text, argv)
