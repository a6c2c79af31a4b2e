"""Golden CLI outputs: exact stdout, stderr and exit status of fixed invocations.

Each file under ``tests/golden/`` holds one group of cases as a JSON list of
``{"argv", "exit", "stdout", "stderr"}``; dataset paths in ``argv`` are
relative to the repository root.  Fixture output is meant to stay
byte-identical, so a change that alters it on purpose regenerates the files
with ``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from uncertain_spatial.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

BACKENDS = ("pbr", "gf", "exact", "sampled")
SAMPLING = ["--samples", "2000", "--seed", "7"]

#: Per spatial fixture: a query point, a certain query object, a range
#: radius, a neighbour count and an object to rank.
FIXTURES = {
    "fixtures/worlds_demo.json": dict(point=("0.5", "1"), obj="U1", eps="1", k="2", target="U3"),
    "fixtures/range_demo.json": dict(point=("0", "0"), obj="A", eps="100", k="3", target="B"),
    "fixtures/knn_demo.json": dict(point=("0", "0"), obj="C", eps="3", k="2", target="A"),
    "fixtures/consensus_demo.json": dict(point=("0", "0"), obj="Q", eps="1", k="2", target="B"),
}

README = [
    ["worlds", "--dataset", "fixtures/worlds_demo.json"],
    ["range", "--dataset", "fixtures/range_demo.json",
     "--query-x", "0", "--query-y", "0", "--epsilon", "100", "--tau", "0.5"],
    ["knn", "--dataset", "fixtures/knn_demo.json", "--query-x", "0", "--query-y", "0", "--k", "2"],
    ["knn", "--dataset", "fixtures/knn_demo.json", "--query-x", "0", "--query-y", "0", "--k", "2",
     "--semantics", "result"],
    ["topk", "--dataset", "fixtures/range_demo.json",
     "--query-x", "0", "--query-y", "0", "--epsilon", "100", "--k", "3"],
    ["rank", "--dataset", "fixtures/knn_demo.json", "--query-x", "0", "--query-y", "0", "--object", "A"],
    ["reps", "--dataset", "fixtures/consensus_demo.json", "--query-object", "Q", "--nn", "2",
     "--samples", "10000", "--seed", "42", "--tau", "0.0", "--n-reps", "3"],
    ["reps", "--dataset", "fixtures/consensus_demo.json", "--query-object", "Q", "--nn", "2",
     "--method", "cluster"],
    ["pcnn", "--dataset", "fixtures/pcnn_demo.json", "--tau", "0.5"],
    ["pcnn", "--dataset", "fixtures/pcnn_demo.json", "--tau", "0.5",
     "--backend", "sampled", "--samples", "20000", "--maximal"],
]


def _queries(spec):
    x, y = spec["point"]
    return (["--query-x", x, "--query-y", y], ["--query-object", spec["obj"]])


def _backend(name):
    return ["--backend", name] + (SAMPLING if name == "sampled" else [])


def _spatial_cases():
    groups = {"range": [], "knn": [], "topk": [], "rank": [], "worlds": []}
    for path, spec in FIXTURES.items():
        base = ["--dataset", path]
        groups["worlds"].append(["worlds"] + base)
        point, obj = _queries(spec)
        for backend in BACKENDS:
            b = _backend(backend)
            groups["range"] += [
                ["range"] + base + point + ["--epsilon", spec["eps"], "--tau", "0.5"] + b,
                ["range"] + base + obj + ["--epsilon", spec["eps"]] + b,
            ]
            for q in (point, obj):
                for semantics in ("object", "result"):
                    groups["knn"].append(
                        ["knn"] + base + q + ["--k", spec["k"], "--semantics", semantics] + b
                    )
                groups["topk"] += [
                    ["topk"] + base + q + ["--k", "2", "--epsilon", spec["eps"]] + b,
                    ["topk"] + base + q + ["--k", "2", "--nn", spec["k"]] + b,
                ]
        for backend in ("pbr", "gf"):
            for q in (point, obj):
                groups["rank"].append(
                    ["rank"] + base + q + ["--object", spec["target"], "--backend", backend]
                )
    return groups


#: A 100-object database shaped like the knn-scan benchmark workload (2 to 8
#: instances, 30% existentially uncertain, five clusters), drawn by
#: ``bench/generate.py``'s ``clustered_database`` with the knn-scan spec and
#: seed 5.  Many objects are certainly closer than a far candidate here, and
#: some kNN probabilities are tiny but non-zero (k=10 gives one near 2e-20).
CLUSTERED = ["--dataset", "fixtures/clustered_demo.json"]
CLUSTERED_POINTS = (
    ["--query-x", "600", "--query-y", "450"],
    ["--query-x", "400", "--query-y", "790"],
)


def _clustered_cases():
    near, far = CLUSTERED_POINTS
    cases = []
    for backend in ("pbr", "gf"):
        b = ["--backend", backend]
        cases += [["knn"] + CLUSTERED + near + ["--k", k] + b for k in ("1", "5", "10")]
        cases += [
            ["knn"] + CLUSTERED + far + ["--k", "5"] + b,
            ["knn"] + CLUSTERED + ["--query-object", "o00032", "--k", "5"] + b,
            ["topk"] + CLUSTERED + ["--query-object", "o00032", "--nn", "5", "--k", "3"] + b,
            ["rank"] + CLUSTERED + near + ["--object", "o00070"] + b,
            ["rank"] + CLUSTERED + ["--query-object", "o00055", "--object", "o00045"] + b,
        ]
    return cases


def _other_cases():
    consensus = ["--dataset", "fixtures/consensus_demo.json"]
    knn = ["--dataset", "fixtures/knn_demo.json", "--query-x", "0", "--query-y", "0"]
    reps = [
        ["reps"] + consensus + ["--query-object", "Q", "--nn", "2", "--samples", "3000",
                                "--tau", "0.4", "--n-reps", "2"],
        ["reps"] + consensus + ["--query-x", "0", "--query-y", "0", "--epsilon", "1",
                                "--samples", "3000", "--seed", "5", "--tau", "0.5"],
        ["reps"] + consensus + ["--query-object", "Q", "--nn", "2", "--samples", "3000",
                                "--method", "cluster", "--cluster-mode", "taumax",
                                "--tau-max", "0.5"],
        ["reps"] + knn + ["--nn", "2", "--samples", "3000", "--method", "cluster",
                          "--clusters", "2", "--alpha", "0.9"],
    ] + [
        # auto-k over many distinct results: 54 with --nn 3, 150 with --nn 4
        ["reps"] + CLUSTERED + ["--query-x", "50", "--query-y", "50", "--nn", nn,
                                "--samples", "3000", "--method", "cluster"]
        for nn in ("3", "4")
    ]
    pcnn_path = ["--dataset", "fixtures/pcnn_demo.json"]
    pcnn = [
        ["pcnn"] + pcnn_path + ["--tau", "0.5", "--backend", "exact"],
        ["pcnn"] + pcnn_path + ["--tau", "0.5", "--backend", "exact", "--maximal"],
        ["pcnn"] + pcnn_path + ["--tau", "0.3", "--backend", "exact", "--object", "o1"],
        ["pcnn"] + pcnn_path + ["--tau", "0.5", "--backend", "sampled", "--samples", "3000",
                                "--seed", "3"],
        ["pcnn"] + pcnn_path + ["--tau", "0.3", "--backend", "sampled", "--samples", "3000",
                                "--object", "o1", "--maximal"],
    ]
    # o1 is the sure nearest neighbour at timestamps 0 and 2
    certain = ["--dataset", "fixtures/pcnn_certain.json"]
    for backend in (["--backend", "exact"], ["--backend", "sampled", "--samples", "3000"]):
        pcnn += [
            ["pcnn"] + certain + ["--tau", "0.3"] + backend,
            ["pcnn"] + certain + ["--tau", "0.3", "--maximal"] + backend,
            ["pcnn"] + certain + ["--tau", "1", "--object", "o1"] + backend,
        ]
    # a two-alternative query and 23 two-alternative trajectories: 2^24 joint alternative
    # combinations per timestamp, while the exact work grows with the alternatives only
    pcnn.append(["pcnn", "--dataset", "fixtures/pcnn_wide.json", "--tau", "0.02",
                 "--backend", "exact"])
    worlds = ["--dataset", "fixtures/worlds_demo.json"]
    errors = [
        ["range"] + worlds + ["--query-object", "U2", "--epsilon", "1"] + _backend(b)
        for b in BACKENDS
    ] + [
        ["knn"] + worlds + ["--query-object", "U2", "--k", "1", "--semantics", "result"],
        ["rank"] + worlds + ["--query-object", "U2", "--object", "U1"],
        ["knn"] + worlds + ["--query-object", "Z", "--k", "1"],
        ["knn"] + worlds + ["--query-object", "U1", "--query-x", "0", "--k", "1"],
        ["knn"] + worlds + ["--query-x", "0", "--k", "1"],
        ["knn"] + worlds + ["--query-x", "0", "--query-y", "0", "--k", "0"],
        ["range"] + worlds + ["--query-x", "0", "--query-y", "0"],
        ["range"] + worlds + ["--query-x", "0", "--query-y", "0", "--epsilon", "-1"],
        ["topk"] + worlds + ["--query-x", "0", "--query-y", "0", "--k", "4", "--nn", "1"],
        ["topk"] + worlds + ["--query-x", "0", "--query-y", "0", "--k", "1"],
        ["topk"] + worlds + ["--query-x", "0", "--query-y", "0", "--k", "1", "--nn", "1",
                             "--epsilon", "1"],
        ["rank"] + worlds + ["--query-x", "0", "--query-y", "0"],
        ["rank"] + worlds + ["--query-x", "0", "--query-y", "0", "--object", "Z"],
        ["reps"] + worlds + ["--query-x", "0", "--query-y", "0", "--nn", "1"],
        ["reps"] + worlds + ["--query-x", "0", "--query-y", "0", "--nn", "1", "--samples", "0",
                             "--tau", "0.1"],
        ["pcnn"] + pcnn_path,
        ["pcnn"] + pcnn_path + ["--tau", "0.5", "--object", "o9"],
        ["knn"] + pcnn_path + ["--query-x", "0", "--query-y", "0", "--k", "1"],
        ["knn"] + worlds + ["--query-x", "0", "--query-y", "0", "--k", "1", "--backend", "bogus"],
    ]
    return {"readme": README, "reps": reps, "pcnn": pcnn, "errors": errors,
            "clustered": _clustered_cases()}


def all_cases():
    return {**_spatial_cases(), **_other_cases()}


def run(argv):
    """Run the CLI in-process on repository-relative paths; return the observed case."""
    resolved = [str(ROOT / a) if a.startswith("fixtures/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(resolved)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("group", sorted(all_cases()))
def test_cli_output_matches_golden(group):
    stored = json.loads((GOLDEN / f"{group}.json").read_text(encoding="utf-8"))
    assert [case["argv"] for case in stored] == all_cases()[group]
    for case in stored:
        assert run(case["argv"]) == case


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for group, argvs in all_cases().items():
        cases = [run(argv) for argv in argvs]
        (GOLDEN / f"{group}.json").write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
