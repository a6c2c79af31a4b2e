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


#: Objects whose masses sum to exactly 1.0 (A, D, E, F, Q), to 1 - 1e-12 (B and G:
#: certain within ``PROB_TOL`` but not exactly 1.0) and to 0.9 (C, H), with distance ties
#: at 1, 2 and 3 from the origin; k runs from 1 past the object count to 10^9.
EDGES = ["--dataset", "fixtures/knn_edges.json"]


def _edge_cases():
    cases = []
    for backend in ("pbr", "gf"):
        for q in (["--query-x", "0", "--query-y", "0"], ["--query-object", "Q"]):
            for k in ("1", "2", "3", "4", "8", "9", "10", "1000000000"):
                cases += [
                    ["knn"] + EDGES + q + ["--k", k, "--backend", backend],
                    ["topk"] + EDGES + q + ["--nn", k, "--k", "3", "--backend", backend],
                ]
    return cases


#: Ten trajectories over 12 timestamps, drawn by ``bench/generate.py``'s
#: ``trajectory_dataset`` with seed 7: the shadow candidate ``c00`` is nearest with
#: probability 0.97, 0.5 or 0.2, four timestamps each, so it alone qualifies on 599 sets
#: at tau 0.05 and 179 at tau 0.2.  997 samples is not a multiple of 8.
SHADOW = ["pcnn", "--dataset", "fixtures/pcnn_shadow.json", "--backend", "sampled"]


def _shadow_cases():
    return [
        SHADOW + ["--samples", n, "--seed", "42", "--tau", tau] + maximal
        for n in ("997", "4000")
        for tau in ("0.05", "0.2")
        for maximal in ([], ["--maximal"])
    ]


#: Sampled nearest-neighbour cases (the k = 1 draw path): kNN with k = 1 in both
#: semantics, top-k over 1-NN and representatives over 1-NN results, each by a point and
#: by a query object, on the spatial fixtures, the tie and mass edges and the clustered
#: database; then sampled pcnn on ``pcnn_wide.json``, whose query has two alternatives.
NN1_FIXTURES = [(path, spec["point"], spec["obj"]) for path, spec in FIXTURES.items()] + [
    ("fixtures/knn_edges.json", ("0", "0"), "Q"),
    ("fixtures/clustered_demo.json", ("600", "450"), "o00032"),
]


def _nn1_cases():
    cases = []
    for path, (x, y), obj in NN1_FIXTURES:
        base = ["--dataset", path]
        for q in (["--query-x", x, "--query-y", y], ["--query-object", obj]):
            cases += [
                ["knn"] + base + q + ["--k", "1", "--semantics", semantics] + _backend("sampled")
                for semantics in ("object", "result")
            ]
            cases += [
                ["topk"] + base + q + ["--k", "2", "--nn", "1"] + _backend("sampled"),
                ["reps"] + base + q + ["--nn", "1", "--samples", "3000", "--tau", "0.3"],
                ["reps"] + base + q + ["--nn", "1", "--samples", "997", "--method", "cluster"],
            ]
    wide = ["pcnn", "--dataset", "fixtures/pcnn_wide.json", "--backend", "sampled"]
    cases += [
        wide + ["--tau", "0.02", "--samples", "3000", "--seed", "3"],
        wide + ["--tau", "0.05", "--samples", "997", "--maximal"],
    ]
    return cases


#: A ring of 17 surely existing objects around (0, -400), drawn by ``bench/generate.py``'s
#: ``ring_neighbourhoods((17,), 4, rng_for("reps-wide", 1, "rings"))``, three existentially
#: uncertain objects inside it (u0, u1, u2) and one far object (z0).  Up to 20 objects are
#: members of some sampled result, so a packed result row spans three bytes; kNN gives 19
#: to 1,898 distinct results and a range query mixes the empty result with others.  The
#: taus 0.4, 0.5, 0.25, 1 - 2/3 and 1 - 1/3 are Jaccard distances of these results exactly.
WIDE = ["reps", "--dataset", "fixtures/reps_wide.json"]
WIDE_CENTRE = ["--query-x", "0", "--query-y", "-400"]


def _wide_cases():
    cover = WIDE + WIDE_CENTRE + ["--method", "maxcover"]
    cluster = WIDE + WIDE_CENTRE + ["--method", "cluster"]
    cases = [cover + ["--nn", nn, "--samples", "3000", "--tau", "0.3", "--n-reps", "4"]
             for nn in ("2", "3", "4")]
    cases += [
        cover + ["--nn", "2", "--samples", "3000", "--tau", "0.6666666666666667"],
        cover + ["--nn", "3", "--samples", "3000", "--seed", "5", "--tau", "0.5"],
        cover + ["--nn", "4", "--samples", "997", "--tau", "0.4", "--n-reps", "5"],
        cover + ["--epsilon", "5", "--samples", "997", "--tau", "0.5", "--n-reps", "4"],
        cover + ["--epsilon", "9", "--samples", "997", "--tau", "0.25"],
        cover + ["--epsilon", "9", "--samples", "997", "--tau", "0.33333333333333337"],
        cover + ["--epsilon", "0.5", "--samples", "997", "--tau", "0.3"],
        cover + ["--nn", "4", "--samples", "1", "--tau", "0.3"],
        cluster + ["--nn", "2", "--samples", "997"],
        cluster + ["--nn", "3", "--samples", "997", "--clusters", "3"],
        cluster + ["--nn", "2", "--samples", "997", "--cluster-mode", "taumax",
                   "--tau-max", "0.6666666666666667"],
        cluster + ["--epsilon", "0.5", "--samples", "997"],
        cluster + ["--nn", "4", "--samples", "1"],
        WIDE + ["--query-object", "r00.00", "--nn", "3", "--samples", "3000", "--tau", "0.3"],
        WIDE + ["--query-object", "r00.05", "--nn", "2", "--samples", "997", "--tau", "0.5"],
    ]
    return cases


#: pcnn over the four trajectory fixtures, exact and sampled, over all objects and one,
#: with and without ``--maximal``.  At tau 0.3 every singleton of ``o1`` in
#: ``pcnn_certain.json`` qualifies and so does the whole domain (p = 0.35); at tau 0.5 the
#: whole domain fails.  Large shadow outputs are kept to ``--maximal`` or one object.
LATTICE_FIXTURES = {
    "fixtures/pcnn_demo.json": ("o1", ("0.02", "0.1", "0.4", "0.5")),
    "fixtures/pcnn_certain.json": ("o1", ("0.02", "0.1", "0.3", "0.5", "1")),
    "fixtures/pcnn_wide.json": ("o03", ("0.02", "0.1", "0.3", "0.5")),
}
SHADOW_LATTICE = [
    ["--tau", "0.02", "--maximal"],
    ["--tau", "0.1", "--maximal"],
    ["--tau", "0.5"],
    ["--tau", "0.1", "--object", "c03"],
    ["--tau", "0.02", "--object", "c00", "--maximal"],
    ["--tau", "0.2", "--object", "c00"],
]
LATTICE_BACKENDS = (["--backend", "exact"],
                    ["--backend", "sampled", "--samples", "997", "--seed", "11"])


def _lattice_cases():
    cases = []
    for backend in LATTICE_BACKENDS:
        for path, (obj, taus) in LATTICE_FIXTURES.items():
            for tau in taus:
                for extra in ([], ["--maximal"], ["--object", obj], ["--object", obj, "--maximal"]):
                    cases.append(["pcnn", "--dataset", path, "--tau", tau] + extra + backend)
        cases += [["pcnn", "--dataset", "fixtures/pcnn_shadow.json"] + request + backend
                  for request in SHADOW_LATTICE]
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
            "clustered": _clustered_cases(), "edges": _edge_cases(), "shadow": _shadow_cases(),
            "nn1": _nn1_cases(), "lattice": _lattice_cases(), "reps-wide": _wide_cases()}


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
