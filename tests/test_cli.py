"""Command-line interface: canonical output, backends, exit codes."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from uncertain_spatial import cli
from uncertain_spatial.cli import dumps_canonical, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

RANGE_ARGS = [
    "range", "--dataset", str(FIXTURES / "range_demo.json"),
    "--query-x", "0", "--query-y", "0", "--epsilon", "100",
]
KNN_ARGS = [
    "knn", "--dataset", str(FIXTURES / "knn_demo.json"),
    "--query-x", "0", "--query-y", "0", "--k", "2",
]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCanonicalJson:
    def test_float_formatting(self):
        assert dumps_canonical({"p": 0.30000000000000004}) == '{"p":0.3}'
        assert dumps_canonical([1.0, 0.0, 1e-05]) == "[1,0,1e-05]"
        assert dumps_canonical({"a": None, "b": True}) == '{"a":null,"b":true}'

    def test_twelve_significant_digits(self):
        assert dumps_canonical(0.1234567890123456) == "0.123456789012"

    def test_flat_lists_and_dicts_match_item_by_item(self):
        """The one-pass path for flat floats writes what the item-by-item path writes."""

        def item_by_item(value):
            if isinstance(value, dict):
                items = (f"{json.dumps(str(k))}:{dumps_canonical(v)}" for k, v in value.items())
                return "{" + ",".join(items) + "}"
            return "[" + ",".join(dumps_canonical(v) for v in value) + "]"

        rng = np.random.default_rng(5)
        edge = [0.0, -0.0, 1.0, -1.0, 5e-324, 1e-5, 1e16, 123456789012.5, 1 / 3, 2.0**-1074]
        for _ in range(30):
            spread = rng.standard_normal(20) * 10.0 ** rng.integers(-8, 8, 20)
            floats = list(rng.choice(edge, 20)) + list(spread)
            keys = ["o1", "é", 'q"uote', "tab\t", "\u2028", ""] + [f"k{i}" for i in range(34)]
            for value in (floats, [float(x) for x in floats], tuple(floats), np.array(floats),
                          dict(zip(keys, floats))):
                assert dumps_canonical(value) == item_by_item(value)
        assert dumps_canonical([]) == "[]" and dumps_canonical({}) == "{}"
        mixed = [1.5, 2, True, None, "x", [0.5]]
        assert dumps_canonical(mixed) == item_by_item(mixed) == '[1.5,2,true,null,"x",[0.5]]'
        assert dumps_canonical({1: 0.5, "a": 0.25}) == '{"1":0.5,"a":0.25}'
        for bad in ([0.5, math.inf], {"a": 0.5, "b": math.nan}):
            with pytest.raises(ValueError, match="non-finite"):
                dumps_canonical(bad)


class TestRangeCommand:
    def test_threshold_result(self, capsys):
        code, out, _ = run_cli(RANGE_ARGS + ["--tau", "0.5"], capsys)
        assert code == 0
        assert out == (
            '{"epsilon":100,"query":[0,0],'
            '"probabilities":{"A":1,"B":0.3,"C":0.2,"D":0.9,"E":0,"F":0},'
            '"count_distribution":[0,0.056,0.542,0.348,0.054,0,0],'
            '"tau":0.5,"result":["A","D"]}\n'
        )

    def test_backends_agree(self, capsys):
        outputs = {}
        for backend in ("pbr", "gf", "exact"):
            code, out, _ = run_cli(RANGE_ARGS + ["--backend", backend], capsys)
            assert code == 0
            outputs[backend] = json.loads(out)
        for backend in ("gf", "exact"):
            for oid, p in outputs["pbr"]["probabilities"].items():
                assert outputs[backend]["probabilities"][oid] == pytest.approx(p, abs=1e-9)
            for a, b in zip(
                outputs["pbr"]["count_distribution"], outputs[backend]["count_distribution"]
            ):
                assert a == pytest.approx(b, abs=1e-9)

    EXACT_MIX = (
        '"probabilities":{"A":0.6,"B":0.3,"C":0.6,"D":0.4,"E":0.4},'
        '"count_distribution":[0,0,0.7,0.3,0,0]'
    )

    @pytest.mark.parametrize("backend, expected", [
        ("pbr", EXACT_MIX),
        ("gf", EXACT_MIX),
        ("exact", EXACT_MIX),
        ("sampled", '"probabilities":{"A":0.5964,"B":0.2968,"C":0.5964,"D":0.4036,"E":0.4036},'
                    '"count_distribution":[0,0,0.7032,0.2968,0,0]'),
    ], ids=["pbr", "gf", "exact", "sampled"])
    def test_query_object(self, backend, expected, capsys):
        """An uncertain query object is mixed over its instances and not counted itself."""
        code, out, _ = run_cli(
            [
                "range", "--dataset", str(FIXTURES / "consensus_demo.json"),
                "--query-object", "Q", "--epsilon", "2", "--tau", "0.5",
                "--backend", backend, "--samples", "5000", "--seed", "3",
            ],
            capsys,
        )
        assert code == 0
        assert out == '{"epsilon":2,"query":"Q",' + expected + ',"tau":0.5,"result":["A","C"]}\n'

    def test_sampled_backend_matches_exact(self, capsys):
        """Large-sample Monte Carlo agrees with the oracle within 5 sigma."""
        n = 200000
        _, exact_out, _ = run_cli(RANGE_ARGS + ["--backend", "exact"], capsys)
        code, out, _ = run_cli(
            RANGE_ARGS + ["--backend", "sampled", "--samples", str(n), "--seed", "42"],
            capsys,
        )
        assert code == 0
        exact = json.loads(exact_out)["probabilities"]
        doc = json.loads(out)
        for oid, p in exact.items():
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(doc["probabilities"][oid] - p) <= 5 * sigma + 1e-12


class TestKnnCommand:
    def test_object_semantics(self, capsys):
        code, out, _ = run_cli(KNN_ARGS + ["--semantics", "object"], capsys)
        assert code == 0
        assert out == (
            '{"k":2,"query":[0,0],"semantics":"object",'
            '"probabilities":{"A":0.1,"B":0.94,"C":0.96}}\n'
        )

    def test_result_semantics(self, capsys):
        code, out, _ = run_cli(KNN_ARGS + ["--semantics", "result"], capsys)
        assert code == 0
        assert out == (
            '{"k":2,"query":[0,0],"semantics":"result",'
            '"results":[{"result":["B","C"],"p":0.9},'
            '{"result":["A","C"],"p":0.06},{"result":["A","B"],"p":0.04}]}\n'
        )

    def test_kernel_backends_agree(self, capsys):
        _, out_pbr, _ = run_cli(KNN_ARGS + ["--backend", "pbr"], capsys)
        _, out_gf, _ = run_cli(KNN_ARGS + ["--backend", "gf"], capsys)
        a = json.loads(out_pbr)["probabilities"]
        b = json.loads(out_gf)["probabilities"]
        for oid in a:
            assert a[oid] == pytest.approx(b[oid], abs=1e-12)

    def test_sampled_backend_matches_exact(self, capsys):
        n = 200000
        _, exact_out, _ = run_cli(KNN_ARGS + ["--backend", "exact"], capsys)
        code, out, _ = run_cli(
            KNN_ARGS + ["--backend", "sampled", "--samples", str(n), "--seed", "8"],
            capsys,
        )
        assert code == 0
        exact = json.loads(exact_out)["probabilities"]
        sampled = json.loads(out)["probabilities"]
        for oid, p in exact.items():
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(sampled[oid] - p) <= 5 * sigma + 1e-12

    def test_uncertain_query_object(self, capsys):
        code, out, _ = run_cli(
            [
                "knn", "--dataset", str(FIXTURES / "consensus_demo.json"),
                "--query-object", "Q", "--k", "2", "--semantics", "result",
                "--backend", "exact",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        found = {tuple(e["result"]): e["p"] for e in doc["results"]}
        assert found[("D", "E")] == pytest.approx(0.4, abs=1e-9)
        assert found[("A", "C")] == pytest.approx(0.3, abs=1e-9)


class TestTopkCommand:
    def test_fixture(self, capsys):
        code, out, _ = run_cli(
            [
                "topk", "--dataset", str(FIXTURES / "range_demo.json"),
                "--query-x", "0", "--query-y", "0", "--epsilon", "100", "--k", "3",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["result"] == ["A", "B", "D"]


class TestRankCommand:
    def test_fixture(self, capsys):
        code, out, _ = run_cli(
            [
                "rank", "--dataset", str(FIXTURES / "knn_demo.json"),
                "--query-x", "0", "--query-y", "0", "--object", "A",
            ],
            capsys,
        )
        assert code == 0
        assert out == '{"object":"A","query":[0,0],"ranks":[0.1,0,0.9]}\n'

    def test_kernel_backends_agree(self, capsys):
        args = [
            "rank", "--dataset", str(FIXTURES / "knn_demo.json"),
            "--query-x", "0", "--query-y", "0", "--object", "B",
        ]
        _, out_pbr, _ = run_cli(args + ["--backend", "pbr"], capsys)
        _, out_gf, _ = run_cli(args + ["--backend", "gf"], capsys)
        a = json.loads(out_pbr)["ranks"]
        b = json.loads(out_gf)["ranks"]
        for x, y in zip(a, b):
            assert x == pytest.approx(y, abs=1e-12)


class TestQueryObjectMix:
    """Q's probabilities sum to 1 + 8e-10, which passes as certain, and A is surely the
    nearest object to every position of Q and within 2 of it; mixing over Q's positions
    must not lift a probability above 1."""

    DOC = {"objects": [
        {"id": "Q", "instances": [{"x": 0.0, "y": 0.0, "p": 0.5},
                                  {"x": 1.0, "y": 0.0, "p": 0.5000000008}]},
        {"id": "A", "instances": [{"x": 0.5, "y": 0.5, "p": 1.0}]},
        {"id": "B", "instances": [{"x": 10.0, "y": 0.0, "p": 1.0}]},
    ]}

    @pytest.mark.parametrize("backend", ["pbr", "gf"])
    @pytest.mark.parametrize("command, field, expected", [
        (["knn", "--k", "1"], "probabilities", {"A": 1, "B": 0}),
        (["topk", "--k", "1", "--nn", "1"], "probabilities", {"A": 1, "B": 0}),
        (["range", "--epsilon", "2"], "probabilities", {"A": 1, "B": 0}),
        (["range", "--epsilon", "2"], "count_distribution", [0, 1, 0]),
        (["rank", "--object", "A"], "ranks", [1, 0]),
    ], ids=["knn", "topk", "range", "range-counts", "rank"])
    def test_probabilities_stay_within_one(self, command, field, expected, backend,
                                           tmp_path, capsys):
        data = tmp_path / "over.json"
        data.write_text(json.dumps(self.DOC))
        code, out, _ = run_cli(
            command + ["--dataset", str(data), "--query-object", "Q", "--backend", backend],
            capsys,
        )
        assert code == 0
        assert json.loads(out)[field] == expected

    @pytest.mark.parametrize("command, field, expected", [
        (["knn", "--k", "1", "--backend", "exact"], "probabilities", {"A": 1, "B": 0}),
        (["topk", "--k", "1", "--nn", "1", "--backend", "exact"], "probabilities",
         {"A": 1, "B": 0}),
        (["range", "--epsilon", "2", "--backend", "exact"], "probabilities", {"A": 1, "B": 0}),
        (["range", "--epsilon", "2", "--backend", "exact"], "count_distribution", [0, 1, 0]),
    ] + [
        (["knn", "--k", "1", "--semantics", "result", "--backend", backend], "results",
         [{"result": ["A"], "p": 1}])
        for backend in ("pbr", "gf", "exact", "sampled")
    ], ids=["knn", "topk", "range", "range-counts", "result-pbr", "result-gf", "result-exact",
            "result-sampled"])
    def test_oracle_stays_within_one(self, command, field, expected, tmp_path, capsys):
        data = tmp_path / "over.json"
        data.write_text(json.dumps(self.DOC))
        code, out, _ = run_cli(command + ["--dataset", str(data), "--query-object", "Q"], capsys)
        assert code == 0
        assert json.loads(out)[field] == expected


class TestOracleClamp:
    """A and B each sum to 1 + 8e-10, which passes as certain, so the worlds sum to
    1 + 1.6e-9; A is surely the nearest object to the origin and the only one within 2
    of it.  No probability the oracle reports may exceed 1."""

    DOC = {"objects": [
        {"id": "A", "instances": [{"x": 0.0, "y": 0.0, "p": 0.5},
                                  {"x": 1.0, "y": 0.0, "p": 0.5000000008}]},
        {"id": "B", "instances": [{"x": 10.0, "y": 0.0, "p": 0.5},
                                  {"x": 11.0, "y": 0.0, "p": 0.5000000008}]},
    ]}

    @pytest.mark.parametrize("command, field, expected", [
        (["knn", "--k", "1", "--backend", "exact"], "probabilities", {"A": 1, "B": 0}),
        (["range", "--epsilon", "2", "--backend", "exact"], "probabilities", {"A": 1, "B": 0}),
        (["range", "--epsilon", "2", "--backend", "exact"], "count_distribution", [0, 1, 0]),
    ] + [
        (["knn", "--k", "1", "--semantics", "result", "--backend", backend], "results",
         [{"result": ["A"], "p": 1}])
        for backend in ("pbr", "gf", "exact", "sampled")
    ], ids=["knn", "range", "range-counts", "result-pbr", "result-gf", "result-exact",
            "result-sampled"])
    def test_probabilities_stay_within_one(self, command, field, expected, tmp_path, capsys):
        data = tmp_path / "over.json"
        data.write_text(json.dumps(self.DOC))
        code, out, _ = run_cli(
            command + ["--dataset", str(data), "--query-x", "0", "--query-y", "0"], capsys
        )
        assert code == 0
        assert json.loads(out)[field] == expected

    def test_worlds_total_is_the_plain_sum(self, tmp_path, capsys):
        data = tmp_path / "over.json"
        data.write_text(json.dumps(self.DOC))
        code, out, _ = run_cli(["worlds", "--dataset", str(data)], capsys)
        assert code == 0
        assert json.loads(out)["total_probability"] == 1.0000000016


class TestWorldsCommand:
    def test_fixture(self, capsys):
        code, out, _ = run_cli(
            ["worlds", "--dataset", str(FIXTURES / "worlds_demo.json")], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 18
        assert doc["total_probability"] == pytest.approx(1.0, abs=1e-9)
        assert doc["worlds"][0] == {"choices": {"U1": 0, "U2": 0, "U3": 0}, "p": 0.175}


class TestRepsCommand:
    def test_output_interface(self, capsys):
        code, out, _ = run_cli(
            [
                "reps", "--dataset", str(FIXTURES / "consensus_demo.json"),
                "--query-object", "Q", "--nn", "2",
                "--samples", "10000", "--seed", "42", "--tau", "0.0", "--n-reps", "2",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"representatives", "samples", "seed"}
        assert doc["samples"] == 10000 and doc["seed"] == 42
        rep = doc["representatives"][0]
        assert list(rep) == ["result", "tau", "phi", "alpha", "support"]
        assert rep["phi"] <= rep["support"] / 10000

    def test_cluster_method(self, capsys):
        code, out, _ = run_cli(
            [
                "reps", "--dataset", str(FIXTURES / "consensus_demo.json"),
                "--query-object", "Q", "--nn", "2", "--method", "cluster",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["representatives"]

    @pytest.mark.parametrize("alpha", ["7", "-1", "nan"])
    def test_alpha_checked_when_one_result_covers_every_sample(self, alpha, capsys):
        """C is surely nearest to (3, 0), so its bound needs no quantile; alpha is still
        checked."""
        code, out, err = run_cli(
            [
                "reps", "--dataset", str(FIXTURES / "knn_demo.json"),
                "--query-x", "3", "--query-y", "0", "--nn", "1", "--samples", "50",
                "--tau", "0.5", "--alpha", alpha,
            ],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert json.loads(err) == {"error": "alpha must lie in [0, 1]"}

    ONE_RESULT = ("knn_demo.json", "3", "0", "1")  # C is surely the nearest to (3, 0)
    MANY_RESULTS = ("clustered_demo.json", "50", "50", "3")  # 54 distinct results

    @pytest.mark.parametrize("case, clusters, m", [
        (ONE_RESULT, "0", 1), (ONE_RESULT, "-3", 1), (ONE_RESULT, "5", 1),
        (MANY_RESULTS, "0", 54), (MANY_RESULTS, "-3", 54), (MANY_RESULTS, "55", 54),
    ], ids=["one-0", "one-neg", "one-5", "many-0", "many-neg", "many-55"])
    def test_cluster_count_checked_against_distinct_results(self, case, clusters, m, capsys):
        """--clusters must lie in 1..m also when a single result covers every sample."""
        dataset, x, y, nn = case
        code, out, err = run_cli(
            ["reps", "--dataset", str(FIXTURES / dataset), "--query-x", x, "--query-y", y,
             "--nn", nn, "--samples", "3000", "--method", "cluster", "--clusters", clusters],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert json.loads(err) == {"error": f"cluster count must be within 1..{m}"}


class TestPcnnCommand:
    def test_exact_fixture(self, capsys):
        code, out, _ = run_cli(
            ["pcnn", "--dataset", str(FIXTURES / "pcnn_demo.json"), "--tau", "0.5"],
            capsys,
        )
        assert code == 0
        assert out == (
            '{"tau":0.5,"results":{"o1":['
            '{"timestamps":[0],"p":0.9},{"timestamps":[1],"p":0.8},'
            '{"timestamps":[2],"p":0.6},{"timestamps":[0,1],"p":0.72},'
            '{"timestamps":[0,2],"p":0.54}]}}\n'
        )

    def test_maximal_filter(self, capsys):
        code, out, _ = run_cli(
            [
                "pcnn", "--dataset", str(FIXTURES / "pcnn_demo.json"),
                "--tau", "0.5", "--maximal",
            ],
            capsys,
        )
        assert code == 0
        sets = [tuple(e["timestamps"]) for e in json.loads(out)["results"]["o1"]]
        assert sets == [(0, 1), (0, 2)]

    def test_sampled_backend(self, capsys):
        code, out, _ = run_cli(
            [
                "pcnn", "--dataset", str(FIXTURES / "pcnn_demo.json"),
                "--tau", "0.5", "--backend", "sampled", "--samples", "20000",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        found = {tuple(e["timestamps"]): e["p"] for e in doc["results"]["o1"]}
        assert abs(found[(0,)] - 0.9) <= 5 * math.sqrt(0.9 * 0.1 / 20000)


class TestDeterminism:
    COMMANDS = [
        RANGE_ARGS + ["--tau", "0.5"],
        RANGE_ARGS + ["--backend", "sampled", "--samples", "5000", "--seed", "7"],
        KNN_ARGS,
        KNN_ARGS + ["--semantics", "result"],
        ["worlds", "--dataset", str(FIXTURES / "worlds_demo.json")],
        [
            "topk", "--dataset", str(FIXTURES / "range_demo.json"),
            "--query-x", "0", "--query-y", "0", "--epsilon", "100", "--k", "3",
        ],
        [
            "rank", "--dataset", str(FIXTURES / "knn_demo.json"),
            "--query-x", "0", "--query-y", "0", "--object", "B",
        ],
        [
            "reps", "--dataset", str(FIXTURES / "consensus_demo.json"),
            "--query-object", "Q", "--nn", "2", "--samples", "4000",
            "--seed", "42", "--tau", "0.4", "--n-reps", "2",
        ],
        [
            "pcnn", "--dataset", str(FIXTURES / "pcnn_demo.json"),
            "--tau", "0.5", "--backend", "sampled", "--samples", "3000", "--seed", "1",
        ],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_repeat_runs_byte_identical(self, argv, capsys):
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_warnings_do_not_depend_on_process_history(self, capsys):
        """Every call writes its warnings the same way, one JSON line each, even
        when an earlier call in the process raised the same warning."""
        argv = [
            "reps", "--dataset", str(FIXTURES / "consensus_demo.json"),
            "--query-object", "Q", "--nn", "2", "--samples", "20", "--tau", "0.0",
        ]
        code1, _, err1 = run_cli(argv, capsys)
        code2, _, err2 = run_cli(argv, capsys)
        assert code1 == code2 == 0
        assert err1 == err2
        lines = [json.loads(line) for line in err1.splitlines()]
        assert lines and all(list(line) == ["warning"] for line in lines)
        assert "normal approximation unreliable" in lines[0]["warning"]


class TestErrorHandling:
    def test_missing_file(self, capsys):
        code, out, err = run_cli(RANGE_ARGS[:2] + ["--query-x", "0"], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err.strip())["error"]

    def test_nonexistent_dataset(self, capsys):
        code, _, err = run_cli(
            ["range", "--dataset", "/nonexistent.json", "--query-x", "0",
             "--query-y", "0", "--epsilon", "1"],
            capsys,
        )
        assert code == 1
        assert "error" in json.loads(err.strip())

    def test_rank_of_the_query_object(self, capsys):
        code, out, err = run_cli(
            ["rank", "--dataset", str(FIXTURES / "consensus_demo.json"),
             "--query-object", "Q", "--object", "Q"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert "'Q' is the query object" in json.loads(err.strip())["error"]

    def test_invalid_dataset(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"objects":[{"id":"X","instances":[{"x":0,"y":0,"p":1.4}]}]}')
        code, _, err = run_cli(
            ["range", "--dataset", str(bad), "--query-x", "0", "--query-y", "0",
             "--epsilon", "1"],
            capsys,
        )
        assert code == 1
        assert "X" in json.loads(err.strip())["error"]

    @pytest.mark.parametrize("doc", [
        {"objects": [{"id": "X", "instances": 5}]},
        {"objects": 5},
        {"objects": [5]},
    ], ids=["instances-number", "objects-number", "record-number"])
    def test_malformed_database_shape(self, doc, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(
            ["range", "--dataset", str(bad), "--query-x", "0", "--query-y", "0",
             "--epsilon", "1"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert json.loads(err.strip())["error"]

    @pytest.mark.parametrize("path, value", [
        (("objects", 0, "per_timestamp", "1"), [5]),
        (("objects", 0, "per_timestamp", "1"), 5),
        (("objects", 0, "per_timestamp"), [5]),
        (("objects", 0), 5),
        (("query",), 5),
        (("objects",), 5),
    ], ids=["alternative-number", "alternatives-number", "per-timestamp-array",
            "record-number", "query-number", "objects-number"])
    def test_malformed_trajectory_shape(self, path, value, tmp_path, capsys):
        doc = json.loads((FIXTURES / "pcnn_demo.json").read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(["pcnn", "--dataset", str(bad), "--tau", "0.5"], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err.strip())["error"]

    @pytest.mark.parametrize("reader", ["dataset", "trajectory", "config"])
    def test_deeply_nested_json(self, reader, tmp_path, capsys):
        """JSON nested past the decoder's recursion limit is malformed input."""
        deep = "[" * 200_000 + "]" * 200_000
        bad = tmp_path / "deep.json"
        if reader == "dataset":
            bad.write_text('{"objects": ' + deep + "}")
            argv = [KNN_ARGS[0], "--dataset", str(bad)] + KNN_ARGS[3:]
        elif reader == "trajectory":
            bad.write_text('{"timestamps": [0], "query": ' + deep + ', "objects": []}')
            argv = ["pcnn", "--dataset", str(bad), "--tau", "0.5"]
        else:
            bad.write_text('{"k": ' + deep + "}")
            argv = KNN_ARGS + ["--config", str(bad)]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        assert err.count("\n") == 1
        assert json.loads(err)["error"].startswith(f"malformed {reader} JSON: ")

    def test_integer_beyond_float_range_in_dataset(self, tmp_path, capsys):
        """A 401-digit integer literal is refused like any malformed instance."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"objects": [
            {"id": "X", "instances": [{"x": 10**400, "y": 0, "p": 1}]}
        ]}))
        code, out, err = run_cli(
            ["range", "--dataset", str(bad), "--query-x", "0", "--query-y", "0",
             "--epsilon", "1"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "'X': malformed instance 0" in json.loads(err.strip())["error"]

    @pytest.mark.parametrize("path, value", [
        (("objects", 0, "per_timestamp", "1", 0, "x"), 10**400),
        (("timestamps", 0), math.inf),
    ], ids=["alternative-beyond-float", "infinite-timestamp"])
    def test_number_beyond_range_in_trajectories(self, path, value, tmp_path, capsys):
        doc = json.loads((FIXTURES / "pcnn_demo.json").read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(["pcnn", "--dataset", str(bad), "--tau", "0.5"], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err.strip())["error"]

    @pytest.mark.parametrize("edit, message", [
        ({"timestamps": [True, 2.9]}, "array of integers"),
        ({"timestamps": [0, 1.0, 2]}, "array of integers"),
        ({"timestamps": "ab"}, "array of integers"),
        ({"timestamps": [0, 1, 2, 2]}, r"repeats timestamps \[2\]"),
        ({"key": "1_0"}, "bad timestamp key '1_0'"),
        ({"key": " 10 "}, "bad timestamp key ' 10 '"),
        ({"key": "010"}, "bad timestamp key '010'"),
        ({"object_id": 1}, "trajectory id 1 is not a string"),
        ({"query_id": 1, "object_id": "1"}, "trajectory id 1 is not a string"),
        ({"alternative": ("x", True)}, "'q': malformed alternative at timestamp 0"),
        ({"alternative": ("y", "2")}, "'q': malformed alternative at timestamp 0"),
        ({"alternative": ("x", "1e1")}, "'q': malformed alternative at timestamp 0"),
    ], ids=["bool-and-float", "integral-float", "string", "duplicate", "underscore-key",
            "padded-key", "zero-padded-key", "number-id", "number-query-id",
            "bool-coordinate", "string-coordinate", "string-exponent-coordinate"])
    def test_trajectory_loader_does_not_coerce(self, edit, message, tmp_path, capsys):
        """Timestamps are distinct JSON integers, keys their canonical decimals, ids strings,
        and coordinates JSON numbers.

        Each edit would otherwise read as a valid dataset, or fail on a misleading check.
        """
        doc = json.loads((FIXTURES / "pcnn_demo.json").read_text())
        if "key" in edit:  # timestamp 1 renamed to a spelling of 10 in every trajectory
            doc["timestamps"] = [0, 2, 10]
            for traj in [doc["query"]] + doc["objects"]:
                traj["per_timestamp"][edit["key"]] = traj["per_timestamp"].pop("1")
        if "timestamps" in edit:
            doc["timestamps"] = edit["timestamps"]
        if "object_id" in edit:
            doc["objects"][0]["id"] = edit["object_id"]
        if "query_id" in edit:
            doc["query"]["id"] = edit["query_id"]
        if "alternative" in edit:
            field, value = edit["alternative"]
            doc["query"]["per_timestamp"]["0"][0][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(["pcnn", "--dataset", str(bad), "--tau", "0.5"], capsys)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert re.search(message, json.loads(err)["error"])

    @pytest.mark.parametrize("field, value", [
        ("x", True), ("y", "2"), ("p", "1"), ("x", "1e1"), ("p", False),
    ])
    def test_database_loader_does_not_coerce(self, field, value, tmp_path, capsys):
        """Coordinates and probabilities are JSON numbers: a bool or a numeric string is
        refused, not read as the number it spells."""
        instance = {"x": 1, "y": 0.0, "p": 1}
        instance[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"objects": [{"id": "A", "instances": [instance]}]}))
        code, out, err = run_cli(
            ["knn", "--dataset", str(bad), "--query-x", "0", "--query-y", "0", "--k", "1"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert "'A': malformed instance 0" in json.loads(err)["error"]

    @pytest.mark.parametrize("backend", ["exact", "sampled"])
    @pytest.mark.parametrize("tau", ["5", "0", "-1"])
    def test_pcnn_tau_checked_without_objects(self, backend, tau, tmp_path, capsys):
        """tau is refused before an empty object list can leave nothing to search."""
        doc = json.loads((FIXTURES / "pcnn_demo.json").read_text())
        doc["objects"] = []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run_cli(
            ["pcnn", "--dataset", str(bad), "--tau", tau, "--backend", backend], capsys
        )
        assert code == 1
        assert out == ""
        assert json.loads(err) == {"error": "tau must lie in (0, 1]"}

    @pytest.mark.parametrize("command, config", [
        ("knn", {"k": "two"}),
        ("knn", {"k": True}),
        ("knn", {"k": [2]}),
        ("knn", {"samples": 1.5}),
        ("knn", {"backend": "bogus"}),
        ("knn", {"semantics": "both"}),
        ("pcnn", {"maximal": "no"}),
        ("pcnn", {"samples": 1.5, "backend": "sampled"}),
    ], ids=["int-word", "int-bool", "int-list", "int-float", "backend-choice",
            "semantics-choice", "flag-string", "pcnn-int-float"])
    def test_bad_config_value(self, command, config, tmp_path, capsys):
        """Config values get the type and choice checks of their flags."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = KNN_ARGS if command == "knn" else [
            "pcnn", "--dataset", str(FIXTURES / "pcnn_demo.json"), "--tau", "0.5",
        ]
        code, out, err = run_cli(args + ["--config", str(cfg)], capsys)
        assert code == 1
        assert out == ""
        assert json.loads(err.strip())["error"]

    def test_world_cap_exit_code(self, tmp_path, capsys):
        objects = [
            {"id": f"O{i:02d}", "instances": [
                {"x": float(i), "y": 0.0, "p": 0.5}, {"x": float(i), "y": 1.0, "p": 0.5}
            ]}
            for i in range(25)
        ]
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"objects": objects}))
        # result semantics has no kernel path: pbr answers through the capped oracle
        knn_result = ["knn", "--query-x", "0", "--query-y", "0", "--k", "2",
                      "--semantics", "result", "--backend", "pbr"]
        for argv in (["worlds"], knn_result):
            code, _, err = run_cli(argv + ["--dataset", str(big)], capsys)
            assert code == 2
            assert "cap" in json.loads(err.strip())["error"]


class TestConfigAndOutput:
    def test_config_file_provides_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 100.0, "tau": 0.5}))
        code, out, _ = run_cli(
            [
                "range", "--dataset", str(FIXTURES / "range_demo.json"),
                "--query-x", "0", "--query-y", "0", "--config", str(cfg),
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["result"] == ["A", "D"]

    def test_explicit_flag_wins_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 1.0}))
        code, out, _ = run_cli(
            [
                "range", "--dataset", str(FIXTURES / "range_demo.json"),
                "--query-x", "0", "--query-y", "0", "--epsilon", "100",
                "--config", str(cfg),
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["epsilon"] == 100

    @pytest.mark.parametrize("config, flags", [
        ({"k": "2"}, ["--k", "2"]),
        ({"k": 2, "seed": "7", "samples": 300, "backend": "sampled"},
         ["--k", "2", "--seed", "7", "--samples", "300", "--backend", "sampled"]),
        ({"k": 2, "nn": 3, "maximal": True, "unknown": [1], "semantics": None}, ["--k", "2"]),
    ], ids=["int-string", "sampling", "other-keys-ignored"])
    def test_config_values_parse_like_flags(self, config, flags, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        base = KNN_ARGS[:-2]  # without --k
        _, expected, _ = run_cli(base + flags, capsys)
        code, out, _ = run_cli(base + ["--config", str(cfg)], capsys)
        assert code == 0
        assert out == expected

    def test_config_leaves_no_trace_on_the_next_call(self, tmp_path, capsys):
        """The parser is built once per process; a --config call does not change later calls."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"backend": "sampled", "samples": 300, "k": 1}))
        _, plain, _ = run_cli(KNN_ARGS, capsys)
        code, configured, _ = run_cli(KNN_ARGS[:-2] + ["--config", str(cfg)], capsys)
        assert code == 0 and configured != plain
        assert run_cli(KNN_ARGS, capsys) == (0, plain, "")
        assert cli._build_parser() is cli._build_parser()

    def test_config_boolean_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"maximal": True}))
        args = ["pcnn", "--dataset", str(FIXTURES / "pcnn_demo.json"), "--tau", "0.5"]
        _, expected, _ = run_cli(args + ["--maximal"], capsys)
        code, out, _ = run_cli(args + ["--config", str(cfg)], capsys)
        assert code == 0
        assert out == expected

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(KNN_ARGS + ["--output", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["probabilities"]["B"] == 0.94


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "uncertain_spatial.cli"] + KNN_ARGS,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["probabilities"]["A"] == 0.1
