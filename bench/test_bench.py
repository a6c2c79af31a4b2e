"""Tests of the benchmark itself: generators, the tail rule and the checkers.

Run with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from generate import existence_probabilities  # noqa: E402
from run import check_outputs, latency_summary, run_cli, tail_index  # noqa: E402
from workloads import WORKLOADS, oracle_instance  # noqa: E402


def _contents(inputs, workdir):
    files = [Path(f).read_bytes() for f in inputs["files"]]
    requests = json.dumps(inputs["requests"]).replace(str(workdir), "<dir>")
    return files, requests


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    first = _contents(WORKLOADS[workload](7, str(a)), a)
    assert first == _contents(WORKLOADS[workload](7, str(b)), b)
    assert first != _contents(WORKLOADS[workload](8, str(c)), c)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_oracle_instances_are_small(workload, tmp_path):
    from uncertain_spatial import load_database, worlds

    inst = oracle_instance(workload, 3, str(tmp_path))
    if workload != "pcnn-traj":
        with open(inst["path"], "rb") as fh:
            assert worlds.world_count(load_database(fh)) <= 2**13


def test_tail_leaves_ten_requests_above():
    assert tail_index(30) == 19
    assert tail_index(11) == 0
    assert tail_index(5) == 0
    p50, tail, pct, above = latency_summary([float(i) for i in range(1, 31)], ["ok"] * 30)
    assert (p50, tail, above) == (15.5, 20.0, 10)
    assert pct == pytest.approx(100.0 * 20 / 30)


def test_failed_requests_sort_after_every_success():
    latencies = [float(i) for i in range(1, 31)]
    verdicts = ["failed"] * 11 + ["ok"] * 19  # the eleven fastest requests fail
    p50, tail, _, above = latency_summary(latencies, verdicts)
    # 19 successes (12..30) come first, then 11 failures valued at the worst latency
    assert tail == 30.0 and above == 10
    assert p50 == pytest.approx((26.0 + 27.0) / 2)


def test_refused_requests_are_left_out_of_the_percentiles():
    latencies = [float(i) for i in range(1, 31)]
    verdicts = ["refused"] * 5 + ["ok"] * 25  # the five fastest are refusals
    p50, tail, pct, above = latency_summary(latencies, verdicts)
    assert (p50, tail, above) == (18.0, 20.0, 10)
    assert pct == pytest.approx(100.0 * 15 / 25)


def _run_cli(argv):
    rc, out, _ = run_cli(argv)
    return rc, out


def _first(inputs, kind):
    return next(r for r in inputs["requests"] if r["kind"] == kind)


@pytest.fixture(scope="module")
def knn_inputs(tmp_path_factory):
    return WORKLOADS["knn-scan"](5, str(tmp_path_factory.mktemp("knn")))


@pytest.mark.parametrize(
    "kind, check, corrupt",
    [
        ("knn", checks.check_knn, lambda d: d["probabilities"].update(
            {k: v + 1e-6 for k, v in list(d["probabilities"].items())[:1]})),
        ("knn", checks.check_knn, lambda d: d["probabilities"].popitem()),
        ("topk", checks.check_topk, lambda d: d["result"].pop()),
        ("topk", checks.check_topk, lambda d: d["probabilities"].update(
            {sorted(d["probabilities"], key=d["probabilities"].get)[0]: 1.5})),
        ("rank", checks.check_rank, lambda d: d["ranks"].__setitem__(0, d["ranks"][0] + 1e-6)),
    ],
)
def test_knn_scan_checks_reject_corruption(knn_inputs, kind, check, corrupt):
    req = _first(knn_inputs, kind)
    rc, out = _run_cli(req["argv"])
    assert rc == 0
    doc = json.loads(out)
    assert check(req, doc, knn_inputs["existence"]) is None
    bad = copy.deepcopy(doc)
    corrupt(bad)
    assert check(req, bad, knn_inputs["existence"]) is not None


def test_check_outputs_counts_failed_and_refused(knn_inputs):
    requests = knn_inputs["requests"][:2]
    good = _run_cli(requests[0]["argv"])[1]
    refusal = '{"error": "timestamp 0: 9 joint alternative combinations exceed cap 4"}\n'
    records = [
        {"i": 0, "rc": 0, "out": good, "err": ""},
        {"i": 1, "rc": 1, "out": "", "err": '{"error": "bad"}\n'},
        {"i": 2, "rc": 0, "out": good.replace("0.", "0.0", 1), "err": ""},
        {"i": 3, "rc": 2, "out": "", "err": refusal},
    ]
    verdicts, reasons = check_outputs(records, requests, knn_inputs)
    assert verdicts == ["ok", "failed", "failed", "refused"]
    assert "different output" in reasons[1]


def _small_range(tmp_path):
    """A range-bulk-shaped request on the oracle-sized database."""
    inst = oracle_instance("range-bulk", 4, str(tmp_path))
    req = copy.deepcopy(inst["requests"][0])
    req["params"]["tau"] = 0.5
    req["argv"] += ["--tau", "0.5"]
    return req, existence_probabilities(inst["doc"])


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda d: d["count_distribution"].__setitem__(0, d["count_distribution"][0] + 1e-6),
        lambda d: d["count_distribution"].reverse(),
        lambda d: d["result"].append("nope") or d["result"].sort(),
        lambda d: d["probabilities"].update({k: 0.0 for k in d["result"][:1]}),
    ],
)
def test_range_checks_reject_corruption(tmp_path, corrupt):
    req, existence = _small_range(tmp_path)
    rc, out = _run_cli(req["argv"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"], "the instance should have objects above tau"
    assert checks.check_range(req, doc, existence) is None
    bad = copy.deepcopy(doc)
    corrupt(bad)
    assert checks.check_range(req, bad, existence) is not None


def test_reps_checks_reject_corruption(tmp_path):
    inputs = WORKLOADS["reps-sampled"](6, str(tmp_path))
    req = _first(inputs, "maxcover-70")
    rc, out = _run_cli(req["argv"])
    assert rc == 0
    doc = json.loads(out)
    assert checks.check_reps(req, doc, inputs["existence"]) is None
    for corrupt in (
        lambda d: d["representatives"][0].update(support=req["params"]["samples"] + 1),
        lambda d: d["representatives"][0].update(phi=1.2),
        lambda d: d["representatives"][0].update(tau=-0.1),
        lambda d: d["representatives"].extend(copy.deepcopy(d["representatives"]) * 3),
    ):
        bad = copy.deepcopy(doc)
        corrupt(bad)
        assert checks.check_reps(req, bad, inputs["existence"]) is not None


def test_pcnn_checks_reject_corruption(tmp_path):
    inputs = WORKLOADS["pcnn-traj"](6, str(tmp_path))
    candidates, domain = inputs["trajectories"]
    plain_req, max_req = _first(inputs, "pcnn-0.1"), _first(inputs, "pcnn-maximal-0.1")
    plain = json.loads(_run_cli(plain_req["argv"])[1])
    maximal = json.loads(_run_cli(max_req["argv"])[1])
    assert checks.check_pcnn(plain_req, plain, candidates, domain) is None
    assert checks.check_pcnn(max_req, maximal, candidates, domain, plain) is None

    shadow = plain["results"]["c00"]
    big = max(range(len(shadow)), key=lambda i: len(shadow[i]["timestamps"]))
    below_tau = copy.deepcopy(plain)
    below_tau["results"]["c00"][0]["p"] = 0.05
    grows = copy.deepcopy(plain)
    grows["results"]["c00"][big]["p"] = 1.0
    missing_subset = copy.deepcopy(plain)
    del missing_subset["results"]["c00"][0]
    for bad in (below_tau, grows, missing_subset):
        assert checks.check_pcnn(plain_req, bad, candidates, domain) is not None

    not_subset = copy.deepcopy(maximal)
    not_subset["results"]["c00"][0]["p"] = 0.999
    assert checks.check_pcnn(max_req, not_subset, candidates, domain, plain) is not None
    assert checks.check_pcnn(max_req, plain, candidates, domain, plain) is not None


def test_exact_pcnn_refusal_is_recognised(tmp_path):
    inputs = WORKLOADS["pcnn-traj"](6, str(tmp_path))
    rc, _, err = run_cli(_first(inputs, "exact-object")["argv"])
    assert checks.is_refusal(rc, err)
    assert not checks.is_refusal(1, err)
    assert not checks.is_refusal(2, '{"error": "database too large for oracle"}\n')


def test_pcnn_oracle_agreement_rejects_disagreement():
    exact = {"results": {"a": [{"timestamps": [0], "p": 0.5}, {"timestamps": [1], "p": 0.5}]}}
    close = {"results": {"a": [{"timestamps": [0], "p": 0.51}, {"timestamps": [1], "p": 0.5}]}}
    far = {"results": {"a": [{"timestamps": [0], "p": 0.6}, {"timestamps": [1], "p": 0.5}]}}
    assert checks.pcnn_oracle_agreement(exact, close, 4000) is None
    assert checks.pcnn_oracle_agreement(exact, far, 4000) is not None


def test_expected_min_matches_enumeration():
    ps = [0.3, 0.9, 0.5]
    import itertools

    want = 0.0
    for bits in itertools.product((0, 1), repeat=3):
        w = 1.0
        for b, p in zip(bits, ps):
            w *= p if b else 1.0 - p
        want += w * min(2, sum(bits))
    assert checks.expected_min(2, ps) == pytest.approx(want, abs=1e-15)
