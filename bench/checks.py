"""Output checks for every request, and the untimed oracle cross-check.

Each ``check_<command>`` takes the request and the parsed stdout document
and returns None when the output is right, or a one-line reason.  The
checks use only what the benchmark knows independently of the program: the
generated existence probabilities, the request parameters, and identities
any correct answer satisfies.  Printed floats carry 12 significant digits,
so sums over many of them are compared with a tolerance that scales with
their size.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Dict, Iterable, List, Optional

#: Error text of the exact trajectory backend's joint-combination cap.
CAP_REFUSAL = "joint alternative combinations exceed cap"
#: Slack for comparisons of single printed probabilities.
EPS = 1e-11


def poisson_binomial(ps: Iterable[float]) -> List[float]:
    """Pmf of the number of successes of independent Bernoulli(p) trials."""
    pmf = [1.0]
    for p in ps:
        nxt = [0.0] * (len(pmf) + 1)
        for j, m in enumerate(pmf):
            nxt[j] += m * (1.0 - p)
            nxt[j + 1] += m * p
        pmf = nxt
    return pmf


def expected_min(k: int, existence: Iterable[float]) -> float:
    """E[min(k, number of existing objects)] for independent objects."""
    return math.fsum(min(k, j) * m for j, m in enumerate(poisson_binomial(existence)))


def _probabilities_ok(probs: Dict[str, float], ids) -> Optional[str]:
    if set(probs) != set(ids):
        return "probabilities do not cover exactly the candidate objects"
    bad = [oid for oid, p in probs.items() if not 0.0 <= p <= 1.0]
    return f"probability outside [0,1] for {bad[:3]}" if bad else None


def check_knn(req: dict, doc: dict, existence: Dict[str, float]) -> Optional[str]:
    probs = doc["probabilities"]
    reason = _probabilities_ok(probs, existence)
    if reason:
        return reason
    want = expected_min(req["params"]["k"], existence.values())
    got = math.fsum(probs.values())
    if abs(got - want) > 1e-9:
        return f"kNN probabilities sum to {got!r}, expected E[min(k, existing)] = {want!r}"
    return None


def topk_members_ok(probs: Dict[str, float], k: int, result: List[str]) -> Optional[str]:
    """The result is the k most probable objects, plus any tied with the k-th."""
    if result != sorted(result) or len(set(result)) != len(result):
        return "top-k result is not a sorted set of ids"
    ranked = sorted(probs.values(), reverse=True)
    boundary = ranked[min(k, len(ranked)) - 1]
    inside = set(result)
    if not inside <= set(probs):
        return "top-k result names an object without a probability"
    if len(inside) < min(k, len(probs)):
        return f"top-k result has {len(inside)} members, fewer than k={k}"
    for oid, p in probs.items():
        if oid in inside and p < boundary - EPS:
            return f"top-k member {oid} has p={p} below the k-th largest {boundary}"
        if oid not in inside and p > boundary - EPS:
            return f"object {oid} with p={p} is tied with or above the k-th largest {boundary} but left out"
    return None


def check_topk(req: dict, doc: dict, existence: Dict[str, float]) -> Optional[str]:
    params = req["params"]
    q = params["query_object"]
    others = {oid: e for oid, e in existence.items() if oid != q}
    probs = doc["probabilities"]
    reason = _probabilities_ok(probs, others)
    if reason:
        return reason
    want = expected_min(params["nn"], others.values())
    got = math.fsum(probs.values())
    if abs(got - want) > 1e-9:
        return f"kNN probabilities sum to {got!r}, expected E[min(nn, existing)] = {want!r}"
    return topk_members_ok(probs, params["k"], doc["result"])


def check_rank(req: dict, doc: dict, existence: Dict[str, float]) -> Optional[str]:
    ranks = doc["ranks"]
    if len(ranks) != len(existence):
        return f"rank distribution has {len(ranks)} entries for {len(existence)} objects"
    if any(not 0.0 <= m <= 1.0 for m in ranks):
        return "rank mass outside [0,1]"
    want = existence[req["params"]["object"]]
    if abs(math.fsum(ranks) - want) > 1e-9:
        return f"rank mass sums to {math.fsum(ranks)!r}, expected existence probability {want!r}"
    return None


def check_range(req: dict, doc: dict, existence: Dict[str, float]) -> Optional[str]:
    probs = doc["probabilities"]
    reason = _probabilities_ok(probs, existence)
    if reason:
        return reason
    mass = doc["count_distribution"]
    if len(mass) != len(existence) + 1 or any(m < 0.0 for m in mass):
        return "count distribution has the wrong length or negative mass"
    if abs(math.fsum(mass) - 1.0) > 1e-9:
        return f"count distribution sums to {math.fsum(mass)!r}"
    mean = math.fsum(i * m for i, m in enumerate(mass))
    total = math.fsum(probs.values())
    if abs(mean - total) > 1e-9 * max(1.0, total):
        return f"count distribution mean {mean!r} differs from the probability sum {total!r}"
    tau = req["params"].get("tau")
    if tau is not None:
        result = doc["result"]
        if result != sorted(result):
            return "threshold result is not sorted"
        inside = set(result)
        if not inside <= set(probs):
            return "threshold result names an object without a probability"
        for oid, p in probs.items():
            if (oid in inside) != (p >= tau) and abs(p - tau) > EPS:
                return f"threshold result disagrees with p >= tau for {oid} (p={p})"
    return None


def check_reps(req: dict, doc: dict, existence: Dict[str, float]) -> Optional[str]:
    params = req["params"]
    reps = doc["representatives"]
    if doc["samples"] != params["samples"] or doc["seed"] != params["seed"]:
        return "samples or seed echoed wrongly"
    if not reps:
        return "no representatives"
    if params["method"] == "maxcover" and len(reps) > params["n_reps"]:
        return f"{len(reps)} representatives, more than --n-reps"
    for r in reps:
        if not 1 <= r["support"] <= params["samples"]:
            return f"support {r['support']} outside 1..samples"
        if not (0.0 <= r["tau"] <= 1.0 and 0.0 <= r["phi"] <= 1.0):
            return f"tau {r['tau']} or phi {r['phi']} outside [0,1]"
        members = r["result"]
        if members != sorted(set(members)) or not set(members) <= set(existence):
            return "representative result is not a sorted set of object ids"
        if len(members) > params["nn"]:
            return f"representative result has more than {params['nn']} members"
    return None


CHECKS = {
    "knn": check_knn,
    "topk": check_topk,
    "rank": check_rank,
    "range": check_range,
    "reps": check_reps,
}


def _timestamp_sets(doc: dict) -> Dict[str, Dict[tuple, float]]:
    return {
        oid: {tuple(s["timestamps"]): s["p"] for s in sets}
        for oid, sets in doc["results"].items()
    }


def check_pcnn(req: dict, doc: dict, candidates, domain, plain: Optional[dict] = None) -> Optional[str]:
    """Every p reaches tau, p never grows with the set, and maximal output
    is a subset of the plain output of the same request without --maximal."""
    tau = req["params"]["tau"]
    sets = _timestamp_sets(doc)
    if not set(sets) <= set(candidates):
        return "results name an unknown trajectory"
    for oid, found in sets.items():
        for ts, p in found.items():
            if not ts or list(ts) != sorted(set(ts)) or not set(ts) <= set(domain):
                return f"{oid}: malformed timestamp set {ts}"
            if not tau - EPS <= p <= 1.0:
                return f"{oid}: p={p} for {ts} is below tau={tau} or above 1"
        if req["params"].get("maximal"):
            for a, b in itertools.permutations(found, 2):
                if set(a) < set(b):
                    return f"{oid}: maximal output holds {a}, a subset of {b}"
            continue
        for ts, p in found.items():
            for sub in itertools.combinations(ts, len(ts) - 1):
                if sub and (sub not in found or found[sub] < p - EPS):
                    return f"{oid}: p grows from {sub} to {ts}, or the subset is missing"
    if req["params"].get("maximal"):
        if plain is None:
            return "no plain output to compare the maximal output with"
        full = _timestamp_sets(plain)
        if set(full) != set(sets):
            return "maximal output names other trajectories than the plain output"
        for oid, found in sets.items():
            for ts, p in found.items():
                if full[oid].get(ts) != p:
                    return f"{oid}: maximal set {ts} is not in the plain output"
            for ts in full[oid]:
                if not any(set(ts) <= set(m) for m in found):
                    return f"{oid}: plain set {ts} lies in no maximal set"
    return None


def is_refusal(rc: int, err: str) -> bool:
    """The exact trajectory backend's documented refusal (exit 2, JSON error)."""
    if rc != 2:
        return False
    try:
        return CAP_REFUSAL in json.loads(err.strip().splitlines()[-1])["error"]
    except (ValueError, KeyError, IndexError, TypeError):
        return False


def pcnn_oracle_agreement(exact: dict, sampled: dict, n: int) -> Optional[str]:
    """Sampled pcnn agrees with exact pcnn within 4 standard errors.

    Both outputs come from a query with a tau small enough to report every
    set with p > 0.  Per trajectory, the sum of its single-timestamp win
    probabilities is compared; draws at distinct timestamps are independent,
    so the variance of the sampled sum is the sum of p(1-p)/n.
    """
    e_sets, s_sets = exact["results"], sampled["results"]
    for oid in set(e_sets) | set(s_sets):
        singles_e = {tuple(s["timestamps"]): s["p"] for s in e_sets.get(oid, []) if len(s["timestamps"]) == 1}
        singles_s = {tuple(s["timestamps"]): s["p"] for s in s_sets.get(oid, []) if len(s["timestamps"]) == 1}
        want = math.fsum(singles_e.values())
        got = math.fsum(singles_s.values())
        se = math.sqrt(math.fsum(p * (1.0 - p) for p in singles_e.values()) / n)
        if abs(got - want) > 4.0 * se + 1e-12:
            return f"{oid}: sampled single-timestamp sum {got} vs exact {want} (4 SE = {4 * se})"
    return None
