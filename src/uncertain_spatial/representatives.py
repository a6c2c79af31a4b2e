"""Selection of representative query results from sampled possible results.

A representative is a sampled result reported together with a distance radius
tau and a significance-alpha lower bound phi on the probability that the true
(unknown) result lies within Jaccard distance tau of it.  Two selection
strategies are provided: greedy maximum cover (user supplies tau and the
number of representatives) and k-medoid clustering of the result space
(complete/minimax radius per cluster, or a fixed tau_max radius).

Possible results form a compressed multiset, so every count here is weighted
by support.

PAM's build, its swaps and the choice of k share one improvement rule: in
visit order, take an entry below the running best minus a tolerance.  Costs
and silhouette sums are row sums over C-ordered rows (numpy sums each row
pairwise, as it sums that row alone), and the silhouette mean is accumulated
in point order, so every float is the one a candidate-by-candidate loop gives.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import ValidationError
from .sampling import PossibleResult
from .worlds import ResultSet

def standard_normal_quantile(p: float) -> float:
    """Inverse standard normal CDF: ``-inf`` at 0, ``inf`` at 1."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError("quantile argument must lie in [0, 1]")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    # imported on use, not at CLI start-up: statistics pulls in decimal and fractions
    from statistics import NormalDist
    return NormalDist().inv_cdf(p)


def alpha_confidence(p_hat: float, n: int, alpha: float) -> float:
    """Significance-alpha lower bound on a binomially estimated probability.

    Normal approximation: ``p_hat - z * sqrt(p_hat (1 - p_hat) / n)`` with z
    the upper-tail critical value for significance alpha (the magnitude of the
    100*(1-alpha) standard-normal percentile), clamped to [0, 1].  Emits a
    warning when ``n * p_hat < 5``, where the approximation is unreliable.
    """
    if not 0.0 <= alpha <= 1.0:  # NaN fails too
        raise ValidationError("alpha must lie in [0, 1]")
    if n < 1:
        raise ValidationError("sample count must be at least 1")
    if not 0.0 <= p_hat <= 1.0:
        raise ValidationError("p_hat must lie in [0, 1]")
    if n * p_hat < 5:
        warnings.warn(
            f"normal approximation unreliable: n * p_hat = {n * p_hat:.3g} < 5",
            stacklevel=2,
        )
    sd = math.sqrt(p_hat * (1.0 - p_hat) / n)
    if sd == 0.0:
        return p_hat
    z = standard_normal_quantile(alpha)
    return min(1.0, max(0.0, p_hat - z * sd))


def jaccard_distance(r1: ResultSet, r2: ResultSet) -> float:
    """1 - |intersection| / |union|; two empty results have distance 0."""
    s1, s2 = set(r1.members), set(r2.members)
    union = s1 | s2
    if not union:
        return 0.0
    return 1.0 - len(s1 & s2) / len(union)


@dataclass(frozen=True)
class Representative:
    """A selected result with its radius tau, confidence phi, and covered support."""

    result: ResultSet
    tau: float
    phi: float
    alpha: float
    support: int


def _distance_matrix(pr: Sequence[PossibleResult]) -> np.ndarray:
    """Pairwise Jaccard distances, equal to ``jaccard_distance`` on every pair.

    Intersections come from one product of the result-by-object incidence
    matrix; intersection and union sizes are exact small integers, so the
    quotient rounds exactly as the set-based computation does.
    """
    column = {}
    rows, cols = [], []
    for i, r in enumerate(pr):
        for oid in r.result.members:
            rows.append(i)
            cols.append(column.setdefault(oid, len(column)))
    incidence = np.zeros((len(pr), len(column)))
    incidence[rows, cols] = 1.0
    sizes = incidence.sum(axis=1)
    dist = incidence @ incidence.T  # intersection sizes, turned into distances in place
    union = np.add.outer(sizes, sizes)
    union -= dist
    both_empty = union == 0
    union[both_empty] = 1.0
    dist /= union
    np.subtract(1.0, dist, out=dist)
    dist[both_empty] = 0.0
    return dist


def _covered_support(dist_row: np.ndarray, supports: np.ndarray, tau: float) -> int:
    return int(supports[dist_row <= tau].sum())


def _make_representative(
    pr: Sequence[PossibleResult],
    dist: np.ndarray,
    supports: np.ndarray,
    n_samples: int,
    idx: int,
    tau: float,
    alpha: float,
) -> Representative:
    covered = _covered_support(dist[idx], supports, tau)
    phi = alpha_confidence(covered / n_samples, n_samples, alpha)
    return Representative(
        result=pr[idx].result, tau=tau, phi=phi, alpha=alpha, support=covered
    )


def max_cover_representatives(
    pr: Sequence[PossibleResult], tau: float, n: int, alpha: float
) -> List[Representative]:
    """Greedy maximum-cover selection of at most n representatives.

    Each iteration picks the result covering the largest not-yet-covered
    support within Jaccard distance tau (ties by result id order) and removes
    what it covers; selection stops early once everything is covered.  Greedy
    guarantees at least a 1 - 1/e fraction of the optimal cover.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValidationError("tau must lie in [0, 1]")
    if n < 1:
        raise ValidationError("number of representatives must be at least 1")
    if not pr:
        return []
    supports = np.array([r.support for r in pr], dtype=np.int64)
    n_samples = int(supports.sum())
    dist = _distance_matrix(pr)
    within = dist <= tau
    uncovered = np.ones(len(pr), dtype=bool)
    chosen: List[Representative] = []
    for _ in range(n):
        if not uncovered.any():
            break
        gains = within @ np.where(uncovered, supports, 0)
        best = min(np.flatnonzero(gains == gains.max()), key=lambda i: pr[i].result)
        chosen.append(
            _make_representative(pr, dist, supports, n_samples, int(best), tau, alpha)
        )
        uncovered &= ~within[best]
    return chosen


def _scan(values: Sequence[float], best: float, tol: float) -> Tuple[Optional[int], float]:
    """The last entry taken, and its value, when entries are visited in order and taken
    while below the running best minus tol: neither an argmin nor the first entry
    within tol of the minimum."""
    pick = None
    for i, value in enumerate(values):
        if value < best - tol:
            pick, best = i, value
    return pick, best


def pam_kmedoids(
    dist: np.ndarray, weights: np.ndarray, k: int
) -> Tuple[List[int], np.ndarray]:
    """Support-weighted PAM: greedy build, then swap until no improvement.

    Each step prices every candidate at once, as the C-ordered row sums of
    ``np.minimum(nearest, dist[cands]) * weights``; ``nearest`` is the
    distance to the chosen medoids in the build, and to all medoids but the
    outgoing one in a swap, outgoing medoids taken in sorted order.  The scan
    takes the build's first medoid with tol 0 (the first cheapest), its later
    ones with tol 1e-15 from +inf, and a swap with tol 1e-12 from the current
    cost.  Returns the sorted medoid indices and, per point, the index (into
    the medoid list) of its nearest medoid.
    """
    m = dist.shape[0]
    if not 1 <= k <= m:
        raise ValidationError(f"cluster count must be within 1..{m}")

    def costs(nearest: np.ndarray, cands: List[int]) -> List[float]:
        rows = dist[cands]
        np.minimum(rows, nearest, out=rows)
        rows *= weights
        return rows.sum(axis=1).tolist()

    medoids: List[int] = []
    nearest = np.full(m, math.inf)
    while len(medoids) < k:
        cands = [c for c in range(m) if c not in medoids]
        pick, current = _scan(costs(nearest, cands), math.inf, 1e-15 if medoids else 0.0)
        medoids.append(cands[pick])
        nearest = np.minimum(nearest, dist[cands[pick]])
    while True:
        swap, best = None, current
        cands = [c for c in range(m) if c not in medoids]
        for med in sorted(medoids):
            kept = np.min(dist[[c for c in medoids if c != med]], axis=0, initial=math.inf)
            pick, best = _scan(costs(kept, cands), best, 1e-12)
            if pick is not None:
                swap = (med, cands[pick])
        if swap is None:
            break
        medoids = [c for c in medoids if c != swap[0]] + [swap[1]]
        current = best
    medoids = sorted(medoids)
    labels = np.argmin(dist[medoids], axis=0)
    return medoids, labels


def _weighted_silhouette(dist: np.ndarray, weights: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette over the support-weighted multiset of results.

    The labels come from PAM over distinct results, so every cluster holds
    its medoid and every distance between two points is positive.
    """
    m, k = dist.shape[0], labels.max() + 1
    cluster_w = np.array([weights[labels == c].sum() for c in range(k)])
    sums = np.empty((m, k))
    for c in range(k):
        cols = labels == c
        sums[:, c] = (np.ascontiguousarray(dist[:, cols]) * weights[cols]).sum(axis=1)
    points = np.arange(m)
    within = cluster_w[labels] - 1  # other members, counting same-result copies at distance 0
    means = sums / cluster_w
    means[points, labels] = math.inf
    keep = (within > 0) & (k > 1)  # one cluster has no silhouette
    if not keep.any():
        return 0.0
    a, b, w = sums[points, labels][keep] / within[keep], means.min(axis=1)[keep], weights[keep]
    return np.cumsum(w * ((b - a) / np.maximum(a, b)))[-1] / np.cumsum(w)[-1]


def _choose_clustering(dist: np.ndarray, weights: np.ndarray) -> Tuple[List[int], np.ndarray]:
    """The PAM clustering with the best weighted silhouette over k in 2..max(2, min(8, m - 1))."""
    m = dist.shape[0]
    runs = [pam_kmedoids(dist, weights, k) for k in range(2, max(3, min(9, m)))]
    scores = [-_weighted_silhouette(dist, weights, labels) for _, labels in runs]
    return runs[_scan(scores, math.inf, 1e-12)[0]]


def cluster_representatives(
    pr: Sequence[PossibleResult],
    alpha: float,
    mode: str = "complete",
    tau_max: Optional[float] = None,
    k: Optional[int] = None,
) -> List[Representative]:
    """One representative per k-medoid cluster of the sampled results.

    ``complete`` mode returns each cluster's minimax member with tau equal to
    its largest distance to a cluster member; ``tau_max`` mode returns the
    member with the largest support-weighted within-cluster coverage at radius
    tau_max.  When k is not given it is chosen by maximizing the weighted mean
    silhouette over k in 2..min(8, |PR| - 1).
    """
    if mode not in ("complete", "tau_max"):
        raise ValidationError(f"unknown cluster mode {mode!r}")
    if mode == "tau_max":
        if tau_max is None or not 0.0 <= tau_max <= 1.0:
            raise ValidationError("tau_max mode requires tau_max in [0, 1]")
    if not pr:
        return []
    if k is not None and not 1 <= k <= len(pr):
        raise ValidationError(f"cluster count must be within 1..{len(pr)}")
    supports = np.array([r.support for r in pr], dtype=np.int64)
    n_samples = int(supports.sum())
    dist = _distance_matrix(pr)
    if len(pr) < 2:
        return [_make_representative(pr, dist, supports, n_samples, 0, 0.0, alpha)]
    w = supports.astype(float)
    medoids, labels = _choose_clustering(dist, w) if k is None else pam_kmedoids(dist, w, k)

    reps: List[Representative] = []
    for c in range(len(medoids)):
        members = np.flatnonzero(labels == c)
        if members.size == 0:
            continue
        sub = dist[np.ix_(members, members)]
        if mode == "complete":
            minimax = sub.max(axis=1)
            order = sorted(
                range(len(members)), key=lambda i: (minimax[i], pr[members[i]].result)
            )
            pick = members[order[0]]
            tau = float(minimax[order[0]])
        else:
            coverage = [
                int(supports[members[sub[i] <= tau_max]].sum())
                for i in range(len(members))
            ]
            order = sorted(
                range(len(members)),
                key=lambda i: (-coverage[i], pr[members[i]].result),
            )
            pick = members[order[0]]
            tau = float(tau_max)
        reps.append(
            _make_representative(pr, dist, supports, n_samples, int(pick), tau, alpha)
        )
    return reps
