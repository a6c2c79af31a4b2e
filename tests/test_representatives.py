"""Representative selection: confidence bounds, greedy cover, clustering."""

import math

import numpy as np
import pytest

from uncertain_spatial import (
    PossibleResult,
    ValidationError,
    alpha_confidence,
    cluster_representatives,
    jaccard_distance,
    max_cover_representatives,
    pam_kmedoids,
    standard_normal_quantile,
)
from uncertain_spatial import representatives
from uncertain_spatial.representatives import _choose_clustering, _distance_matrix, _scan
from uncertain_spatial.worlds import ResultSet

from conftest import exhaustive_best_cover


def pr_of(*pairs) -> list:
    return [PossibleResult(ResultSet.of(ids), support) for ids, support in pairs]


def random_pr(rng, max_distinct=12, universe="ABCDEF"):
    seen = {}
    for _ in range(int(rng.integers(2, max_distinct + 1))):
        mask = rng.random(len(universe)) < 0.5
        key = tuple(u for u, m in zip(universe, mask) if m)
        seen[key] = seen.get(key, 0) + int(rng.integers(1, 50))
    return [PossibleResult(ResultSet.of(k), s) for k, s in sorted(seen.items())]


class TestNormalQuantile:
    def test_reference_values(self):
        # classic two-sided critical values
        assert standard_normal_quantile(0.95) == pytest.approx(1.6448536269514722, abs=1e-10)
        assert standard_normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-10)
        assert standard_normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
        assert standard_normal_quantile(0.05) == pytest.approx(-1.6448536269514722, abs=1e-10)

    def test_error_bound_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        grid = np.concatenate(
            [np.linspace(1e-6, 0.02, 80), np.linspace(0.02, 0.98, 400), np.linspace(0.98, 1 - 1e-6, 80)]
        )
        for p in grid:
            exact = float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(float(p)) - 1))
            assert abs(standard_normal_quantile(float(p)) - exact) < 1e-8

    def test_extremes(self):
        assert standard_normal_quantile(0.0) == -math.inf
        assert standard_normal_quantile(1.0) == math.inf
        with pytest.raises(ValidationError):
            standard_normal_quantile(1.5)


class TestAlphaConfidence:
    def test_worked_value(self):
        assert alpha_confidence(0.9, 100, 0.95) == pytest.approx(0.85065, abs=1e-4)

    def test_zero_estimate_clamps(self):
        with pytest.warns(UserWarning):
            assert alpha_confidence(0.0, 100, 0.95) == 0.0

    def test_alpha_half_returns_estimate(self):
        assert alpha_confidence(0.42, 50, 0.5) == pytest.approx(0.42, abs=1e-12)

    def test_bound_below_estimate_for_significant_alpha(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            p_hat = float(rng.uniform(0.1, 1.0))
            n = int(rng.integers(10, 10000))
            alpha = float(rng.uniform(0.5, 0.999))
            assert alpha_confidence(p_hat, n, alpha) <= p_hat + 1e-15

    def test_monotone_in_sample_count(self):
        values = [alpha_confidence(0.8, n, 0.95) for n in (10, 30, 100, 1000, 100000)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_applicability_warning(self):
        with pytest.warns(UserWarning, match="normal approximation"):
            alpha_confidence(0.01, 100, 0.95)


class TestMaxCover:
    def test_star_configuration(self):
        """One hub within tau of everything covers the whole multiset at once."""
        pr = pr_of(("AB", 10), ("ABC", 5), ("ABD", 5), ("ABE", 5), ("ABF", 5))
        hub = ResultSet.of("AB")
        tau = max(jaccard_distance(hub, r.result) for r in pr)
        reps = max_cover_representatives(pr, tau=tau, n=3, alpha=0.95)
        assert len(reps) == 1
        assert reps[0].result == hub
        assert reps[0].support == 30

    def test_tau_zero_picks_highest_supports(self):
        pr = pr_of(("A", 5), ("B", 20), ("C", 10), ("D", 1))
        reps = max_cover_representatives(pr, tau=0.0, n=2, alpha=0.95)
        assert [r.result.members for r in reps] == [("B",), ("C",)]
        assert [r.support for r in reps] == [20, 10]

    def test_greedy_guarantee_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            pr = random_pr(rng)
            tau = float(rng.uniform(0.1, 0.9))
            n = int(rng.integers(1, 4))
            reps = max_cover_representatives(pr, tau, n, alpha=0.95)
            dist = [
                [jaccard_distance(a.result, b.result) for b in pr] for a in pr
            ]
            chosen = [next(i for i, r in enumerate(pr) if r.result == rep.result) for rep in reps]
            achieved = sum(
                r.support
                for i, r in enumerate(pr)
                if any(dist[i][j] <= tau for j in chosen)
            )
            optimal = exhaustive_best_cover(pr, dist, tau, n)
            assert achieved >= (1 - 1 / math.e) * optimal - 1e-9

    def test_coverage_bound_holds(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            pr = random_pr(rng)
            total = sum(r.support for r in pr)
            tau = float(rng.uniform(0, 1))
            for rep in max_cover_representatives(pr, tau, 2, alpha=0.95):
                fraction = rep.support / total
                assert rep.phi <= fraction + 1e-12

    def test_gain_tie_picks_smaller_result_at_higher_index(self):
        pr = pr_of(("C", 10), ("B", 10), ("A", 10), ("AD", 4))
        reps = max_cover_representatives(pr, tau=0.0, n=2, alpha=0.95)
        assert [r.result.members for r in reps] == [("A",), ("B",)]

    def test_parameter_validation(self):
        pr = pr_of(("A", 1))
        with pytest.raises(ValidationError):
            max_cover_representatives(pr, tau=-0.1, n=1, alpha=0.95)
        with pytest.raises(ValidationError):
            max_cover_representatives(pr, tau=0.5, n=0, alpha=0.95)


class TestDistanceMatrix:
    def test_matches_pairwise_jaccard(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            pr = random_pr(rng, max_distinct=20)
            pr.append(PossibleResult(ResultSet.of(()), 3))
            loop = np.array([[jaccard_distance(a.result, b.result) for b in pr] for a in pr])
            assert np.array_equal(_distance_matrix(pr), loop)

    def test_empty_results_only(self):
        pr = pr_of(("", 4))
        assert np.array_equal(_distance_matrix(pr), np.zeros((1, 1)))


class TestPam:
    def test_two_obvious_groups(self):
        pr = pr_of(("AB", 10), ("ABC", 8), ("DEF", 9), ("DE", 7))
        dist = np.array(
            [[jaccard_distance(a.result, b.result) for b in pr] for a in pr]
        )
        weights = np.array([r.support for r in pr], dtype=float)
        medoids, labels = pam_kmedoids(dist, weights, 2)
        groups = {tuple(sorted(np.flatnonzero(labels == c))) for c in range(2)}
        assert groups == {(0, 1), (2, 3)}

    def test_k_validation(self):
        dist = np.zeros((2, 2))
        with pytest.raises(ValidationError):
            pam_kmedoids(dist, np.ones(2), 3)

    def test_scan_takes_entries_below_the_running_best_minus_tol(self):
        """Not an argmin, and not the first entry within tol of the minimum."""
        assert _scan([1.0, 1 - 0.5e-15], math.inf, 1e-15) == (0, 1.0)
        assert _scan([1.0, 1 - 0.8e-15, 1 - 1.6e-15], math.inf, 1e-15) == (2, 1 - 1.6e-15)
        assert _scan([1.0, 1 - 0.5e-15], math.inf, 0.0) == (1, 1 - 0.5e-15)
        # at 1e4 one ulp is about 1.8e-12: a one-ulp gain is not taken
        assert _scan([1e4 - 1.8e-12, 1e4 - 3.7e-12], 1e4, 1e-12) == (1, 1e4 - 3.7e-12)
        assert _scan([], 1.0, 1e-12) == (None, 1.0)

    def test_first_medoid_is_the_first_cheapest_however_small_the_gap(self):
        c = 0.5 - 4e-16  # rows 1 and 2 cost about 4e-16 less than row 0
        dist = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, c], [0.5, c, 0.0]])
        assert pam_kmedoids(dist, np.ones(3), 1)[0] == [1]

    def test_later_picks_and_swaps_need_a_gain_above_tolerance(self):
        """Next to medoid 2, medoid 1 would cost about 1e-15 less than medoid 0: less than
        the build's 1e-15, and less than the swap's 1e-12."""
        hi, lo = 0.75 + 1e-15, 0.75 - 1e-15
        dist = np.array([[0.0, hi, lo], [hi, 0.0, 0.25], [lo, 0.25, 0.0]])
        assert pam_kmedoids(dist, np.array([1.0, 3.0, 3.0]), 2)[0] == [0, 2]

    def test_k_choice_needs_a_silhouette_gain_above_tolerance(self, monkeypatch):
        """k = 3 beats k = 2 by 5e-13 and is not taken; k = 4 beats it by 2e-12 and is;
        k = 5 beats k = 4 by 5e-13 and is not."""
        gains = {2: 0.0, 3: 5e-13, 4: 2e-12, 5: 2.5e-12}
        monkeypatch.setattr(representatives, "_weighted_silhouette",
                            lambda dist, weights, labels: 0.5 + gains[labels.max() + 1])
        pr = pr_of(("A", 5), ("AB", 4), ("C", 3), ("CD", 2), ("E", 2), ("EF", 1))
        medoids, _ = _choose_clustering(_distance_matrix(pr), np.array([5.0, 4, 3, 2, 2, 1]))
        assert len(medoids) == 4


class TestClusterRepresentatives:
    def test_two_separated_results(self):
        pr = pr_of(("AB", 30), ("CDE", 20))
        reps = cluster_representatives(pr, alpha=0.95)
        assert len(reps) == 2
        assert all(r.tau == 0.0 for r in reps)
        assert {r.result.members for r in reps} == {("A", "B"), ("C", "D", "E")}

    def test_single_distinct_result(self):
        pr = pr_of(("AB", 100))
        reps = cluster_representatives(pr, alpha=0.95)
        assert len(reps) == 1
        assert reps[0].tau == 0.0
        assert reps[0].phi == pytest.approx(alpha_confidence(1.0, 100, 0.95), abs=1e-12)

    def test_complete_mode_minimax_against_brute_force(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            pr = random_pr(rng)
            k = int(rng.integers(2, min(4, len(pr)) + 1)) if len(pr) > 2 else 2
            reps = cluster_representatives(pr, alpha=0.95, k=k)
            dist = np.array(
                [[jaccard_distance(a.result, b.result) for b in pr] for a in pr]
            )
            weights = np.array([r.support for r in pr], dtype=float)
            _, labels = pam_kmedoids(dist, weights, k)
            for c, rep in enumerate(reps):
                members = np.flatnonzero(labels == c)
                sub = dist[np.ix_(members, members)]
                assert rep.tau == pytest.approx(float(sub.max(axis=1).min()), abs=1e-12)
                # the reported radius covers the whole cluster from the pick
                pick = next(
                    i for i in members if pr[i].result == rep.result
                )
                assert dist[pick, members].max() == pytest.approx(rep.tau, abs=1e-12)

    def test_tau_max_mode_reports_fixed_radius(self):
        rng = np.random.default_rng(45)
        pr = random_pr(rng)
        reps = cluster_representatives(pr, alpha=0.95, mode="tau_max", tau_max=0.5)
        assert all(r.tau == 0.5 for r in reps)
        total = sum(r.support for r in pr)
        for rep in reps:
            assert rep.phi <= rep.support / total + 1e-12

    def test_tau_max_requires_radius(self):
        with pytest.raises(ValidationError):
            cluster_representatives(pr_of(("A", 1), ("B", 1)), alpha=0.95, mode="tau_max")

    def test_deterministic(self):
        rng = np.random.default_rng(46)
        pr = random_pr(rng)
        # one cluster covers 4 samples: too few for the normal approximation
        with pytest.warns(UserWarning, match="normal approximation unreliable"):
            a = cluster_representatives(pr, alpha=0.95)
        with pytest.warns(UserWarning, match="normal approximation unreliable"):
            b = cluster_representatives(pr, alpha=0.95)
        assert a == b
        c = max_cover_representatives(pr, 0.4, 2, 0.95)
        d = max_cover_representatives(pr, 0.4, 2, 0.95)
        assert c == d
