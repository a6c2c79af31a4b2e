"""Bernoulli-sum kernels: worked values, cross-checks, and brute force."""

import numpy as np
import pytest

from uncertain_spatial import (
    CountDistribution,
    ValidationError,
    generating_function,
    poisson_binomial_recurrence,
)
from uncertain_spatial import bernoulli
from uncertain_spatial.bernoulli import truncated_recurrence

from conftest import brute_force_bernoulli_pmf

WORKED_PROBS = [0.1, 0.2, 0.3, 0.4]
WORKED_PMF = [0.3024, 0.4404, 0.2144, 0.0404, 0.0024]


class TestWorkedExample:
    @pytest.mark.parametrize("kernel", [poisson_binomial_recurrence, generating_function])
    def test_full_distribution(self, kernel):
        np.testing.assert_allclose(kernel(WORKED_PROBS).mass, WORKED_PMF, atol=1e-12)

    def test_recurrence_intermediate_row(self):
        """The first two trials leave the row [0.72, 0.26, 0.02]."""
        np.testing.assert_allclose(
            poisson_binomial_recurrence(WORKED_PROBS[:2]).mass, [0.72, 0.26, 0.02], atol=1e-12
        )

    def test_expansion_after_three_factors(self):
        np.testing.assert_allclose(
            generating_function(WORKED_PROBS[:3]).mass,
            [0.504, 0.398, 0.092, 0.006],
            atol=1e-12,
        )


class TestEdgeCases:
    @pytest.mark.parametrize("kernel", [poisson_binomial_recurrence, generating_function])
    def test_empty_vector(self, kernel):
        np.testing.assert_array_equal(kernel([]).mass, [1.0])

    @pytest.mark.parametrize("kernel", [poisson_binomial_recurrence, generating_function])
    def test_all_certain(self, kernel):
        np.testing.assert_allclose(kernel([1.0, 1.0]).mass, [0.0, 0.0, 1.0], atol=0)

    @pytest.mark.parametrize("kernel", [poisson_binomial_recurrence, generating_function])
    def test_single_fair_trial(self, kernel):
        np.testing.assert_allclose(kernel([0.5]).mass, [0.5, 0.5], atol=0)

    @pytest.mark.parametrize("bad", [[-0.1], [1.5], [float("nan")]])
    def test_invalid_probability_rejected(self, bad):
        with pytest.raises(ValidationError):
            poisson_binomial_recurrence(bad)


class TestProperties:
    def test_kernels_agree(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 65))
            p = rng.random(n)
            a = poisson_binomial_recurrence(p).mass
            b = generating_function(p).mass
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(1, 16))
            p = rng.random(n)
            expected = brute_force_bernoulli_pmf(p)
            np.testing.assert_allclose(poisson_binomial_recurrence(p).mass, expected, atol=1e-12)
            np.testing.assert_allclose(generating_function(p).mass, expected, atol=1e-12)

    def test_normalized_and_non_negative(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            p = rng.random(int(rng.integers(0, 40)))
            mass = poisson_binomial_recurrence(p).mass
            assert mass.min() >= 0.0
            assert abs(mass.sum() - 1.0) < 1e-9

    def test_permutation_invariance(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            p = rng.random(int(rng.integers(2, 40)))
            shuffled = rng.permutation(p)
            np.testing.assert_allclose(
                poisson_binomial_recurrence(p).mass,
                poisson_binomial_recurrence(shuffled).mass,
                atol=1e-12,
            )


class TestTruncatedRecurrence:
    def test_rows_are_the_leading_recurrence_entries(self):
        """Each column folds to the recurrence's first entries bit for bit, zero and certain
        trials anywhere among them."""
        rng = np.random.default_rng(46)
        for _ in range(100):
            n = int(rng.integers(0, 20))
            trials = rng.random((n, 5))
            trials[rng.random((n, 5)) < 0.2] = 0.0
            trials[rng.random((n, 5)) < 0.2] = 1.0
            for width in range(1, n + 2):
                rows = truncated_recurrence(trials, width)
                assert rows.shape == (5, width) and rows.flags.c_contiguous
                for i in range(5):
                    mass = poisson_binomial_recurrence(trials[:, i]).mass
                    assert np.array_equal(rows[i], mass[:width])

    def test_mass_past_the_width_is_carried(self):
        """Width 1 keeps P(no success); the 0.73 beyond it is the tail."""
        rows = truncated_recurrence(np.array([[0.7], [0.1]]), 1)
        assert rows.tolist() == [[(1.0 - 0.7) * (1.0 - 0.1)]]

    def test_normalization_checked_against_the_tolerance(self, monkeypatch):
        """The two entries of [0.7, 0.1] plus the tail miss 1 by round-off."""
        truncated_recurrence(np.array([[0.7], [0.1]]), 2)
        monkeypatch.setattr(bernoulli, "PROB_TOL", 0.0)
        with pytest.raises(ValueError, match="does not sum to 1"):
            truncated_recurrence(np.array([[0.7], [0.1]]), 2)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_invalid_probability_rejected(self, bad):
        with pytest.raises(ValidationError):
            truncated_recurrence(np.array([[0.5, bad]]), 1)


class TestCountDistribution:
    def test_roundoff_clamped(self):
        cd = CountDistribution(np.array([1.0, -5e-16]))
        assert cd.mass[1] == 0.0

    def test_large_negative_rejected(self):
        with pytest.raises(ValueError):
            CountDistribution(np.array([1.0, -1e-12]))

