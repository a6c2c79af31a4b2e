"""Distribution of the sum of independent, non-identical Bernoulli trials.

Two independent computations of the Poisson-binomial probability mass
function are provided and cross-checked by the test suite:

* a dynamic-programming recurrence over states (successes so far / trials
  seen), updating a single row in place, and
* iterative expansion of the product of the per-trial generating polynomials
  ``(1 - p_i) + p_i x``, unifying like exponents after each factor.

The recurrence is the default production path; the generating-function route
exists as the redundant second implementation.  Rank and range queries call
one of the two, as the caller's ``kernel`` argument names it.

A kNN probability needs only P(count <= k-1), the first k entries of the row.
In the recurrence, entry i of a row depends only on entries i-1 and i of the
row before, so :func:`truncated_recurrence` folds the trials into k columns and
carries the rest as one tail mass.  It folds many trial vectors at once, one
trial of each per numpy step, and the kNN engine reads it for every backend.

Both run on the uncertain trials only (0 < p < 1): a trial with p = 0 leaves
the distribution unchanged and a trial with p = 1 shifts it up by one count,
in the recurrence and the convolution alike and without rounding.  So with m
uncertain trials out of N, a call costs O(m^2) plus O(N), and its result is
bit-identical to running every trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import PROB_TOL, ValidationError

#: Negative mass beyond this threshold is treated as an internal error rather
#: than round-off.
ROUNDOFF_CLAMP = -1e-15


@dataclass(frozen=True)
class CountDistribution:
    """Probability mass over success counts 0..N (or ranks, for rank queries).

    Tiny negative round-off (above ``ROUNDOFF_CLAMP``) is clamped to zero on
    construction; anything more negative raises.  Whether the mass must sum to
    one depends on the producing operation (rank distributions sum to the
    object's existence probability), so normalization is checked by callers
    via :meth:`require_normalized`.
    """

    mass: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.mass, dtype=float)
        low = arr.min(initial=0.0)
        if low < ROUNDOFF_CLAMP:
            raise ValueError(f"negative probability mass {low} exceeds round-off clamp")
        arr = np.where(arr < 0.0, 0.0, arr)
        arr.flags.writeable = False
        object.__setattr__(self, "mass", arr)

    def __len__(self) -> int:
        return len(self.mass)

    def total(self) -> float:
        return float(self.mass.sum())

    def require_normalized(self) -> "CountDistribution":
        if abs(self.total() - 1.0) > PROB_TOL:
            raise ValueError(f"count distribution sums to {self.total()}, expected 1")
        return self


def _validated(probs: Sequence[float]) -> np.ndarray:
    p = np.asarray(probs if isinstance(probs, np.ndarray) else list(probs), dtype=float)
    if p.size and (not np.all(np.isfinite(p)) or p.min() < 0.0 or p.max() > 1.0):
        raise ValidationError("Bernoulli probabilities must be finite and within [0, 1]")
    return p


def _uncertain(p: np.ndarray) -> "tuple[np.ndarray, int]":
    """The trials with 0 < p < 1, in order, and the number of trials with p = 1."""
    return p[(p > 0.0) & (p < 1.0)], int(np.count_nonzero(p == 1.0))


def _shifted(part: np.ndarray, certain: int, n: int) -> CountDistribution:
    """The full pmf over 0..n counts: ``part`` moved up by the certain successes."""
    row = np.zeros(n + 1)
    row[certain : certain + part.size] = part
    return CountDistribution(row).require_normalized()


def poisson_binomial_recurrence(probs: Sequence[float]) -> CountDistribution:
    """Poisson-binomial pmf by the row recurrence; O(m^2 + N) time for m uncertain trials.

    State (i/j) holds the probability of i successes among the first j
    trials; each trial folds into the row as
    ``P(i/j) = P(i-1/j-1) * p_j + P(i/j-1) * (1 - p_j)``.
    """
    p = _validated(probs)
    u, certain = _uncertain(p)
    row = np.zeros(u.size + 1)
    row[0] = 1.0
    for j in range(1, u.size + 1):
        pj = u[j - 1]
        row[1 : j + 1] = row[:j] * pj + row[1 : j + 1] * (1.0 - pj)
        row[0] *= 1.0 - pj
    return _shifted(row, certain, p.size)


def truncated_recurrence(trials: np.ndarray, width: int) -> np.ndarray:
    """The first ``width`` pmf entries of each column of ``trials``, one row per column.

    Column i of ``trials`` holds one vector of independent trials; row i of the result
    is ``poisson_binomial_recurrence(trials[:, i]).mass[:width]`` bit for bit, for any
    width up to the number of trials plus one.  A p = 0 trial is the identity and
    a p = 1 trial an exact shift, so every column folds through the same steps, and a
    row of trials that are all zero is skipped.  The mass shifted past ``width`` is
    carried as a tail, and each column's entries plus its tail must sum to 1.
    """
    p = _validated(trials)
    state = np.zeros((width, p.shape[1]))
    state[0] = 1.0
    tail = np.zeros(p.shape[1])
    for j in np.flatnonzero(p.any(axis=1)):
        pj = p[j]
        qj = 1.0 - pj
        tail += state[-1] * pj
        state[1:] = state[:-1] * pj + state[1:] * qj
        state[0] *= qj
    if np.any(np.abs(state.sum(axis=0) + tail - 1.0) > PROB_TOL):
        raise ValueError("truncated count distribution does not sum to 1")
    # C order: a row sums like the kernel's row slice (numpy sums eight or more contiguous
    # floats pairwise, down a column in order)
    return state.T.copy()


def generating_function(probs: Sequence[float]) -> CountDistribution:
    """Poisson-binomial pmf by expanding the product of generating polynomials.

    The coefficient of x^k in ``prod_i ((1 - p_i) + p_i x)`` is the
    probability of exactly k successes.  Factors are multiplied in one at a
    time; convolution unifies monomials of equal exponent at every step.
    """
    p = _validated(probs)
    u, certain = _uncertain(p)
    coeffs = np.array([1.0])  # empty product: certainly zero successes
    for pi in u:
        coeffs = np.convolve(coeffs, np.array([1.0 - pi, pi]))
    return _shifted(coeffs, certain, p.size)
