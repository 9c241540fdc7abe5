"""Interval and test statistics shared by the experiment harness.

All Monte-Carlo acceptance checks in this package compare an empirical
frequency against an exact rational bound with a slack of three standard
errors; Wilson intervals are reported alongside for context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def stderr(p_hat: float, n: int) -> float:
    if n <= 0:
        raise ValueError("need at least one trial")
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


def wilson_interval(successes: int, n: int, z: float = 3.0):
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("need at least one trial")
    p_hat = successes / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1 - p_hat) / n + z * z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def hoeffding_halfwidth(samples: int, err: float = 1e-12) -> float:
    """Two-sided Hoeffding deviation bound at confidence 1 - err."""
    if samples <= 0:
        raise ValueError("need at least one sample")
    return math.sqrt(math.log(2.0 / err) / (2.0 * samples))


@dataclass(frozen=True)
class DensityBound:
    """Certified interval for a {0,1}-density, exact or sampled."""

    lo: float
    hi: float
    exact: bool
    samples: int
    count: int | None = None
    total: int | None = None

    @staticmethod
    def from_exact(count: int, total: int) -> "DensityBound":
        f = count / total
        return DensityBound(f, f, True, total, count, total)

    @staticmethod
    def from_sample(hits: int, samples: int, err: float = 1e-12) -> "DensityBound":
        f = hits / samples
        h = hoeffding_halfwidth(samples, err)
        return DensityBound(max(0.0, f - h), min(1.0, f + h), False, samples)

    def as_fractions(self):
        """Rational endpoints on a 1e-12 grid, rounded outward so the
        interval still certifies (exact counts stay exact)."""
        from fractions import Fraction

        if self.exact:
            f = Fraction(self.count, self.total)
            return f, f
        scale = 10**12
        return (
            Fraction(math.floor(Fraction(self.lo) * scale), scale),
            Fraction(math.ceil(Fraction(self.hi) * scale), scale),
        )


def chi_square_pvalue(counts, expected) -> float:
    from scipy.stats import chi2

    stat = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
    dof = len(counts) - 1
    return float(chi2.sf(stat, dof))


def freq_meets_floor(successes: int, trials: int, floor: float, z: float = 3.0):
    """Empirical frequency >= floor - z * stderr; returns (ok, details)."""
    p_hat = successes / trials
    slack = z * stderr(p_hat, trials)
    return p_hat >= floor - slack, {
        "freq": p_hat,
        "floor": floor,
        "slack": slack,
        "trials": trials,
    }


def freq_meets_ceiling(successes: int, trials: int, ceiling: float, z: float = 3.0):
    """Empirical frequency <= ceiling + z * stderr; returns (ok, details)."""
    p_hat = successes / trials
    slack = z * stderr(p_hat, trials)
    return p_hat <= ceiling + slack, {
        "freq": p_hat,
        "ceiling": ceiling,
        "slack": slack,
        "trials": trials,
    }
