"""Interval and test statistics shared by the experiment harness.

All Monte-Carlo acceptance checks in this package compare an empirical
frequency against an exact rational bound with a slack of three standard
errors; Wilson intervals are reported alongside for context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# standard errors of slack in every check, and the Wilson interval's z
Z = 3.0


def stderr(p_hat: float, n: int) -> float:
    if n <= 0:
        raise ValueError("need at least one trial")
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n)


def wilson_interval(successes: int, n: int):
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError("need at least one trial")
    p_hat = successes / n
    denom = 1.0 + Z * Z / n
    center = (p_hat + Z * Z / (2 * n)) / denom
    half = (Z / denom) * math.sqrt(p_hat * (1 - p_hat) / n + Z * Z / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


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
    def from_sample(hits: int, samples: int) -> "DensityBound":
        """Two-sided Hoeffding interval at confidence 1 - 1e-12."""
        f = hits / samples
        h = math.sqrt(math.log(2.0 / 1e-12) / (2.0 * samples))
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


def chi_square_pvalue(counts, cells: int) -> float:
    """Chi-square p-value of the hypothesis that the draws ``counts``
    tallies are uniform over ``cells`` cells.  ``counts`` may leave out
    empty cells: each adds its expected count to the statistic, so a
    sparse histogram of a huge space costs only its own length."""
    from scipy.stats import chi2

    expected = sum(counts) / cells
    stat = sum((c - expected) ** 2 / expected for c in counts)
    stat += (cells - len(counts)) * expected
    # a float: scipy takes no integer above 64 bits
    return float(chi2.sf(stat, float(cells - 1)))


def _frequency(successes: int, trials: int, bound_name: str, bound: float):
    """p_hat, its 3-SE slack, and the details a frequency check returns;
    at p_hat in {0, 1} the slack is zero, which the details flag."""
    p_hat = successes / trials
    slack = Z * stderr(p_hat, trials)
    details = {"freq": p_hat, bound_name: bound, "slack": slack, "trials": trials}
    if successes in (0, trials):
        details["degenerate"] = True
    return p_hat, slack, details


def freq_meets_floor(successes: int, trials: int, floor: float):
    """Empirical frequency >= floor - Z * stderr; returns (ok, details)."""
    p_hat, slack, details = _frequency(successes, trials, "floor", floor)
    return p_hat >= floor - slack, details


def freq_meets_ceiling(successes: int, trials: int, ceiling: float):
    """Empirical frequency <= ceiling + Z * stderr; returns (ok, details)."""
    p_hat, slack, details = _frequency(successes, trials, "ceiling", ceiling)
    return p_hat <= ceiling + slack, details


def check_fields(check) -> dict:
    """A frequency check's report fields: ``ok``, and ``degenerate`` when
    p_hat in {0, 1} left the check no 3-SE slack."""
    ok, details = check
    if details.get("degenerate"):
        return {"ok": ok, "degenerate": True}
    return {"ok": ok}
