"""Statistics helpers for simulation studies.

Single runs of a stochastic simulator give point estimates; a credible
comparison needs interval estimates.  This module provides Wilson score
intervals for the two QoS probabilities (they are binomial proportions)
and batch-means confidence intervals (the interval estimator behind the
sharded replication runner).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

#: z for a 95% two-sided normal interval.
Z_95 = 1.959963984540054


@dataclass(frozen=True, slots=True)
class ProportionEstimate:
    """A binomial proportion with a Wilson score confidence interval."""

    successes: int
    trials: int
    point: float
    low: float
    high: float

    def __str__(self) -> str:
        return f"{self.point:.4f} [{self.low:.4f}, {self.high:.4f}]"


def wilson_interval(
    successes: int, trials: int, z: float = Z_95
) -> ProportionEstimate:
    """Wilson score interval — well-behaved at small counts and p ~ 0.

    Exactly what P_HD estimation needs: drops are rare events, so the
    naive normal interval would collapse to [p, p] or go negative.
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError(f"invalid counts {successes}/{trials}")
    if trials == 0:
        return ProportionEstimate(0, 0, 0.0, 0.0, 1.0)
    p = successes / trials
    denominator = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denominator
    margin = (
        z
        * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
        / denominator
    )
    low = max(center - margin, 0.0)
    high = min(center + margin, 1.0)
    # Exact bounds at the extremes (kill floating-point residue).
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    return ProportionEstimate(successes, trials, p, low, high)


def t_quantile(level: float, dof: int) -> float:
    """Two-sided Student-t critical value ``t_{(1+level)/2, dof}``.

    Exact closed forms at 1 and 2 degrees of freedom, then a
    Cornish–Fisher expansion around the normal quantile — accurate to
    ~0.1% for ``dof >= 3``, which is far below the Monte-Carlo noise of
    any batch-means interval.  Keeps the repository scipy-free.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    if dof == 1:
        # Student-t with 1 dof is the Cauchy distribution.
        return math.tan(math.pi * level / 2.0)
    if dof == 2:
        p = level  # = 2 * upper_p - 1 for the two-sided quantile
        return p * math.sqrt(2.0 / (1.0 - p * p))
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    z2 = z * z
    g1 = z * (z2 + 1.0) / 4.0
    g2 = z * (5.0 * z2 * z2 + 16.0 * z2 + 3.0) / 96.0
    g3 = z * (3.0 * z2**3 + 19.0 * z2 * z2 + 17.0 * z2 - 15.0) / 384.0
    g4 = z * (
        79.0 * z2**4
        + 776.0 * z2**3
        + 1482.0 * z2 * z2
        - 1920.0 * z2
        - 945.0
    ) / 92160.0
    n = float(dof)
    return z + g1 / n + g2 / n**2 + g3 / n**3 + g4 / n**4


@dataclass(frozen=True, slots=True)
class BatchMeansEstimate:
    """A mean with a Student-t confidence interval over batch means."""

    mean: float
    half_width: float
    low: float
    high: float
    batches: int
    level: float

    def covers(self, value: float) -> bool:
        """Whether ``value`` falls inside the interval."""
        return self.low <= value <= self.high

    def __str__(self) -> str:
        return (
            f"{self.mean:.4f} ± {self.half_width:.4f}"
            f" ({self.level:.0%}, n={self.batches})"
        )


def batch_means(
    values: Sequence[float], level: float = 0.95
) -> BatchMeansEstimate:
    """Batch-means confidence interval over (approximately) i.i.d. means.

    Each value is one batch mean — a replication's post-warm-up
    proportion, or one time batch of a long run.  A single batch yields
    an infinite interval (no variance information), which is the honest
    answer rather than an error: callers can still read the point mean.
    """
    values = [float(value) for value in values]
    count = len(values)
    if count == 0:
        raise ValueError("need at least one batch")
    mean = sum(values) / count
    if count == 1:
        return BatchMeansEstimate(
            mean, math.inf, -math.inf, math.inf, 1, level
        )
    variance = sum((value - mean) ** 2 for value in values) / (count - 1)
    half = t_quantile(level, count - 1) * math.sqrt(variance / count)
    return BatchMeansEstimate(mean, half, mean - half, mean + half, count, level)
