"""Outcome distributions, divergence kernel and automatic violation threshold.

All divergences use log base 2 over finite empirical distributions, with
the measure-theoretic zero conventions: 0*log(0/q) = 0, and p>0 against
q=0 gives +inf (normalised to 1).  Jensen-Shannon is therefore bounded
by 1.  The threshold policy interpolates a per-rigour interval, getting
stricter as classes become more granular and more populated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

KL = "kl"
KL_NORMALIZED = "kl_normalized"
JS = "js"

HIGH = "high"
LOW = "low"

# (lower, upper) threshold interval per rigour level, calibrated on German
# Credit; configurable.
DEFAULT_INTERVALS = {HIGH: (0.005, 0.025), LOW: (0.02, 0.10)}
DEFAULT_CLASS_REFERENCE = 10

AGGREGATIONS = ("max", "min", "mean")


class EmptyClassError(ValueError):
    """Distribution requested over an empty row set.

    Raised instead of returning a degenerate distribution so that callers
    can record a warning and skip the comparison rather than crash.
    """


@dataclass(frozen=True)
class ProbabilityDistribution:
    support: tuple[str, ...]
    mass: tuple[float, ...]

    def __post_init__(self):
        if len(self.support) != len(self.mass):
            raise ValueError("support and mass lengths differ")
        if any(m < 0.0 or m > 1.0 for m in self.mass):
            raise ValueError("masses must lie in [0, 1]")
        if abs(math.fsum(self.mass) - 1.0) > 1e-9:
            raise ValueError("masses must sum to 1")

    @classmethod
    def from_counts(cls, support, counts) -> "ProbabilityDistribution":
        """Empirical distribution from per-label counts.

        The last nonzero mass is adjusted so the float masses sum to
        exactly 1.0, which keeps degenerate divergence values (JS of
        disjoint supports) exact.
        """
        counts = list(counts)
        total = sum(counts)
        if total <= 0:
            raise EmptyClassError("cannot build a distribution from zero counts")
        mass = [c / total for c in counts]
        nonzero = [i for i, m in enumerate(mass) if m > 0.0]
        last = nonzero[-1]
        rest = [mass[i] for i in nonzero[:-1]]
        mass[last] = max(0.0, float(math.fsum([1.0] + [-m for m in rest])))
        return cls(tuple(support), tuple(mass))


@dataclass(frozen=True)
class DivergenceValue:
    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in (KL, KL_NORMALIZED, JS):
            raise ValueError(f"unknown divergence kind {self.kind!r}")
        if self.value < 0.0 or (self.kind != KL and self.value > 1.0):
            raise ValueError(f"{self.kind} value {self.value} out of range")


@dataclass(frozen=True)
class ThresholdParams:
    r: str
    n_c: int
    n_d: int
    interval: tuple[float, float]
    lam: float
    epsilon: float


def _check_supports(p: ProbabilityDistribution, q: ProbabilityDistribution):
    if p.support != q.support:
        raise ValueError(f"mismatched supports: {p.support} vs {q.support}")


def kl(p: ProbabilityDistribution, q: ProbabilityDistribution) -> DivergenceValue:
    """Kullback-Leibler divergence of p from q, in bits."""
    _check_supports(p, q)
    terms = []
    for pi, qi in zip(p.mass, q.mass):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return DivergenceValue(KL, math.inf)
        terms.append(pi * math.log2(pi / qi))
    return DivergenceValue(KL, max(0.0, math.fsum(terms)))


def kl_normalized(p: ProbabilityDistribution, q: ProbabilityDistribution) -> DivergenceValue:
    """KL squashed onto [0, 1] via 1 - exp(-KL); +inf maps to 1."""
    d = kl(p, q).value
    return DivergenceValue(KL_NORMALIZED, min(1.0, 1.0 - math.exp(-d)))


def _mixture(p: ProbabilityDistribution, q: ProbabilityDistribution) -> ProbabilityDistribution:
    mass = tuple((pi + qi) / 2.0 for pi, qi in zip(p.mass, q.mass))
    return ProbabilityDistribution(p.support, mass)


def js(p: ProbabilityDistribution, q: ProbabilityDistribution) -> DivergenceValue:
    """Jensen-Shannon divergence (symmetric, finite, in [0, 1])."""
    _check_supports(p, q)
    m = _mixture(p, q)
    value = (kl(p, m).value + kl(q, m).value) / 2.0
    return DivergenceValue(JS, min(1.0, max(0.0, value)))


def aggregate(values, mode: str) -> DivergenceValue:
    """Aggregate pairwise divergences by max, min or mean."""
    values = list(values)
    if not values:
        raise ValueError("cannot aggregate an empty list of divergences")
    kinds = {v.kind for v in values}
    if len(kinds) != 1:
        raise ValueError(f"mixed divergence kinds: {sorted(kinds)}")
    raw = [v.value for v in values]
    if mode == "max":
        out = max(raw)
    elif mode == "min":
        out = min(raw)
    elif mode == "mean":
        out = math.fsum(raw) / len(raw)
    else:
        raise ValueError(f"unknown aggregation mode {mode!r}")
    return DivergenceValue(kinds.pop(), out)


def interpolate_threshold(interval: tuple[float, float], lam: float) -> float:
    """Convex mix of the interval: lam=1 -> lower (strict), lam=0 -> upper."""
    m, upper = interval
    if not (0.0 <= m < upper <= 1.0):
        raise ValueError(f"invalid threshold interval {interval}")
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"mixing weight {lam} outside [0, 1]")
    return lam * m + (1.0 - lam) * upper


def auto_threshold(r: str, n_c: int, n_d: int, dataset_size: int,
                   intervals=None, c_ref: int = DEFAULT_CLASS_REFERENCE) -> ThresholdParams:
    """Data-driven violation threshold.

    The mixing weight lam = min(1, (n_c/c_ref) * (n_d/dataset_size)) grows
    with class granularity and class population, pulling the threshold from
    the interval's upper end (lenient) towards its lower end (strict).
    """
    intervals = DEFAULT_INTERVALS if intervals is None else intervals
    if r not in intervals:
        raise ValueError(f"unknown rigour level {r!r}")
    if n_c < 2:
        raise ValueError(f"need at least 2 classes, got {n_c}")
    if not (1 <= n_d <= dataset_size):
        raise ValueError(f"class population {n_d} outside [1, {dataset_size}]")
    if c_ref <= 0:
        raise ValueError("class reference count must be positive")
    interval = tuple(intervals[r])
    lam = min(1.0, (n_c / c_ref) * (n_d / dataset_size))
    return ThresholdParams(r=r, n_c=n_c, n_d=n_d, interval=interval,
                           lam=lam, epsilon=interpolate_threshold(interval, lam))
