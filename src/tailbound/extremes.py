"""Expectation brackets for the maximum of k independent weighted sums.

The brackets are rate forms: the theory fixes the rate sqrt(a |u|_2^2 log k)
(with a linear-in-log-k branch in the sub-exponential regime) but only the
existence of the constants, so callers supply (c, C) and verify empirically
through the Monte Carlo estimator.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .dist_model import DistSpec, RngStream, WeightVector, _blocks, sample
from .engine_upper import MgfSandwich
from .errors import DomainError


class ExtremeRegime(str, enum.Enum):
    SUB_GAUSSIAN = "sub_gaussian"
    SUB_EXPONENTIAL = "sub_exponential"


@dataclass(frozen=True)
class ExtremeSpec:
    """k independent copies of X = u_1 Z_1 + ... + u_n Z_n with Z_j ~ base."""

    base: DistSpec
    u: WeightVector
    k: int
    sandwich: MgfSandwich

    def __post_init__(self):
        if self.k < 1:
            raise DomainError(f"need k >= 1 independent sums, got {self.k}")


@dataclass(frozen=True)
class ExtremeBracket:
    lower: float
    upper: float
    rate: float
    c_used: float
    C_used: float

    def to_json(self) -> dict:
        return {"lower": self.lower, "upper": self.upper, "rate": self.rate,
                "c": self.c_used, "C": self.C_used}


def extreme_bracket(spec: ExtremeSpec, regime: ExtremeRegime,
                    constants: tuple[float, float] = (1.0, 1.0)) -> ExtremeBracket:
    """(c * rate, C * rate) bracket for E max_i X_i.

    k = 1 degenerates to (0, 0): log k = 0 and a single centered sum has mean
    zero, so that boundary keeps the operation total.
    """
    c, C = constants
    if not 0.0 < c <= C < math.inf:
        raise DomainError(f"need 0 < c <= C < inf, got ({c}, {C})")
    regime = ExtremeRegime(regime)
    if spec.k == 1:
        return ExtremeBracket(0.0, 0.0, 0.0, c, C)
    a = spec.sandwich.alpha
    log_k = math.log(spec.k)
    rate = math.sqrt(a * spec.u.l2_sq * log_k)
    if regime is ExtremeRegime.SUB_EXPONENTIAL:
        rate = max(rate, spec.u.linf * log_k / spec.sandwich.M)
    return ExtremeBracket(c * rate, C * rate, rate, c, C)


_TARGET_DRAWS_PER_SHARD = 1 << 21


def mc_extreme_mean(spec: ExtremeSpec, reps: int, seed: int) -> tuple[float, float]:
    """Monte Carlo (mean, standard error) of max_i X_i over `reps` replications.

    Replications come in blocks of about ``_TARGET_DRAWS_PER_SHARD`` draws,
    which bounds memory; block i draws from stream (seed, i), so the block
    size fixes the draws.
    """
    if reps < 100:
        raise DomainError(f"mc_extreme_mean needs reps >= 100, got {reps}")
    k, n = spec.k, len(spec.u)
    per_rep = k * n
    block = max(1, _TARGET_DRAWS_PER_SHARD // per_rep)
    u = spec.u.as_array()
    sums = []
    sq_sums = []
    for shard, m in enumerate(_blocks(reps, block)):
        draws = sample(spec.base, RngStream(seed, shard), m * per_rep).reshape(m, k, n)
        x = draws @ u
        mx = x.max(axis=1)
        sums.append(float(mx.sum()))
        sq_sums.append(float((mx * mx).sum()))
    s1 = math.fsum(sums)
    s2 = math.fsum(sq_sums)
    mean = s1 / reps
    var = max(0.0, (s2 - reps * mean * mean) / (reps - 1))
    return mean, math.sqrt(var / reps)
