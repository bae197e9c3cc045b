"""Signal identification in a sparse two-intensity Poisson mixture.

Observations are Poisson(mu) noise with probability 1 - eps and
Poisson(lambda) signal with probability eps.  The likelihood-ratio threshold

    theta = (log((1 - eps)/eps) + lambda - mu) / log(lambda/mu)

is the optimal deterministic classifier in Hamming misidentification rate;
this module derives it, classifies counts, computes the exact expected
misidentification rate, brute-force checks optimality against the per-count
minimum rule, and estimates the rate by seeded simulation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dist_bounds import bennett_rate
from .dist_model import RngStream, _blocks
from .errors import DomainError, TruncationError
from .oracle import TailEstimate, _mc_estimate, poisson_cdf_int, poisson_sf_int


class MixtureRegime(str, enum.Enum):
    BELOW_MINUS = "below_minus"
    MIDDLE = "middle"
    ABOVE_PLUS = "above_plus"


@dataclass(frozen=True)
class MixtureSpec:
    mu: float
    lam: float
    eps: float

    def __post_init__(self):
        if not (1.0 <= self.mu < self.lam):
            raise DomainError(f"need 1 <= mu < lambda, got mu={self.mu}, lambda={self.lam}")
        if not (0.0 < self.eps < 1.0):
            raise DomainError(f"need 0 < eps < 1, got {self.eps}")


@dataclass(frozen=True)
class ClassifierReport:
    theta_tilde: float
    eps_plus: float
    eps_minus: float
    regime: MixtureRegime
    g_value: float
    expected_misid: float | None = None
    mc_misid: TailEstimate | None = None

    def regime_upper_bound(self, eps: float) -> float:
        """The achievable misidentification bound for this regime:
        eps below, exp(-g) in the middle, 1 - eps above."""
        if self.regime is MixtureRegime.BELOW_MINUS:
            return eps
        if self.regime is MixtureRegime.ABOVE_PLUS:
            return 1.0 - eps
        return math.exp(-self.g_value)

    def to_json(self) -> dict:
        return {
            "theta_tilde": self.theta_tilde,
            "eps_plus": self.eps_plus,
            "eps_minus": self.eps_minus,
            "regime": self.regime.value,
            "g_value": None if math.isnan(self.g_value) else self.g_value,
            "expected_misid": self.expected_misid,
            "mc_misid": None if self.mc_misid is None else self.mc_misid.to_json(),
        }


def derive_classifier(spec: MixtureSpec) -> ClassifierReport:
    """Threshold, regime boundaries, and the middle-regime exponent g.

    g uses the two Bennett lower-tail exponents with negative sign on both
    mixture components, which keeps g >= 0 in the middle regime.
    """
    mu, lam, eps = spec.mu, spec.lam, spec.eps
    log_ratio = math.log(lam / mu)
    theta = (math.log((1.0 - eps) / eps) + lam - mu) / log_ratio
    eps_plus = 1.0 / (math.exp(mu * log_ratio + mu - lam) + 1.0)
    eps_minus = 1.0 / (math.exp(lam * log_ratio + mu - lam) + 1.0)
    if eps < eps_minus:
        regime = MixtureRegime.BELOW_MINUS
    elif eps > eps_plus:
        regime = MixtureRegime.ABOVE_PLUS
    else:
        regime = MixtureRegime.MIDDLE
    if theta > 0.0:
        noise_exp = bennett_rate(mu, (theta - mu) / mu)
        signal_exp = bennett_rate(lam, (theta - lam) / lam)
        g = -math.log(
            (1.0 - eps) * math.exp(-noise_exp) + eps * math.exp(-signal_exp))
    else:
        g = math.nan
    return ClassifierReport(theta_tilde=theta, eps_plus=eps_plus, eps_minus=eps_minus,
                            regime=regime, g_value=g)


def classify(spec: MixtureSpec, counts) -> list[int]:
    """Flag counts strictly above the threshold as signal."""
    counts = list(counts)
    if not counts:
        raise DomainError("classify needs a nonempty count sequence")
    theta = derive_classifier(spec).theta_tilde
    return [1 if y > theta else 0 for y in counts]


def exact_expected_misid(spec: MixtureSpec) -> float:
    """(1-eps) P_mu(Y > theta) + eps P_lam(Y <= theta), the threshold rule's rate."""
    theta = derive_classifier(spec).theta_tilde
    j = math.floor(theta)
    miss_noise = poisson_sf_int(spec.mu, int(j) + 1)[0] if j >= 0 else 1.0
    miss_signal = poisson_cdf_int(spec.lam, int(j))[0] if j >= 0 else 0.0
    return (1.0 - spec.eps) * miss_noise + spec.eps * miss_signal


def _poisson_pmf_row(lam: float, j_max: int) -> np.ndarray:
    out = np.empty(j_max + 1)
    out[0] = math.exp(-lam)
    for j in range(1, j_max + 1):
        out[j] = out[j - 1] * lam / j
    return out


def verify_optimality(spec: MixtureSpec, j_max: int = 80) -> bool:
    """Check the threshold rule against the best deterministic per-count rule.

    The minimum achievable risk over all rules that map each count j to a
    label is sum_j min((1-eps) pmf_mu(j), eps pmf_lam(j)); the threshold rule
    must attain it up to 1e-12 plus the truncation mass beyond j_max.
    """
    mass_mu = poisson_sf_int(spec.mu, j_max + 1)[0]
    mass_lam = poisson_sf_int(spec.lam, j_max + 1)[0]
    if mass_mu > 1e-12 or mass_lam > 1e-12:
        raise TruncationError(
            f"j_max={j_max} leaves Poisson mass {max(mass_mu, mass_lam):.2e} > 1e-12")
    pmf_mu = _poisson_pmf_row(spec.mu, j_max)
    pmf_lam = _poisson_pmf_row(spec.lam, j_max)
    best = math.fsum(
        min((1.0 - spec.eps) * pmf_mu[j], spec.eps * pmf_lam[j]) for j in range(j_max + 1))
    threshold_risk = exact_expected_misid(spec)
    slack = (1.0 - spec.eps) * mass_mu + spec.eps * mass_lam
    return abs(threshold_risk - best) <= 1e-12 + slack


_MISID_SHARD = 1 << 16


def mc_misid(spec: MixtureSpec, k: int, seed: int) -> TailEstimate:
    """Simulated Hamming misidentification rate with a Clopper-Pearson interval.

    Labels come in blocks of at most ``_MISID_SHARD``, which bounds memory;
    block i draws from stream (seed, i), so the block size fixes the draws.
    """
    if k < 100:
        raise DomainError(f"mc_misid needs k >= 100, got {k}")
    theta = derive_classifier(spec).theta_tilde
    mismatches = 0
    for shard, m in enumerate(_blocks(k, _MISID_SHARD)):
        rng = RngStream(seed, shard).generator()
        z = rng.random(m) < spec.eps
        y = rng.poisson(np.where(z, spec.lam, spec.mu))
        z_hat = y > theta
        mismatches += int((z_hat != z).sum())
    return _mc_estimate(mismatches, k)
