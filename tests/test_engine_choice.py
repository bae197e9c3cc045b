"""``_engine_lower`` runs Paley-Zygmund only where it can beat reverse Chernoff.

``engine_lower._pz_cap(s, x)`` bounds every value ``pz_lower(s, x)`` can
return, so skipping Paley-Zygmund when reverse Chernoff's certificate reaches
the cap must give the certificate that running both engines gives.  The
reference below is the earlier ``_engine_lower``, which always ran both.
"""

import math
import random

import pytest

from tailbound import dist_bounds
from tailbound.dist_bounds import _engine_lower, mgf_sandwich
from tailbound.dist_model import (
    ChiSq, Gamma, IrwinHall, NoncentralChiSq, Normal, Poisson, Side, WeightedChiSq,
    WeightVector, log_mgf, variance,
)
from tailbound.engine_lower import _pz_cap, mgf_sandwich_from_tails, pz_lower
from tailbound.engine_upper import MgfSandwich


def _ref_engine_lower(spec, side, x, rc):
    """Both engines, the better certified one; reverse Chernoff on a tie or when
    neither certifies.  ``rc`` is reverse Chernoff's result at this query."""
    pz = pz_lower(mgf_sandwich(spec, side), x)
    certified = [r for r in (rc, pz) if r.certified]
    return max(certified, key=lambda r: r.log_value) if certified else rc


def _engine_spec(rng, family):
    if family == "normal":
        return Normal(rng.uniform(0.1, 10.0))
    if family == "gamma":
        return Gamma(10.0 ** rng.uniform(-0.5, 2.0))
    if family == "chisq":
        return ChiSq(rng.randint(1, 100))
    if family == "weighted_chisq":
        return WeightedChiSq(WeightVector(tuple(rng.uniform(0.05, 2.0)
                                                for _ in range(rng.randint(2, 8)))))
    if family == "noncentral_chisq":
        return NoncentralChiSq(rng.randint(1, 20), rng.uniform(0.5, 300.0))
    if family == "poisson":
        return Poisson(10.0 ** rng.uniform(-1.0, 2.3))
    return IrwinHall(rng.randint(2, 60))


_FAMILIES = ("normal", "gamma", "chisq", "weighted_chisq", "noncentral_chisq", "poisson",
             "irwin_hall")


def test_the_skip_gives_the_certificate_of_both_engines(monkeypatch):
    rng = random.Random(2022)
    real_rc = dist_bounds.reverse_chernoff_lower
    rc_of = {}
    # _engine_lower reads the reverse Chernoff result the reference computed
    monkeypatch.setattr(dist_bounds, "reverse_chernoff_lower",
                        lambda mgf, x, side: rc_of[(x, side)])
    outcomes = {"pz": 0, "rc_skipped_pz": 0, "rc_after_pz": 0, "uncertified": 0}
    n = 0
    for i in range(1100):
        spec = _engine_spec(rng, _FAMILIES[i % len(_FAMILIES)])
        side = rng.choice(list(Side))
        if side is Side.LOWER and not isinstance(spec, (Normal, IrwinHall)):
            side = rng.choice(list(Side))  # fewer lower sides: many fall past the support
        sd = math.sqrt(variance(spec))
        x = sd * 10.0 ** rng.uniform(-6.0, math.log10(8.0))
        if dist_bounds._bounds(spec).special(spec, side, x) is not None:
            continue
        x_eff = max(x, 1e-9 * max(1.0, sd))
        rc = real_rc(log_mgf(spec), x_eff, side)
        rc_of.clear()
        rc_of[(x_eff, side)] = rc
        got, want = _engine_lower(spec, side, x), _ref_engine_lower(spec, side, x, rc)
        assert got.to_json() == want.to_json(), (spec, side, x)
        n += 1
        skipped = rc.certified and _pz_cap(mgf_sandwich(spec, side), x) <= rc.log_value
        if not want.certified:
            outcomes["uncertified"] += 1
        elif want.method == "pz":
            outcomes["pz"] += 1
        else:
            outcomes["rc_skipped_pz" if skipped else "rc_after_pz"] += 1
    assert n >= 1000
    # every branch of the choice was taken
    assert outcomes["pz"] > 0 and outcomes["rc_skipped_pz"] > 0 and outcomes["rc_after_pz"] > 0


def _sandwiches(rng):
    specs = (Normal(2.0), Gamma(3.0), ChiSq(5), NoncentralChiSq(2, 4.0), Poisson(6.0),
             IrwinHall(12), WeightedChiSq(WeightVector((1.0, 0.3))))
    yield from (mgf_sandwich(spec, side) for spec in specs for side in Side)
    for _ in range(40):
        c1 = rng.uniform(0.05, 1.0)
        yield MgfSandwich(c1, c1 * rng.uniform(1.0, 6.0), rng.uniform(0.05, 1.0),
                          rng.uniform(1.0, 3.0), rng.uniform(0.1, 50.0),
                          rng.choice([math.inf, rng.uniform(0.05, 3.0)]))
    for _ in range(20):  # tail constants c2t < 1 take the other branch of c1
        yield mgf_sandwich_from_tails(rng.uniform(0.01, 2.0), rng.uniform(0.1, 5.0),
                                      rng.uniform(0.1, 5.0), rng.uniform(0.5, 5.0))


def test_pz_never_exceeds_its_cap():
    rng = random.Random(3)
    n_certified = 0
    for s in _sandwiches(rng):
        scale = math.sqrt(s.alpha)
        for x in (0.0, 1e-6 * scale, rng.uniform(0.0, 1.0) * scale,
                  rng.uniform(1.0, 8.0) * scale, rng.uniform(8.0, 40.0) * scale):
            r = pz_lower(s, x)
            cap = _pz_cap(s, x)
            assert r.log_value <= cap, (s, x, r.log_value, cap)
            n_certified += r.certified
            if not r.certified:  # t at the first lam already leaves the domain
                assert cap == -math.inf or r.log_value == -math.inf
    assert n_certified > 100


@pytest.mark.parametrize("x", [0.0, 1e-6, 0.3, 2.0])
def test_the_cap_is_the_first_grid_value_without_the_gain(x):
    s = MgfSandwich(0.5, 0.5, 1.0, 1.0, 1.0, math.inf)  # a standard Gaussian's sandwich
    first = pz_lower(s, x, lam=1e-3)
    gain = 2.0 * math.log(-math.expm1(-1e-3))
    assert first.certified
    assert _pz_cap(s, x) == pytest.approx(first.log_value - gain, rel=1e-15, abs=1e-15)
