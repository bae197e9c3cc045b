"""``_engine_lower`` keeps the better certificate of its two engines.

It runs reverse Chernoff and Paley-Zygmund at every query and keeps the better
certified result, reverse Chernoff on a tie or when neither certifies.  The
reference below states that choice over the two engines' own results.
"""

import math
import random

from tailbound import dist_bounds
from tailbound.dist_bounds import _engine_lower, mgf_sandwich
from tailbound.dist_model import (
    ChiSq, Gamma, IrwinHall, NoncentralChiSq, Normal, Poisson, Side, WeightedChiSq,
    WeightVector, log_mgf, variance,
)
from tailbound.engine_lower import pz_lower


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


def test_engine_lower_keeps_the_better_certificate_of_both_engines(monkeypatch):
    rng = random.Random(2022)
    real_rc = dist_bounds.reverse_chernoff_lower
    rc_of = {}
    # _engine_lower reads the reverse Chernoff result the reference computed
    monkeypatch.setattr(dist_bounds, "reverse_chernoff_lower",
                        lambda mgf, x, side: rc_of[(x, side)])
    outcomes = {"pz": 0, "rc_over_pz": 0, "rc_alone": 0, "uncertified": 0}
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
        if not want.certified:
            outcomes["uncertified"] += 1
        elif want.method == "pz":
            outcomes["pz"] += 1
        else:
            pz_certified = pz_lower(mgf_sandwich(spec, side), x).certified
            outcomes["rc_over_pz" if pz_certified else "rc_alone"] += 1
    assert n >= 1000
    # every branch of the choice was taken
    assert all(outcomes[k] > 0 for k in ("pz", "rc_over_pz", "rc_alone")), outcomes
