"""Every family is served by every layer, and bad parameters are refused.

Each layer keeps one record per family (dist_model, oracle, dist_bounds); a
family missing from any of them fails the guard below.
"""

import json
import math
import typing

import pytest

from tailbound import harness, oracle, specfun
from tailbound.dist_bounds import lower_bound, upper_bound
from tailbound.dist_model import (
    Beta, Binomial, ChiSq, DistSpec, Gamma, IrwinHall, NoncentralChiSq, Normal,
    Poisson, RademacherSum, RngStream, Side, WeightedChiSq, WeightVector,
    log_mgf, mean_shift, sample, spec_from_json, spec_to_json, support_extent,
    variance,
)
from tailbound.errors import DomainError, TruncationError, UnsupportedFamilyError
from tailbound.oracle import exact_tail

EXAMPLES = {
    Gamma: Gamma(2.5),
    ChiSq: ChiSq(4),
    WeightedChiSq: WeightedChiSq(WeightVector((1.0, 0.7, 0.4, 0.1))),
    NoncentralChiSq: NoncentralChiSq(3, 2.0),
    Beta: Beta(2.0, 5.0),
    Binomial: Binomial(25, 0.3),
    Poisson: Poisson(3.0),
    IrwinHall: IrwinHall(8),
    RademacherSum: RademacherSum(20),
    Normal: Normal(1.0),
}


def test_examples_cover_every_family():
    assert set(EXAMPLES) == set(typing.get_args(DistSpec))


@pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda c: c.__name__)
def test_every_layer_serves_the_family(cls):
    spec = EXAMPLES[cls]
    assert spec_from_json(json.loads(json.dumps(spec_to_json(spec)))) == spec
    sd = math.sqrt(variance(spec))
    assert math.isfinite(mean_shift(spec)) and sd > 0.0
    if cls is Beta:
        with pytest.raises(UnsupportedFamilyError):
            log_mgf(spec)
    else:
        assert abs(log_mgf(spec).eval(0.0)) < 1e-14
    draws = sample(spec, RngStream(5, 0), 64)
    assert draws.shape == (64,)
    x = 0.25 * sd  # interior on both sides for every example
    for side in (Side.UPPER, Side.LOWER):
        assert 0.0 < x < support_extent(spec, side)
        exact = exact_tail(spec, side, x, mc_n=1000)
        upper = upper_bound(spec, side, x)
        lower = lower_bound(spec, side, x)
        assert 0.0 < exact.value <= 1.0
        assert lower.value <= upper.value <= 1.0


def test_monte_carlo_and_discrete_families_read_the_records():
    k_max = oracle._IRWIN_HALL_EXACT_MAX_K
    assert not harness._is_mc_family(IrwinHall(k_max))
    assert harness._is_mc_family(IrwinHall(k_max + 1))
    assert harness._is_mc_family(EXAMPLES[WeightedChiSq])
    for spec in (EXAMPLES[Binomial], EXAMPLES[Poisson], EXAMPLES[RademacherSum]):
        for side in (Side.UPPER, Side.LOWER):
            xs = harness._discrete_support_x(spec, side)
            assert xs == sorted(xs) and xs[-1] > 0.0
    with pytest.raises(DomainError):
        harness._discrete_support_x(EXAMPLES[Gamma], Side.UPPER)


# parameter validation -------------------------------------------------------

def test_constructor_rejects_infinite_variance():
    with pytest.raises(DomainError):
        Normal(math.inf)


def test_constructor_rejects_nan_noncentrality():
    with pytest.raises(DomainError):
        NoncentralChiSq(3, math.nan)


def test_wire_rejects_infinite_intensity():
    with pytest.raises(DomainError):
        spec_from_json(json.loads('{"family":"poisson","params":{"lambda":Infinity}}'))


def test_wire_rejects_non_integral_count():
    with pytest.raises(DomainError):
        spec_from_json({"family": "chisq", "params": {"k": 2.5}})


def test_wire_accepts_integral_float_count():
    spec = spec_from_json({"family": "binomial", "params": {"k": 8.0, "p": 0.5}})
    assert spec == Binomial(8, 0.5) and type(spec.k) is int


def test_wire_rejects_non_numeric_value():
    with pytest.raises(DomainError):
        spec_from_json({"family": "gamma", "params": {"alpha": "abc"}})


def test_wire_rejects_scalar_weights():
    with pytest.raises(DomainError):
        spec_from_json({"family": "weighted_chisq", "params": {"weights": 5}})


def test_wire_rejects_overflowing_count():
    with pytest.raises(DomainError):
        spec_from_json(json.loads('{"family":"irwin_hall","params":{"k":1e400}}'))


def test_wire_rejects_malformed_params():
    with pytest.raises(DomainError):
        spec_from_json({"family": "gamma", "params": "abc"})


def test_specfun_non_convergence_is_truncation_error():
    with pytest.raises(TruncationError):
        specfun.reg_inc_gamma_upper(1e20, 1e20)
    with pytest.raises(TruncationError):
        specfun.log_reg_inc_gamma_lower(1e12, 1e12 - 1.0)


def test_specfun_rejects_shape_beyond_lgamma_range():
    with pytest.raises(DomainError):
        specfun.reg_inc_gamma_upper(1e308, 1e308)
