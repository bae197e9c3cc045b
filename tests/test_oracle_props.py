"""Randomised properties of the noncentral chi-square oracle, when hypothesis is installed.

Its mixture sum must be a probability and must not increase in x, on both sides,
beyond rounding: thresholds a few ulps apart can give log tails a few ulps out of
order, so a rise of 1e-12 relative (the accuracy checked against scipy in
``test_oracle_reference.py``) is allowed.
"""

import math

import pytest

from tailbound.dist_model import NoncentralChiSq, Side
from tailbound.oracle import exact_tail

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 20), st.one_of(st.just(0.0), st.floats(1e-3, 300.0)),
       st.sampled_from(list(Side)), st.floats(0.0, 10.0), st.floats(0.0, 10.0))
def test_noncentral_tail_is_a_probability_falling_in_x(k, lam, side, z1, z2):
    spec = NoncentralChiSq(k, lam)
    sd = math.sqrt(2.0 * (k + 2.0 * lam))
    near, far = (exact_tail(spec, side, z * sd) for z in sorted((z1, z2)))
    for tail in (near, far):
        assert 0.0 <= tail.value <= 1.0 and tail.log_value <= 0.0
    if near.log_value == -math.inf:
        assert far.log_value == -math.inf
    else:
        assert far.log_value <= near.log_value + 1e-12 * max(1.0, abs(near.log_value))
