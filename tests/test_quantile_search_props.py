"""Randomised equality checks for quantile mapping, when hypothesis is installed.

``specfun._bracket_search`` against the fixed-step bisection it replaced, on
random monotone step predicates, with no distance and with a linear one; the
discrete index search against a scan of every support point, on real families
and on synthetic non-increasing log tails with ties, near ties and zero tails.  The edge cases of each run without
hypothesis in ``test_quantile_search.py``, which holds the checks.
"""

import math

import pytest

from tailbound.dist_model import Binomial, Poisson, RademacherSum, Side

from test_quantile_search import check_bisect, check_discrete_quantile, check_tie_rules

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

SUBNORMAL = 2.2250738585072014e-308

brackets = st.one_of(
    st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
    st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3)),
    st.tuples(st.floats(0.0, SUBNORMAL), st.floats(0.0, SUBNORMAL)),  # subnormal brackets
).map(sorted)


@settings(max_examples=300, deadline=None)
@given(brackets, st.one_of(st.sampled_from(["lo", "hi"]), st.floats(-0.25, 1.25)),
       st.booleans(), st.integers(0, 1200))
def test_bisect_equals_fixed_step_loop(bracket, step, closed, iters):
    check_bisect(*bracket, step, closed, iters)


# discrete quantile mapping on real families --------------------------------------

probabilities = st.one_of(st.floats(1e-12, 1e-3), st.floats(1e-3, 0.999),
                          st.floats(0.999, 1.0 - 1e-12))
discrete_specs = st.one_of(
    st.builds(Binomial, st.integers(1, 400), probabilities),
    st.builds(Poisson, st.floats(0.1, 200.0)),
    st.builds(RademacherSum, st.integers(1, 400)),
)
depths = st.one_of(
    st.floats(-700.0, -1e-12).map(math.exp),
    st.sampled_from([1.0 - 1e-15, 0.999, 5e-324, 1e-300]),  # shallower / deeper than every tail
)


@settings(max_examples=60, deadline=None)
@given(discrete_specs, st.sampled_from([Side.UPPER, Side.LOWER]), depths)
def test_discrete_quantile_equals_support_scan(spec, side, q):
    check_discrete_quantile(spec, side, q)


# the tie rules, on synthetic log tails ---------------------------------------------

# a few values that tie or nearly tie in |t - log q| once rounded
NEAR = [0.0, -0.0, -1e-17, -2e-17, -5e-16, -1.0, -1.0 - 2e-16, -20.0, -20.0 + 4e-15]
log_tail_lists = st.lists(st.one_of(st.sampled_from(NEAR), st.floats(-60.0, 0.0)),
                          max_size=40)


@settings(max_examples=400, deadline=None)
@given(log_tail_lists, st.integers(0, 4), st.booleans(),
       st.one_of(st.sampled_from(NEAR), st.floats(-70.0, 0.0)))
def test_index_search_follows_the_scan_tie_rules(logs, n_zero, negative_first, log_q):
    check_tie_rules(logs, n_zero, negative_first, log_q)
