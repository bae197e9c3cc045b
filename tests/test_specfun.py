import math
import sys

import numpy as np
import pytest

from tailbound import specfun as sf
from tailbound.errors import DomainError, TruncationError


def simpson(f, a, b, n=20001):
    """Composite Simpson quadrature on [a, b] with an odd point count."""
    xs = np.linspace(a, b, n)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / (n - 1)
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


# incomplete gamma -----------------------------------------------------------

def test_inc_gamma_exponential_tail():
    assert abs(sf.reg_inc_gamma_upper(1.0, 2.0) - math.exp(-2.0)) < 1e-12


def test_inc_gamma_full_mass_at_zero():
    assert sf.reg_inc_gamma_upper(3.7, 0.0) == 1.0


def test_inc_gamma_half_half_vs_quadrature():
    # oracle: adaptive-grid quadrature of the Gamma(1/2) density on [0.5, 60]
    norm = math.gamma(0.5)
    oracle = simpson(lambda t: t ** -0.5 * math.exp(-t) / norm, 0.5, 60.0, n=80001)
    assert abs(sf.reg_inc_gamma_upper(0.5, 0.5) - oracle) < 1e-10
    assert abs(sf.reg_inc_gamma_upper(0.5, 0.5) - 0.3173105078629141) < 1e-12


def test_inc_gamma_complement_sums_to_one():
    for a in (0.5, 1.0, 2.0, 10.0):
        for y in np.linspace(0.01, 5.0 * a + 10.0, 40):
            s = sf.reg_inc_gamma_upper(a, y) + sf.reg_inc_gamma_lower(a, y)
            assert abs(s - 1.0) < 1e-12


def test_inc_gamma_monotone_in_y():
    for a in (0.3, 1.0, 4.2):
        prev = 1.0 + 1e-15
        for y in np.linspace(0.0, 8.0 * a + 8.0, 60):
            cur = sf.reg_inc_gamma_upper(a, y)
            assert cur <= prev + 1e-14
            prev = cur


def test_inc_gamma_series_vs_continued_fraction():
    # both evaluation routes, on the band where both converge
    for a in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 120.0):
        for y in np.linspace(a + 1.0, a + 30.0, 50):
            s = sf.reg_inc_gamma_upper_series(a, y)
            c = sf.reg_inc_gamma_upper_cf(a, y)
            assert abs(s - c) < 1e-12


def test_inc_gamma_log_twin():
    for a, y in ((0.5, 40.0), (2.0, 90.0), (10.0, 300.0)):
        lv = sf.log_reg_inc_gamma_upper(a, y)
        v = sf.reg_inc_gamma_upper(a, y)
        if v > 0:
            assert abs(lv - math.log(v)) < 1e-10 * max(1.0, abs(lv))
        assert math.isfinite(lv)
    # deep tail underflows the value but not the log twin
    assert sf.log_reg_inc_gamma_upper(1.0, 800.0) == pytest.approx(-800.0, rel=1e-10)


def test_inc_gamma_domain_errors():
    with pytest.raises(DomainError):
        sf.reg_inc_gamma_upper(0.0, 1.0)
    with pytest.raises(DomainError):
        sf.reg_inc_gamma_upper(1.0, -0.5)


# incomplete beta ------------------------------------------------------------

def test_inc_beta_uniform_cdf():
    assert abs(sf.reg_inc_beta(1.0, 1.0, 0.3) - 0.3) < 1e-12


def test_inc_beta_endpoints():
    assert sf.reg_inc_beta(2.0, 5.0, 0.0) == 0.0
    assert sf.reg_inc_beta(2.0, 5.0, 1.0) == 1.0


def test_inc_beta_polynomial_case():
    # Beta(2,3) CDF is 1 - (1-x)^3 (1+3x)
    x = 0.5
    assert abs(sf.reg_inc_beta(2.0, 3.0, x) - (1.0 - (1.0 - x) ** 3 * (1.0 + 3.0 * x))) < 1e-12
    assert abs(sf.reg_inc_beta(2.0, 3.0, 0.5) - 0.6875) < 1e-12


def test_inc_beta_reflection():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = float(rng.uniform(0.3, 8.0))
        b = float(rng.uniform(0.3, 8.0))
        x = float(rng.uniform(0.0, 1.0))
        assert abs(sf.reg_inc_beta(a, b, x) - (1.0 - sf.reg_inc_beta(b, a, 1.0 - x))) < 1e-12


def test_inc_beta_log_twin_deep():
    lv = sf.log_reg_inc_beta(3.0, 2.0, 1e-8)
    assert math.isfinite(lv)
    assert abs(lv - math.log(sf.reg_inc_beta(3.0, 2.0, 1e-8))) < 1e-9


# bernoulli KL ---------------------------------------------------------------

def test_kl_zero_at_equal():
    assert sf.bernoulli_kl(0.5, 0.5) == 0.0


def test_kl_direct_value():
    want = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
    assert abs(sf.bernoulli_kl(0.5, 0.75) - want) < 1e-14


def test_kl_boundary_limits():
    assert abs(sf.bernoulli_kl(0.3, 1.0) - math.log(1.0 / 0.3)) < 1e-14
    assert abs(sf.bernoulli_kl(0.3, 0.0) - math.log(1.0 / 0.7)) < 1e-14


def test_kl_nonnegative_and_shape():
    for u in (0.1, 0.37, 0.5, 0.9):
        vals = [sf.bernoulli_kl(u, v) for v in np.linspace(0.0, 1.0, 101)]
        assert min(vals) > -1e-14
        iu = int(round(u * 100))
        # decreasing left of u, increasing right of u
        for i in range(iu):
            assert vals[i] >= vals[i + 1] - 1e-12
        for i in range(iu, 100):
            assert vals[i] <= vals[i + 1] + 1e-12


def test_kl_domain():
    with pytest.raises(DomainError):
        sf.bernoulli_kl(0.0, 0.5)
    with pytest.raises(DomainError):
        sf.bernoulli_kl(1.0, 0.5)
    with pytest.raises(DomainError):
        sf.bernoulli_kl(0.5, 1.2)


# bennett --------------------------------------------------------------------

def test_bennett_at_zero():
    assert sf.bennett_psi(0.0) == 1.0


def test_bennett_at_one():
    assert abs(sf.bennett_psi(1.0) - (4.0 * math.log(2.0) - 2.0)) < 1e-14


def test_bennett_tiny_argument_series():
    t = 1e-9
    assert abs(sf.bennett_psi(t) - (1.0 - t / 3.0)) < 1e-15


def test_bennett_continuity_at_zero():
    assert abs(sf.bennett_psi(1e-6) - 1.0) < 1e-5
    assert abs(sf.bennett_psi(-1e-6) - 1.0) < 1e-5


def test_bennett_crossover_continuous():
    cut = 1e-4
    for t in (cut * (1.0 - 1e-9), cut * (1.0 + 1e-9), -cut * (1.0 - 1e-9), -cut * (1.0 + 1e-9)):
        direct = ((1.0 + t) * math.log1p(t) - t) / (0.5 * t * t)
        assert abs(sf.bennett_psi(t) - direct) < 1e-10


def test_bennett_domain():
    with pytest.raises(DomainError):
        sf.bennett_psi(-1.0)


# normal ---------------------------------------------------------------------

def test_normal_tail_at_one():
    assert abs(sf.normal_tail(1.0) - 0.15865525393145707) < 1e-14


def test_normal_tail_symmetry():
    for x in (0.0, 0.5, 2.0, 7.5):
        assert abs(sf.normal_tail(x) + sf.normal_tail(-x) - 1.0) < 1e-14


def test_log_normal_tail_matches_direct_and_extends():
    for x in (0.0, 1.0, 5.0, 20.0, 36.9):
        assert abs(sf.log_normal_tail(x) - math.log(sf.normal_tail(x))) < 1e-12 * max(
            1.0, abs(sf.log_normal_tail(x)))
    # far beyond underflow: finite and close to the Mills asymptote
    lv = sf.log_normal_tail(60.0)
    assert math.isfinite(lv)
    approx = -0.5 * 60.0 ** 2 - math.log(60.0 * math.sqrt(2.0 * math.pi))
    assert abs(lv - approx) < 1e-3


# pair evaluations -----------------------------------------------------------
# The references below are the per-function formulas the pair evaluations
# replaced; every field must match them bit for bit.

def _ref_gamma(a, y):
    if y == 0.0:
        return 0.0, -math.inf, 1.0, 0.0
    if y < a + 1.0:
        log_front, total = sf._lower_series(a, y)
        p = math.exp(log_front) * total
        return p, log_front + math.log(total), 1.0 - math.exp(log_front) * total, (
            math.log1p(-p) if p < 1.0 else -math.inf)
    log_front, h = sf._upper_cf(a, y)
    q = math.exp(log_front) * h
    return 1.0 - math.exp(log_front) * h, (
        math.log1p(-q) if q < 1.0 else -math.inf), q, log_front + math.log(h)


def _ref_beta(a, b, x):
    if x == 0.0:
        return 0.0, -math.inf
    if x == 1.0:
        return 1.0, 0.0
    if x > a / (a + b):
        comp = _ref_beta(b, a, 1.0 - x)[0]
        return 1.0 - comp, math.log1p(-comp) if comp < 1.0 else -math.inf
    return (math.exp(sf._log_beta_front(a, b, x)) * sf._betacf(a, b, x) / a,
            sf._log_beta_front(a, b, x) + math.log(sf._betacf(a, b, x) / a))


def _bits(values):
    return [float(v).hex() for v in values]


def _around(t):
    return (math.nextafter(t, 0.0), t, math.nextafter(t, math.inf))


@pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 10.0, 37.0])
def test_inc_gamma_fields_match_views_and_reference(a):
    for y in (0.0, 1e-3, 0.5 * a, *_around(a + 1.0), 3.0 * a + 5.0, 40.0 * a + 60.0):
        got = sf.inc_gamma(a, y)
        views = (sf.reg_inc_gamma_lower(a, y), sf.log_reg_inc_gamma_lower(a, y),
                 sf.reg_inc_gamma_upper(a, y), sf.log_reg_inc_gamma_upper(a, y))
        assert _bits(got) == _bits(views) == _bits(_ref_gamma(a, y)), (a, y)


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (2.0, 3.0), (8.0, 3.0), (30.0, 0.7)])
def test_inc_beta_fields_match_views_and_reference(a, b):
    for x in (0.0, 1.0, 1e-6, 0.05, *_around(a / (a + b)), 0.95, 1.0 - 1e-9):
        got = sf.inc_beta(a, b, x)
        views = (sf.reg_inc_beta(a, b, x), sf.log_reg_inc_beta(a, b, x))
        assert _bits(got) == _bits(views) == _bits(_ref_beta(a, b, x)), (a, b, x)


def test_inc_pairs_check_arguments():
    with pytest.raises(DomainError):
        sf.inc_gamma(0.0, 1.0)
    with pytest.raises(DomainError):
        sf.inc_gamma(1.0, -1.0)
    with pytest.raises(DomainError):
        sf.inc_beta(1.0, 1.0, 1.5)


@pytest.mark.parametrize("family,side,x", [
    ("gamma", "upper", 1.0), ("gamma", "lower", 1.0), ("gamma", "upper", 9.0),
    ("chisq", "upper", 2.0), ("chisq", "lower", 2.0),
    ("poisson", "upper", 2.0), ("poisson", "lower", 1.0), ("poisson", "lower", 2.0),
    ("poisson", "upper", 12.0),
    ("beta", "upper", 0.1), ("beta", "lower", 0.1), ("beta", "upper", 0.35),
])
def test_exact_tail_evaluates_one_route(monkeypatch, family, side, x):
    from tailbound import Beta, ChiSq, Gamma, Poisson, Side, exact_tail

    specs = {"gamma": Gamma(2.5), "chisq": ChiSq(4), "poisson": Poisson(3.0),
             "beta": Beta(2.0, 3.0)}
    calls = []
    for name in ("_lower_series", "_upper_cf", "_betacf"):
        inner = getattr(sf, name)
        monkeypatch.setattr(sf, name, lambda *args, _f=inner, _n=name: (calls.append(_n), _f(*args))[1])
    exact_tail(specs[family], Side(side), x)
    assert len(calls) == 1, calls


# scalar searches ------------------------------------------------------------

def test_bisect_finds_root():
    calls = []

    def probe(t):
        calls.append(t)
        return t * t < 2.0, math.log(2.0) - 2.0 * math.log(t)
    root = sf._bracket_search(probe, 0.0, 2.0, 60)
    assert abs(root - math.sqrt(2.0)) < 1e-15
    assert len(calls) <= 15  # bisection alone takes 53


def test_golden_min_finds_minimum():
    t, f = sf._golden_min(lambda t: (t - 1.5) ** 2 + 2.0, 0.0, 4.0)
    assert abs(t - 1.5) < 1e-6
    assert abs(f - 2.0) < 1e-12


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["lower-end", "upper-end"])
def test_golden_min_returns_the_edge_when_the_minimum_is_at_an_end(sign):
    lo, hi = 1e-3, 20.0
    calls = []

    def f(t):
        calls.append(t)
        return sign * t
    t, ft = sf._golden_min(f, lo, hi, 0.0)
    edge = lo if sign > 0.0 else hi
    assert abs(t - edge) <= 2.0 * math.ulp(edge) and ft == f(t)
    assert all(lo <= c <= hi for c in calls)
    assert len(calls) < 120  # the bracket collapsed before the step limit


# huge shapes ------------------------------------------------------------------

@pytest.mark.parametrize("f, args", [
    (sf.log_reg_inc_gamma_upper, (6.483067022107549e+137, 6.4830670221075494e+137)),
    (sf.reg_inc_gamma_upper, (6.483067022107549e+137, 6.4830670221075494e+137)),
    (sf.log_reg_inc_beta, (3037.0158219566874, 3.5230349934220878e+19, 8.620453182063604e-17)),
    (sf.reg_inc_beta, (3037.0158219566874, 3.5230349934220878e+19, 8.620453182063604e-17)),
], ids=["log-gamma-upper", "gamma-upper", "log-beta", "beta"])
def test_overflowing_prefactor_raises_truncation_error(f, args):
    # the log prefactor cancels catastrophically at these shapes and overflows exp
    with pytest.raises(TruncationError, match="prefactor overflows"):
        f(*args)


# tiny shapes ----------------------------------------------------------------------

_TINY_SHAPES = (1e-20, 1e-16, 1e-12, 1e-8, 1e-5, 1e-3, 9e-3)


@pytest.mark.parametrize("a", _TINY_SHAPES)
def test_inc_gamma_upper_for_tiny_shapes_matches_scipy(a):
    special = pytest.importorskip("scipy.special")
    for y in (1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0):  # y < a + 1 unless 1 + a rounds to 1
        q, log_q = sf.inc_gamma(a, y)[2:]
        want = special.gammaincc(a, y)
        assert abs(q - want) <= 1e-13 * want, (a, y)
        assert abs(log_q - math.log(want)) <= 1e-13, (a, y)


@pytest.mark.parametrize("a,x", [(1e-16, 0.1), (1e-20, 0.5)])
def test_gamma_tail_for_tiny_shapes(a, x):
    special = pytest.importorskip("scipy.special")
    from tailbound import Gamma, Side, exact_tail
    est = exact_tail(Gamma(a), Side.UPPER, x)
    want = special.gammaincc(a, a + x)
    assert abs(est.value - want) <= 1e-13 * want
    assert abs(est.log_value - math.log(want)) <= 1e-13


def test_inc_gamma_lower_for_tiny_shapes_stays_a_probability():
    # the series overshoots 1 by about 1e-14 at tiny shapes; scipy's gammainc
    # overshoots too, so the reference is capped at 1 like the true value
    special = pytest.importorskip("scipy.special")
    for a in np.geomspace(sys.float_info.min, 9.9e-3, 43):
        for y in (1e-3, 0.5, 0.99):
            p, log_p = sf.inc_gamma(float(a), y)[:2]
            assert 0.0 <= p <= 1.0 and log_p <= 0.0, (a, y)
            assert abs(p - min(1.0, special.gammainc(a, y))) <= 5e-14, (a, y)
    from tailbound import Gamma, Side, exact_tail
    assert exact_tail(Gamma(1e-300), Side.LOWER, 0.0).value == 1.0
