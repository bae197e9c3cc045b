"""Quantile mapping makes few exact-tail calls and returns the same thresholds.

``specfun._bracket_search`` steps by Illinois regula falsi on a signed log
distance, with a bisection safeguard, and stops once its bracket stops
moving; discrete families binary-search the support index.  Each is checked
against a test-side copy of the code it replaced: on step predicates whose
distance carries no information the search is that bisection, bit for bit,
and on any monotone predicate it ends on the same adjacent doubles.  The
number of exact tails per query is held to a budget.  The same checks run on
random inputs in ``test_quantile_search_props.py`` when hypothesis is
installed.
"""

import math
import sys

import pytest

from tailbound import harness, oracle
from tailbound import specfun as sf
from tailbound.cli import main
from tailbound.dist_model import (
    Beta, Binomial, ChiSq, Gamma, IrwinHall, NoncentralChiSq, Normal, Poisson,
    RademacherSum, Side, support_extent, variance,
)
from tailbound.errors import DomainError
from tailbound.oracle import ExactError, TailEstimate

# the specs of the quantile-map benchmark workload
CONTINUOUS = (
    Gamma(0.5), ChiSq(4), NoncentralChiSq(3, 2.0), Beta(2.0, 5.0), IrwinHall(8),
    Gamma(40.0), ChiSq(30), Beta(8.0, 3.0), NoncentralChiSq(2, 30.0), Normal(1.0),
)
DISCRETE = (Binomial(25, 0.3), Poisson(3.0), RademacherSum(20), Binomial(200, 0.3),
            Poisson(50.0))
DEPTHS = (0.3, 0.1, 1e-3, 1e-6, 1e-9, 1e-12)
SIDES = (Side.UPPER, Side.LOWER)


def fixed_step_bisect(below, lo, hi, iters):
    """The bisection loop before it stopped early."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisection_converges(below, lo, hi, iters):
    """Whether the fixed-step loop reaches a bracket whose midpoint rounds onto an end."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return True
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) in (lo, hi)


def is_crossing(below, x):
    """x is one of the adjacent doubles where ``below`` turns false."""
    up, down = math.nextafter(x, math.inf), math.nextafter(x, -math.inf)
    return (below(x) and not below(up)) or (below(down) and not below(x))


def fixed_step_quantile(spec, side, q):
    """The continuous quantile mapping before the bracketed search: bisect
    ``tail(x) > q`` on [0, hi] for 90 steps, hi the support end or the first
    doubling from one standard deviation whose tail is below q."""
    def tail(x):
        return harness.exact_tail(spec, side, x).value
    if tail(0.0) < q:
        return 0.0, "unattainable"
    hi = support_extent(spec, side)
    if not math.isfinite(hi):
        hi = math.sqrt(variance(spec))
        for _ in range(200):
            if tail(hi) < q:
                break
            hi *= 2.0
    return fixed_step_bisect(lambda x: tail(x) > q, 0.0, hi, 90), None


def support_scan(spec, side, q):
    """The discrete quantile mapping before it searched by index: every support point."""
    return scan_from_log(spec, side, math.log(q))


def scan_from_log(spec, side, log_q):
    best = None
    for x in harness._discrete_support_x(spec, side):
        if x < 0.0:
            continue
        t = harness.exact_tail(spec, side, x).log_value
        if t == -math.inf:
            continue
        d = abs(t - log_q)
        if best is None or d < best[0]:
            best = (d, x)
    if best is None:
        return 0.0, "unattainable"
    return best[1], None


def bits(result):
    x, flag = result
    return x.hex(), flag


def check_bisect(lo, hi, step, closed, iters):
    """``_bracket_search`` on the step predicate at ``step`` ("lo", "hi" or a
    fraction of the bracket), in at most ``iters`` tests.  With a distance that
    carries no information (NaN) it is the fixed-step loop, bit for bit; with
    the linear distance c - t it returns the same bits wherever that loop
    reaches adjacent doubles within ``iters`` steps."""
    c = {"lo": lo, "hi": hi}.get(step)
    if c is None:
        c = lo + step * (hi - lo)
    below = (lambda t: t <= c) if closed else (lambda t: t < c)
    want = fixed_step_bisect(below, lo, hi, iters)
    converges = bisection_converges(below, lo, hi, iters)
    for informative in (False, True):
        calls = []

        def probe(t):
            calls.append(t)
            return below(t), c - t if informative else math.nan
        got = sf._bracket_search(probe, lo, hi, iters)
        assert len(calls) <= iters
        assert lo <= got <= hi
        if converges or not informative:
            assert got == want, (informative, got, want)


def check_discrete_quantile(spec, side, q):
    """The index search equals the support scan, within 2 ceil(log2 n) + 4 tails."""
    n = sum(1 for x in harness._discrete_support_x(spec, side) if x >= 0.0)
    calls = []
    exact_tail = harness.exact_tail

    def counted(*args):
        calls.append(args)
        return exact_tail(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "exact_tail", counted)
        got = harness._bisect_quantile_flagged(spec, side, q)
    assert bits(got) == bits(support_scan(spec, side, q))
    assert harness.bisect_quantile(spec, side, q) == got[0]
    assert len(calls) <= 2 * math.ceil(math.log2(n)) + 4


def check_tie_rules(logs, n_zero, negative_first, log_q):
    """The index search equals the scan on a synthetic support: points 0, 1, ...
    with the non-increasing log tails ``sorted(logs)`` followed by ``n_zero`` zero
    tails, and optionally a negative first point, which both skip."""
    logs = sorted(logs, reverse=True) + [-math.inf] * n_zero
    xs = [float(i) for i in range(len(logs))]
    if negative_first:
        xs = [-1e-10] + xs
        logs = [0.0] + logs
    tails = dict(zip(xs, logs))

    def exact_tail(spec, side, x):
        if x < 0.0:
            raise DomainError(f"tail threshold must be >= 0, got {x}")
        return TailEstimate(math.exp(tails[x]), tails[x], ExactError(0.0))
    spec, side = Poisson(3.0), Side.UPPER
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_discrete_support_x", lambda spec, side: xs)
        mp.setattr(harness, "exact_tail", exact_tail)
        assert bits(harness._nearest_support_x(spec, side, log_q)) == \
            bits(scan_from_log(spec, side, log_q))


@pytest.fixture
def tail_calls(monkeypatch):
    """Count the exact tails the quantile mapping evaluates."""
    calls = []
    exact_tail = harness.exact_tail

    def counted(spec, side, x, *args, **kwargs):
        calls.append(x)
        return exact_tail(spec, side, x, *args, **kwargs)
    monkeypatch.setattr(harness, "exact_tail", counted)
    return calls


def flat(below):
    """A probe whose distance carries no information, so each step bisects."""
    return lambda t: (below(t), math.nan)


# _bracket_search -------------------------------------------------------------------

def test_bisect_stops_once_the_bracket_stops_moving():
    calls = []

    def below(t):
        calls.append(t)
        return t < 0.3
    assert sf._bracket_search(flat(below), 0.0, 1.0, 90) == \
        fixed_step_bisect(lambda t: t < 0.3, 0.0, 1.0, 90)
    assert len(calls) <= 55  # adjacent doubles after about 54 halvings of [0, 1]
    assert len(set(calls)) == len(calls)  # no point is tested twice


@pytest.mark.parametrize("f,q,lo,hi,budget", [
    (math.expm1, 0.3, 0.1, 1.0, 14),         # the sought point nears lo
    (sf.normal_tail, 1e-12, 4.0, 8.0, 14),   # a concave log tail
], ids=["expm1", "normal"])
def test_search_on_a_log_distance_takes_few_steps(f, q, lo, hi, budget):
    # a smooth log distance, known at the ends: the same adjacent doubles as
    # bisection in a quarter of its 52-54 tests, none of them twice; without
    # the Illinois halving on either end one of the two takes 16 or more
    sign = 1.0 if f is math.expm1 else -1.0  # expm1 rises, the normal tail falls
    calls = []

    def below(t):
        return sign * (f(t) - q) < 0.0

    def probe(t):
        calls.append(t)
        return below(t), sign * (math.log(q) - math.log(f(t)))
    d_lo, d_hi = probe(lo)[1], probe(hi)[1]
    del calls[:]
    got = sf._bracket_search(probe, lo, hi, 90, d_lo, d_hi)
    assert got == fixed_step_bisect(below, lo, hi, 90)
    assert len(calls) <= budget
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("step", ["lo", "hi"])
def test_bisect_step_at_an_untested_end(step):
    # the ends are never tested; a step there moves the other end onto it
    lo, hi = 1.0, 2.0
    c = lo if step == "lo" else hi
    for below in (lambda t: t < c, lambda t: t <= c):
        want = fixed_step_bisect(below, lo, hi, 90)
        assert sf._bracket_search(flat(below), lo, hi, 90) == want
        assert sf._bracket_search(lambda t: (below(t), c - t), lo, hi, 90) == want


@pytest.mark.parametrize("bracket,step,closed,iters", [
    ((1.0, 2.0), "lo", False, 90),
    ((1.0, 2.0), "hi", True, 90),
    ((0.0, 5e-324), "lo", True, 100),                       # a one-ulp subnormal bracket
    ((0.0, 5e-324), "hi", False, 100),
    ((0.0, 2.2250738585072014e-308), 0.3, False, 100),      # subnormal bracket, inner step
    ((-1e300, 1e300), 0.5, True, 90),                       # the step at 0
    ((3.0, 3.0), "lo", False, 90),                          # an empty bracket
])
def test_bisect_equals_fixed_step_loop_on_edge_cases(bracket, step, closed, iters):
    check_bisect(*bracket, step, closed, iters)


def test_bisect_keeps_its_step_count_when_the_bracket_keeps_moving():
    calls = []

    def below(t):
        calls.append(t)
        return t < 0.0
    # towards 0 the doubles never run out, so all 90 steps are taken
    assert sf._bracket_search(flat(below), 0.0, 1.0, 90) == 2.0 ** -91
    assert len(calls) == 90


@pytest.mark.parametrize("iters", [0, 1, 2, 5, 90])
def test_search_never_exceeds_its_step_cap(iters):
    # a distance that puts every interpolated point next to the lower end: the
    # safeguard's bisections still halve the bracket at least every third test
    calls = []

    def probe(t):
        calls.append(t)
        return t < 0.7, 1e-300 if t < 0.7 else -1e300
    got = sf._bracket_search(probe, 0.0, 1.0, iters)
    assert len(calls) <= iters
    assert abs(got - 0.7) <= 2.0 ** -(iters // 3)


# continuous quantile mapping -------------------------------------------------------

def check_continuous_quantile(spec, side, q):
    """The threshold is 0 or an adjacent-double crossing of ``tail(x) > q``
    (at a bounded support's end, the crossing is that end), and equals the
    fixed-step route unless the computed tail crosses q more than once, which
    only a tail that is not monotone can."""
    got = harness._bisect_quantile_flagged(spec, side, q)
    want = fixed_step_quantile(spec, side, q)
    x = got[0]
    if x == 0.0:  # the tail at 0 is q within the oracle's error, or below q
        ci_lo, ci_hi = harness.exact_tail(spec, side, 0.0).ci()
        assert (got[1] is None and ci_lo <= q <= ci_hi) or got == want == (0.0, "unattainable")
        return

    def below(t):
        return harness.exact_tail(spec, side, t).value > q
    assert got[1] is None and is_crossing(below, x), (side, q, x)
    if x != want[0]:  # two crossings: the computed tail is not monotone between them
        assert is_crossing(below, want[0]), (side, q, x, want)


@pytest.mark.parametrize("spec", CONTINUOUS, ids=repr)
def test_continuous_quantile_equals_fixed_step_route(spec):
    for side in SIDES:
        for q in DEPTHS:
            check_continuous_quantile(spec, side, q)


@pytest.mark.parametrize("spec", CONTINUOUS, ids=repr)
def test_continuous_quantile_tail_budget(tail_calls, spec):
    for side in SIDES:
        for q in DEPTHS:
            del tail_calls[:]
            harness.bisect_quantile(spec, side, q)
            assert len(tail_calls) <= 56, (side, q)


def test_doubling_hands_its_last_point_above_q_to_the_search(monkeypatch):
    # Normal(1) at 1e-12 (x = 7.03): tail(1), tail(2) and tail(4) stay above q
    # and tail(8) falls below it, so the search starts on [4, 8]
    starts = []
    search = harness._bracket_search

    def recorded(probe, lo, hi, iters, d_lo, d_hi):
        starts.append((lo, hi, d_lo > 0.0 > d_hi))
        return search(probe, lo, hi, iters, d_lo, d_hi)
    monkeypatch.setattr(harness, "_bracket_search", recorded)
    harness.bisect_quantile(Normal(1.0), Side.UPPER, 1e-12)
    assert starts == [(4.0, 8.0, True)]


def test_continuous_quantile_mean_tail_budget(tail_calls):
    counts = []
    for spec in CONTINUOUS:
        for side in SIDES:
            for q in DEPTHS:
                del tail_calls[:]
                harness.bisect_quantile(spec, side, q)
                counts.append(len(tail_calls))
    assert sum(counts) / len(counts) <= 25.0  # fixed-step bisection: 55.5


@pytest.mark.parametrize("spec", [IrwinHall(k) for k in range(2, 13)] + [Normal(1.0)], ids=repr)
def test_median_of_symmetric_family_is_zero(tail_calls, spec):
    # the tail at 0 is 1/2 within the oracle's error: the median is 0, with no
    # search towards it and no "unattainable" flag where it rounds below 1/2
    for side in SIDES:
        del tail_calls[:]
        assert harness._bisect_quantile_flagged(spec, side, 0.5) == (0.0, None)
        assert len(tail_calls) <= 3


# Clopper-Pearson ends -------------------------------------------------------------

CP_SUCCESSES = (0, 1, 3, 10, 100, 10**3, 10**4, 10**5, 5 * 10**5, 999_990, 10**6)


def test_clopper_pearson_ends_are_crossings_of_the_incomplete_beta(monkeypatch):
    n, confidence = 10**6, 0.99
    evals, depth = [0], [0]
    inc_beta = sf.inc_beta

    def counted(*args):  # the top-level evaluations, not inc_beta's own complement call
        evals[0] += depth[0] == 0
        depth[0] += 1
        try:
            return inc_beta(*args)
        finally:
            depth[0] -= 1
    monkeypatch.setattr(sf, "inc_beta", counted)
    ends = [oracle.clopper_pearson(s, n, confidence) for s in CP_SUCCESSES]
    assert evals[0] < 1000  # fixed-step bisection: 1,254
    monkeypatch.undo()
    a = 0.5 * (1.0 - confidence)
    for s, (lo, hi) in zip(CP_SUCCESSES, ends):
        for end, q, shape, trivial in ((lo, a, (s, n - s + 1), s == 0),
                                       (hi, 1.0 - a, (s + 1, n - s), s == n)):
            if trivial:
                continue

            def below(t):
                return sf.reg_inc_beta(*shape, t) < q
            assert is_crossing(below, end), (s, end)
            want = fixed_step_bisect(below, 0.0, 1.0, 100)
            assert abs(end - want) <= 1e-12 * want, (s, end, want)


# discrete quantile mapping ---------------------------------------------------------

def _support_size(spec, side):
    return sum(1 for x in harness._discrete_support_x(spec, side) if x >= 0.0)


@pytest.mark.parametrize("spec", DISCRETE, ids=repr)
def test_discrete_quantile_equals_support_scan_and_fits_budget(tail_calls, spec):
    for side in SIDES:
        n = _support_size(spec, side)
        for q in DEPTHS + (0.5, 0.999999, 1e-300):
            del tail_calls[:]
            got = harness._bisect_quantile_flagged(spec, side, q)
            assert len(tail_calls) <= 2 * math.ceil(math.log2(n)) + 4, (side, q)
            assert bits(got) == bits(support_scan(spec, side, q)), (side, q)


@pytest.mark.parametrize("spec,side,q,x", [
    (Binomial(3, 0.5), Side.UPPER, 0.9, 0.5),       # shallower than every tail
    (Binomial(5, 0.5), Side.UPPER, 1e-300, 2.5),    # deeper than every tail
    (RademacherSum(3), Side.LOWER, 1e-300, 3.0),
    (Poisson(0.1), Side.LOWER, 1e-300, 0.1),        # a single support point
])
def test_discrete_quantile_at_the_support_ends(spec, side, q, x):
    assert harness._bisect_quantile_flagged(spec, side, q) == (x, None)
    assert support_scan(spec, side, q) == (x, None)


@pytest.mark.parametrize("spec,side,q", [
    (Binomial(1, 1e-12), Side.LOWER, 1.0 - 1e-15),     # shallower than every tail
    (Binomial(400, 1.0 - 1e-12), Side.UPPER, 5e-324),  # deeper than every attained tail
    (Poisson(200.0), Side.UPPER, 5e-324),
    (Poisson(0.1), Side.UPPER, 1e-300),
    (RademacherSum(400), Side.LOWER, 0.999),
], ids=repr)
def test_discrete_quantile_equals_support_scan_on_edge_cases(spec, side, q):
    check_discrete_quantile(spec, side, q)


# the tie rules, on synthetic log tails ----------------------------------------------

@pytest.mark.parametrize("logs,n_zero,negative_first,log_q", [
    ([-1.0, -1.0, -1.0, -3.0], 0, False, -1.5),   # equal tails before the step
    ([-1e-17, -2e-17, -60.0], 0, False, -20.0),   # equal distances over unequal tails
    ([-10.0, -30.0], 0, False, -20.0),            # a tie across the step
    ([], 3, False, -1.0),                         # every tail is 0
    ([-5.0], 0, True, -1.0),                      # a negative first point
    ([-1.0, -2.0], 2, False, -50.0),              # deeper than every finite tail
])
def test_index_search_follows_the_scan_tie_rules(logs, n_zero, negative_first, log_q):
    check_tie_rules(logs, n_zero, negative_first, log_q)


# the incomplete-gamma series ------------------------------------------------------

def abs_series(a, y):
    """The series loop before it dropped ``abs``: a while loop on |term| < |total| eps."""
    log_front = a * math.log(y) - y - math.lgamma(a)
    term = 1.0 / a
    total = term
    n = 0
    while n < sf._MAX_ITER:
        n += 1
        term *= y / (a + n)
        total += term
        if abs(term) < abs(total) * sf._MACHEP:
            return log_front, total
    raise AssertionError("did not converge")


@pytest.mark.parametrize("a", [sys.float_info.min, 1e-300, 1e-9, 0.01, 0.5, 1.0, 2.5, 17.0,
                               300.0, 2e3])
def test_lower_series_bits_unchanged(a):
    for y in (1e-300, 1e-12, 0.1 * a, 0.5 * a, 0.99 * a, a, a + 0.999, 3.0):
        if 0.0 < y < a + 1.0:
            assert sf._lower_series(a, y) == abs_series(a, y), y


# subnormal shapes ---------------------------------------------------------------

@pytest.mark.parametrize("a", [1e-310, 5e-324, math.nextafter(sys.float_info.min, 0.0)])
def test_subnormal_shape_is_refused(a):
    with pytest.raises(DomainError, match=f"a={a}"):
        sf.inc_gamma(a, 0.5)


def test_smallest_normal_shape_is_accepted():
    q, log_q = sf.inc_gamma(sys.float_info.min, 0.5)[2:]
    assert 0.0 < q < 1e-307 and math.isfinite(log_q)


@pytest.mark.parametrize("argv", [
    ("bound", "--side", "upper", "--x", "0.5"),
    ("quantile", "--side", "upper", "--q", "0.01"),
    ("quantile", "--side", "lower", "--q", "0.01"),
])
def test_subnormal_gamma_shape_exits_3(capsys, argv):
    code = main([argv[0], "--dist", '{"family":"gamma","params":{"alpha":1e-310}}', *argv[1:]])
    err = capsys.readouterr().err
    assert code == 3
    assert "2.22507e-308 <= a <= 2.5e+305, got a=1e-310" in err

