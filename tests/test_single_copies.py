"""Each lower-bound search and each Monte Carlo estimate is written once.

The shared helpers (``specfun._golden_min``, ``engine_upper._no_certificate``,
``oracle._mc_estimate``) are checked on their own, the searches built on them
against test-side copies of the hand-written loops they replaced, and an AST
guard fails when a hand-written copy comes back anywhere in the package. The
same guard keeps the golden ratio in ``specfun._golden_min``, rate-window
errors in ``dist_bounds.rate_info``, zero tails in ``dist_bounds._region`` and
the discrete regions, and catalog rows in ``dist_bounds.bound_catalog``, which
reads them from the records.  The sub-Gaussian and sub-gamma upper bounds are
one function, ``_sub_gamma``, and every function that takes a tail threshold
refuses one outside [0, inf) with ``errors.check_threshold``.
"""

import ast
import math
import pathlib
import random

import numpy as np
import pytest

import tailbound
from tailbound import specfun as sf
from tailbound.dist_bounds import (
    _BOUNDS, _beta_split_lower, _engine_lower, _sub_gamma, mgf_sandwich,
)
from tailbound.dist_model import (
    Beta, Binomial, ChiSq, Gamma, IrwinHall, NoncentralChiSq, Normal, Poisson, RademacherSum,
    Side, WeightedChiSq, WeightVector, log_mgf, support_extent, variance,
)
from tailbound.engine_lower import mgf_sandwich_from_tails, pz_lower
from tailbound.engine_upper import BoundResult, MgfSandwich, result_from_log
from tailbound.errors import DomainError
from tailbound.harness import DEFAULT_QUANTILES, bisect_quantile
from tailbound.oracle import MonteCarloError, _mc_estimate, clopper_pearson


# pz_lower against the loop it replaced --------------------------------------------

def _pz_t_root(s, x, lam):
    """Smallest t with c1 a t - (lam + log(1/c2)) / t = x (the binding threshold)."""
    shift = lam + math.log(1.0 / s.c2)
    return (x + math.sqrt(x * x + 4.0 * s.c1 * s.alpha * shift)) / (2.0 * s.c1 * s.alpha)


def _pz_log_value(s, t, lam):
    return (
        2.0 * math.log(-math.expm1(-lam))
        + 2.0 * math.log(s.c2) - math.log(s.C2)
        - 2.0 * (2.0 * s.C1 - s.c1) * s.alpha * t * t
    )


def _ref_golden_argmax(f, lo, hi, iters):
    """Midpoint of the bracket left after ``iters`` golden-section steps towards
    the maximum of f, both inner points evaluated afresh at each step."""
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    for _ in range(iters):
        m1 = b - golden * (b - a)
        m2 = a + golden * (b - a)
        if f(m1) >= f(m2):
            b = m2
        else:
            a = m1
    return 0.5 * (a + b)


def _ref_pz_lower(s, x, lam=None):
    """The hand-written grid-then-golden loop of pz_lower before the golden-section
    search over the feasible interval: the best of 200 geometric lam on [1e-3, 20],
    refined by 80 golden-section steps between its neighbours, with the sandwich
    constants recomputed at every lam."""
    def candidate(lam_val):
        t = _pz_t_root(s, x, lam_val)
        if t > 0.5 * s.M:
            return None
        return _pz_log_value(s, t, lam_val), t

    if lam is not None:
        got = candidate(lam)
        if got is None:
            return BoundResult(0.0, -math.inf, "pz", False, "paley_zygmund",
                               {"feasible": False, "lam": lam})
        return result_from_log(got[0], "pz", True, "paley_zygmund", {"t": got[1], "lam": lam})
    lams = np.geomspace(1e-3, 20.0, 200)
    best, best_i = None, -1
    for i, lv_lam in enumerate(lams):
        got = candidate(float(lv_lam))
        if got is not None and (best is None or got[0] > best[0]):
            best, best_i = (got[0], got[1], float(lv_lam)), i
    if best is None:
        return BoundResult(0.0, -math.inf, "pz", False, "paley_zygmund", {"feasible": False})

    def log_value(lam_val):
        got = candidate(lam_val)
        return got[0] if got else -math.inf

    lam_ref = _ref_golden_argmax(log_value, float(lams[max(0, best_i - 1)]),
                                 float(lams[min(len(lams) - 1, best_i + 1)]), 80)
    got = candidate(lam_ref)
    if got and got[0] > best[0]:
        best = (got[0], got[1], lam_ref)
    return result_from_log(best[0], "pz", True, "paley_zygmund", {"t": best[1], "lam": best[2]})


def _lam_grid_max(s, x, n=20_000):
    """Largest log value of the Paley-Zygmund certificate over n geometric lam on
    [1e-3, 20]; -inf where no lam is feasible."""
    lam = np.geomspace(1e-3, 20.0, n)
    ca = s.c1 * s.alpha
    t = (x + np.sqrt(x * x + 4.0 * ca * (lam + math.log(1.0 / s.c2)))) / (2.0 * ca)
    lv = (2.0 * np.log(-np.expm1(-lam)) + 2.0 * math.log(s.c2) - math.log(s.C2)
          - 2.0 * (2.0 * s.C1 - s.c1) * s.alpha * t * t)
    return float(np.where(t > 0.5 * s.M, -np.inf, lv).max())


def _pz_cases():
    rng = random.Random(11)
    specs = (Normal(2.0), Gamma(3.0), ChiSq(5), NoncentralChiSq(2, 4.0), Poisson(6.0),
             IrwinHall(12), RademacherSum(9), WeightedChiSq(WeightVector((1.0, 0.3))))
    sandwiches = [mgf_sandwich(spec, side) for spec in specs for side in Side]
    for _ in range(12):  # random sandwiches, some with a small radius M
        c1 = rng.uniform(0.05, 1.0)
        sandwiches.append(MgfSandwich(c1, c1 * rng.uniform(1.0, 6.0), rng.uniform(0.2, 1.0),
                                      rng.uniform(1.0, 3.0), rng.uniform(0.1, 50.0),
                                      rng.choice([math.inf, rng.uniform(0.05, 3.0)])))
    for s in sandwiches:
        scale = math.sqrt(s.alpha)
        for x in (0.0, rng.uniform(0.0, 1.0) * scale, rng.uniform(1.0, 4.0) * scale,
                  rng.uniform(4.0, 40.0) * scale):
            yield s, x


def _pz_search_cases():
    """_pz_cases, every engine family's sandwiches at 40 depths, and sandwiches
    from tail constants."""
    yield from _pz_cases()
    for spec in _ENGINE_SPECS:
        for side in Side:
            s = mgf_sandwich(spec, side)
            for x in (math.sqrt(s.alpha) * np.geomspace(1e-6, 60.0, 40)).tolist():
                yield s, x
    rng = random.Random(4)
    for _ in range(10):
        s = mgf_sandwich_from_tails(rng.uniform(0.01, 2.0), rng.uniform(0.1, 5.0),
                                    rng.uniform(0.1, 5.0), rng.uniform(0.5, 5.0))
        for x in (0.0, rng.uniform(0.0, 1.0), rng.uniform(1.0, 8.0), rng.uniform(8.0, 40.0)):
            yield s, x


def test_pz_lower_matches_the_replaced_loop():
    """A forced lam keeps the bits of the replaced loop.  The search certifies
    exactly where the loop did, and its value is at most 8 ulps below the loop's
    and below the best of a 20,000-point lam grid."""
    rng = random.Random(5)
    n_forced = 0
    for s, x in _pz_cases():
        lam = rng.choice([1e-3, 0.3, 1.0, 7.0, 20.0])
        forced = pz_lower(s, x, lam=lam)
        assert forced == _ref_pz_lower(s, x, lam=lam), (s, x, lam)
        n_forced += forced.certified
    outcomes = set()
    for s, x in _pz_search_cases():
        got, want = pz_lower(s, x), _ref_pz_lower(s, x)
        assert got.certified == want.certified, (s, x)
        outcomes.add(got.certified)
        if got.certified:
            assert got == pz_lower(s, x, lam=got.params_used["lam"]), (s, x)
            best = _lam_grid_max(s, x)
            for ref in (want.log_value, best):
                assert got.log_value >= ref - 8.0 * math.ulp(ref), (s, x, got.log_value, ref)
    assert n_forced > 0 and outcomes == {True, False}  # both outcomes were exercised


# the beta split against the loop it replaced ----------------------------------------

def _ref_beta_split_lower(spec, side, x):
    """The 80-point search over y in [y0, y0 + 0.999 (b - y0)] before the single
    evaluation at y0, with y as Python floats: every operation on them rounds as
    it did on the loop's np.float64 values, at a third of the cost."""
    a, b = (spec.alpha, spec.beta) if side is Side.UPPER else (spec.beta, spec.alpha)
    y0 = (a + b) * x
    best = (-math.inf, y0)
    for y in np.linspace(y0, y0 + (b - y0) * 0.999, 80).tolist() if y0 < b else ():
        lv = sf.log_reg_inc_gamma_upper(a, a + y) + sf.log_reg_inc_gamma_lower(b, b - y)
        if lv > best[0]:
            best = (lv, float(y))
    if best[0] == -math.inf:
        return BoundResult(0.0, -math.inf, "beta_gamma_split", False, "beta_gamma_split",
                           {"feasible": False})
    return result_from_log(best[0], "beta_gamma_split", True, "beta_gamma_split",
                           {"y": best[1]})


def _split_rows():
    """Beta(2, 5) at the verify sweep's quantiles, then specs and depths drawn as the
    point-bounds benchmark draws them: shapes log-uniform in [1, 50] and x = z sd with
    z log-uniform in [0.05, 8], short of the edge."""
    spec = Beta(2.0, 5.0)
    for side in Side:
        for q in DEFAULT_QUANTILES:
            yield spec, side, bisect_quantile(spec, side, q)
    rng = random.Random(11)
    log_u = lambda lo, hi: math.exp(rng.uniform(math.log(lo), math.log(hi)))  # noqa: E731
    while True:
        spec, side = Beta(log_u(1.0, 50.0), log_u(1.0, 50.0)), rng.choice(list(Side))
        x = log_u(0.05, 8.0) * math.sqrt(variance(spec))
        if x < support_extent(spec, side):
            yield spec, side, x


def test_beta_split_stays_within_1e_10_nats_of_the_replaced_loop():
    # the split reads b - (a+b)x as the edge distance (a+b)(b/(a+b) - x), which does
    # not cancel near the edge, so it moves off the loop's bits by rounding alone
    rows = _split_rows()
    for _ in range(2 * len(DEFAULT_QUANTILES) + 300):
        spec, side, x = next(rows)
        got, want = _beta_split_lower(spec, side, x), _ref_beta_split_lower(spec, side, x)
        assert got.certified and want.certified
        assert abs(got.log_value - want.log_value) <= 1e-10, (spec, side, x, got, want)


def test_beta_split_never_exceeds_the_exact_tail_at_the_edge():
    rng = random.Random(3)
    for _ in range(400):
        spec = Beta(rng.uniform(1.0, 50.0), rng.uniform(1.0, 50.0))
        for side in Side:
            edge = support_extent(spec, side)
            xs = [edge]
            for _ in range(3):  # 1 to 3 ulps inside
                xs.append(math.nextafter(xs[-1], 0.0))
            for x in (*xs, math.nextafter(edge, 1.0), edge * (1.0 - 1e-15), edge * (1.0 - 1e-13)):
                got = _beta_split_lower(spec, side, x)
                p = tailbound.exact_tail(spec, side, x)
                assert got.log_value <= p.log_value, (spec, side, x, got.log_value, p.log_value)
                assert got.certified == (x < edge), (spec, side, x, got)


# the engine route needs both a log-MGF and a sandwich ------------------------------

_ENGINE_SPECS = (
    Normal(1.0), Normal(1e-300), Normal(1e300), Gamma(2.5), Gamma(1e-5), ChiSq(1),
    ChiSq(10**6), WeightedChiSq(WeightVector((1.0, 0.7, 0.4))),
    WeightedChiSq(WeightVector((1e-150,))), WeightedChiSq(WeightVector((1e150, 1.0))),
    NoncentralChiSq(3, 2.0), NoncentralChiSq(1, 0.0), Poisson(3.0), Poisson(1e-300),
    IrwinHall(8), IrwinHall(2**22),
)


def test_every_engine_family_has_a_log_mgf_and_a_sandwich():
    engine_families = {cls for cls, entry in _BOUNDS.items() if entry.numeric is _engine_lower}
    assert engine_families == {type(s) for s in _ENGINE_SPECS}
    for spec in _ENGINE_SPECS:
        mgf = log_mgf(spec)
        assert mgf.domain.hi > 0.0 and -mgf.domain.lo > 0.0, spec  # both sides searchable
        for side in Side:
            mgf_sandwich(spec, side)


def test_the_sub_gamma_families_share_one_upper_bound():
    built = {cls for cls, entry in _BOUNDS.items()
             if entry.upper.__qualname__ == f"{_sub_gamma.__name__}.<locals>.upper"}
    assert built == {Normal, Gamma, ChiSq, WeightedChiSq, NoncentralChiSq, RademacherSum}


_GAUSS = MgfSandwich(0.5, 0.5, 1.0, 1.0, 1.0, math.inf)
_THRESHOLD_TAKERS = {
    "upper_bound": lambda x: tailbound.upper_bound(Poisson(3.0), Side.UPPER, x),
    "rate_info": lambda x: tailbound.dist_bounds.rate_info(Gamma(2.0), Side.UPPER, x),
    "lower_bound": lambda x: tailbound.lower_bound(Binomial(5, 0.3), Side.UPPER, x),
    "pz_lower": lambda x: pz_lower(_GAUSS, x),
    "pz_paper_bound": lambda x: tailbound.pz_paper_bound(_GAUSS, x),
    "chernoff_upper": lambda x: tailbound.chernoff_upper(log_mgf(Normal(1.0)), x),
    "sandwich_upper": lambda x: tailbound.sandwich_upper(_GAUSS, x),
    "weighted_sum_upper": lambda x: tailbound.weighted_sum_upper(
        _GAUSS, WeightVector((1.0, 0.5)), x),
    "exact_tail": lambda x: tailbound.exact_tail(RademacherSum(4), Side.UPPER, x),
    "mc_tail": lambda x: tailbound.mc_tail(Normal(1.0), Side.UPPER, x, n=100),
}


@pytest.mark.parametrize("take", list(_THRESHOLD_TAKERS))
@pytest.mark.parametrize("x", [-1.0, math.nan, math.inf])
def test_every_threshold_taker_refuses_a_threshold_outside_0_to_inf(take, x):
    with pytest.raises(DomainError, match="threshold must be >= 0 and finite"):
        _THRESHOLD_TAKERS[take](x)


def test_weights_whose_squared_norm_underflows_are_refused():
    with pytest.raises(DomainError):
        WeightVector((1e-170, 1e-200))


# the Monte Carlo estimate -----------------------------------------------------------

@pytest.mark.parametrize("count,n", [(0, 1000), (7, 1000), (1000, 1000), (123_456, 10**6)])
def test_mc_estimate(count, n):
    est = _mc_estimate(count, n)
    assert est.value == count / n
    assert est.log_value == (math.log(count / n) if count else -math.inf)
    assert est.error == MonteCarloError(*clopper_pearson(count, n, 0.99), n, 0.99)


# structural guard ------------------------------------------------------------------

_SRC = pathlib.Path(tailbound.__file__).parent

# what may appear only inside the named functions
_ONE_PLACE = {
    "no-certificate BoundResult": {"_no_certificate", "_zero_result"},
    "clopper_pearson": {"_mc_estimate"},
    "_GOLDEN": {"_golden_min"},  # one golden-section loop
    # rate_info tests every rate-form window; the other two refuse a closed-form
    # tier with no certificate and a fitting grid point whose exact tail is 0
    "WindowError": {"rate_info", "lower_bound", "fit_rate_constants"},
    # a continuous zero tail comes from the one support-edge rule; a discrete one from
    # the oracle's count
    "_zero_result": {"_region", "_binomial_region", "_poisson_region", "_rademacher_region"},
}


def _called_name(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _kind(node):
    """The _ONE_PLACE kind of a call, or of a read of the golden ratio; else None."""
    if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
        name = node.id if isinstance(node, ast.Name) else node.attr
        return name if name == "_GOLDEN" else None
    if not isinstance(node, ast.Call):
        return None
    name = _called_name(node)
    if name == "BoundResult":
        first = node.args[0] if node.args else next(
            (kw.value for kw in node.keywords if kw.arg == "value"), None)
        if isinstance(first, ast.Constant) and first.value == 0:
            return "no-certificate BoundResult"
    return name if name in _ONE_PLACE else None


def _nodes(node, func=None):
    """Every node below node, with the name of its innermost enclosing function."""
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield child, inner
        yield from _nodes(child, inner)


def _package_nodes():
    for path in sorted(_SRC.glob("*.py")):
        for node, func in _nodes(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node, func


def test_each_helper_is_the_one_place_for_its_job():
    seen = {kind: set() for kind in _ONE_PLACE}
    strays = []
    for name, node, func in _package_nodes():
        kind = _kind(node)
        if kind:
            seen[kind].add(func)
            if func not in _ONE_PLACE[kind]:
                strays.append(f"{name}: {kind} in {func}")
    assert strays == []
    assert all(seen[kind] for kind in _ONE_PLACE)  # the guard is not vacuous


def _is_catalog_row(node):
    return isinstance(node, ast.Dict) and any(
        isinstance(key, ast.Constant) and key.value == "formula_cite" for key in node.keys)


def test_catalog_rows_are_built_only_from_the_records():
    builders, lists = set(), []
    for name, node, func in _package_nodes():
        if _is_catalog_row(node):
            builders.add(func)
        displays = (ast.List, ast.Tuple, ast.Set)
        if isinstance(node, displays) and any(map(_is_catalog_row, node.elts)):
            lists.append(f"{name}: catalog rows written out in {func or 'module scope'}")
    assert lists == []
    assert builders == {"bound_catalog"}
