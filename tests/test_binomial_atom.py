"""The binomial atom certificate, replayed in exact arithmetic.

Binomial and Rademacher lower tails are certified by
P(Bin(k, p) >= m) >= pmf(m) (1 - r^J) / (1 - r), r = pmf(m + J) / pmf(m + J - 1).
Each reported bound is checked against that certificate recomputed at the
reported (m, J) with integers, and against the exact tail; the logs of both
are taken in ``decimal`` at 60 digits.
"""

import decimal
import math
import random
from fractions import Fraction

import pytest

from tailbound import harness
from tailbound.dist_bounds import lower_bound
from tailbound.dist_model import Binomial, RademacherSum, Side, support_extent

_CTX = decimal.Context(prec=60)


def _ln(n: int) -> decimal.Decimal:
    return _CTX.create_decimal(n).ln(_CTX)


def _count_rate(spec, side: Side) -> Fraction:
    """Success rate of the count whose upper tail is the requested tail."""
    if isinstance(spec, RademacherSum):
        return Fraction(1, 2)
    p = Fraction(spec.p)
    return p if side is Side.UPPER else 1 - p


def _replay(spec, side: Side, m: int, J: int):
    """(ln of the certificate at (m, J), ln P(Bin(k, rate) >= m), certificate <= P).

    With rate = a/d and b = d - a, pmf(j) = C(k, j) a^j b^(k - j) / d^k, so
    P = a^m A / d^k with A = sum_{i <= k - m} C(k, m + i) a^i b^(k - m - i).  With
    r = u / v, u = (k - m - J + 1) a, v = (m + J) b, the certificate is
    pmf(m) G / v^(J - 1) with G = sum_{j < J} u^j v^(J - 1 - j); the two are
    compared in integers.
    """
    k, n = spec.k, spec.k - m
    a, d = _count_rate(spec, side).as_integer_ratio()
    b = d - a
    tail, a_i = 0, 1
    for i in range(n + 1):  # Horner in b
        tail = tail * b + math.comb(k, m + i) * a_i
        a_i *= a
    atom = math.comb(k, m) * b ** n
    u, v = (k - m - J + 1) * a, (m + J) * b
    geometric = J * u ** (J - 1) if u == v else (u ** J - v ** J) // (u - v)
    with decimal.localcontext(_CTX):
        log_front = m * _ln(a) - k * _ln(d)
        log_cert = log_front + _ln(atom) + _ln(geometric) - (J - 1) * _ln(v)
        log_p = log_front + _ln(tail)
    return log_cert, log_p, atom * geometric <= tail * v ** (J - 1)


def _cases():
    rng = random.Random(17)
    specs = [Binomial(1, rng.uniform(0.001, 0.999)) for _ in range(8)]
    specs += [RademacherSum(1), RademacherSum(2)]
    specs += [Binomial(rng.randint(1, 400), rng.uniform(0.001, 0.999)) for _ in range(60)]
    specs += [RademacherSum(rng.randint(1, 200)) for _ in range(30)]
    for spec in specs:
        for side in Side:
            edge = support_extent(spec, side)
            xs = [0.0, edge, *(rng.uniform(0.0, edge) for _ in range(4))]
            xs += [harness.bisect_quantile(spec, side, q) for q in (0.3, 1e-3, 1e-9)]
            for x in xs:
                yield spec, side, x


def test_every_atom_certificate_replays_below_the_exact_tail():
    n_atoms = n_top = n_extended = 0
    for spec, side, x in _cases():
        bound = lower_bound(spec, side, x)
        if bound.method != "binomial_atom":
            assert bound.method == "boundary_exact", (spec, side, x, bound)
            continue
        m, J = bound.params_used["m"], bound.params_used["J"]
        assert set(bound.params_used) == {"m", "J"} and bound.certified
        assert 1 <= m <= spec.k and 1 <= J and (J == 1 or m + J <= spec.k)
        log_cert, log_p, below = _replay(spec, side, m, J)
        assert below and decimal.Decimal(bound.log_value) <= log_cert, (spec, side, x, bound)
        n_atoms += 1
        n_extended += J > 1
        if m == spec.k:
            n_top += 1
            gap = abs(bound.log_value - float(log_p))
            assert gap <= 1e-12 * max(1.0, abs(float(log_p))), (spec, side, x, gap)
    assert n_atoms > 800 and n_top > 100 and n_extended > 200


def test_the_atom_sits_at_the_first_count_in_the_tail():
    # the tail at a threshold just past a support point drops to the next atom
    spec = Binomial(10, 0.5)
    assert lower_bound(spec, Side.UPPER, 1.0).params_used["m"] == 6
    assert lower_bound(spec, Side.UPPER, 1.0 + 1e-6).params_used["m"] == 7
    assert lower_bound(spec, Side.LOWER, 1.0 + 1e-6).params_used["m"] == 7
    assert lower_bound(RademacherSum(10), Side.LOWER, 2.0).params_used["m"] == 6


@pytest.fixture(scope="module")
def default_report():
    return harness.run_grid(seed=42)


def test_default_sweep_certifies_every_row_with_a_positive_tail(default_report):
    uncertified = [(row.spec, row.side.value, row.x) for row in default_report.rows
                   if row.exact.value > 0.0
                   and not (row.lower is not None and row.lower.certified
                            and row.lower.log_value > -math.inf)]
    assert uncertified == []
    discrete = [row for row in default_report.rows
                if isinstance(row.spec, (Binomial, RademacherSum))]
    assert len(discrete) == 32
    for row in discrete:
        assert row.lower.method == row.lower.cite == "binomial_atom"
        assert set(row.lower.params_used) == {"m", "J"}
