"""Block layout of the Monte Carlo samplers.

Each sampler draws in blocks of a fixed size, block i from stream (seed, i)
(or, for sum-shaped families, in row chunks from one stream).  These tests
pin the draws to a test-side copy of the hand-written block loop the
samplers used before they shared ``dist_model._blocks``, one below, at and
one above each block size.
"""

import math

import numpy as np
import pytest

from tailbound.dist_bounds import mgf_sandwich
from tailbound.dist_model import (
    _CHUNK_ELEMS, Gamma, IrwinHall, Normal, RngStream, Side, WeightedChiSq, WeightVector,
    _blocks, mean_shift, sample,
)
from tailbound.extremes import _TARGET_DRAWS_PER_SHARD, ExtremeSpec, mc_extreme_mean
from tailbound.mixture import _MISID_SHARD, MixtureSpec, derive_classifier, mc_misid
from tailbound.oracle import _MC_SHARD, mc_tail


def around(size):
    return (size - 1, size, size + 1)


def test_block_sizes_are_pinned():
    # the block size fixes the draws, so changing one changes every seeded estimate
    assert (_MC_SHARD, _TARGET_DRAWS_PER_SHARD, _MISID_SHARD, _CHUNK_ELEMS) == (
        1 << 17, 1 << 21, 1 << 16, 1 << 22)


def test_blocks_cover_n_in_order():
    assert _blocks(0, 4) == []
    assert _blocks(3, 4) == [3]
    assert _blocks(8, 4) == [4, 4]
    assert _blocks(9, 4) == [4, 4, 1]


def _ref_mc_tail_count(spec, side, x, n, seed):
    count = 0
    pos = 0
    shard = 0
    while pos < n:
        m = min(_MC_SHARD, n - pos)
        draws = sample(spec, RngStream(seed, shard), m)
        if side is Side.UPPER:
            count += int((draws >= x).sum())
        else:
            count += int((draws <= -x).sum())
        pos += m
        shard += 1
    return count


@pytest.mark.parametrize("n", around(_MC_SHARD))
def test_mc_tail_block_layout(n):
    for side in (Side.UPPER, Side.LOWER):
        est = mc_tail(Gamma(2.0), side, 1.0, n=n, seed=5)
        assert est.value == _ref_mc_tail_count(Gamma(2.0), side, 1.0, n, 5) / n


# 1000 sums of 20 terms: 20,000 draws per replication, blocks of 104 replications
EXTREME = ExtremeSpec(base=Normal(1.0), u=WeightVector(tuple(1.0 / (j + 1) for j in range(20))),
                      k=1000, sandwich=mgf_sandwich(Normal(1.0)))
EXTREME_BLOCK = max(1, _TARGET_DRAWS_PER_SHARD // (EXTREME.k * len(EXTREME.u)))


def _ref_mc_extreme_mean(spec, reps, seed):
    k, n = spec.k, len(spec.u)
    per_rep = k * n
    block = max(1, _TARGET_DRAWS_PER_SHARD // per_rep)
    u = spec.u.as_array()
    sums = []
    sq_sums = []
    pos = 0
    shard = 0
    while pos < reps:
        m = min(block, reps - pos)
        draws = sample(spec.base, RngStream(seed, shard), m * per_rep).reshape(m, k, n)
        mx = (draws @ u).max(axis=1)
        sums.append(float(mx.sum()))
        sq_sums.append(float((mx * mx).sum()))
        pos += m
        shard += 1
    mean = math.fsum(sums) / reps
    var = max(0.0, (math.fsum(sq_sums) - reps * mean * mean) / (reps - 1))
    return mean, math.sqrt(var / reps)


@pytest.mark.parametrize("reps", around(EXTREME_BLOCK))
def test_mc_extreme_mean_block_layout(reps):
    assert EXTREME_BLOCK == 104
    assert mc_extreme_mean(EXTREME, reps, seed=3) == _ref_mc_extreme_mean(EXTREME, reps, 3)


def _ref_misid_count(spec, k, seed):
    theta = derive_classifier(spec).theta_tilde
    mismatches = 0
    pos = 0
    shard = 0
    while pos < k:
        m = min(_MISID_SHARD, k - pos)
        rng = RngStream(seed, shard).generator()
        z = rng.random(m) < spec.eps
        y = rng.poisson(np.where(z, spec.lam, spec.mu))
        mismatches += int(((y > theta) != z).sum())
        pos += m
        shard += 1
    return mismatches


@pytest.mark.parametrize("k", around(_MISID_SHARD))
def test_mc_misid_block_layout(k):
    spec = MixtureSpec(1.0, 4.0, 0.3)
    assert mc_misid(spec, k, seed=9).value == _ref_misid_count(spec, k, 9) / k


def _ref_row_sums(n, k, rows_of):
    out = np.empty(n, dtype=float)
    rows = max(1, _CHUNK_ELEMS // k)
    pos = 0
    while pos < n:
        m = min(rows, n - pos)
        out[pos:pos + m] = rows_of(m)
        pos += m
    return out


# 40,000 summands per draw: row chunks of 104 draws
SUM_K = 40_000
SUM_ROWS = max(1, _CHUNK_ELEMS // SUM_K)


@pytest.mark.parametrize("n", around(SUM_ROWS))
def test_irwin_hall_sample_block_layout(n):
    assert SUM_ROWS == 104
    spec = IrwinHall(SUM_K)
    rng = RngStream(7, 2).generator()
    ref = _ref_row_sums(n, SUM_K, lambda m: rng.random((m, SUM_K)).sum(axis=1))
    assert np.array_equal(sample(spec, RngStream(7, 2), n), ref - mean_shift(spec))


@pytest.mark.parametrize("n", around(SUM_ROWS))
def test_weighted_chisq_sample_block_layout(n):
    spec = WeightedChiSq(WeightVector(tuple(1.0 + (j % 7) / 7.0 for j in range(SUM_K))))
    u = spec.u.as_array()
    rng = RngStream(7, 3).generator()

    def rows_of(m):
        z = rng.standard_normal((m, SUM_K))
        return (z * z) @ u

    ref = _ref_row_sums(n, SUM_K, rows_of)
    assert np.array_equal(sample(spec, RngStream(7, 3), n), ref - mean_shift(spec))
