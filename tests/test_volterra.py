"""Tests for the replica-batched weighted renewal solver and its callers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinning_lab import continuum as ct
from pinning_lab import discrete_pinning as dp
from pinning_lab import renewal as rn
from pinning_lab.rng import stream
from pinning_lab.volterra import BLOCK, renewal_solve_batch


def naive_solve(k, f, c):
    """x[j] = c[j] (f[j] + sum_{i<j} k[j-i] x[i]), one term at a time."""
    n, R = c.shape
    x = np.zeros((n, R))
    for j in range(n):
        acc = np.full(R, f[j])
        for i in range(j):
            acc += k[j - i] * x[i]
        x[j] = c[j] * acc
    return x


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 2 * BLOCK + 3), R=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, R=1, seed=0)
@example(n=BLOCK - 1, R=3, seed=1)
@example(n=BLOCK, R=2, seed=2)
@example(n=2 * BLOCK, R=1, seed=3)
@example(n=BLOCK + 1, R=5, seed=4)
def test_matches_naive_loop(n, R, seed):
    rng = np.random.default_rng(seed)
    k = rng.random(n + 1)
    k[0] = np.nan  # never read
    f = rng.random(n)
    c = rng.random((n, R))
    x, e = renewal_solve_batch(k, f, c)
    assert not e.any()
    np.testing.assert_allclose(x, naive_solve(k, f, c), rtol=1e-12)


@pytest.mark.parametrize("log_c", [20.0, 40.0, 650.0])
def test_scaled_solve_matches_log_domain(log_c):
    # large weights take short blocks and rescales; compare in logs with a
    # log-domain version of the naive loop
    n, R = 150, 2
    rng = np.random.default_rng(7)
    k = np.r_[np.nan, rng.random(n)]
    k[1:] /= k[1:].sum()
    f = k[1:]
    logc = log_c - rng.random((n, R))
    x, e = renewal_solve_batch(k, f, np.exp(logc))
    assert e[-1].min() > 0
    logx = np.empty((n, R))
    for j in range(n):
        t = np.vstack([np.full(R, np.log(f[j])),
                       np.log(k[j:0:-1])[:, None] + logx[:j]])
        logx[j] = logc[j] + np.logaddexp.reduce(t, axis=0)
    np.testing.assert_allclose(np.log(x) + e * np.log(2.0), logx, rtol=1e-13)


@pytest.fixture(scope="module")
def kernel():
    return rn.power_law_kernel(0.75, 1024)


@pytest.fixture(scope="module")
def rf(kernel):
    return rn.renewal_function(kernel, 1024)


def test_discrete_batch_matches_scalar_off_block(kernel, rf):
    N = 700  # not a multiple of BLOCK
    omegas = stream(31).standard_normal((3, N - 1))
    zb = dp.partition_dp_batch(kernel, rf, omegas, "standard-normal",
                               0.2, 0.01, N)
    for om, z in zip(omegas, zb):
        d = dp.DisorderField(om, "standard-normal")
        assert z == pytest.approx(
            dp.partition_dp(kernel, rf, d, 0.2, 0.01, 0, N), rel=1e-12)


def test_discrete_batch_matches_chaos_expansion(kernel, rf):
    N = 14
    omegas = stream(32).standard_normal((4, N - 1))
    zb = dp.partition_dp_batch(kernel, rf, omegas, "standard-normal",
                               0.8, 0.1, N)
    for om, z in zip(omegas, zb):
        d = dp.DisorderField(om, "standard-normal")
        assert z == pytest.approx(
            dp.chaos_expansion_exact(kernel, rf, d, 0.8, 0.1, N), rel=1e-12)


@pytest.mark.parametrize("variant", ["conditioned", "free"])
@pytest.mark.parametrize("cells", [63, 64, 65, 130])
def test_continuum_batch_matches_scalar_off_grid(variant, cells):
    M = 512
    sp = ct.ChaosSpec(alpha=0.75, beta_hat=1.0, h_hat=0.3, M=M,
                      variant=variant)
    paths = [ct.sample_brownian(1.0, M, stream(33, i)) for i in range(3)]
    incs = np.vstack([p.increments for p in paths])
    s = 0.1234567
    t = s + (cells + 0.3) / M
    zb = ct.z_point_batch(sp, incs, s, t)
    for p, z in zip(paths, zb):
        assert z == pytest.approx(ct._z_eval(sp, p, s, t), rel=1e-14)
