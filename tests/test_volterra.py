"""Tests for the replica-batched weighted renewal solver and its callers."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinning_lab import continuum as ct
from pinning_lab import discrete_pinning as dp
from pinning_lab import renewal as rn
from pinning_lab import volterra
from pinning_lab.rng import stream
from pinning_lab.volterra import BLOCK, TRI_RATIO, renewal_solve_batch

from chaos_oracle import chaos_oracle as oracle


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


# the block step is triangular for R <= TRI (BLOCK = 64 here), a loop above
TRI = BLOCK // TRI_RATIO


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 2 * BLOCK + 3), R=st.integers(1, 2 * TRI + 2),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=1, R=1, seed=0)
@example(n=1, R=TRI + 1, seed=5)
@example(n=5, R=TRI + 1, seed=10)  # the step path on k of n + 1 entries
@example(n=BLOCK - 1, R=TRI + 1, seed=11)
@example(n=BLOCK - 1, R=3, seed=1)
@example(n=BLOCK, R=2, seed=2)
@example(n=2 * BLOCK, R=1, seed=3)
@example(n=BLOCK + 1, R=5, seed=4)
@example(n=BLOCK + 1, R=TRI, seed=6)
@example(n=BLOCK + 1, R=TRI + 1, seed=7)
@example(n=2 * BLOCK + 3, R=TRI, seed=8)
@example(n=2 * BLOCK + 3, R=TRI + 1, seed=9)
def test_matches_naive_loop(n, R, seed):
    rng = np.random.default_rng(seed)
    k = rng.random(n + 1)
    k[0] = np.nan  # never read
    f = rng.random(n)
    c = rng.random((n, R))
    x, e = renewal_solve_batch(k, f, c.copy())
    assert not e.any()
    np.testing.assert_allclose(x, naive_solve(k, f, c), rtol=1e-12)


@pytest.mark.parametrize("R", [1, TRI + 2])
def test_halving_matches_naive_loop(monkeypatch, R):
    # 601 rows halve twice at odd lengths, down to leaves of 150-151 rows;
    # the signed weights leave entries near 0, so the error is measured
    # against the largest |x|
    monkeypatch.setattr(volterra, "HALVE_ABOVE", 2 * BLOCK)
    n = 601
    rng = np.random.default_rng(R)
    k = np.r_[np.nan, rng.random(n)]
    k[1:] /= k[1:].sum()
    f = rng.random(n)
    c = rng.standard_normal((n, R))
    x, e = renewal_solve_batch(k, f, c.copy())
    want = naive_solve(k, f, c)
    assert not e.any()
    assert np.max(np.abs(x - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("log_c", [20.0, 40.0, 650.0])
def test_scaled_solve_matches_log_domain(monkeypatch, log_c):
    # large weights take short blocks (28, 14 and 1 index) and rescales;
    # compare in logs with a log-domain version of the naive loop. One
    # replica takes the triangular block step at log_c = 20 and 40, eight
    # the loop. Halved above 64 rows, both halves rescale too.
    n = 150
    rng = np.random.default_rng(7)
    k = np.r_[np.nan, rng.random(n)]  # k[0] is never read
    k[1:] /= k[1:].sum()
    f = k[1:]
    for halve, R in [(volterra.HALVE_ABOVE, 1), (volterra.HALVE_ABOVE, 8),
                     (64, 1), (64, 8)]:
        monkeypatch.setattr(volterra, "HALVE_ABOVE", halve)
        logc = log_c - rng.random((n, R))
        x, e = renewal_solve_batch(k, f, np.exp(logc))
        assert np.isfinite(x).all() and e[n // 2 - 1].min() > 0
        assert (e[-1] > e[n // 2]).all()
        logx = np.empty((n, R))
        for j in range(n):
            t = np.vstack([np.full(R, np.log(f[j])),
                           np.log(k[j:0:-1])[:, None] + logx[:j]])
            logx[j] = logc[j] + np.logaddexp.reduce(t, axis=0)
        np.testing.assert_allclose(np.log(x) + e * np.log(2.0), logx,
                                   rtol=1e-13)


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


def test_discrete_batch_peak_memory(kernel, rf):
    # one (N, R) weight buffer, which x overwrites, and int32 e: 1.5 N R
    # doubles. np.dot adds its C-ordered copy of one block's Toeplitz panel,
    # at most BLOCK x N doubles (a strided Toeplitz view has overlapping
    # rows, which BLAS cannot read); a quarter more covers the rest
    N, R = 1024, 64
    omegas = stream(34).standard_normal((R, N - 1))
    args = (kernel, rf, omegas, "standard-normal", 0.05, 0.01, N)
    dp.partition_dp_batch(*args)
    tracemalloc.start()
    try:
        dp.partition_dp_batch(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1.5 + BLOCK / R + 0.25) * N * R * 8
    for n in (N, volterra.HALVE_ABOVE + 1):  # blocked, and halved
        k = np.full(n + 1, 0.5 / n)
        assert renewal_solve_batch(k, k[1:], np.ones((n, 2)))[1].dtype == (
            np.int32)


def test_discrete_batch_matches_chaos_expansion(kernel, rf):
    N = 14
    omegas = stream(32).standard_normal((4, N - 1))
    zb = dp.partition_dp_batch(kernel, rf, omegas, "standard-normal",
                               0.8, 0.1, N)
    for om, z in zip(omegas, zb):
        d = dp.DisorderField(om, "standard-normal")
        assert z == pytest.approx(
            dp.chaos_expansion_exact(kernel, rf, d, 0.8, 0.1, N), rel=1e-12)


@pytest.mark.parametrize("cells", [63, 64, 65, 130])
def test_continuum_batch_matches_scalar_off_grid(cells):
    # spans across one and two block boundaries, batched on both sides of
    # the triangular rule, against the chaos oracle; with h_hat = 0 only the
    # cells given noise enter the oracle's subset sum
    M = 512
    sp = ct.ChaosSpec(alpha=0.75, beta_hat=1.0, M=M)
    s = 0.1234567
    t = s + (cells + 0.3) / M
    i0 = round(s * M)
    noisy = i0 + np.array([0, 1, 31, BLOCK - 2, BLOCK - 1, BLOCK, BLOCK + 1,
                           cells - 2, cells - 1, cells])
    for R in (3, TRI + 2):
        incs = np.zeros((R, M))
        incs[:, noisy] = stream(33, R).standard_normal((R, len(noisy))) / 20
        zb = ct.z_point_batch(sp, incs, s, t)
        want = [oracle(sp, inc, s, t) for inc in incs]
        np.testing.assert_allclose(zb, want, rtol=1e-13)


def far_field_as(monkeypatch, change):
    """Make the continuum layer solve on the same exact gap factors with
    the far field change(far); None solves blocked, and halved above
    HALVE_ABOVE rows."""
    kernel = ct._kernel
    monkeypatch.setattr(ct, "_kernel", lambda *key: kernel(*key)._replace(
        far=change(kernel(*key).far)))


@pytest.mark.parametrize("M", [256, 1024, 4096, 16384])
@pytest.mark.parametrize("R", [1, 3, 250])
def test_far_field_matches_blocked(monkeypatch, M, R):
    # Z(0, 1) and off-grid spans, one per path, each end in its own cell.
    # A doubled far field moves Z wherever the far field is read; at
    # M = 256 it does not pay (n <= 2 BLOCK + 4 p) and Z is the blocked one
    # bit for bit
    sp = ct.ChaosSpec(alpha=0.75, beta_hat=1.0, h_hat=0.3, M=M)
    rng = stream(35, M + R)
    inc = rng.standard_normal((R, M)) / np.sqrt(M)
    s, t = rng.uniform(0.0, 0.2, R), rng.uniform(0.7, 1.0, R)

    def z():
        return np.concatenate([ct.z_point_batch(sp, inc, 0.0, 1.0),
                               ct._z_spans(sp, inc, s, t, np.arange(R))])
    far = z()
    far_field_as(monkeypatch, lambda ff: ff._replace(read=2 * ff.read))
    assert np.array_equal(z(), far) == (M == 256)
    monkeypatch.undo()
    far_field_as(monkeypatch, lambda ff: None)
    blocked = z()
    np.testing.assert_allclose(far, blocked, rtol=1e-13, atol=0)
    assert np.array_equal(far, blocked) or M > 256


@pytest.mark.parametrize("R", [1, TRI + 1])
def test_far_field_rescales_with_the_past(R):
    # weights near 40 rescale the past, and S with it, every few blocks;
    # compared in logs with the blocked solve of the same kernel
    n = 1024
    kern = ct._kernel(0.75, 1.0, n)
    c = 40.0 + stream(36, R).random((n, R))
    f = ct._cell_avg(0.75, np.arange(n + 1) / n, 1 / n)
    logs = []
    for far in (kern.far, None):
        x, e = renewal_solve_batch(kern.kg, f, c.copy(), far)
        assert np.all(x > 0) and e[-1].min() > e[n // 2].max() > 0
        logs.append(np.log(x) + e * np.log(2.0))
    np.testing.assert_allclose(*logs, rtol=1e-13)


@pytest.mark.parametrize("R", [1, 250])
def test_far_field_peak_memory(R):
    # beside the caller's c, which x overwrites, and f: int32 e (4 n R
    # bytes); S and the work arrays of a block, at most 2 p + 3 BLOCK
    # doubles per replica; four BLOCK x BLOCK matrices (the near panel, the
    # in-block matrix, its negation and its scaled copy); 16 KiB of small
    # arrays. A copied BLOCK x n Toeplitz panel (2 MiB) does not fit
    n = 4096
    kern = ct._kernel(0.75, 1.0, n)
    p = len(kern.far.decay)
    c = stream(37, R).standard_normal((n, R)) / np.sqrt(n)
    f = ct._cell_avg(0.75, np.arange(n + 1) / n, 1 / n)
    renewal_solve_batch(kern.kg, f, c.copy(), kern.far)
    tracemalloc.start()
    try:
        renewal_solve_batch(kern.kg, f, c, kern.far)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (4 * n * R + 8 * (2 * p + 3 * BLOCK) * R
                    + 4 * 8 * BLOCK ** 2 + 16 * 1024)


@pytest.mark.parametrize("path", ["blocked", "far field", "halved"])
def test_x_is_written_over_c(monkeypatch, path):
    # the one (n, R) float buffer of a solve is the caller's c, on each path
    # and through a rescale; x matches the solve of a copy. The far field
    # (p = 110 nodes) is read, as n > 2 BLOCK + 4 p
    n, R = 1024, 3
    kern = ct._kernel(0.75, 1.0, n)
    far = kern.far if path == "far field" else None
    if path == "halved":
        monkeypatch.setattr(volterra, "HALVE_ABOVE", 2 * BLOCK)
    f = ct._cell_avg(0.75, np.arange(n + 1) / n, 1 / n)
    c = 40.0 + stream(38, R).random((n, R))
    want, e_want = renewal_solve_batch(kern.kg, f, c.copy(), far)
    x, e = renewal_solve_batch(kern.kg, f, c, far)
    assert x is c and e[-1].min() > 0
    np.testing.assert_array_equal(x, want)
    np.testing.assert_array_equal(e, e_want)
    with pytest.raises(ValueError, match="C-ordered float64"):
        renewal_solve_batch(kern.kg, f, np.asfortranarray(want), far)
