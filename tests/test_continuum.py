import numpy as np
import pytest
from scipy import integrate
from scipy.stats import kstest

from pinning_lab import closed_sets as cs
from pinning_lab import continuum as ct
from pinning_lab.rng import stream

import loop_reference
from chaos_oracle import chaos_oracle as oracle

ALPHA = 0.75
C_A = 0.75 * np.sin(0.75 * np.pi) / np.pi


@pytest.fixture(scope="module")
def path():
    return ct.sample_brownian(1.0, 1024, stream(55))


@pytest.fixture(scope="module")
def spec():
    return ct.ChaosSpec(alpha=ALPHA, beta_hat=0.5, M=1024)


class TestBrownian:
    def test_starts_at_zero(self, path):
        assert path.w[0] == 0.0

    def test_terminal_variance(self):
        rng = stream(1)
        wt = np.array([ct.sample_brownian(2.0, 16, rng).w[-1]
                       for _ in range(10_000)])
        se = 2.0 * np.sqrt(2.0 / 10_000)
        assert abs(wt.var() - 2.0) < 4 * se

    def test_refinement_consistency(self):
        # a coarse path is the restriction of the fine path built from the
        # same increments pairwise-summed
        fine = ct.sample_brownian(1.0, 64, stream(2))
        coarse_w = fine.w[::2]
        assert np.all(np.diff(coarse_w) == fine.increments.reshape(-1, 2).sum(1))

    def test_min_grid(self):
        with pytest.raises(ValueError):
            ct.sample_brownian(1.0, 1, stream(0))

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_horizon_rejected(self, T):
        with pytest.raises(ValueError, match="T > 0"):
            ct.sample_brownian(T, 8, stream(0))


class TestSpec:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ct.ChaosSpec(alpha=0.3, beta_hat=1.0)
        with pytest.raises(ValueError):
            ct.ChaosSpec(alpha=1.5, beta_hat=1.0)


class TestKernel:
    def test_hand_value(self, spec):
        v = ct.chaos_kernel(spec, 0.0, 1.0, [0.5])
        assert v == pytest.approx(C_A * 2.0 ** 0.5, rel=1e-12)
        assert v == pytest.approx(0.238732, abs=1e-6)

    def test_boundary_guarded(self, spec):
        with pytest.raises(ValueError):
            ct.chaos_kernel(spec, 0.0, 1.0, [0.5, 1.0])


# cell distances d: every one up to 300, then 300 spread up to 2^16
CELL_D = np.unique(np.r_[1:301, np.geomspace(301, 2 ** 16, 300).astype(int)])


class TestCellFactors:
    """The exact cell averages against 40-digit mpmath, in cell units."""

    def test_gap_factors_match_mpmath(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            a, g = mp.mpf(ALPHA), mp.mpf(ALPHA) + 1
            want = np.array([float(((d + 1) ** g - 2 * d ** g
                                    + (d - 1) ** g) / (a * g))
                             for d in map(mp.mpf, CELL_D.tolist())])
        delta = 2.0 ** -16  # delta^(alpha-1) = 16 exactly
        kg = ct._gap_factors(ALPHA, delta, 2 ** 16)
        got = kg[CELL_D] / (C_A * 16.0)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_cell_avg_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            a = mp.mpf(ALPHA)
            want = np.array([float(((d + 1) ** a - d ** a) / a)
                             for d in map(mp.mpf, np.r_[0, CELL_D].tolist())])
        delta = 2.0 ** -16  # the edges i delta are exact; delta^(1-a) = 1/16
        dist = delta * np.arange(2 ** 16 + 2)
        cells = np.r_[0, CELL_D]
        away = ct._cell_avg(ALPHA, dist, delta)[cells]
        toward = ct._cell_avg(ALPHA, dist[::-1], delta)[::-1][cells]
        for got in (away, toward):
            np.testing.assert_allclose(got / 16.0, want, rtol=1e-14, atol=0)

    def test_kernel_cached_read_only(self):
        kern = ct._kernel(ALPHA, 1.0, 4096)
        assert ct._kernel(ALPHA, 1.0, 4096) is kern
        assert 110 <= kern.far.decay.shape[0] <= 180
        np.testing.assert_array_equal(
            kern.kg[1:], ct._gap_factors(ALPHA, 1 / 4096, 4096)[1:])
        for arr in (kern.kg, *kern.far):
            assert not arr.flags.writeable

    @pytest.mark.parametrize("alpha", [0.55, 0.75, 0.9, 0.99])
    def test_far_field_matches_gap_factors(self, alpha):
        # the exponential sum on every lag it stands for, 65..M, against the
        # exact gap factors; M = 4 ** 8 takes the rule to its most nodes
        for M in 4 ** np.arange(4, 9):
            s, w = ct._far_nodes(alpha, 1.0, M)
            kg = ct._gap_factors(alpha, 1.0 / M, M)
            for lo in range(65, M + 1, 4096):
                d = np.arange(lo, min(lo + 4096, M + 1))
                far = np.exp(-np.outer(d, s)) @ w
                np.testing.assert_allclose(far, kg[d], rtol=3e-15, atol=0)


class TestZPoint:
    def test_no_disorder(self, path):
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=0.0, M=1024)
        assert ct.z_point_batch(sp, path.increments[None], 0.0, 1.0) == 1.0

    def test_degenerate_interval(self, spec, path):
        assert ct.z_point_batch(spec, path.increments[None], 0.5, 0.5) == 1.0

    def test_profiles_match_pointwise(self, spec, path):
        ze = ct.ZEvaluator(spec, path)
        ts, zf = ze.from_0
        ys, zt = ze.to_T
        inc = path.increments[None]
        for q in (0.25, 0.5, 0.875, 1.0):
            i = np.searchsorted(ts, q)
            assert zf[i] == pytest.approx(ct.z_point_batch(spec, inc, 0.0, q),
                                          abs=1e-12)
        for p in (0.0, 0.25, 0.75):
            i = np.searchsorted(ys, p)
            assert zt[i] == pytest.approx(ct.z_point_batch(spec, inc, p, 1.0),
                                          abs=1e-12)

    def test_batch_matches_scalar(self, spec, path):
        other = ct.sample_brownian(1.0, 1024, stream(56))
        incs = np.vstack([path.increments, other.increments])
        zb = ct.z_point_batch(spec, incs, 0.0, 1.0)
        for z, p in zip(zb, (path, other)):
            assert z == pytest.approx(ct.z_point_batch(
                spec, p.increments[None], 0.0, 1.0), rel=1e-14)

    @pytest.mark.parametrize("M", [2, 7, 12])
    def test_matches_chaos_oracle(self, M):
        # Z at a point, in a batch and along both profiles against the
        # subset sum of the grid chaos expansion
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=1.0, h_hat=0.3, M=M)
        paths = [ct.sample_brownian(1.0, M, stream(57, 10 * M + i))
                 for i in range(2)]
        incs = np.vstack([p.increments for p in paths])
        ze = ct.ZEvaluator(sp, paths[0])
        d = 1.0 / M
        rng = stream(58, M)
        spans = [(0.0, 1.0), (d, 1.0 - d), (0.37 * d, 1.0 - 0.45 * d),
                 (d * (1 + 1e-10), 1.0 - 1e-10 * d), (0.5, 0.5),
                 *np.sort(rng.uniform(0.0, 1.0, (4, 2)), axis=1)]
        for s, t in spans:
            want = [oracle(sp, p.increments, s, t) for p in paths]
            np.testing.assert_allclose(ct.z_point_batch(sp, incs, s, t),
                                       want, rtol=1e-13)
        ts, zf = ze.from_0
        np.testing.assert_allclose(
            zf, [oracle(sp, paths[0].increments, 0.0, q) for q in ts],
            rtol=1e-13)
        ys, zt = ze.to_T
        np.testing.assert_allclose(
            zt, [oracle(sp, paths[0].increments, y, 1.0) for y in ys],
            rtol=1e-13)

    @pytest.mark.parametrize("cells", [2.5, 3.4, 5.7, 7.5])
    def test_off_grid_ends_keep_variance(self, cells):
        # an off-grid end moves to its nearest grid point; over uniformly
        # random placements the span keeps the variance of the continuum
        # Z(s, s + l), where keeping only the cells fully inside it keeps
        # 0.4-0.7 of that variance
        M = 256
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=1.0, M=M)
        span = cells / M
        rng = stream(21, int(10 * cells))
        z = []
        for s in rng.uniform(0.0, 1.0 - span, 400):
            incs = rng.standard_normal((100, M)) / np.sqrt(M)
            z.append(ct.z_point_batch(sp, incs, s, s + span))
        target = ct.z_second_moment_series(ALPHA, 1.0, span) - 1.0
        assert np.concatenate(z).var() == pytest.approx(target, rel=0.1)

    @pytest.mark.parametrize("s, t", [(0.7, 0.5), (0.5, 1.2), (-0.2, 0.5)])
    def test_batch_span_rejected(self, spec, path, s, t):
        with pytest.raises(ValueError, match="need 0 <= s <= t <= T"):
            ct.z_point_batch(spec, path.increments[None], s, t)

    @pytest.mark.parametrize("fn, end", [
        (ct.z_profile_from, -0.5), (ct.z_profile_from, 1.5),
        (ct.z_profile_to, -0.5), (ct.z_profile_to, 1.5)])
    def test_profile_end_rejected(self, fn, end):
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=0.5, M=64)
        p = ct.sample_brownian(1.0, 64, stream(60))
        with pytest.raises(ValueError, match="need 0 <= s <= t <= T"):
            fn(sp, p, end)

    @pytest.mark.parametrize("width", [32, 128])
    def test_batch_width_rejected(self, width):
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=0.5, M=64)
        incs = stream(61).standard_normal((3, width)) / 8.0
        with pytest.raises(ValueError, match=r"shape \(R, 64\)"):
            ct.z_point_batch(sp, incs, 0.0, 0.5)

    @pytest.mark.parametrize("cells", [32, 128])
    def test_path_grid_rejected(self, cells):
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=0.5, M=64)
        p = ct.sample_brownian(1.0, cells, stream(63))
        for call in (lambda: ct.z_profile_from(sp, p, 0.0),
                     lambda: ct.z_profile_to(sp, p, 1.0),
                     lambda: ct.ZEvaluator(sp, p)):
            with pytest.raises(ValueError, match="disagree on the grid"):
                call()

    def test_profiles_over_empty_span(self):
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=1.0, h_hat=0.3, M=64)
        p = ct.sample_brownian(1.0, 64, stream(62))
        ts, z = ct.z_profile_from(sp, p, 1.0)
        assert ts.tolist() == [1.0] and z.tolist() == [1.0]
        ys, z = ct.z_profile_to(sp, p, 0.0)
        assert ys.tolist() == [0.0] and z.tolist() == [1.0]

    @pytest.mark.parametrize("M", [12, 16, 512])
    def test_time_reversal(self, M):
        # the conditioned chaos kernel is symmetric under time reversal:
        # Z(s, t) on reversed increments is Z(T - t, T - s) on the originals.
        # At M = 12 the grid points are not exact doubles, and T - t lands a
        # rounding error off them; every end snaps to its grid point
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=1.0, h_hat=0.3, T=2.0, M=M)
        d = sp.T / M
        incs = stream(63, M).standard_normal((4, M)) * np.sqrt(d)
        grid = [(i * d, j * d) for i in range(M) for j in range(i + 1, M + 1)]
        for s, t in ((0.0, 2.0), (0.5, 1.5), (3 * d, 2.0 - 5 * d),
                     (0.37 * d, 2.0 - 0.2 * d), (0.1234567, 1.7777777),
                     *(grid if M <= 16 else [])):
            np.testing.assert_allclose(
                ct.z_point_batch(sp, incs[:, ::-1], s, t),
                ct.z_point_batch(sp, incs, sp.T - t, sp.T - s), rtol=1e-13)

    def test_off_grid_scalar_matches_batch(self):
        M = 12
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=0.5, M=M)
        p = ct.sample_brownian(1.0, M, stream(59))
        inc = p.increments[None]
        for s, t in ((0.1234567, 0.13), (0.3, 0.50049), (0.05, 0.7777777)):
            zb = ct.z_point_batch(sp, inc, s, t)[0]
            assert zb == pytest.approx(oracle(sp, p.increments, s, t),
                                       rel=1e-13)
        # both ends rounding to one grid point leave no cells
        assert ct.z_point_batch(sp, inc, 0.30001, 0.30002) == 1.0

    def test_moment_mc(self, spec):
        rng = stream(10)
        R = 3000
        incs = rng.standard_normal((R, 1024)) / np.sqrt(1024)
        z = ct.z_point_batch(spec, incs, 0.0, 1.0)
        se = z.std() / np.sqrt(R)
        assert abs(z.mean() - 1.0) < 3 * se
        target = ct.z_second_moment_series(ALPHA, 0.5, 1.0) - 1.0
        var_se = z.var() * np.sqrt(2.0 / R) * 2.0
        assert abs(z.var() - target) < 3 * var_se


class TestEnvironments:
    """The layer over R paths at once against R one-path evaluations."""

    @pytest.fixture(scope="class")
    def paths(self):
        rng = stream(64)
        return [ct.sample_brownian(1.0, 256, rng) for _ in range(17)]

    @staticmethod
    def stack(paths):
        return ct.BrownianPath(1.0, 256, np.array([p.w for p in paths]))

    @pytest.mark.parametrize("R", [1, 3, 17])
    def test_matches_single_paths(self, paths, R):
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=1.0, h_hat=0.3, M=256)
        many = self.stack(paths[:R])
        ze = ct.ZEvaluator(sp, many)
        smp = ct.CdpmFddSampler(ze, 0.4, grid=32)
        u = stream(65, R).random((R, 3, 50))
        draws = smp.draw(u)
        assert draws.shape == (R, 50, 2) and smp.mass.shape == (R,)
        z_mid = ct.z_point_batch(sp, many.increments, 0.3, 0.7)
        for r, p in enumerate(paths[:R]):
            one = ct.ZEvaluator(sp, p)
            for prof in ("from_0", "to_T"):
                (ts, z), (ts_r, z_r) = getattr(one, prof), getattr(ze, prof)
                np.testing.assert_array_equal(ts_r, ts)
                np.testing.assert_allclose(z_r[r], z, rtol=1e-13)
            assert ze.z0T()[r] == pytest.approx(one.z0T(), rel=1e-13)
            assert z_mid[r] == pytest.approx(ct.z_point_batch(
                sp, p.increments[None], 0.3, 0.7), rel=1e-13)
            assert ct.girsanov_tilt(many, 1.0, 0.3)[r] == pytest.approx(
                ct.girsanov_tilt(p, 1.0, 0.3), rel=1e-15)
            s1 = ct.CdpmFddSampler(one, 0.4, grid=32)
            tab = ct._reference_table(ALPHA, 1.0, 0.4, 128)
            # one path's factors are np.interp's, bit for bit
            np.testing.assert_array_equal(s1.zx,
                                          np.interp(tab.xm, *one.from_0))
            np.testing.assert_array_equal(s1.zy, np.interp(tab.ym, *one.to_T))
            assert smp.mass[r] == pytest.approx(s1.mass, rel=1e-13)
            assert smp.residual[r] == pytest.approx(s1.residual, abs=1e-13)
            assert smp.clipped[r] == pytest.approx(s1.clipped, rel=1e-13)
            np.testing.assert_array_equal(draws[r], s1.draw(u[r]))

    def test_profiles_in_path_chunks(self, paths, monkeypatch):
        # 17 paths solved 5, 5, 5 and 2 at a time: each row is its path's
        # own profile
        monkeypatch.setattr(ct, "PATH_CHUNK", 5)
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=1.0, h_hat=0.3, M=256)
        ze = ct.ZEvaluator(sp, self.stack(paths))
        for r, p in enumerate(paths):
            one = ct.ZEvaluator(sp, p)
            for prof in ("from_0", "to_T"):
                np.testing.assert_allclose(getattr(ze, prof)[1][r],
                                           getattr(one, prof)[1], rtol=1e-13)

    def test_batch_in_path_chunks(self, paths, monkeypatch):
        # 17 paths solved 5, 5, 5 and 2 at a time: each value is its path's
        # own Z; no path is one empty chunk, which still checks the ends
        monkeypatch.setattr(ct, "PATH_CHUNK", 5)
        sizes, spans = [], ct._z_spans
        monkeypatch.setattr(ct, "_z_spans", lambda sp, inc, *a: (
            sizes.append(len(inc)), spans(sp, inc, *a))[1])
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=1.0, h_hat=0.3, M=256)
        incs = self.stack(paths).increments
        z = ct.z_point_batch(sp, incs, 0.1, 0.9)
        assert sizes == [5, 5, 5, 2]
        for r, p in enumerate(paths):
            one = ct.z_point_batch(sp, p.increments[None], 0.1, 0.9)
            np.testing.assert_allclose(z[r], one[0], rtol=1e-13)
        empty = ct.z_point_batch(sp, incs[:0], 0.1, 0.9)
        assert empty.shape == (0,) and empty.dtype == float
        with pytest.raises(ValueError, match="0 <= s <= t <= T"):
            ct.z_point_batch(sp, incs[:0], 0.9, 0.1)

    def test_one_path_types_and_stream(self, paths):
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=1.0, M=256)
        ze = ct.ZEvaluator(sp, paths[0])
        smp = ct.CdpmFddSampler(ze, 0.4, grid=32)
        for v in (ze.z0T(), smp.mass, smp.residual, smp.clipped,
                  ct.girsanov_tilt(paths[0], 1.0, 0.2)):
            assert isinstance(v, float)
        # sample(n, rng) takes its uniforms as three rng.random(n) calls
        rng = stream(66)
        u = np.array([rng.random(40) for _ in range(3)])
        got = smp.sample(40, stream(66))
        assert got.shape == (40, 2)
        np.testing.assert_array_equal(got, smp.draw(u))

    def test_martingale_over_paths(self, paths):
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=1.0, M=256)
        regens = [ct.sample_regen_conditioned(ALPHA, 1.0, 10, stream(67, r))
                  for r in range(5)]
        ze = ct.ZEvaluator(sp, self.stack(paths[:5]))
        for n in (0, 2, 8):
            want = [ct.martingale_fn(ct.ZEvaluator(sp, p), g, n)
                    for p, g in zip(paths, regens)]
            np.testing.assert_allclose(ct.martingale_fn(ze, regens, n), want,
                                       rtol=1e-13)

    def test_spans_across_paths_match_oracle(self):
        # spans of mixed lengths, each on its own path, in one call
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=1.0, h_hat=0.3, M=12)
        incs = stream(68).standard_normal((3, 12)) / np.sqrt(12)
        rng = stream(69)
        ends = np.sort(rng.uniform(0.0, 1.0, (24, 2)), axis=1)
        ends[:4] = [[0.0, 1.0], [0.5, 0.5], [0.30001, 0.30002], [0.0, 0.1]]
        env = rng.integers(0, 3, len(ends))
        want = [oracle(sp, incs[e], s, t) for e, (s, t) in zip(env, ends)]
        np.testing.assert_allclose(
            ct._z_spans(sp, incs, ends[:, 0], ends[:, 1], env), want,
            rtol=1e-13)

    def test_residual_floor_without_disorder(self, paths):
        # Z = 1 without disorder, so every table's residual is the
        # quadrature error of the reference table alone
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=0.0, M=256)
        smp = ct.CdpmFddSampler(ct.ZEvaluator(sp, self.stack(paths)), 0.4,
                                grid=128)
        floor = abs(smp.ref.sum() - 1.0)
        assert 1e-5 < floor < 1e-4
        np.testing.assert_allclose(smp.residual, floor, rtol=0, atol=1e-14)


class TestSecondMoment:
    def test_no_disorder(self):
        got = ct.z_second_moment_series(ALPHA, 0.0, 1.0)
        assert got == 1.0 and isinstance(got, float)
        got = ct.z_second_moment_series(ALPHA, 0.0, np.full((2, 3), 0.5))
        assert isinstance(got, np.ndarray) and got.shape == (2, 3)
        assert np.all(got == 1.0)
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=0.0, M=1024)
        regen = ct.sample_regen_conditioned(ALPHA, 1.0, 12, stream(15))
        assert ct.block_variance_sum(sp, regen, 6) == 0.0

    def test_k1_term_vs_quadrature(self):
        # int_0^1 psi_1(x)^2 dx with psi_1 = C x^(a-1) (1-x)^(a-1)
        val, _ = integrate.quad(lambda x: 1.0, 0, 1, weight="alg",
                                wvar=(2 * ALPHA - 2, 2 * ALPHA - 2))
        quad_term = C_A ** 2 * val
        assert ct.second_moment_term(ALPHA, 1.0, 1.0, 1) == pytest.approx(
            quad_term, rel=1e-9)
        assert quad_term == pytest.approx(C_A ** 2 * np.pi, rel=1e-9)

    def test_k2_term_vs_quadrature(self):
        # double integral of psi_2^2 over the simplex 0 < x1 < x2 < 1
        a = ALPHA

        def inner(x2):
            v, _ = integrate.quad(lambda x1: 1.0, 0, x2, weight="alg",
                                  wvar=(2 * a - 2, 2 * a - 2))
            return v * (1 - x2) ** (2 * a - 2)

        val, _ = integrate.quad(inner, 0, 1, points=[1.0], limit=200)
        assert ct.second_moment_term(a, 1.0, 1.0, 2) == pytest.approx(
            C_A ** 4 * val, rel=1e-6)

    def test_terms_decay(self):
        terms = [ct.second_moment_term(ALPHA, 1.0, 1.0, k) for k in range(1, 12)]
        ratios = np.array(terms[1:]) / np.array(terms[:-1])
        assert np.all(np.diff(ratios) < 0)

    def test_scaling_identity_exact(self):
        A = 2.0
        b = 0.7
        lhs = ct.z_second_moment_series(ALPHA, b, A)
        rhs = ct.z_second_moment_series(ALPHA, A ** (ALPHA - 0.5) * b, 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("b", [0.05, 1e-3])
    def test_weak_coupling_leading_term(self, b):
        # the tail terms underflow to 0 here; the series must still sum
        t1 = ct.second_moment_term(ALPHA, b, 1.0, 1)
        t2 = ct.second_moment_term(ALPHA, b, 1.0, 2)
        got = ct.z_second_moment_series(ALPHA, b, 1.0) - 1.0
        assert got == pytest.approx(t1, rel=2.0 * t2 / t1, abs=1e-15)

    def test_array_horizons(self):
        spans = np.array([1e-6, 0.01, 0.5, 1.0])
        got = ct.z_second_moment_series(ALPHA, 0.7, spans)
        assert got.shape == spans.shape
        for v, T in zip(got, spans):
            assert v == pytest.approx(ct.z_second_moment_series(ALPHA, 0.7, T),
                                      rel=1e-15)

    def test_underresolved_flagged(self):
        with pytest.raises(ValueError):
            ct.z_second_moment_series(ALPHA, 6.0, 1.0, k_max=2)

    @pytest.mark.parametrize("b, T", [(-0.5, 1.0), (0.7, 0.0), (0.7, -0.5),
                                      (0.0, 0.0),
                                      (0.7, np.array([0.5, 0.0]))])
    def test_negative_coupling_or_horizon_refused(self, b, T):
        # refused before a log of them: no numpy warning, no misleading
        # "not yet decreasing"
        with pytest.raises(ValueError, match="beta_hat >= 0 and T > 0"):
            ct.z_second_moment_series(ALPHA, b, T)

    def test_lgamma_table_built_once(self):
        ct._lgamma_table.cache_clear()
        first = ct.z_second_moment_series(ALPHA, 0.7, 0.5)
        assert ct.z_second_moment_series(ALPHA, 0.7, 0.5) == first
        info = ct._lgamma_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert not ct._lgamma_table(2 * ALPHA - 1, 80).flags.writeable


class TestGirsanov:
    def test_no_drift(self, path):
        assert ct.girsanov_tilt(path, 1.0, 0.0) == 1.0

    def test_martingale_mean(self):
        rng = stream(12)
        tilts = np.array([ct.girsanov_tilt(ct.sample_brownian(1.0, 8, rng),
                                           0.5, 0.4) for _ in range(10_000)])
        se = tilts.std() / np.sqrt(len(tilts))
        assert abs(tilts.mean() - 1.0) < 3 * se


class TestReferenceDensity:
    def test_unconditioned_k1_normalization(self):
        # integrate the k=1 joint density: the y integral over (t, inf) has
        # the closed form C_a x^(a-1) (t-x)^(-a) / a, then integrate over x
        # with quad carrying the two algebraic endpoint singularities
        a = ALPHA
        t = 0.6
        val, _ = integrate.quad(lambda x: C_A / a, 0, t, weight="alg",
                                wvar=(a - 1.0, -a))
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_conditioned_k1_normalization_table(self):
        m, _, _ = ct.reference_fdd_table(ALPHA, 1.0, 0.4, cells=512)
        assert m.sum() == pytest.approx(1.0, abs=1e-4)

    def test_off_support_zero(self):
        assert ct.fdd_density_reference(ALPHA, 1.0, [0.4], [0.5], [0.6]) == 0.0
        assert ct.fdd_density_reference(ALPHA, 1.0, [0.4], [0.3], [0.35]) == 0.0
        assert ct.fdd_density_reference(ALPHA, 1.0, [0.4], [0.3], [1.2]) == 0.0

    def test_positive_on_support(self):
        assert ct.fdd_density_reference(ALPHA, 1.0, [0.4], [0.3], [0.6]) > 0


@pytest.fixture(scope="module")
def samples():
    rng = stream(77)
    return [ct.sample_regen_conditioned(ALPHA, 1.0, 12, rng)
            for _ in range(400)]


class TestRegenSampler:
    def test_contains_endpoints(self, samples):
        for s in samples[:20]:
            assert s.set.points[0] == 0.0 and s.set.points[-1] == 1.0

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ct.sample_regen_conditioned(0.3, 1.0, 8, stream(0))
        with pytest.raises(ValueError):
            ct.sample_regen_conditioned(0.75, 1.0, 30, stream(0))

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_horizon_rejected(self, T):
        # at T = 0 every interval reaches the cutoff 0 and the active
        # intervals double on every pass
        with pytest.raises(ValueError, match="T > 0"):
            ct.sample_regen_conditioned(ALPHA, T, 8, stream(0))

    def test_g_marginal_ks(self, samples):
        # marginal of g_{1/2}: density prop. to x^(a-1) (1/2-x)^(-a) (1-x)^(-1)
        a = ALPHA
        gs = np.array([cs.g_map(s.set, 0.5) for s in samples])
        norm, _ = integrate.quad(lambda u: 1.0 / (1.0 - u), 0, 0.5,
                                 weight="alg", wvar=(a - 1.0, -a))
        dens = lambda u: u ** (a - 1) * (0.5 - u) ** -a / (1.0 - u)
        grid = np.unique(np.concatenate(
            [np.geomspace(1e-9, 0.25, 300),
             0.5 - np.geomspace(1e-9, 0.25, 300)]))
        mid = 0.5 * (grid[1:] + grid[:-1])
        seg = dens(mid) * np.diff(grid)
        # exact local power integral at the left singular endpoint
        head = grid[0] ** a / a * (0.5 - grid[0]) ** -a
        cdf_grid = (head + np.concatenate([[0.0], np.cumsum(seg)])) / norm
        stat = kstest(gs, lambda v: np.interp(v, grid, cdf_grid))
        assert stat.pvalue > 0.001

    def test_d_marginal_ks(self, samples):
        a = ALPHA
        ds = np.array([cs.d_map(s.set, 0.5) for s in samples])
        # closed-form d marginal: prop. to (1-y)^(a-1) y^-1 (y-1/2)^-a
        dens = lambda y: (1 - y) ** (a - 1) / y * (y - 0.5) ** -a
        grid = np.unique(np.concatenate(
            [0.5 + np.geomspace(1e-9, 0.25, 300),
             1.0 - np.geomspace(1e-9, 0.25, 300)]))
        mid = 0.5 * (grid[1:] + grid[:-1])
        seg = dens(mid) * np.diff(grid)
        # exact local power integrals at the two singular endpoints
        head = (grid[0] - 0.5) ** (1 - a) / (1 - a) / grid[0] \
            * (1 - grid[0]) ** (a - 1)
        tail = (1 - grid[-1]) ** a / a / grid[-1] * (grid[-1] - 0.5) ** -a
        norm = head + seg.sum() + tail
        cdf_grid = (head + np.concatenate([[0.0], np.cumsum(seg)])) / norm
        stat = kstest(ds, lambda v: np.interp(v, grid, cdf_grid))
        assert stat.pvalue > 0.001

    def test_box_dimension(self, samples):
        slopes = []
        for s in samples[:200]:
            counts = {n: cs.box_count(s.set, n, 1.0) for n in range(6, 13)}
            slopes.append(cs.box_count_slope(counts))
        assert np.median(slopes) == pytest.approx(ALPHA, abs=0.1)

    def test_reproducible(self):
        a = ct.sample_regen_conditioned(ALPHA, 1.0, 10, stream(5, 1))
        b = ct.sample_regen_conditioned(ALPHA, 1.0, 10, stream(5, 1))
        np.testing.assert_array_equal(a.set.points, b.set.points)

    @pytest.mark.parametrize("alpha", [0.55, 0.75, 0.95])
    @pytest.mark.parametrize("T", [1.0, 3.0])
    def test_matches_plain_loop(self, alpha, T):
        # the in-place sampler against the plain form: the same points, bit
        # for bit, and the generator left in the same state
        for depth in (0, 1, 10, 18):
            for seed in range(20):
                got, ref = stream(seed, depth), stream(seed, depth)
                pts = ct.sample_regen_conditioned(alpha, T, depth, got)
                want = loop_reference.regen_points(alpha, T, depth, ref)
                assert pts.set.points.tobytes() == want.tobytes()
                assert got.random(4).tobytes() == ref.random(4).tobytes()


class TestCdpmFdd:
    def test_density_reduces_to_reference(self, path):
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=0.0, M=1024)
        ze = ct.ZEvaluator(sp, path)
        got = ct.cdpm_fdd_density(ze, [0.4], [0.3], [0.6])
        ref = ct.fdd_density_reference(ALPHA, 1.0, [0.4], [0.3], [0.6])
        assert got == pytest.approx(ref, rel=1e-12)

    def test_positive_where_reference_is(self, spec, path):
        ze = ct.ZEvaluator(spec, path)
        rng = stream(3)
        for _ in range(20):
            x = rng.uniform(0.01, 0.39)
            y = rng.uniform(0.41, 0.99)
            assert ct.cdpm_fdd_density(ze, [0.4], [x], [y]) > 0

    def test_renewal_identity_mass(self, spec, path):
        # integral of the quenched k=1 density is the renewal identity:
        # the cell masses (weighted by Z factors) must total Z(0,T)
        ze = ct.ZEvaluator(spec, path)
        smp = ct.CdpmFddSampler(ze, 0.4, grid=128)  # 512 cells a side
        assert smp.mass == pytest.approx(ze.z0T(), rel=2e-3)

    def test_health_counters(self, spec, path):
        ze = ct.ZEvaluator(spec, path)
        smp = ct.CdpmFddSampler(ze, 0.4, grid=128)
        z0t = ze.z0T()
        assert smp.residual == abs(smp.mass - z0t) / z0t
        # the quenched table before clipping, rebuilt from the reference
        cut = ct._reference_table(ALPHA, 1.0, 0.4, 512).clipped.toarray()
        raw = smp.zx[:, None] * (smp.ref - cut) * smp.zy
        assert np.any(cut > 0) and np.all(cut >= 0)
        assert not np.any((cut > 0) & (smp.ref > 0))
        assert smp.clipped == pytest.approx(-raw[raw < 0].sum(), rel=1e-12)
        assert smp.mass == pytest.approx(raw[raw > 0].sum(), rel=1e-12)
        assert 0 < smp.clipped < 1e-6 * smp.mass

    def test_nonpositive_z_raises(self, spec, path):
        ze = ct.ZEvaluator(spec, path)
        ts, zs = ze.from_0
        ze.from_0 = ts, np.where(ts < 0.1, -1.0, zs)
        n_bad = int(np.sum(ct._reference_table(ALPHA, 1.0, 0.4, 512).xm < 0.1))
        with pytest.raises(ValueError, match=f"Z <= 0 at {n_bad} table"):
            ct.CdpmFddSampler(ze, 0.4, grid=128)

    def test_nonpositive_z0t_raises_once(self):
        # at beta_hat = 3 on 16 cells the grid recursion fails on some
        # environments: Z(0, T) <= 0
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=3.0, M=16)
        inc = stream(0).standard_normal((200, 16)) / 4
        bad = inc[np.argmin(ct.z_point_batch(sp, inc, 0.0, 1.0))]
        ze = ct.ZEvaluator(sp, ct.BrownianPath(
            1.0, 16, np.concatenate([[0.0], np.cumsum(bad)])))
        assert ze.z0T() <= 0
        regen = ct.sample_regen_conditioned(ALPHA, 1.0, 8, stream(1))
        for call in (lambda: ct.cdpm_fdd_density(ze, [0.4], [0.3], [0.6]),
                     lambda: ct.CdpmFddSampler(ze, 0.4, grid=8),
                     lambda: ct.martingale_fn(ze, regen, 3)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == "Z(0,T) <= 0: discretization failure"

    def test_draws_match_flat_inverse_cdf(self, spec, path):
        ze = ct.ZEvaluator(spec, path)
        smp = ct.CdpmFddSampler(ze, 0.4, grid=64)
        got = smp.sample(300, stream(12))
        # the whole table, flattened row-major, one search per draw
        flat = (smp.zx[:, None] * smp.ref * smp.zy).ravel()
        cdf = np.cumsum(flat)
        rng = stream(12)
        i, j = np.unravel_index(np.searchsorted(cdf / cdf[-1], rng.random(300)),
                                smp.ref.shape)
        u = rng.random(300)
        a, b = smp.xe[i] ** ALPHA, smp.xe[i + 1] ** ALPHA
        x = (u * b + (1 - u) * a) ** (1 / ALPHA)
        v = rng.random(300)
        pc, pd = (smp.ye[j] - x) ** -ALPHA, (smp.ye[j + 1] - x) ** -ALPHA
        y = x + (v * pd + (1 - v) * pc) ** (-1 / ALPHA)
        np.testing.assert_array_equal(got, np.column_stack([x, y]))
        assert smp.mass == pytest.approx(cdf[-1], rel=1e-12)

    def test_reference_table_cached_read_only(self):
        a = ct.reference_fdd_table(ALPHA, 1.0, 0.4, cells=128)
        b = ct.reference_fdd_table(ALPHA, 1.0, 0.4, cells=128)
        for x, y in zip(a, b):
            assert x is y
            assert not x.flags.writeable
        assert np.all(a[0] >= 0)
        with pytest.raises(ValueError):
            a[0][0, 0] = 1.0

    def test_sampler_support(self, spec, path):
        ze = ct.ZEvaluator(spec, path)
        pairs = ct.CdpmFddSampler(ze, 0.4, grid=128).sample(200, stream(8))
        assert np.all(pairs[:, 0] <= 0.4) and np.all(pairs[:, 0] >= 0)
        assert np.all(pairs[:, 1] > 0.4) and np.all(pairs[:, 1] <= 1.0)

    def test_beta_zero_sampler_matches_reference(self, path):
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=0.0, M=1024)
        ze = ct.ZEvaluator(sp, path)
        sampler = ct.CdpmFddSampler(ze, 0.4, grid=512)
        pairs = sampler.sample(2000, stream(9))
        a, t1, T = ALPHA, 0.4, 1.0
        # exact x marginal: prop. to x^(a-1) (t1-x)^(-a) (T-x)^(-1)
        dens = lambda u: u ** (a - 1) * (t1 - u) ** -a / (T - u)
        grid = np.geomspace(1e-9, t1 / 2, 300)
        grid = np.unique(np.concatenate([grid, t1 - np.geomspace(1e-9, t1 / 2, 300)]))
        mid = 0.5 * (grid[1:] + grid[:-1])
        seg = dens(mid) * np.diff(grid)
        # exact head/tail power integrals at the two singular ends
        head = grid[0] ** a / a * (t1 - grid[0]) ** -a / (T - grid[0])
        tail = (t1 - grid[-1]) ** (1 - a) / (1 - a) * grid[-1] ** (a - 1) / (T - grid[-1])
        norm = head + seg.sum() + tail
        cdf_grid = (head + np.concatenate([[0.0], np.cumsum(seg)])) / norm
        stat = kstest(pairs[:, 0], lambda v: np.interp(v, grid, cdf_grid))
        assert stat.pvalue > 0.001


class TestMartingale:
    def test_unit_when_no_disorder(self, path):
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=0.0, M=1024)
        ze = ct.ZEvaluator(sp, path)
        regen = ct.sample_regen_conditioned(ALPHA, 1.0, 12, stream(11))
        for n in range(9):
            assert ct.martingale_fn(ze, regen, n) == 1.0

    def test_matches_per_block_scalar(self):
        # the one batched solve against the chaos oracle per block, at every
        # level: on a 12-cell grid, and on 256 cells of which 12 carry noise
        # (with h_hat = 0 the others have zero weight)
        sparse = np.zeros(256)
        sparse[stream(16, 1).choice(256, 12, replace=False)] = (
            stream(16, 2).standard_normal(12) / 16)
        for M, h_hat, incs in ((12, 0.2, stream(16).standard_normal(12) / 4),
                               (256, 0.0, sparse)):
            delta = 1.0 / M
            sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=1.0, h_hat=h_hat, M=M)
            p = ct.BrownianPath(1.0, M,
                                np.concatenate([[0.0], np.cumsum(incs)]))
            ze = ct.ZEvaluator(sp, p)
            rng = stream(17, M)
            pts = np.concatenate([
                [0.0, 1.0], rng.uniform(0, 1, 40),          # off the grid
                delta * rng.integers(1, M, 8),              # on the grid
                delta * (rng.integers(1, M, 4) + 1e-10),    # within 1e-9 cells
                delta * (M // 3 + np.array([0.1, 0.3])),    # snap to one point
                [0.5 + 0.3 * delta, 0.5 + 0.9 * delta]])    # across a boundary
            regen = ct.RegenSample(cs.ClosedSetR(np.unique(pts),
                                                 resolution=2.0 ** -10))
            z0t = oracle(sp, p.increments, 0.0, 1.0)
            for n in range(9):
                blocks = cs.dyadic_blocks(regen.set, n, 1.0)
                if n == 8:
                    assert np.any(blocks[:, 0] == blocks[:, 1])  # singletons
                want = np.prod([oracle(sp, p.increments, a, b)
                                for a, b in blocks])
                assert ct.martingale_fn(ze, regen, n) == pytest.approx(
                    want / z0t, rel=1e-13)

    def test_block_variance_sum(self):
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=1.0, M=1024)
        regen = ct.sample_regen_conditioned(ALPHA, 1.0, 12, stream(15))
        blocks = cs.dyadic_blocks(regen.set, 6, 1.0)
        want = sum(ct.z_second_moment_series(ALPHA, 1.0, b - a) - 1.0
                   for a, b in blocks if b > a)
        assert ct.block_variance_sum(sp, regen, 6) == pytest.approx(want,
                                                                    rel=1e-12)
        # level 0 is the single block (0, T)
        assert ct.block_variance_sum(sp, regen, 0) == pytest.approx(
            ct.z_second_moment_series(ALPHA, 1.0, 1.0) - 1.0, rel=1e-12)

    def test_block_variance_sum_needs_no_drift(self):
        # the series is the variance of Z at h_hat = 0 only
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=1.0, h_hat=0.3, M=1024)
        regen = ct.sample_regen_conditioned(ALPHA, 1.0, 12, stream(15))
        with pytest.raises(ValueError, match="h_hat = 0"):
            ct.block_variance_sum(sp, regen, 6)

    def test_mean_one_weighted(self):
        # E_W[f_n * Z(0,T)] = 1: independent blocks each of mean one
        rng = stream(13)
        regen = ct.sample_regen_conditioned(ALPHA, 1.0, 12, stream(14))
        vals = []
        for _ in range(300):
            p = ct.sample_brownian(1.0, 512, rng)
            sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=0.5, M=512)
            ze = ct.ZEvaluator(sp, p)
            vals.append(ct.martingale_fn(ze, regen, 5) * ze.z0T())
        vals = np.array(vals)
        se = vals.std() / np.sqrt(len(vals))
        assert abs(vals.mean() - 1.0) < 3 * se


