import numpy as np
import pytest
from scipy import integrate
from scipy.stats import kstest

from pinning_lab import closed_sets as cs
from pinning_lab import continuum as ct
from pinning_lab.rng import stream

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


class TestSpec:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ct.ChaosSpec(alpha=0.3, beta_hat=1.0)
        with pytest.raises(ValueError):
            ct.ChaosSpec(alpha=1.5, beta_hat=1.0)  # needs mean-case

    def test_mean_case_needs_mean(self):
        with pytest.raises(ValueError):
            ct.ChaosSpec(alpha=1.5, beta_hat=1.0, variant="mean-case")
        ct.ChaosSpec(alpha=1.5, beta_hat=1.0, variant="mean-case", mean_tau1=2.0)


class TestKernel:
    def test_hand_value(self, spec):
        v = ct.chaos_kernel(spec, 0.0, 1.0, [0.5])
        assert v == pytest.approx(C_A * 2.0 ** 0.5, rel=1e-12)
        assert v == pytest.approx(0.238732, abs=1e-6)

    def test_mean_case(self):
        sp = ct.ChaosSpec(alpha=1.5, beta_hat=1.0, variant="mean-case",
                          mean_tau1=2.0)
        assert ct.chaos_kernel(sp, 0.0, 1.0, [0.2, 0.5, 0.7]) == 0.125

    def test_boundary_guarded(self, spec):
        with pytest.raises(ValueError):
            ct.chaos_kernel(spec, 0.0, 1.0, [0.5, 1.0])

    def test_free_drops_boundary_factor(self):
        free = ct.ChaosSpec(alpha=ALPHA, beta_hat=1.0, variant="free")
        cond = ct.ChaosSpec(alpha=ALPHA, beta_hat=1.0, variant="conditioned")
        vf = ct.chaos_kernel(free, 0.0, 1.0, [0.3])
        vc = ct.chaos_kernel(cond, 0.0, 1.0, [0.3])
        assert vc / vf == pytest.approx(0.7 ** (ALPHA - 1.0), rel=1e-12)


class TestZPoint:
    def test_no_disorder(self, path):
        sp = ct.ChaosSpec(alpha=ALPHA, beta_hat=0.0, M=1024)
        assert ct.z_point(sp, path, 0.0, 1.0) == 1.0

    def test_degenerate_interval(self, spec, path):
        assert ct.z_point(spec, path, 0.5, 0.5) == 1.0

    def test_off_grid_rejected(self, spec, path):
        with pytest.raises(ValueError):
            ct.z_point(spec, path, 0.0, 0.1234567)

    def test_profiles_match_pointwise(self, spec, path):
        ts, zf = ct.z_profile_from(spec, path, 0.0)
        ys, zt = ct.z_profile_to(spec, path, 1.0)
        for q in (0.25, 0.5, 0.875, 1.0):
            i = np.searchsorted(ts, q)
            assert zf[i] == pytest.approx(ct.z_point(spec, path, 0.0, q), abs=1e-12)
        for p in (0.0, 0.25, 0.75):
            i = np.searchsorted(ys, p)
            assert zt[i] == pytest.approx(ct.z_point(spec, path, p, 1.0), abs=1e-12)

    def test_batch_matches_scalar(self, spec, path):
        other = ct.sample_brownian(1.0, 1024, stream(56))
        incs = np.vstack([path.increments, other.increments])
        zb = ct.z_point_batch(spec, incs, 0.0, 1.0)
        assert zb[0] == pytest.approx(ct.z_point(spec, path, 0.0, 1.0), rel=1e-14)
        assert zb[1] == pytest.approx(ct.z_point(spec, other, 0.0, 1.0), rel=1e-14)

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
        for fn in (lambda: ct._z_eval(spec, path, s, t),
                   lambda: ct.z_point_batch(spec, path.increments[None], s, t)):
            with pytest.raises(ValueError, match="need 0 <= s <= t <= T"):
                fn()

    def test_off_grid_scalar_matches_batch(self, spec, path):
        ze = ct.ZEvaluator(spec, path)
        for s, t in ((0.1234567, 0.13), (0.3, 0.30049), (0.5, 0.7777777)):
            zb = ct.z_point_batch(spec, path.increments[None], s, t)[0]
            assert ze.z(s, t) == pytest.approx(zb, rel=1e-14)
        # both ends rounding to one grid point leave no cells
        assert ze.z(0.30001, 0.30002) == 1.0

    def test_mean_case_product_form(self):
        sp = ct.ChaosSpec(alpha=1.5, beta_hat=0.4, variant="mean-case",
                          mean_tau1=2.0, M=64)
        p = ct.sample_brownian(1.0, 64, stream(4))
        z = ct.z_point(sp, p, 0.0, 1.0)
        expect = np.prod(1.0 + 0.4 * p.increments / 2.0)
        assert z == pytest.approx(expect, rel=1e-12)

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


class TestSecondMoment:
    def test_no_disorder(self):
        assert ct.z_second_moment_series(ALPHA, 0.0, 1.0) == 1.0

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

    def test_arcsine_marginal_quadrature(self):
        a, t = ALPHA, 0.6
        val, _ = integrate.quad(lambda x: np.sin(np.pi * a) / np.pi, 0, t,
                                weight="alg", wvar=(a - 1.0, -a))
        assert val == pytest.approx(1.0, rel=1e-9)
        assert ct.arcsine_marginal(a, t, 0.3) == pytest.approx(
            np.sin(np.pi * a) / np.pi * 0.3 ** (a - 1) * 0.3 ** -a, rel=1e-12)

    def test_conditioned_k1_normalization_table(self):
        m, _, _ = ct.reference_fdd_table(ALPHA, 1.0, 0.4, grid=512)
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
        m, _, _ = ct._cdpm_cell_masses(ze, 0.4, 512)
        assert m.sum() == pytest.approx(ze.z0T(), rel=2e-3)

    def test_table_stability_flag(self, spec, path, monkeypatch):
        ze = ct.ZEvaluator(spec, path)
        # the 128-cell table still moves by more than 1e-6 at 512 cells
        assert ct.CdpmFddSampler(ze, 0.4, grid=128).stable is False
        table = ct._cdpm_cell_masses(ze, 0.4, 128)
        monkeypatch.setattr(ct, "_cdpm_cell_masses", lambda *a: table)
        assert ct.CdpmFddSampler(ze, 0.4, grid=128).stable is True

    def test_sampler_support(self, spec, path):
        ze = ct.ZEvaluator(spec, path)
        pairs = ct.sample_cdpm_fdd(ze, 0.4, stream(8), n=200, grid=128)
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
        assert ct.martingale_fn(ze, regen, 6) == 1.0

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


def test_zsurface_csv(tmp_path, spec, path):
    anchors = [(0.0, 0.5), (0.0, 1.0), (0.25, 0.75)]
    surf = ct.build_zsurface(spec, path, anchors)
    f = tmp_path / "z.csv"
    surf.to_csv(f)
    data = np.loadtxt(f, delimiter=",", skiprows=1)
    assert data.shape == (3, 3)
    assert data[1, 2] == pytest.approx(ct.z_point(spec, path, 0.0, 1.0), rel=1e-12)
