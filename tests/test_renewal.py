import numpy as np
import pytest

from pinning_lab import discrete_pinning as dp
from pinning_lab import renewal as rn
from pinning_lab.rng import stream


@pytest.fixture(scope="module")
def kernel_075():
    return rn.power_law_kernel(0.75, 20000)


@pytest.fixture(scope="module")
def rf_075(kernel_075):
    return rn.renewal_function(kernel_075, 20000)


class TestBuildKernel:
    def test_pure_power_normalization(self, kernel_075):
        total = kernel_075.k.sum() + kernel_075.survival[kernel_075.n_max]
        assert abs(total - 1.0) < 1e-12

    def test_pure_power_ratio(self, kernel_075):
        # K(2)/K(1) = 2^-(1+alpha), independent of normalization
        assert kernel_075.k[2] / kernel_075.k[1] == pytest.approx(2 ** -1.75, rel=1e-12)

    def test_positive_everywhere(self, kernel_075):
        assert np.all(kernel_075.k[1:] > 0)

    def test_tail_regularity(self, kernel_075):
        assert rn.check_tail_regularity(kernel_075)

    def test_survival_consistent_with_k(self, kernel_075):
        n = 137
        assert kernel_075.sf(n) == pytest.approx(
            1.0 - kernel_075.k[1:n + 1].sum(), abs=1e-12)

    def test_two_point_accepted_with_warning(self):
        with pytest.warns(UserWarning):
            k = rn.build_kernel(rn.KernelSpec("explicit", probs=(0.5, 0.5),
                                              allow_irregular=True))
        assert k.k[1] == 0.5 and k.k[2] == 0.5

    def test_two_point_rejected_without_flag(self):
        with pytest.raises(rn.KernelError):
            rn.build_kernel(rn.KernelSpec("explicit", probs=(0.5, 0.5)))

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(rn.KernelError):
            rn.build_kernel(rn.KernelSpec("power-law", alpha=alpha, n_max=100))

    def test_log_power_l(self):
        sv = rn.SlowlyVarying(kind="log-power", power=0.5)
        k = rn.build_kernel(rn.KernelSpec("power-law", alpha=0.75, n_max=5000, sv=sv))
        total = k.k.sum() + k.survival[k.n_max]
        assert abs(total - 1.0) < 1e-10

    def test_finite_mean_kernel(self):
        k = rn.power_law_kernel(1.5, 20000)
        # E[tau_1] = zeta(0.5-shifted...) checked against a brute partial sum
        ns = np.arange(1, 20001)
        head = np.sum(ns * k.k[1:])
        assert k.mean > head
        assert k.mean == pytest.approx(head, rel=0.02)


class TestRenewalFunction:
    def test_hand_values_two_point(self):
        rf = rn.renewal_function(rn.two_point_kernel(0.5), 8)
        assert rf.u[0] == 1.0
        np.testing.assert_allclose(rf.u[1:4], [0.5, 0.75, 0.625], rtol=1e-14)

    def test_convolution_identity(self, kernel_075, rf_075):
        # u(n) = sum_m K(m) u(n-m) at every index
        k, u = kernel_075.k, rf_075.u
        for n in [1, 2, 17, 500, 4096, 20000]:
            conv = np.dot(k[1:n + 1], u[n - 1::-1][:n])
            assert u[n] == pytest.approx(conv, abs=1e-12)

    def test_bounds(self, rf_075):
        assert np.all(rf_075.u > 0) and np.all(rf_075.u <= 1)

    def test_cdq_matches_direct(self, kernel_075):
        ud = rn.renewal_function(kernel_075, 3000, method="direct").u
        uc = rn.renewal_function(kernel_075, 3000, method="cdq").u
        assert np.max(np.abs(ud - uc)) < 1e-10

    def test_horizon_beyond_kernel_rejected(self, kernel_075):
        with pytest.raises(rn.KernelError):
            rn.renewal_function(kernel_075, 30000)


class TestAsymptotics:
    def test_infinite_mean_ratio(self, rf_075):
        tr = rn.check_asymptotics(rf_075)
        assert tr.mode == "infinite-mean"
        assert abs(tr.ratios[-1] - 1.0) < 0.1

    def test_ratio_trend_monotone(self, rf_075):
        tr = rn.check_asymptotics(rf_075)
        dev = np.abs(tr.ratios[3:] - 1.0)
        assert np.all(np.diff(dev) <= 1e-12)

    def test_finite_mean_ratio(self):
        k = rn.power_law_kernel(1.5, 20000)
        rf = rn.renewal_function(k, 20000)
        tr = rn.check_asymptotics(rf)
        assert tr.mode == "finite-mean"
        assert abs(tr.ratios[-1] - 1.0) < 0.05


class TestSmoothness:
    def test_power_law_passes(self, rf_075):
        fit = rn.check_smoothness(rf_075)
        assert fit.passed and fit.delta >= 0.05
        # verify the fitted bound on an independent grid
        u = rf_075.u
        for n in [100, 1000, 9000]:
            for ell in [1, n // 8, n // 4]:
                lhs = abs(u[n + ell] / u[n] - 1.0)
                assert lhs <= fit.C * (ell / n) ** fit.delta * (1 + 1e-9)

    def test_needs_long_table(self):
        rf = rn.renewal_function(rn.power_law_kernel(0.75, 500), 500)
        with pytest.raises(rn.KernelError):
            rn.check_smoothness(rf)


@pytest.fixture(scope="module")
def srw():
    return rn.bessel_like_return_law(lambda x: 1.0 if x == 0 else 0.5, 4000)


class TestBesselWalk:
    def test_first_return(self, srw):
        assert srw.k[1] == pytest.approx(0.5, abs=1e-15)

    def test_catalan_values(self, srw):
        # P(T=2n) = Catalan(n-1) / 2^(2n-1)
        from math import comb
        for n in range(1, 8):
            cat = comb(2 * (n - 1), n - 1) // n
            assert srw.k[n] == pytest.approx(cat * 2.0 ** -(2 * n - 1), rel=1e-12)

    def test_mass_conservation(self, srw):
        assert abs(srw.k.sum() + srw.survival[srw.n_max] - 1.0) < 1e-9

    def test_tail_exponent(self, srw):
        assert srw.tail_fit["fitted_alpha"] == pytest.approx(0.5, abs=0.05)

    def test_calibrated_exponent(self):
        k = rn.bessel_like_return_law(rn.bessel_p_up(0.75), 4000)
        assert k.tail_fit["fitted_alpha"] == pytest.approx(0.75, abs=0.05)

    def test_transient_rejected(self):
        with pytest.raises(rn.KernelError, match="transient"):
            rn.bessel_like_return_law(lambda x: 1.0 if x == 0 else 0.7, 100)

    def test_reflection_required(self):
        with pytest.raises(rn.KernelError):
            rn.bessel_like_return_law(lambda x: 0.5, 100)

    def test_coupling_bound(self, srw):
        rf = rn.renewal_function(srw, 4000)
        tr = rn.check_coupling_bound(rf, srw)
        assert tr.max_violation <= 1e-10
        assert tr.monotone


def _conditioned_sampler(kernel, N):
    """The renewal conditioned on N in tau: the pinned law at zero coupling."""
    free = dp.DisorderField(np.zeros(N - 1), "standard-normal")
    return dp.build_pinned_sampler(kernel, free, 0.0, 0.0, N)


class TestSampling:
    def test_degenerate_kernel_full_set(self):
        with pytest.warns(UserWarning):
            k = rn.build_kernel(rn.KernelSpec("explicit", probs=(1.0 - 1e-15,),
                                              allow_irregular=True))
        pts = rn.sample_renewal(k, 10, rng=stream(1))
        np.testing.assert_array_equal(pts, np.arange(11))

    def test_conditioned_contains_endpoints(self, kernel_075):
        rng = stream(7)
        s = _conditioned_sampler(kernel_075, 64)
        for _ in range(20):
            pts = s.sample(rng).points
            assert pts[0] == 0 and pts[-1] == 64
            assert np.all(np.diff(pts) >= 1)

    def test_conditioned_two_point_marginal(self):
        k = rn.two_point_kernel(0.5)
        s = _conditioned_sampler(k, 2)
        rng = stream(11)
        n_rep = 100_000
        hits = sum(1.0 in s.sample(rng).points for _ in range(n_rep))
        # P(1 in tau | 2 in tau) = K(1)^2/u(2) = 1/3
        assert hits / n_rep == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_conditioned_marginals_match_u(self, kernel_075):
        N = 32
        rf = rn.renewal_function(kernel_075, N)
        s = _conditioned_sampler(kernel_075, N)
        rng = stream(13)
        n_rep = 100_000
        counts = np.zeros(N + 1)
        for _ in range(n_rep):
            counts[s.sample(rng).points.astype(int)] += 1
        emp = counts / n_rep
        u = rf.u
        expect = u[:N + 1] * u[N::-1] / u[N]
        se = np.sqrt(np.maximum(expect * (1 - expect), 1e-12) / n_rep)
        assert np.all(np.abs(emp - expect) <= 4 * se)

    def test_unconditioned_gap_law(self, kernel_075):
        rng = stream(3)
        gaps = []
        for _ in range(20_000):
            pts = rn.sample_renewal(kernel_075, 50, rng=rng)
            gaps.extend(np.diff(pts))
        gaps = np.asarray(gaps)
        # the ratio of short-gap frequencies is insensitive to the horizon
        ratio = np.mean(gaps == 2) / np.mean(gaps == 1)
        assert ratio == pytest.approx(kernel_075.k[2] / kernel_075.k[1], abs=0.03)


class TestConditionedGLaw:
    @pytest.fixture(scope="class")
    def matched(self):
        kernel = rn.matched_power_kernel(0.75, 2048)
        return rn.renewal_function(kernel, 2048)

    @pytest.mark.parametrize("N, t", [(2048, 1024), (2048, 1), (1000, 333)])
    def test_masses_sum_to_one(self, matched, N, t):
        law = rn.conditioned_g_law(matched, N, t)
        assert law.shape == (t + 1,)
        assert np.all(law > 0)
        assert law.sum() == pytest.approx(1.0, abs=1e-12)

    def test_atom_at_t(self, matched):
        u = matched.u
        for N, t in ((512, 256), (2048, 1024), (2048, 100)):
            law = rn.conditioned_g_law(matched, N, t)
            assert law[-1] == pytest.approx(u[t] * u[N - t] / u[N], rel=1e-12)
        # matched kernel: u(n) = n^(alpha-1) / 2, so the atom at t = N/2 is
        # (N/4)^(alpha-1) / 2
        assert rn.conditioned_g_law(matched, 2048, 1024)[-1] == pytest.approx(
            0.5 * 512 ** -0.25, rel=1e-12)

    def test_matches_enumeration(self):
        kernel = rn.power_law_kernel(0.75, 32)
        rf = rn.renewal_function(kernel, 32)
        for N in (2, 5, 9, 12):
            dis = dp.DisorderField(omega=np.zeros(N - 1),
                                   distribution="standard-normal")
            configs = dp.enumerate_pinned_exact(kernel, dis, 0.0, 0.0, N)
            for t in range(N):
                ref = np.zeros(t + 1)
                for sites, p in configs.items():
                    ref[max([0] + [x for x in sites if x <= t])] += p
                law = rn.conditioned_g_law(rf, N, t)
                np.testing.assert_allclose(law, ref, rtol=1e-12, atol=1e-15)

    def test_bad_range_rejected(self, matched):
        with pytest.raises(ValueError):
            rn.conditioned_g_law(matched, 16, 16)
        with pytest.raises(ValueError):
            rn.conditioned_g_law(matched, 4096, 10)


def test_export_csv(tmp_path, kernel_075):
    rf = rn.renewal_function(kernel_075, 100)
    path = tmp_path / "renewal.csv"
    rn.export_csv(path, kernel_075, rf)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (101, 3)
    assert data[0, 2] == 1.0
