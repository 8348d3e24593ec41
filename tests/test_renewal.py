import math

import mpmath
import numpy as np
import pytest

from pinning_lab import discrete_pinning as dp
from pinning_lab import renewal as rn
from pinning_lab import volterra
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
        # n^(1+alpha) K(n) is flat between n_max/2 and n_max
        k = kernel_075
        r = lambda n: n ** (1.0 + k.alpha) * k.k[n]
        assert r(k.n_max) / r(k.n_max // 2) == pytest.approx(1.0, abs=0.05)

    def test_survival_consistent_with_k(self, kernel_075):
        n = 137
        assert kernel_075.sf(n) == pytest.approx(
            1.0 - kernel_075.k[1:n + 1].sum(), abs=1e-12)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(rn.KernelError):
            rn.power_law_kernel(alpha, 100)

    def test_finite_mean_kernel(self):
        k = rn.power_law_kernel(1.5, 20000)
        # E[tau_1] = zeta(0.5-shifted...) checked against a brute partial sum
        ns = np.arange(1, 20001)
        head = np.sum(ns * k.k[1:])
        assert k.mean > head
        assert k.mean == pytest.approx(head, rel=0.02)


_KERNELS = {
    "power-0.75": lambda: rn.power_law_kernel(0.75, 2000),
    "power-1.5": lambda: rn.power_law_kernel(1.5, 2000),
    "matched": lambda: rn.matched_power_kernel(0.75, 2000),
    "bessel": lambda: rn.bessel_like_return_law(rn.bessel_p_up(0.75), 500),
    "two-point-0.3": lambda: rn.two_point_kernel(0.3),
    "two-point-1": lambda: rn.two_point_kernel(1.0),
}

def _free(N):
    return dp.DisorderField(np.zeros(N - 1), "standard-normal")


_HORIZON_CONSUMERS = {
    "renewal_function": lambda k, N: rn.renewal_function(k, N),
    "sample_renewal": lambda k, N: rn.sample_renewal(k, N, stream(0)),
    "build_pinned_sampler": lambda k, N: dp.build_pinned_sampler(
        k, _free(N), 0.0, 0.0, N),
    "enumerate_pinned_exact": lambda k, N: dp.enumerate_pinned_exact(
        k, _free(N), 0.0, 0.0, N),
    "scale_couplings": lambda k, N: dp.scale_couplings(0.5, 0.0, N, k),
}


class TestKernelRules:
    """The table invariants every builder keeps, and the one horizon rule
    (RenewalKernel.head) through which every consumer reads a table."""

    @pytest.mark.parametrize("name", list(_KERNELS))
    def test_table_invariants(self, name):
        k = _KERNELS[name]()
        assert k.k[0] == 0.0 and np.all(k.k >= 0)
        assert k.survival.shape == k.k.shape
        assert np.all(np.diff(k.survival) <= 0)
        assert abs(k.k.sum() + k.survival[k.n_max] - 1.0) <= 1e-12
        np.testing.assert_allclose(k.survival, 1.0 - np.cumsum(k.k),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("consumer", list(_HORIZON_CONSUMERS))
    def test_horizon_past_table(self, consumer):
        # n_max = 8: the tail beyond it has mass, so N = 9 must raise, while
        # N = n_max is inside the table
        run = _HORIZON_CONSUMERS[consumer]
        kernel = rn.power_law_kernel(0.75, 8)
        run(kernel, 8)
        with pytest.raises(rn.KernelError, match="horizon 9 exceeds"):
            run(kernel, 9)
        # a finitely supported law has nothing past its table; it has no
        # tail exponent either, which scale_couplings rejects first
        if consumer != "scale_couplings":
            run(rn.two_point_kernel(0.3), 9)

    def test_two_point_past_table_values(self):
        # K = 0 past the table: u solves u(n) = p u(n-1) + (1-p) u(n-2), and
        # every configuration of gaps 1 and 2 keeps its mass
        p = 0.3
        kernel = rn.two_point_kernel(p)
        u = rn.renewal_function(kernel, 9).u
        want = [1.0, p]
        for _ in range(8):
            want.append(p * want[-1] + (1.0 - p) * want[-2])
        np.testing.assert_allclose(u, want, rtol=1e-14)
        law = dp.enumerate_pinned_exact(kernel, _free(9), 0.0, 0.0, 9)
        assert len(law) == 2 ** 8
        for sites, prob in law.items():
            gaps = np.diff([0, *sorted(sites), 9])
            expect = np.prod(kernel.k[gaps]) / u[9] if gaps.max() <= 2 else 0.0
            assert prob == pytest.approx(expect, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("p1", [0.0, -0.1, 1.0 + 1e-12, np.nan])
    def test_two_point_bad_p1_rejected(self, p1):
        with pytest.raises(rn.KernelError):
            rn.two_point_kernel(p1)

    def test_two_point_values(self):
        k = rn.two_point_kernel(0.3)
        np.testing.assert_array_equal(k.k, [0.0, 0.3, 0.7])
        np.testing.assert_array_equal(k.survival, [1.0, 0.7, 0.0])
        assert k.mean == pytest.approx(1.7, rel=1e-15)
        assert np.isnan(k.alpha)


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
    return rn.bessel_like_return_law(lambda x: np.where(x == 0, 1.0, 0.5),
                                     4000)


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
        assert srw.alpha == pytest.approx(0.5, abs=0.05)

    def test_calibrated_exponent(self):
        k = rn.bessel_like_return_law(rn.bessel_p_up(0.75), 4000)
        assert k.alpha == pytest.approx(0.75, abs=0.05)

    @pytest.mark.parametrize("p_up", [
        rn.bessel_p_up(0.75), rn.bessel_p_up(0.3),
        lambda x: np.where(x == 0, 1.0, 0.7),
        lambda x: np.where(x == 0, 1.0, 0.3)],
        ids=["alpha0.75", "alpha0.3", "transient", "past-1e9"])
    def test_escape_matches_scalar_loop(self, p_up):
        # rho_k over k < 20,000, its tail exponent over the last doubling
        # (gamma <= 1: recurrent, escape 0), else the partial sum plus the
        # tail's integral
        log_rho = []
        for p in p_up(np.arange(1, 20_000)).tolist():
            log_rho.append((log_rho[-1] if log_rho else 0.0)
                           + math.log((1.0 - p) / p))
        K = len(log_rho)
        gamma = (log_rho[K // 2 - 1] - log_rho[-1]) / math.log(K / (K // 2))
        got = rn._escape_probability(p_up, cutoff=20_000)
        if gamma <= 1.0:
            assert got == 0.0
        else:
            rho = [math.exp(v) for v in log_rho]
            total = 1.0 + sum(rho) + K * rho[-1] / (gamma - 1.0)
            assert got == pytest.approx(1.0 / total, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 0.45])
    def test_recurrent_below_one_half(self, alpha):
        # rho_k ~ k^-(1 - 2 alpha) sums to infinity: recurrent, though the
        # sum to 2,000,000 terms reads 7,931 at alpha = 0.3
        k = rn.bessel_like_return_law(rn.bessel_p_up(alpha), 2000)
        assert rn._escape_probability(rn.bessel_p_up(alpha)) == 0.0
        assert abs(k.k.sum() + k.survival[k.n_max] - 1.0) <= 1e-12
        assert k.alpha == pytest.approx(alpha, abs=0.05)

    def test_transient_rejected(self):
        with pytest.raises(rn.KernelError, match="transient"):
            rn.bessel_like_return_law(lambda x: np.where(x == 0, 1.0, 0.7),
                                      100)

    def test_reflection_required(self):
        with pytest.raises(rn.KernelError):
            rn.bessel_like_return_law(lambda x: np.full(np.shape(x), 0.5), 100)

    def test_coupling_bound(self, srw):
        rf = rn.renewal_function(srw, 4000)
        tr = rn.check_coupling_bound(rf, srw)
        assert tr.max_violation <= 1e-10
        assert tr.monotone


def _conditioned_sampler(kernel, N):
    """The renewal conditioned on N in tau: the pinned law at zero coupling."""
    free = dp.DisorderField(np.zeros(N - 1), "standard-normal")
    return dp.build_pinned_sampler(kernel, free, 0.0, 0.0, N)


def _reference_renewal(kernel, N, rng):
    # one scalar rng.random() and one np.searchsorted per step
    cdf = np.cumsum(kernel.k[1:N + 1])
    pts = [0]
    pos = 0
    while pos < N:
        x = rng.random()
        if x > cdf[-1]:
            break
        gap = int(np.searchsorted(cdf, x)) + 1
        if pos + gap > N:
            break
        pos += gap
        pts.append(pos)
    return np.array(pts, dtype=np.int64)


class TestSampling:
    @pytest.mark.parametrize("N", [1, 2, 50, 1000])
    def test_matches_scalar_loop(self, kernel_075, N):
        # both ends of a path: a draw past cdf[-1] and a gap past N
        rng, ref = stream(4, N), stream(4, N)
        for _ in range(200):
            pts = rn.sample_renewal(kernel_075, N, rng)
            np.testing.assert_array_equal(pts, _reference_renewal(
                kernel_075, N, ref))
            assert pts.dtype == np.int64
        assert rng.random() == ref.random()

    def test_degenerate_kernel_full_set(self):
        k = rn.two_point_kernel(1.0)
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


class TestMatchedKernel:
    def test_matches_mpmath_deconvolution(self):
        # K(n) = u(n) - sum_{m<n} K(m) u(n-m), term by term at 40 digits
        alpha, c, n = 0.75, 0.5, 512
        with mpmath.workdps(40):
            u = [mpmath.mpf(1)] + [c * mpmath.mpf(j) ** (alpha - 1)
                                   for j in range(1, n + 1)]
            ref = [mpmath.mpf(0)]
            for j in range(1, n + 1):
                ref.append(u[j] - mpmath.fsum(ref[m] * u[j - m]
                                              for m in range(1, j)))
            ref = np.array([float(x) for x in ref[1:]])
        k = rn.matched_power_kernel(alpha, n).k
        assert k[0] == 0.0
        assert np.max(np.abs(k[1:] / ref - 1.0)) <= 1e-10

    def test_halved_solve_keeps_u(self, monkeypatch):
        # the kernel's and u's 601 rows halve down to leaves of 75-76 rows,
        # splitting the odd lengths 601, 301 and 151 on the way
        monkeypatch.setattr(volterra, "HALVE_ABOVE", 128)
        alpha, c, n = 0.6, 0.5, 601
        kernel = rn.matched_power_kernel(alpha, n, c)
        assert np.all(kernel.k >= 0)
        u = rn.renewal_function(kernel, n).u
        want = c * np.arange(1, n + 1, dtype=float) ** (alpha - 1.0)
        assert u[0] == 1.0
        assert np.max(np.abs(u[1:] / want - 1.0)) <= 1e-12

    def test_negative_k_names_first_n(self, monkeypatch):
        # a solve whose K(5) and K(10) came out negative
        def solve(k, f, c):
            x = f[:, None].copy()
            x[[4, 9]] = -1e-3
            return x, np.zeros(x.shape, dtype=np.int64)
        monkeypatch.setattr(rn, "renewal_solve_batch", solve)
        with pytest.raises(rn.KernelError, match=r"at n = 5$"):
            rn.matched_power_kernel(0.75, 16)

    @pytest.mark.parametrize("alpha, c", [(0.0, 0.5), (1.0, 0.5), (1.5, 0.5),
                                          (0.75, 0.0), (0.75, 1.0)])
    def test_bad_parameters_rejected(self, alpha, c):
        with pytest.raises(rn.KernelError):
            rn.matched_power_kernel(alpha, 64, c)


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
