import numpy as np
import pytest
from scipy.special import zeta
from scipy.stats import ks_2samp

from pinning_lab import closed_sets as cs
from pinning_lab import discrete_pinning as dp
from pinning_lab import renewal as rn
from pinning_lab.rng import stream


@pytest.fixture(scope="module")
def kernel():
    return rn.power_law_kernel(0.75, 4096)


@pytest.fixture(scope="module")
def rf(kernel):
    return rn.renewal_function(kernel, 4096)


@pytest.fixture()
def disorder():
    return dp.sample_disorder("standard-normal", 255, stream(42))


class TestLambda:
    def test_zero(self):
        assert dp.lambda_of("standard-normal", 0.0) == 0.0
        assert dp.lambda_of("rademacher", 0.0) == 0.0

    def test_normal(self):
        assert dp.lambda_of("standard-normal", 1.0) == 0.5

    def test_rademacher(self):
        assert dp.lambda_of("rademacher", 1.0) == pytest.approx(
            np.log(np.cosh(1.0)), rel=1e-14)
        assert dp.lambda_of("rademacher", 1.0) == pytest.approx(0.43378, abs=1e-5)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            dp.lambda_of("uniform", 1.0)

    def test_mgf_identity_rademacher(self):
        # exp(Lambda(t)) = E[exp(t omega)] for the two-point law
        t = 0.7
        assert np.exp(dp.lambda_of("rademacher", t)) == pytest.approx(
            0.5 * (np.exp(t) + np.exp(-t)), rel=1e-14)


class TestDisorder:
    def test_moments(self):
        d = dp.sample_disorder("standard-normal", 10_000, stream(0))
        assert abs(d.omega.mean()) < 5 / np.sqrt(10_000)
        assert abs(d.omega.var() - 1.0) < 5 * np.sqrt(2.0 / 10_000)

    def test_rademacher_support(self):
        d = dp.sample_disorder("rademacher", 1000, stream(1))
        assert set(np.unique(d.omega)) == {-1.0, 1.0}

    def test_reproducible(self):
        a = dp.sample_disorder("standard-normal", 100, stream(5, 3))
        b = dp.sample_disorder("standard-normal", 100, stream(5, 3))
        np.testing.assert_array_equal(a.omega, b.omega)


class TestScaling:
    def test_alpha_075(self, kernel):
        # the effective slowly varying value of the pure power kernel is
        # its normalizing constant 1/zeta(1 + alpha)
        sc = dp.scale_couplings(1.0, 0.0, 4096, kernel)
        assert sc.beta_N == pytest.approx(
            4096.0 ** -0.25 / zeta(1.75, 1), rel=1e-12)
        assert sc.h_N == 0.0

    def test_alpha_15(self):
        k = rn.power_law_kernel(1.5, 100)
        sc = dp.scale_couplings(2.0, 0.5, 100, k)
        assert sc.beta_N == pytest.approx(0.2, rel=1e-12)
        assert sc.h_N == pytest.approx(0.005, rel=1e-12)

    def test_beta_positive_required(self, kernel):
        with pytest.raises(ValueError):
            dp.scale_couplings(0.0, 0.0, 100, kernel)


class TestPartitionDP:
    def test_free_case_is_one(self, kernel, rf, disorder):
        z = dp.partition_dp(kernel, rf, disorder, 0.0, 0.0, 0, 200)
        assert z == pytest.approx(1.0, abs=1e-12)

    def test_short_intervals(self, kernel, rf, disorder):
        assert dp.partition_dp(kernel, rf, disorder, 0.5, 0.1, 7, 7) == 1.0
        assert dp.partition_dp(kernel, rf, disorder, 0.5, 0.1, 7, 8) == 1.0

    def test_length_two_closed_form(self, kernel, rf, disorder):
        beta, h = 0.4, 0.1
        a = 3
        z = dp.partition_dp(kernel, rf, disorder, beta, h, a, a + 2)
        k1, k2 = kernel.k[1], kernel.k[2]
        w = np.exp(beta * disorder.omega[a] - beta ** 2 / 2 + h)
        assert z == pytest.approx((k1 ** 2 * w + k2) / (k1 ** 2 + k2), rel=1e-12)

    def test_positive(self, kernel, rf, disorder):
        for beta in (0.1, 0.5, 1.5):
            assert dp.partition_dp(kernel, rf, disorder, beta, -0.3, 0, 100) > 0

    def test_log_domain_agrees(self, kernel, rf, disorder):
        # a huge coupling on a short interval against direct enumeration:
        # the site exponent is 600 - 180,000, so the weight underflows to 0
        beta = 600.0
        om = np.array([1.0])
        d = dp.DisorderField(om, "standard-normal")
        z = dp.partition_dp(kernel, rf, d, beta, 0.0, 0, 2)
        k1, k2 = kernel.k[1], kernel.k[2]
        lw = beta * 1.0 - beta ** 2 / 2
        expect = (k1 ** 2 * np.exp(lw) + k2) / (k1 ** 2 + k2)
        assert z == pytest.approx(expect, rel=1e-10)

    def test_overflow_raises(self, kernel, rf):
        # Z at h = 600 exceeds the largest double; both DPs say so
        omegas = stream(10).standard_normal((3, 63))
        with pytest.raises(OverflowError, match="N=64, beta=0.5, h=600"):
            dp.partition_dp_batch(kernel, rf, omegas, "standard-normal",
                                  0.5, 600.0, 64)
        d = dp.DisorderField(omegas[0], "standard-normal")
        with pytest.raises(OverflowError, match="N=64, beta=0.5, h=600"):
            dp.partition_dp(kernel, rf, d, 0.5, 600.0, 0, 64)
        # no single site weight is large here; the sum overflows over sites
        d = dp.sample_disorder("standard-normal", 2047, stream(11))
        with pytest.raises(OverflowError, match="N=2048, beta=0.5, h=1"):
            dp.partition_dp(kernel, rf, d, 0.5, 1.0, 0, 2048)

    def test_infinite_site_weight_raises(self, kernel, rf):
        d = dp.DisorderField(np.zeros(15), "standard-normal")
        with pytest.raises(OverflowError, match="site weight.*N=16, beta=0.0, h=710"):
            dp.partition_dp(kernel, rf, d, 0.0, 710.0, 0, 16)
        with pytest.raises(OverflowError, match="site weight"):
            dp.build_pinned_sampler(kernel, d, 0.0, 710.0, 16)

    def test_rescaled_solve_matches_chaos(self, kernel, rf):
        # h = 40 gives blocks of 14 sites and a rescale after the first
        N, h = 16, 40.0
        d = dp.DisorderField(stream(12).standard_normal(N - 1), "standard-normal")
        assert dp.partition_dp(kernel, rf, d, 0.3, h, 0, N) == pytest.approx(
            dp.chaos_expansion_exact(kernel, rf, d, 0.3, h, N), rel=1e-10)

    def test_translation_distribution(self, kernel, rf):
        # Z(t, t+m) and Z(0, m) agree in law across disorder replicas
        rng = stream(100)
        m, t, reps = 24, 40, 400
        z0, zt = [], []
        for _ in range(reps):
            d = dp.DisorderField(rng.standard_normal(80), "standard-normal")
            z0.append(dp.partition_dp(kernel, rf, d, 0.5, 0.0, 0, m))
            zt.append(dp.partition_dp(kernel, rf, d, 0.5, 0.0, t, t + m))
        assert ks_2samp(z0, zt).pvalue > 0.01

    def test_batch_matches_scalar(self, kernel, rf):
        rng = stream(9)
        R, N = 5, 64
        omegas = rng.standard_normal((R, N - 1))
        zb = dp.partition_dp_batch(kernel, rf, omegas, "standard-normal",
                                   0.3, 0.05, N)
        for i in range(R):
            d = dp.DisorderField(omegas[i], "standard-normal")
            z = dp.partition_dp(kernel, rf, d, 0.3, 0.05, 0, N)
            assert zb[i] == pytest.approx(z, rel=1e-12)


class TestChaos:
    def test_zero_coupling(self, kernel, rf, disorder):
        assert dp.chaos_expansion_exact(kernel, rf, disorder, 0.0, 0.0, 12) == 1.0

    def test_identity_with_dp(self, kernel, rf):
        rng = stream(21)
        for trial in range(50):
            r = int(rng.integers(2, 21))
            beta = float(rng.uniform(0.05, 1.0))
            h = float(rng.uniform(-0.5, 0.5))
            d = dp.DisorderField(rng.standard_normal(r - 1), "standard-normal")
            full = dp.chaos_expansion_exact(kernel, rf, d, beta, h, r)
            ref = dp.partition_dp(kernel, rf, d, beta, h, 0, r)
            assert full == pytest.approx(ref, rel=1e-10)

    def test_truncation_converges(self, kernel, rf, disorder):
        r, beta, h = 14, 0.2, 0.05
        full = dp.chaos_expansion_exact(kernel, rf, disorder, beta, h, r)
        errs = [abs(dp.chaos_expansion_exact(kernel, rf, disorder, beta, h, r,
                                             max_order=m) - full)
                for m in (1, 3, 6)]
        assert errs[0] > errs[1] > errs[2]

    def test_first_order_mean(self, kernel, rf):
        # with tiny h and beta -> 0, E[Z] - 1 ~ h * sum_n u(n)u(r-n)/u(r)
        r, h = 32, 1e-4
        d = dp.DisorderField(np.zeros(r - 1), "standard-normal")
        z = dp.chaos_expansion_exact(kernel, rf, d, 1e-9, h, r, max_order=1)
        ns = np.arange(1, r)
        expect = h * np.sum(rf.u[ns] * rf.u[r - ns]) / rf.u[r]
        assert z - 1.0 == pytest.approx(expect, rel=1e-3)

    def test_full_cap(self, kernel, rf, disorder):
        with pytest.raises(ValueError):
            dp.chaos_expansion_exact(kernel, rf, disorder, 0.1, 0.0, 30)

    def test_zeta_scale(self, kernel):
        # sd(xi)/beta_N -> 1 and mean(xi) ~ h_N at weak coupling
        N = 10_000
        sc = dp.scale_couplings(1.0, 0.5, N, kernel)
        d = dp.sample_disorder("standard-normal", N, stream(3))
        xi = dp.xi_vars(d, sc.beta_N, sc.h_N)
        se = sc.beta_N / np.sqrt(N)
        assert abs(xi.mean() - (np.exp(sc.h_N) - 1.0)) < 4 * se
        assert xi.std() / sc.beta_N == pytest.approx(1.0, abs=0.05)


class TestSampler:
    def test_endpoints_always_present(self, kernel, disorder):
        s = dp.build_pinned_sampler(kernel, disorder, 0.5, 0.1, 64)
        assert not s.underflow
        for _ in range(10):
            C = s.sample(stream(8))
            assert C.points[0] == 0.0 and C.points[-1] == 64.0

    def test_free_case_matches_conditioned_renewal(self, kernel, rf):
        # at zero coupling the backward mass is u(N - j), and g_t follows
        # the exact conditioned-renewal law
        N, t = 2048, 1024
        d = dp.DisorderField(np.zeros(N - 1), "standard-normal")
        s = dp.build_pinned_sampler(kernel, d, 0.0, 0.0, N)
        np.testing.assert_allclose(np.ldexp(s.mass, s.exp2), rf.u[:N + 1],
                                   rtol=1e-12, atol=0)
        rng = stream(17)
        n_rep = 2000
        g = [cs.g_map(s.sample(rng), t) for _ in range(n_rep)]
        cdf = np.cumsum(rn.conditioned_g_law(rf, N, t))
        emp = np.searchsorted(np.sort(g), np.arange(t + 1), side="right") / n_rep
        # KS distance on the lattice; the continuous-null bound is conservative
        assert np.max(np.abs(emp - cdf)) < 1.63 / np.sqrt(n_rep)

    def test_two_configuration_marginal(self):
        k = rn.two_point_kernel(0.5)
        beta, h = 0.8, 0.2
        d = dp.DisorderField(np.array([0.7]), "standard-normal")
        s = dp.build_pinned_sampler(k, d, beta, h, 2)
        rng = stream(23)
        n_rep = 50_000
        hits = sum(1.0 in s.sample(rng).points for _ in range(n_rep))
        w = np.exp(beta * 0.7 - beta ** 2 / 2 + h)
        expect = 0.25 * w / (0.25 * w + 0.5)
        se = np.sqrt(expect * (1 - expect) / n_rep)
        assert abs(hits / n_rep - expect) < 4 * se

    def test_large_h_fills_every_site(self, kernel, disorder):
        s = dp.build_pinned_sampler(kernel, disorder, 0.1, 50.0, 32)
        C = s.sample(stream(2))
        assert len(C.points) == 33

    def test_matches_exhaustive_enumeration(self, kernel):
        N, beta, h = 8, 0.6, -0.2
        d = dp.DisorderField(stream(31).standard_normal(N - 1),
                             "standard-normal")
        exact = dp.enumerate_pinned_exact(kernel, d, beta, h, N)
        s = dp.build_pinned_sampler(kernel, d, beta, h, N)
        rng = stream(32)
        n_rep = 200_000
        counts = {}
        for _ in range(n_rep):
            key = frozenset(int(x) for x in s.sample(rng).points[1:-1])
            counts[key] = counts.get(key, 0) + 1
        for key, p in exact.items():
            if p < 1e-4:
                continue
            emp = counts.get(key, 0) / n_rep
            se = np.sqrt(p * (1 - p) / n_rep)
            assert abs(emp - p) < 4.5 * se

    def test_configuration_probabilities_exact(self, kernel):
        # the product of the sampler's own transition probabilities along
        # each configuration is its exact Gibbs probability
        for N in range(8, 13):
            d = dp.DisorderField(stream(34, N).standard_normal(N - 1),
                                 "standard-normal")
            exact = dp.enumerate_pinned_exact(kernel, d, 0.7, 0.3, N)
            s = dp.build_pinned_sampler(kernel, d, 0.7, 0.3, N)
            for sites, p in exact.items():
                pts = [0, *sorted(sites), N]
                prob = 1.0
                for i, j in zip(pts[:-1], pts[1:]):
                    row = np.diff(s.row(i), prepend=0.0)
                    prob *= row[j - i - 1]
                assert prob == pytest.approx(p, abs=1e-12)

    def test_rows_built_lazily(self, kernel):
        N = 512
        d = dp.DisorderField(np.zeros(N - 1), "standard-normal")
        s = dp.build_pinned_sampler(kernel, d, 0.0, 0.0, N)
        assert not s.rows
        pts = s.sample(stream(35)).points.astype(int)
        assert sorted(s.rows) == sorted(pts[:-1])

    def test_underflow_flag_and_raise(self):
        # every site weight is exp(-800) = 0: the mass from 0 is 0
        k = rn.two_point_kernel(0.5)
        d = dp.DisorderField(np.zeros(3), "standard-normal")
        s = dp.build_pinned_sampler(k, d, 0.0, -800.0, 4)
        assert s.underflow
        assert s.underflow == bool(np.any(s.mass[1:] == 0))
        with pytest.raises(FloatingPointError, match="point 0"):
            s.sample(stream(36))
        s = dp.build_pinned_sampler(k, d, 0.0, -3.0, 4)
        assert not s.underflow and np.all(s.mass[1:] > 0)
