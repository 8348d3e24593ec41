import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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

    def test_replica_shape_keeps_stream(self):
        # an (R, n) draw is the stream the convergence ladder drew inline
        got = dp.sample_disorder("standard-normal", (3, 7), stream(9, 10))
        want = stream(9, 10).standard_normal((3, 7))
        np.testing.assert_array_equal(got.omega, want)
        got = dp.sample_disorder("rademacher", (3, 7), stream(9, 10))
        want = stream(9, 10).integers(0, 2, (3, 7)) * 2.0 - 1.0
        np.testing.assert_array_equal(got.omega, want)
        assert got.n_sites == 7

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

    def test_no_tail_exponent_rejected(self):
        # a finitely supported law has alpha = nan: no scaling, not nan
        with pytest.raises(rn.KernelError, match="no tail exponent"):
            dp.scale_couplings(0.5, 0.2, 9, rn.two_point_kernel(0.3))


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

    def test_zeta_scale(self):
        # sd(xi)/beta_N -> 1 and mean(xi) ~ h_N at weak coupling
        N = 10_000
        sc = dp.scale_couplings(1.0, 0.5, N, rn.power_law_kernel(0.75, N))
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
                    row = np.diff(s._view(i, s.N - i).obj, prepend=0.0)
                    prob *= row[j - i - 1]
                assert prob == pytest.approx(p, abs=1e-12)

    def test_rows_hold_only_rows_outside_the_table_or_grown(self, kernel):
        # a table row enters rows only when a uniform lies past its entry
        # 15, that is on a jump of more than ROW_START; a whole row on
        # every visit
        N = 512
        d = dp.DisorderField(np.zeros(N - 1), "standard-normal")
        s = dp.build_pinned_sampler(kernel, d, 0.0, 0.0, N)
        assert not s.rows and "table" not in vars(s)
        rng, expect = stream(35), set()
        for _ in range(20):
            pts = s.sample(rng).points.astype(int)
            expect |= {i for i, j in zip(pts[:-1], pts[1:])
                       if N - i <= dp.ROW_START or j - i > dp.ROW_START}
        assert set(s.rows) == expect
        assert any(N - i > dp.ROW_START for i in expect)
        for i, view in s.rows.items():
            assert min(N - i, dp.ROW_GROWTH * dp.ROW_START) <= len(view) <= N - i

    @pytest.mark.parametrize("R", [1, 7, 250])
    def test_batched_build_matches_one_by_one(self, R):
        # R disorder rows, one solve: each sampler's backward mass within
        # 1e-13 of its own build, on the same power-of-two exponents
        N = 2048
        kernel = rn.matched_power_kernel(0.75, N)
        beta = dp.scale_couplings(0.5, 0.0, N, kernel).beta_N
        dis = dp.sample_disorder("standard-normal", (R, N - 1), stream(48))
        batch = dp.build_pinned_sampler(kernel, dis, beta, 0.0, N)
        assert isinstance(batch, list) and len(batch) == R
        for om, s in zip(dis.omega, batch):
            one = dp.build_pinned_sampler(
                kernel, dp.DisorderField(om, dis.distribution), beta, 0.0, N)
            np.testing.assert_array_equal(s.exp2, one.exp2)
            np.testing.assert_allclose(s.mass, one.mass, rtol=1e-13, atol=0)
            np.testing.assert_allclose(s.inv, one.inv, rtol=1e-13, atol=0)
            assert s.N == N and not s.underflow and not one.underflow

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


def _reference_row(s, i):
    # the row formula with the ldexp shift taken on every row
    top = s.N - i - 1
    cdf = np.cumsum(s.k[1:top + 2] * np.ldexp(s.mass[top::-1],
                                              s.exp2[top::-1] - s.exp2[top]))
    if not cdf[-1] > 0:
        raise FloatingPointError(f"zero backward mass at point {i}")
    return cdf / cdf[-1]


def _reference_sample(s, rng):
    # one scalar rng.random() and one np.searchsorted per step
    pts = [0]
    while pts[-1] < s.N:
        i = pts[-1]
        pts.append(int(np.searchsorted(_reference_row(s, i), rng.random()))
                   + i + 1)
    return np.array(pts, dtype=float)


def _scalar_path(s, rng):
    # the class's transition rows, normalized by inv, with one scalar
    # rng.random() per step, drawn once the row is known not to raise
    pts = [0]
    while pts[-1] < s.N:
        i = pts[-1]
        top = s.N - i - 1
        cdf = np.cumsum(s.k[1:top + 2] * np.ldexp(s.mass[top::-1],
                                                  s.exp2[top::-1] - s.exp2[top]))
        if not (s.inv[i] < np.inf and cdf[-1] > 0):
            raise FloatingPointError(f"zero backward mass at point {i}")
        j = int(np.searchsorted(cdf * s.inv[i], rng.random()))
        pts.append(i + min(j, top) + 1)
    return np.array(pts, dtype=float)


@st.composite
def _hand_samplers(draw):
    # kernels weighted to short jumps, so that paths on up to 40 points
    # run past the first block of 32 uniforms; masses with zeros and rising
    # exponents; inv near 1/V(i), some entries inf and some off by a factor
    N = draw(st.integers(2, 40))
    val = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-3, 4.0))
    k = np.r_[0.0, draw(st.lists(val, min_size=N, max_size=N))]
    k *= 0.5 ** np.arange(N + 1)
    mass = np.r_[1.0, draw(st.lists(val, min_size=N, max_size=N))]
    exp2 = np.r_[0, np.cumsum(draw(st.lists(st.integers(0, 3), min_size=N,
                                             max_size=N)))]
    inv = np.empty(N)
    for i in range(N):
        top = N - i - 1
        v = np.sum(k[1:top + 2] * np.ldexp(mass[top::-1],
                                           exp2[top::-1] - exp2[top]))
        scale = draw(st.sampled_from([1.0, 1.0, 1.0, 0.5, 2.0]))
        inv[i] = scale / v if v > 0 else np.inf
    for i in draw(st.lists(st.integers(0, N - 1), max_size=3)):
        inv[i] = np.inf
    return {"N": N, "k": k, "mass": mass, "exp2": exp2, "inv": inv,
            "underflow": bool(np.any(mass[1:] == 0))}


def _ladder_case(N, bad):
    # every step is a jump of 1 until point bad, whose inv is inf
    inv = np.ones(N)
    inv[bad] = np.inf
    return {"N": N, "k": np.r_[0.0, 1.0, np.zeros(N - 1)],
            "mass": np.ones(N + 1), "exp2": np.zeros(N + 1, dtype=np.int64),
            "inv": inv, "underflow": False}


def _zero_prefix_case(N, bad, tail):
    # every step is a jump of 1 until point bad, whose row of N - bad
    # entries holds no mass in its first ROW_START; w_j V(j) = tail past them
    w = np.ones(N + 1)  # w_j V(j) at j = 0..N
    w[bad + 1:] = 0.0
    w[bad + 1 + dp.ROW_START:] = tail
    return {"N": N, "k": np.r_[0.0, np.ones(N)], "mass": w[::-1].copy(),
            "exp2": np.zeros(N + 1, dtype=np.int64), "inv": np.ones(N),
            "underflow": True}


class TestSamplerStream:
    """Draws and rows equal those of the scalar per-step loop, each path
    from a generator seeded as the loop's."""

    def test_raise_partway_leaves_steps_taken(self):
        # hand-made masses: 0 -> 1 surely (its row sums to 1/inv[0] = 0.5),
        # then the row of 1 is all zero
        k = np.array([0.0, 0.5, 0.5, 0.0, 0.0])
        s = dp.PinnedSampler(N=4, k=k, mass=np.array([1.0, 0.0, 0.0, 1.0, 1.0]),
                             exp2=np.zeros(5, dtype=np.int64),
                             inv=np.array([2.0, 1.0, 1.0, 1.0]), underflow=True)
        with pytest.raises(FloatingPointError, match="point 1"):
            s.sample(stream(39))
        with pytest.raises(FloatingPointError, match="point 1"):
            _reference_sample(s, stream(39))

    @pytest.mark.parametrize("N, beta_hat, h", [
        (2048, 0.0, 0.0), (4096, 0.0, 0.0), (512, 0.5, 0.0), (1024, 0.0, 50.0)])
    def test_matches_scalar_loop(self, kernel, N, beta_hat, h):
        d = dp.sample_disorder("standard-normal", N - 1, stream(40))
        beta = (dp.scale_couplings(beta_hat, 0.0, N, kernel).beta_N
                if beta_hat else 0.0)
        s = dp.build_pinned_sampler(kernel, d, beta, h, N)
        # rows near N take no shift; at h = 50 the rows further back do
        assert s.exp2[1] == 0 and (s.exp2[-1] > 0) == (h > 0)
        # 1,000 draws over the four cases: the prefix rows normalized by
        # V(i) draw as the whole rows normalized by their own last entry do
        for r in range({2048: 300, 4096: 250, 512: 350, 1024: 100}[N]):
            np.testing.assert_array_equal(s.sample(stream(41, r)).points,
                                          _reference_sample(s, stream(41, r)))
        assert len(s.rows) > 8
        for i, view in list(s.rows.items()):
            row = s._view(i, s.N - i).obj
            assert isinstance(row, np.ndarray) and len(row) == N - i
            np.testing.assert_array_equal(row[:len(view)], view)
            np.testing.assert_allclose(row, _reference_row(s, i), rtol=1e-13)

    def test_rows_grow_from_short_prefixes(self, kernel):
        N = 4096
        d = dp.DisorderField(np.zeros(N - 1), "standard-normal")
        s = dp.build_pinned_sampler(kernel, d, 0.0, 0.0, N)
        rng = stream(42)
        for _ in range(400):
            s.sample(rng)
        # a whole row per visited point would hold 67.1 MB here
        assert sum(v.nbytes for v in s.rows.values()) < 16e6
        # each row is whole or grown ROW_GROWTH-fold from ROW_START entries
        grown = {dp.ROW_START * dp.ROW_GROWTH ** e for e in range(8)}
        for i, v in s.rows.items():
            assert len(v) == N - i or (len(v) in grown and len(v) < N - i)
        assert dp.ROW_START in [len(v) for v in s.rows.values()]

    def test_past_the_full_row_goes_to_n(self, kernel):
        # rows normalized 1000 times too small end near 1e-3, so the first
        # step's uniform lies past every entry of the full row from 0
        N = 64
        d = dp.DisorderField(np.zeros(N - 1), "standard-normal")
        s = dp.build_pinned_sampler(kernel, d, 0.0, 0.0, N)
        s = dataclasses.replace(s, inv=s.inv * 1e-3)
        np.testing.assert_array_equal(s.sample(stream(43)).points, [0.0, N])
        assert len(s.rows[0]) == N

    @pytest.mark.parametrize("N, beta, h", [
        (17, 0.7, 0.3), (64, 0.0, 0.0), (2048, None, 0.0), (256, 0.1, 50.0)])
    def test_table_is_the_row_prefixes(self, kernel, N, beta, h):
        # beta None: beta_N at beta_hat = 0.5; at h = 50 the masses are
        # rescaled, so the table's rows take the exp2 shift
        d = dp.sample_disorder("standard-normal", N - 1, stream(45, N))
        if beta is None:
            beta = dp.scale_couplings(0.5, 0.0, N, kernel).beta_N
        s = dp.build_pinned_sampler(kernel, d, beta, h, N)
        assert (s.exp2[-1] > 0) == (h == 50.0)
        tab = np.asarray(s.table).reshape(N, dp.ROW_START)
        for i in range(N):
            if N - i > dp.ROW_START:
                head = s._view(i, dp.ROW_START)
                assert tab[i].tobytes() == np.asarray(head).tobytes()
            else:
                assert np.isnan(tab[i]).all()

    def test_table_keeps_out_rows_that_could_raise(self):
        # row 3 has inv = inf, row 9 inv = 0, and row 5 no mass in its
        # first 16 entries: w_j V(j) = 0 at j = 6..21
        N = 40
        k = np.r_[0.0, np.full(N, 0.5)]
        mass = np.ones(N + 1)
        mass[N - 21:N - 5] = 0.0  # m = N - j
        inv = np.full(N, 0.05)
        inv[3], inv[9] = np.inf, 0.0
        s = dp.PinnedSampler(N=N, k=k, mass=mass, exp2=np.zeros(N + 1, int),
                             inv=inv, underflow=True)
        tab = np.asarray(s.table).reshape(N, dp.ROW_START)
        out = {i for i in range(N) if np.isnan(tab[i]).all()}
        assert out == {3, 5, 9} | set(range(N - dp.ROW_START, N))
        assert not np.isnan(np.delete(tab, sorted(out), axis=0)).any()

    def test_one_shot_samplers_match_scalar_loop(self, kernel):
        # one draw per sampler, as convergence and the quenched op use them:
        # the table is built on the first draw
        N = 2048
        beta = dp.scale_couplings(0.5, 0.0, N, kernel).beta_N
        for r in range(24):
            d = dp.sample_disorder("standard-normal", N - 1, stream(47, r))
            s = dp.build_pinned_sampler(kernel, d, beta, 0.0, N)
            np.testing.assert_array_equal(s.sample(stream(46, r)).points,
                                          _reference_sample(s, stream(46, r)))

    @settings(max_examples=150, deadline=None)
    @given(case=_hand_samplers(), seed=st.integers(0, 2 ** 32 - 1))
    @example(case=_ladder_case(40, bad=5), seed=0)  # raise at step 5
    @example(case=_ladder_case(40, bad=35), seed=0)  # in the second block
    # a row outside the table with mass past its first ROW_START entries,
    # and one whose full row holds none
    @example(case=_zero_prefix_case(60, bad=10, tail=1.0), seed=0)
    @example(case=_zero_prefix_case(60, bad=10, tail=0.0), seed=0)
    def test_stream_contract(self, case, seed):
        # sample returns the scalar loop's path or raises its error, and a
        # row outside the table enters rows only whole
        s = dp.PinnedSampler(**case)
        for r in range(3):
            try:
                expect = _scalar_path(s, stream(seed, r))
            except FloatingPointError as e:
                with pytest.raises(FloatingPointError, match=str(e)):
                    s.sample(stream(seed, r))
            else:
                np.testing.assert_array_equal(s.sample(stream(seed, r)).points,
                                              expect)
        tab = np.asarray(s.table).reshape(s.N, dp.ROW_START)
        for i, view in s.rows.items():
            assert len(view) == s.N - i or not np.isnan(tab[i]).any()

    @pytest.mark.parametrize("N, beta_hat", [
        (2048, 0.0), (2048, 0.5), (4096, 0.0), (4096, 0.5), (8192, 0.0),
        (8192, 0.5)])
    def test_full_rows_sum_to_one(self, N, beta_hat):
        # at 8,192 the backward solve is FFT-halved
        kernel = rn.matched_power_kernel(0.75, N)
        d = dp.sample_disorder("standard-normal", N - 1, stream(44, N))
        beta = (dp.scale_couplings(beta_hat, 0.0, N, kernel).beta_N
                if beta_hat else 0.0)
        s = dp.build_pinned_sampler(kernel, d, beta, 0.0, N)
        assert s.norm_error == 0.0
        for i in range(0, N, 61):
            s._view(i, s.N - i)
        err = max(abs(s.rows[i][-1] - 1.0) for i in range(0, N, 61))
        assert 0.0 < s.norm_error == err <= 1e-13
