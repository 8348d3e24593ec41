"""End-to-end acceptance suite.

One test per criterion; each prints a single pass/fail line (visible even
under output capture) and asserts both the verdict and its wall-clock
budget. Statistical criteria use fixed seeds so reruns are deterministic.
"""

import json
import time

import numpy as np
import pytest

import payload_sums
import pinning_lab.analysis as an
import pinning_lab.closed_sets as cs
import pinning_lab.continuum as ct
import pinning_lab.discrete_pinning as dp
import pinning_lab.renewal as rn
from pinning_lab.rng import stream


def _verdict(capsys, num, name, ok, elapsed, limit, detail=""):
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {num} ({name}): {tag} "
              f"[{elapsed:.1f}s / {limit:.0f}s] {detail}")
    assert elapsed <= limit, f"criterion {num} exceeded {limit}s budget"
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_exact_identities(capsys):
    t0 = time.perf_counter()
    rng = stream(101, 0)
    kernel = rn.power_law_kernel(0.75, 32)
    rf = rn.renewal_function(kernel, 32)
    worst = 0.0
    for _ in range(50):
        N = int(rng.integers(2, 21))
        beta = float(rng.uniform(0.0, 1.0))
        h = float(rng.uniform(-0.5, 0.5))
        dis = dp.sample_disorder("standard-normal", N - 1, rng)
        z_dp = dp.partition_dp(kernel, rf, dis, beta, h, 0, N)
        z_ch = dp.chaos_expansion_exact(kernel, rf, dis, beta, h, N)
        worst = max(worst, abs(z_ch / z_dp - 1.0))
    chaos_ok = worst <= 1e-10

    ck = rn.power_law_kernel(0.75, 512)
    cu = rn.renewal_function(ck, 512).u
    conv_err = 0.0
    for n in range(1, 500):
        rhs = float(np.dot(ck.k[1:n + 1], cu[n - 1::-1]))
        conv_err = max(conv_err, abs(cu[n] - rhs))
    conv_ok = conv_err <= 1e-12

    tk = rn.two_point_kernel(0.5)
    tu = rn.renewal_function(tk, 8).u
    hand_ok = np.allclose(tu[1:4], [0.5, 0.75, 0.625], rtol=1e-14)

    ok = chaos_ok and conv_ok and hand_ok
    _verdict(capsys, 1, "exact-identities", ok, time.perf_counter() - t0,
             1.0, f"chaos {worst:.1e}, conv {conv_err:.1e}")


def test_criterion_2_dirichlet(capsys):
    t0 = time.perf_counter()
    worst_quad = 0.0
    worst_qmc = 0.0
    for chi in (0.0, 0.3, 0.5):
        for k in (1, 2):
            num = an._dirichlet_quadrature(chi, k)
            ref = an._dirichlet_closed_form(chi, k)
            worst_quad = max(worst_quad, abs(num / ref - 1.0))
        for k in (3, 4):
            num = an._dirichlet_qmc(chi, k, seed=102, log2_n=17)
            ref = an._dirichlet_closed_form(chi, k)
            worst_qmc = max(worst_qmc, abs(num / ref - 1.0))
    pi2_ok = an._dirichlet_closed_form(0.5, 2) == pytest.approx(
        2.0 * np.pi, rel=1e-12)
    ok = worst_quad < 1e-6 and worst_qmc < 1e-3 and pi2_ok
    _verdict(capsys, 2, "dirichlet-gamma", ok, time.perf_counter() - t0,
             10.0, f"quad {worst_quad:.1e}, qmc {worst_qmc:.1e}")


def test_criterion_3_renewal_asymptotics(capsys):
    t0 = time.perf_counter()
    n = 100_000
    ratio_ok = True
    detail = []
    for alpha in (0.75, 1.5):
        kernel = rn.power_law_kernel(alpha, n)
        rf = rn.renewal_function(kernel, n)
        r = float(rn.check_asymptotics(rf).ratios[-1])
        detail.append(f"r({alpha})={r:.3f}")
        ratio_ok = ratio_ok and abs(r - 1.0) < 0.1
        if alpha == 0.75:
            fit = rn.check_smoothness(rf)
    smooth_ok = fit.passed and fit.delta >= 0.05

    bk = rn.bessel_like_return_law(rn.bessel_p_up(0.75), 20_000)
    brf = rn.renewal_function(bk, 20_000)
    viol = rn.check_coupling_bound(brf, bk).max_violation
    bound_ok = viol <= 1e-10

    # constant p_up = 1/2 gives the reflected simple walk return law
    sk = rn.bessel_like_return_law(rn.bessel_p_up(0.5), 20_000)
    ns = np.unique(np.geomspace(100, 16_000, 20).astype(int))
    slope = np.polyfit(np.log(ns), np.log(sk.sf(ns)), 1)[0]
    srw_ok = abs(-slope - 0.5) < 0.05

    ok = ratio_ok and smooth_ok and bound_ok and srw_ok
    _verdict(capsys, 3, "renewal-asymptotics", ok,
             time.perf_counter() - t0, 60.0,
             ", ".join(detail) + f", delta={fit.delta:.2f}, "
             f"viol={viol:.1e}, srw={-slope:.3f}")


def test_criterion_4_reference_law(capsys):
    t0 = time.perf_counter()
    alpha, T, t1 = 0.75, 1.0, 0.5
    m, xe, ye = ct.reference_fdd_table(alpha, T, t1, cells=512)
    total = float(m.sum())
    norm_ok = abs(total - 1.0) <= 1e-4

    rng = stream(104, 0)
    n_samp = 10_000
    g = np.empty(n_samp)
    d = np.empty(n_samp)
    sets = []
    for i in range(n_samp):
        s = ct.sample_regen_conditioned(alpha, T, 13, rng)
        g[i], d[i] = cs.g_map(s.set, t1), cs.d_map(s.set, t1)
        if i < 300:
            sets.append(s.set)

    # two-dimensional KS on the table's own corner grid; the null scale
    # comes from multinomial resampling of the exactly integrated cells
    # quadrature can leave O(1e-12) negative cell masses; clip for resampling
    p_cells = np.maximum(m, 0.0)
    p_cells /= p_cells.sum()
    F_ref = np.cumsum(np.cumsum(p_cells, axis=0), axis=1)
    H = np.histogram2d(g, d, bins=[xe, ye])[0]
    F_obs = np.cumsum(np.cumsum(H / n_samp, axis=0), axis=1)
    stat = float(np.max(np.abs(F_obs - F_ref)))
    hits = 0
    n_boot = 200
    flat = p_cells.ravel()
    for _ in range(n_boot):
        hb = rng.multinomial(n_samp, flat).reshape(p_cells.shape) / n_samp
        fb = np.cumsum(np.cumsum(hb, axis=0), axis=1)
        if np.max(np.abs(fb - F_ref)) >= stat:
            hits += 1
    p_val = (hits + 1) / (n_boot + 1)
    ks_ok = p_val > 0.001

    slopes = []
    for C in sets:
        counts = {lev: cs.box_count(C, lev, T) for lev in range(4, 11)}
        slopes.append(cs.box_count_slope(counts))
    med_slope = float(np.median(slopes))
    box_ok = abs(med_slope - alpha) < 0.1

    ok = norm_ok and ks_ok and box_ok
    _verdict(capsys, 4, "reference-law", ok, time.perf_counter() - t0,
             300.0, f"mass={total:.6f}, ks_p={p_val:.3f}, "
             f"slope={med_slope:.3f}")


def test_criterion_5_continuum_moments(capsys):
    t0 = time.perf_counter()
    alpha, T, M, R = 0.75, 1.0, 4096, 10_000
    specs = [ct.ChaosSpec(alpha=alpha, beta_hat=beta_hat, T=T, M=M)
             for beta_hat in (0.25, 0.5)]
    spec_h = ct.ChaosSpec(alpha=alpha, beta_hat=0.5, h_hat=0.5, T=T, M=M)
    r = 0.5 / 0.5
    # the increments drawn PATH_CHUNK rows at a time, bit for bit the rows
    # of one (R, M) draw, each chunk through the three specs and the tilt
    rng = stream(105, 0)
    chunks = []
    for i in range(0, R, ct.PATH_CHUNK):
        inc = rng.standard_normal((min(ct.PATH_CHUNK, R - i), M)) \
            * np.sqrt(T / M)
        chunks.append([ct.z_point_batch(spec, inc, 0.0, T)
                       for spec in (*specs, spec_h)]
                      + [np.exp(r * inc.sum(axis=1) - 0.5 * r * r * T)])
    *zs, z_h, tilt = map(np.concatenate, zip(*chunks))
    detail = []
    ok = True
    for spec, z in zip(specs, zs):
        beta_hat = spec.beta_hat
        se_mean = z.std() / np.sqrt(R)
        mean_ok = abs(z.mean() - 1.0) < 3 * se_mean
        target = ct.z_second_moment_series(alpha, beta_hat, T) - 1.0
        dev2 = (z - z.mean()) ** 2
        se_var = dev2.std() / np.sqrt(R)
        var_ok = abs(z.var() - target) < 3 * se_var
        ok = ok and mean_ok and var_ok
        detail.append(f"b={beta_hat}: mean={z.mean():.4f}, "
                      f"var={z.var():.4f} vs {target:.4f}")

    diff = z_h - tilt * zs[1]
    se_diff = diff.std() / np.sqrt(R)
    gir_ok = abs(diff.mean()) < 3 * se_diff
    ok = ok and gir_ok
    detail.append(f"girsanov diff={diff.mean():.2e} (se {se_diff:.2e})")

    _verdict(capsys, 5, "continuum-moments", ok, time.perf_counter() - t0,
             600.0, "; ".join(detail))


def test_criterion_6_z_properties(capsys):
    t0 = time.perf_counter()
    rep = an.experiment_z_properties(seed=106)
    _verdict(capsys, 6, "z-properties", rep.passed,
             time.perf_counter() - t0, 600.0, str(rep.verdicts))


def test_criterion_7_convergence(capsys):
    t0 = time.perf_counter()
    rep_d = an.experiment_convergence(seed=107)
    rep_p = an.experiment_convergence(
        an.ConvergenceConfig(beta_hat=0.0), seed=1070)
    # the ladder KS and top-rung moments are the criterion; the experiment's
    # additional (g, d) two-sample comparison is reported but not gated.
    # The pinned branch gates the sampled g against its exact discrete law
    # and that law's distance to the continuum marginal along the ladder;
    # the sampled KS against the continuum marginal is reported beside the
    # lattice atom that bounds it from below
    gated = ("ks_non_increasing", "mean_matches", "var_matches")
    ok = all(rep_d.verdicts[k] for k in gated) and rep_p.passed
    cont = rep_p.tests["pinned_g_continuum_ks"]
    detail = (f"disordered {rep_d.verdicts}; "
              f"pinned {rep_p.verdicts} "
              f"(ks={rep_p.tests['pinned_g_ks']['stat']:.3f}, "
              f"continuum ks={cont['stat']:.3f} "
              f"vs atom {cont['lattice_atom']:.3f})")
    _verdict(capsys, 7, "convergence", ok, time.perf_counter() - t0,
             1800.0, detail)


def test_criterion_8_singularity(capsys):
    t0 = time.perf_counter()
    rep_s = an.experiment_singularity(seed=108)
    rep_a = an.experiment_averaged_abs_continuity(seed=1080)
    ok = rep_s.passed and rep_a.passed
    mart = rep_s.tests["martingale_ratio"]
    detail = (f"singularity {rep_s.verdicts} "
              f"(f8/f2 median={mart['median']:.3f}, "
              f"mean log={mart['log_mean']:.3f} +- {mart['log_se']:.3f} "
              f"vs predicted {mart['predicted_log_mean']:.3f}); "
              f"averaged {rep_a.verdicts}")
    _verdict(capsys, 8, "singularity-abs-continuity", ok,
             time.perf_counter() - t0, 1800.0, detail)


def test_criterion_9_reproducibility(capsys, criterion_9_runs):
    (a, b), elapsed = criterion_9_runs
    _verdict(capsys, 9, "reproducibility", a == b, elapsed, 120.0,
             "byte-identical reruns of all experiment payloads")


def test_payload_sums(criterion_9_runs):
    # criterion 9's payloads against the sums committed with their build:
    # a one-ulp change to any report value moves a sum
    (a, _), _ = criterion_9_runs
    want = json.loads(payload_sums.SUMS.read_text())
    got = payload_sums.record(a)
    diff = [f"{part} {key}: recorded {want[part].get(key)}, "
            f"here {got[part].get(key)}"
            for part in ("build", "sha256")
            for key in sorted(want[part].keys() | got[part].keys())
            if want[part].get(key) != got[part].get(key)]
    assert not diff, "; ".join(diff) + (
        ". If the change is meant, regenerate the sums: "
        "PYTHONPATH=src python tests/payload_sums.py")
