"""Output checks for the four workloads.

Every reference here is computed by the benchmark itself (closed forms, the
renewal equation, explicit enumeration) or is a property the method must
have; none is a stored copy of an earlier output. Each check function takes
the outputs of one round as plain arrays and returns the list of its
failures, so a corrupted output can be fed to it directly. Statistical
checks use margins of 4 to 5 standard errors: the benchmark runs hundreds of
times, and a check that fails by chance once in a few hundred runs would
read as a fault of the program.
"""

from __future__ import annotations

from math import lgamma, pi, sin

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import beta as beta_fn
from scipy.special import betainc

# Kolmogorov tail P(sqrt(n) D > 2.3) is about 1e-4
KS_CRIT = 2.3


def stable_constant(alpha: float) -> float:
    return alpha * sin(pi * alpha) / pi


def second_moment_series(alpha: float, beta_hat: float, T, k_max: int = 200):
    """E[Z(0, T)^2] from its Gamma-function closed form, term k being
    (beta_hat C_alpha)^(2k) T^(chi k) Gamma(chi)^(k+1) / Gamma((k+1) chi),
    chi = 2 alpha - 1."""
    chi = 2.0 * alpha - 1.0
    k = np.arange(1, k_max + 1)
    log_t = np.log(np.asarray(T, dtype=float))[..., None]
    logs = (2 * k * np.log(beta_hat * stable_constant(alpha)) + chi * k * log_t
            + (k + 1) * lgamma(chi)
            - np.array([lgamma((j + 1) * chi) for j in k]))
    return 1.0 + np.exp(logs).sum(axis=-1)


def g_marginal_cdf(alpha: float, t1: float, x) -> np.ndarray:
    """P(g_t1 <= x) for the alpha-stable regenerative set on [0, 1]
    conditioned to contain 1.

    The density is sin(pi a)/pi (1-t1)^a x^(a-1) (t1-x)^(-a) / (1-x);
    expanding 1/(1-x) = sum x^k integrates it term by term into
    incomplete Beta functions.
    """
    k = np.arange(160)[:, None]
    z = np.clip(np.asarray(x, dtype=float) / t1, 0.0, 1.0)
    terms = (t1 ** k * beta_fn(alpha + k, 1 - alpha)
             * betainc(alpha + k, 1 - alpha, z))
    return sin(pi * alpha) / pi * (1 - t1) ** alpha * terms.sum(axis=0)


def d_marginal_cdf(alpha: float, t1: float, y) -> np.ndarray:
    """P(d_t1 <= y), same set: density
    sin(pi a)/pi t1^a (1-y)^(a-1) (y-t1)^(-a) / y, with 1/y = sum (1-y)^k."""
    k = np.arange(160)[:, None]
    s = np.clip((np.asarray(y, dtype=float) - t1) / (1 - t1), 0.0, 1.0)
    terms = ((1 - t1) ** k * beta_fn(1 - alpha, alpha + k)
             * betainc(1 - alpha, alpha + k, s))
    return sin(pi * alpha) / pi * t1 ** alpha * terms.sum(axis=0)


def exact_g_law(u: np.ndarray, k: np.ndarray, N: int, t: int) -> np.ndarray:
    """P(g_t = x | N in tau), x = 0..t, as u(x) sum_{y>t} K(y-x) u(N-y) / u(N).

    The sum over y is sum_{j<N-t} u(j) K(N-x-j): one convolution of K
    with the head of u.
    """
    s = fftconvolve(k[:N + 1], u[:N - t])
    return u[:t + 1] * s[N - np.arange(t + 1)] / u[N]


def ks_weighted(values, weights, cdf) -> float:
    """sup |F_hat - F| for the ECDF of values with the given weights."""
    order = np.argsort(values)
    v = values[order]
    w = weights[order] / weights.sum()
    after = np.cumsum(w)
    before = after - w
    F = cdf(v)
    return float(max(np.max(after - F), np.max(F - before)))


def ks_lattice(draws: np.ndarray, law: np.ndarray) -> float:
    """sup |F_hat - F| of integer draws against a law on 0..len(law)-1."""
    counts = np.bincount(draws, minlength=len(law))[:len(law)]
    return float(np.max(np.abs(np.cumsum(counts) / len(draws)
                               - np.cumsum(law))))


def lattice_continuum_distance(law: np.ndarray, N: int, cdf) -> float:
    """sup distance between the step CDF of a law on {0..t}/N and a
    continuous CDF, taken on both sides of every jump."""
    F = np.cumsum(law)
    Fc = cdf(np.arange(len(F)) / N)
    left = np.concatenate([[0.0], F[:-1]])
    return float(max(np.abs(F - Fc).max(), np.abs(left - Fc).max()))


def _mean_one(fails, name, z, k=5.0):
    se = z.std(ddof=1) / np.sqrt(len(z))
    if not abs(z.mean() - 1.0) <= k * se:
        fails.append(f"{name}: mean {z.mean():.5f} not 1 within {k:g} se "
                     f"({se:.2e})")


def _var_series(fails, name, z, target, k=5.0):
    dev2 = (z - z.mean()) ** 2
    se = dev2.std(ddof=1) / np.sqrt(len(z))
    if not abs(z.var() - target) <= k * se:
        fails.append(f"{name}: var {z.var():.5f} vs series {target:.5f} "
                     f"(se {se:.2e})")


def _fractional_moment(z: np.ndarray, gamma: float) -> tuple[float, float]:
    """E[Z^gamma] with Z as control variate (E[Z] = 1 exactly)."""
    zg = np.where(z > 0, z, 0.0) ** gamma
    c = np.cov(zg, z)[0, 1] / z.var()
    adj = zg - c * (z - 1.0)
    return float(adj.mean()), float(adj.std(ddof=1) / np.sqrt(len(adj)))


# ---------------------------------------------------------------------------
# per-workload checks


def check_z_batch(out: dict, p: dict) -> list[str]:
    """out: z_h0 and z_h (R,) at M_big; w_T (R,) the path ends; ladder
    (n_beta, R2) at M_small with common increments."""
    fails = []
    alpha = p["alpha"]
    for name, z in (("z_h0", out["z_h0"]), ("z_h", out["z_h"]),
                    ("ladder", out["ladder"])):
        if not np.all(np.isfinite(z)) or np.any(z <= 0):
            fails.append(f"{name}: {np.sum(~(z > 0))} values not > 0")
    _mean_one(fails, "z_h0", out["z_h0"])
    _var_series(fails, "z_h0", out["z_h0"],
                second_moment_series(alpha, p["beta_big"], 1.0) - 1.0)
    r = p["h_hat"] / p["beta_big"]
    tilt = np.exp(r * out["w_T"] - 0.5 * r * r)
    diff = out["z_h"] - tilt * out["z_h0"]
    # E[tilt] = 1 exactly, and tilt carries most of the variance of diff
    diff = diff - np.cov(diff, tilt)[0, 1] / tilt.var(ddof=1) * (tilt - 1.0)
    se = diff.std(ddof=1) / np.sqrt(len(diff))
    if not abs(diff.mean()) <= 5.0 * se:
        fails.append(f"girsanov: mean diff {diff.mean():.2e} (se {se:.2e})")
    est = []
    for b, z in zip(p["beta_ladder"], out["ladder"]):
        _mean_one(fails, f"ladder {b}", z)
        _var_series(fails, f"ladder {b}", z,
                    second_moment_series(alpha, b, 1.0) - 1.0)
        m, se = _fractional_moment(z, p["gamma"])
        if not m + 4.0 * se < 1.0:
            fails.append(f"ladder {b}: E[Z^gamma] = {m:.6f} not below 1 "
                         f"(se {se:.1e})")
        est.append(m)
    if not all(b < a for a, b in zip(est, est[1:])):
        fails.append(f"E[Z^gamma] not decreasing along the ladder: {est}")
    return fails


def check_pinning_ladder(out: dict, p: dict) -> list[str]:
    """out: rung_<N> (R,) Z_N; small (R,) and small_exact (R,) Z at N <= 16;
    g (n,) integer draws of g_t at t = N0/2 from the beta_hat = 0 sampler
    and law the program's exact law of g_t;
    ks_program (stat, p) and ks_reference (n2,) its reference sample;
    u, k the renewal table and kernel; paths (list of point arrays) of the
    quenched samplers; config_freq and config_prob (m,) for N <= 12."""
    fails = []
    for N in p["ladder"]:
        z = out[f"rung_{N}"]
        if not np.all(np.isfinite(z)) or np.any(z <= 0):
            fails.append(f"rung {N}: Z not finite and positive")
        _mean_one(fails, f"rung {N}", z)
    err = np.max(np.abs(out["small"] / out["small_exact"] - 1.0))
    if not err <= 1e-10:
        fails.append(f"Z_N vs chaos expansion: rel err {err:.1e}")
    u, k, N0 = out["u"], out["k"], p["N0"]
    n = np.arange(1, len(u))
    u_err = np.max(np.abs(u[1:] / (p["c"] * n ** (p["alpha"] - 1.0)) - 1.0))
    conv = fftconvolve(k, u)[1:len(u)]
    if not (u[0] == 1.0 and u_err <= 1e-10 and np.all(k >= 0)
            and np.max(np.abs(conv - u[1:])) <= 1e-10):
        fails.append(f"matched kernel: u off c n^(a-1) by {u_err:.1e} or "
                     "K not a solution of the renewal equation")
    law = exact_g_law(u, k, N0, N0 // 2)
    if not np.allclose(out["law"], law, rtol=1e-9, atol=1e-15):
        fails.append("conditioned_g_law disagrees with the exact g-law")
    g = out["g"]
    D = ks_lattice(g, law)
    if not D * np.sqrt(len(g)) <= KS_CRIT:
        fails.append(f"pinned g draws vs exact law: KS {D:.4f} "
                     f"(n = {len(g)})")
    stat, _ = out["ks_program"]
    ref = np.sort(out["ks_reference"])
    grid = np.concatenate([g, ref])
    own = np.max(np.abs(np.searchsorted(np.sort(g), grid, side="right") / len(g)
                        - np.searchsorted(ref, grid, side="right") / len(ref)))
    if not abs(stat - own) <= 1e-12:
        fails.append(f"ks_two_sample statistic {stat} vs {own}")
    t = p["N_quenched"] // 2
    for pts in out["paths"]:
        i = np.searchsorted(pts, t, side="right")
        if not (pts[0] == 0 and pts[-1] == p["N_quenched"]
                and np.all(np.diff(pts) > 0) and pts[i - 1] <= t < pts[i]):
            fails.append("quenched path not a renewal set through 0 and N")
            break
    freq, prob = out["config_freq"], out["config_prob"]
    m = freq.sum()
    big = prob * m >= 5
    obs = np.concatenate([freq[big], [freq[~big].sum()]])
    exp = np.concatenate([prob[big], [prob[~big].sum()]]) * m
    keep = exp > 0
    chi2 = float(np.sum((obs[keep] - exp[keep]) ** 2 / exp[keep]))
    dof = int(keep.sum()) - 1
    # a Wilson-Hilferty 5-sigma bound on a chi-square with dof degrees
    bound = dof * (1 - 2 / (9 * dof) + 5 * np.sqrt(2 / (9 * dof))) ** 3
    if not chi2 <= bound:
        fails.append(f"quenched configurations: chi2 {chi2:.1f} > {bound:.1f} "
                     f"({dof} dof)")
    return fails


def check_exact_laws(out: dict, p: dict) -> list[str]:
    """out: per rung N, u_<N> and k_<N> (matched kernel and its renewal
    table) and glaw_<N>; ratio_1e5 the renewal-theorem ratio and u_1e5, k_1e5;
    smooth (passed, delta); bessel_k, bessel_u, bessel_sf, violation."""
    fails = []
    alpha, c = p["alpha"], p["c"]
    dists = []
    for N in p["ladder"]:
        u, k, law = out[f"u_{N}"], out[f"k_{N}"], out[f"glaw_{N}"]
        n = np.arange(1, N + 1)
        err = np.max(np.abs(u[1:] / (c * n ** (alpha - 1.0)) - 1.0))
        if not (u[0] == 1.0 and err <= 1e-10 and np.all(k >= 0)):
            fails.append(f"rung {N}: u off c n^(a-1) by {err:.1e} or K < 0")
        t = N // 2
        atom = u[t] * u[N - t] / u[N]
        if not (abs(law.sum() - 1.0) <= 1e-10 and abs(law[-1] - atom) <= 1e-12
                and np.all(law >= -1e-15)):
            fails.append(f"rung {N}: g-law sum {law.sum():.12f}, atom "
                         f"{law[-1]:.12f} vs {atom:.12f}")
        dists.append(lattice_continuum_distance(
            law, N, lambda x: g_marginal_cdf(alpha, 0.5, x)))
    slope = np.polyfit(np.log(p["ladder"]), np.log(dists), 1)[0]
    if not (abs(slope - (alpha - 1.0)) <= 0.05
            and all(b < a for a, b in zip(dists, dists[1:]))):
        fails.append(f"g-law distance to the continuum: slope {slope:.3f}, "
                     f"distances {dists}")
    u, k = out["u_1e5"], out["k_1e5"]
    n = len(u) - 1
    ratio = u[n] * n ** (1 + alpha) * k[n] * n ** (1 - alpha) / stable_constant(alpha)
    if not (abs(ratio - 1.0) <= 0.1 and abs(out["ratio_1e5"] - ratio) <= 1e-12):
        fails.append(f"renewal ratio at {n}: {ratio:.4f}, reported "
                     f"{out['ratio_1e5']:.4f}")
    head = min(n, 8192)
    conv = fftconvolve(k[:head + 1], u[:head + 1])[1:head + 1]
    if not np.max(np.abs(conv - u[1:head + 1])) <= 1e-12:
        fails.append("u(n) does not solve the renewal equation")
    passed, delta = out["smooth"]
    if not (passed and delta >= 0.05):
        fails.append(f"smoothness fit failed: delta {delta:.3f}")
    bk, bu, sf = out["bessel_k"], out["bessel_u"], out["bessel_sf"]
    nb = len(bu) - 1
    ns = np.arange(max(nb // 20, 8), nb + 1)
    fit = -np.polyfit(np.log(ns), np.log(bk[ns]), 1)[0] - 1.0
    if not abs(fit - alpha) <= 0.05:
        fails.append(f"Bessel return law: fitted alpha {fit:.4f}")
    cs = np.concatenate([[0.0], np.cumsum(bu)])
    worst = 0.0
    for m in np.unique(np.geomspace(8, (4 * nb) // 5, 20).astype(int)):
        ls = np.arange(0, max(m // 4, 1) + 1)
        diff = bu[m] - bu[m + ls]
        worst = max(worst, np.max(-diff), np.max(diff - bu[m] * sf[m] * cs[ls]))
    if not (worst <= 1e-10 and out["violation"] <= 1e-10):
        fails.append(f"coupling bound violated by {worst:.1e} "
                     f"(reported {out['violation']:.1e})")
    return fails


def check_quenched_paths(out: dict, p: dict) -> list[str]:
    """out: weights (R,) Z(0, T); masses (R,) table masses; xs, ys (R, m)
    draws of (g, d) at t1; ks_program (2,) the program's weighted KS
    statistics; f2, f8, dv (P,) martingale values and predicted log-decay
    inputs; spans2, spans8 (list of block-span arrays); box (D, L)
    box counts and cover (D, L) covering sums at the same levels."""
    fails = []
    alpha, t1 = p["alpha"], p["t1"]
    w, mass = out["weights"], out["masses"]
    if not (np.all(w > 0) and np.all(np.abs(mass - w) <= 1e-2 * w)):
        fails.append(f"table mass off Z(0, T) by up to "
                     f"{np.max(np.abs(mass / w - 1)):.2e}")
    xs, ys = out["xs"], out["ys"]
    if not (np.all(0 <= xs) and np.all(xs <= t1) and np.all(t1 < ys)
            and np.all(ys <= 1.0)):
        fails.append("draws violate 0 <= g <= t1 < d <= T")
    ww = np.repeat(w, xs.shape[1])
    ess = w.sum() ** 2 / np.sum(w ** 2)
    for (name, vals, cdf), (stat, _, p_ess) in zip(
            (("g", xs, g_marginal_cdf), ("d", ys, d_marginal_cdf)),
            out["ks_program"]):
        D = ks_weighted(vals.ravel(), ww, lambda v: cdf(alpha, t1, v))
        if not D * np.sqrt(ess) <= KS_CRIT:
            fails.append(f"weighted KS of {name} vs the reference law: "
                         f"{D:.4f} (ess {ess:.0f})")
        # the program takes the sup on the reference table's grid only, and
        # its reference CDF is a quadrature of the closed form
        if not (stat <= D + 1e-3 and abs(p_ess - ess) <= 1e-9 * ess):
            fails.append(f"weighted_ks of {name}: statistic {stat:.4f} above "
                         f"{D:.4f} or ess {p_ess:.3f} vs {ess:.3f}")
    _mean_one(fails, "weights", w)
    f2, f8 = out["f2"], out["f8"]
    if not (np.all(np.isfinite(f2)) and np.all(f2 > 0) and np.all(f8 > 0)):
        fails.append("martingale values not finite and positive")
    else:
        var = lambda s: float(np.sum(second_moment_series(
            alpha, p["beta_mart"], s[s > 0]) - 1.0))
        dv = np.array([var(b) - var(a)
                       for a, b in zip(out["spans2"], out["spans8"])])
        if not np.allclose(dv, out["dv"], rtol=1e-9, atol=1e-14):
            fails.append("block_variance_sum disagrees with the series")
        logr = np.log(f8 / f2)
        se = logr.std(ddof=1) / np.sqrt(len(logr))
        pred = -0.5 * dv.mean()
        if not abs(logr.mean() - pred) <= 4.0 * se:
            fails.append(f"mean log(f8/f2) {logr.mean():.4f} vs predicted "
                         f"{pred:.4f} (se {se:.4f})")
    levels = np.array(p["levels"], dtype=float)
    box, cover = out["box"], out["cover"]
    slopes = [np.polyfit(levels, np.log2(b), 1)[0] for b in box]
    if not abs(np.median(slopes) - alpha) <= 0.1:
        fails.append(f"median box-count slope {np.median(slopes):.3f}")
    # a block's span is at most its width
    if not np.all(cover <= box * 2.0 ** (-levels * (2 * alpha - 1)) * (1 + 1e-12)):
        fails.append("covering sum exceeds box count x width^(2a-1)")
    return fails


CHECKS = {
    "z-batch": check_z_batch,
    "pinning-ladder": check_pinning_ladder,
    "exact-laws": check_exact_laws,
    "quenched-paths": check_quenched_paths,
}
