"""Statistical machinery and the experiment suite.

Plain tests (two-sample KS, weighted one-sample KS with a two-level
bootstrap, Dirichlet integral identities) plus four experiments that turn
the qualitative limit statements into pass/fail numerical checks:
convergence of discrete partition functions and pinned sets to their
continuum counterparts, absolute continuity of the averaged continuum
measure, singularity diagnostics (fractional moments, martingale decay,
covering sums), and the structural properties of the continuum partition
function (scaling, translation invariance, renewal identity, positivity).

Every experiment is a pure function of (config, seed): reports are
bit-reproducible, with wall-clock time stored separately from the
reproducible payload.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.special import gammaincinv, gammaln, kolmogi, kolmogorov

from pinning_lab import closed_sets as cs
from pinning_lab import continuum as ct
from pinning_lab import discrete_pinning as dp
from pinning_lab import renewal as rn
from pinning_lab.rng import stream


# ---------------------------------------------------------------------------
# report plumbing


def report_json(payload: dict) -> str:
    """The report encoding: sorted keys, numpy values as Python ones, and a
    NaN or an infinity is a ValueError (they are not JSON)."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False,
                      default=lambda x: x.tolist())


@dataclass
class ExperimentReport:
    """Self-contained record of one experiment run."""

    experiment: str
    config: dict
    seed: int
    estimates: dict = field(default_factory=dict)
    tests: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    wall_clock: float = 0.0

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_json(self, include_wall_clock: bool = True) -> str:
        d = asdict(self)
        d["passed"] = self.passed
        if not include_wall_clock:
            # wall-clock is the one field that is not a pure function of
            # (config, seed); reproducibility comparisons drop it
            d.pop("wall_clock")
        return report_json(d)


def _bound(low, default, high=np.inf, closed=False):
    """A config field's default with its bound beside it: the value, or each
    entry of a tuple, which must not be empty, is at least low (an int low,
    or closed), or lies strictly between a float low and high."""
    return field(default=default, metadata={
        "bound": (low, high, closed or isinstance(low, int))})


def _check_bounds(cfg) -> None:
    """Refuse, naming the field, the first value outside its bound."""
    for f in (f for f in fields(cfg) if "bound" in f.metadata):
        low, high, closed = f.metadata["bound"]
        val = getattr(cfg, f.name)
        vals = val if isinstance(val, tuple) else (val,)
        need = f">= {low:g}" if closed else f"in ({low:g}, {high:g})"
        if not (vals and all(low <= v if closed else low < v < high
                             for v in vals)):
            raise ValueError(f"need one or more {f.name} entries, each {need}"
                             if vals is val else f"need {f.name} {need}")


def _normal_chunks(rng: np.random.Generator, R: int, M: int):
    """The cell increments of R unit-horizon paths on M cells, drawn
    PATH_CHUNK rows at a time just before each is solved: bit for bit the
    rows of rng.standard_normal((R, M)) / sqrt(M)."""
    for i in range(0, R, ct.PATH_CHUNK):
        yield rng.standard_normal((min(ct.PATH_CHUNK, R - i), M)) / np.sqrt(M)


def _experiment(name: str, config_cls):
    """experiment_*(config=None, seed=0): each config bound checked before
    any work, then the report built, filled by body(rep, cfg, seed), timed."""
    def wrap(body):
        @functools.wraps(body)
        def run(config=None, seed: int = 0) -> ExperimentReport:
            cfg = config or config_cls()
            _check_bounds(cfg)
            t0 = time.perf_counter()
            rep = ExperimentReport(name, asdict(cfg), seed)
            body(rep, cfg, seed)
            rep.wall_clock = time.perf_counter() - t0
            return rep
        run.name, run.config = name, config_cls
        return run
    return wrap


# ---------------------------------------------------------------------------
# tests


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sample KS statistic sup |F_a - F_b| and its two-sided p-value
    under the null that both samples are i.i.d. from one continuous law.

    scipy's ks_2samp with its default method "auto" computes the exact
    p-value (Hodges' lattice-path count) when both samples have at most
    10,000 points, which every call in the package meets, and Smirnov's
    asymptotic law above that (or if the exact count fails, with a
    RuntimeWarning)."""
    from scipy.stats import ks_2samp  # scipy.stats takes ~0.6 s to import
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < 30 or len(b) < 30:
        raise ValueError("need at least 30 points per sample")
    res = ks_2samp(a, b)
    return float(res.statistic), float(res.pvalue)


def _weighted_ecdf_on_grid(values: np.ndarray, weights: np.ndarray,
                           grid_x: np.ndarray) -> np.ndarray:
    """Weighted ECDF of (R, m) values evaluated at grid_x; weights (R,)
    apply per outer replica. Dividing the cumulated weights by their own
    total makes the ECDF end at exactly 1."""
    flat = values.ravel()
    order = np.argsort(flat)
    idx = np.searchsorted(flat[order], grid_x, side="right")
    w = np.repeat(weights, values.shape[1])[order]
    cum = np.concatenate([[0.0], np.cumsum(w)])
    return cum[idx] / cum[-1]


def weighted_ks(values, weights, grid_x, grid_F,
                rng: np.random.Generator, n_boot: int = 200):
    """Weighted one-sample KS against a tabulated CDF, bootstrap p-value.

    The statistic is the sup gap between the weighted ECDF and the
    reference CDF on the grid. The null scale is estimated by a replica
    bootstrap centered at the observed ECDF: draws within a replica are
    correlated through the shared disorder, so only whole replicas are
    resampled, which keeps the two-level structure intact. The replicates
    are one (n_boot x R)(R x grid) product of multiplicities, one
    rng.integers(0, R, R) draw each, and weighted counts (grid_x increasing).

    Returns (statistic, p, effective_sample_size).
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.ndim != 2 or len(weights) != values.shape[0]:
        raise ValueError("values must be (R, m) with one weight per row")
    R, m = values.shape
    ehat = _weighted_ecdf_on_grid(values, weights, grid_x)
    stat = float(np.max(np.abs(ehat - grid_F)))
    ess = float(weights.sum() ** 2 / np.sum(weights ** 2))
    G = len(grid_x)  # replica counts at or below each grid point, then all m
    bins = np.searchsorted(grid_x, values) + (G + 1) * np.arange(R)[:, None]
    wc = np.bincount(bins.ravel(), minlength=R * (G + 1)).reshape(R, G + 1)
    mult = np.array([np.bincount(rng.integers(0, R, R), minlength=R)
                     for _ in range(n_boot)]).reshape(n_boot, R)
    eb = mult @ (np.cumsum(wc, axis=1) * weights[:, None])
    gap = np.max(np.abs(eb[:, :G] / eb[:, G:] - ehat), axis=1)
    p = (np.count_nonzero(gap >= stat) + 1) / (n_boot + 1)
    return stat, float(p), ess


# ---------------------------------------------------------------------------
# Dirichlet integral identities


@dataclass(frozen=True)
class DirichletCheck:
    chi: float
    k: int
    numeric: float
    closed_form: float
    rel_err: float
    c1: float
    c2: float
    bound_ok: bool
    two_block_constant: float
    two_block_ok: bool


def _dirichlet_closed_form(chi: float, k: int) -> float:
    return float(np.exp((k + 1) * gammaln(1.0 - chi)
                        - gammaln((k + 1) * (1.0 - chi))))


def _dirichlet_quadrature(chi: float, k: int) -> float:
    """Ordered-simplex integral of the product of gap powers, k <= 2."""
    from scipy import integrate  # it loads scipy.optimize and sparse.linalg
    if k == 1:
        val, _ = integrate.quad(lambda t: 1.0, 0, 1, weight="alg",
                                wvar=(-chi, -chi))
        return val

    def inner(t2):
        v, _ = integrate.quad(lambda t1: 1.0, 0, t2, weight="alg",
                              wvar=(-chi, -chi))
        return v

    val, _ = integrate.quad(inner, 0, 1, weight="alg", wvar=(0.0, -chi))
    return val


def _dirichlet_qmc(chi: float, k: int, seed: int, log2_n: int = 18) -> float:
    """Quasi-MC estimate via importance sampling from a symmetric
    Dirichlet(a) law with a = 1 - chi/2, which keeps the weight
    prod x_i^(-chi/2) square-integrable."""
    from scipy.stats import qmc
    a = 1.0 - chi / 2.0
    sob = qmc.Sobol(d=k + 1, scramble=True, seed=seed)
    u = sob.random_base2(log2_n)
    u = np.clip(u, 1e-12, 1 - 1e-12)
    g = gammaincinv(a, u)  # Gamma(a) quantiles
    x = g / g.sum(axis=1, keepdims=True)
    w = np.prod(x ** (1.0 - a - chi), axis=1)
    const = np.exp((k + 1) * gammaln(a) - gammaln((k + 1) * a))
    return float(const * w.mean())


def _dirichlet_two_block(chi: float, v: float) -> float:
    """k1 = k2 = 1 variant: 0 < t1 < v < t2 < 1."""
    from scipy import integrate

    def inner(t2):
        val, _ = integrate.quad(lambda t1: (t2 - t1) ** -chi, 0, v,
                                weight="alg", wvar=(-chi, 0.0))
        return val

    val, _ = integrate.quad(inner, v, 1, weight="alg", wvar=(0.0, -chi))
    return val


def dirichlet_integral_check(chi: float, k: int,
                             seed: int = 0) -> DirichletCheck:
    """Numeric vs closed-form ordered-simplex integral, plus the
    superexponential bound and the two-block refinement."""
    if not 0.0 <= chi < 1.0:
        raise ValueError("need chi in [0, 1)")
    if not 1 <= k <= 4:
        raise ValueError("need 1 <= k <= 4")
    closed = _dirichlet_closed_form(chi, k)
    if k <= 2:
        numeric = _dirichlet_quadrature(chi, k)
    else:
        numeric = _dirichlet_qmc(chi, k, seed)
    rel_err = abs(numeric - closed) / closed
    # fit closed_form(k) <= c1 exp(-c2 k log k); the decay is asymptotic,
    # so fit the rate on the large-k tail and inflate c1 to cover the head
    ks = np.arange(1, 41)
    y = np.array([np.log(_dirichlet_closed_form(chi, kk)) for kk in ks])
    klogk = ks * np.log(ks)
    tail = ks >= 10
    design = np.column_stack([np.ones(tail.sum()), -klogk[tail]])
    coef, *_ = np.linalg.lstsq(design, y[tail], rcond=None)
    c2 = float(coef[1])
    c1 = float(np.exp(np.max(y + c2 * klogk)))
    bound_ok = c2 > 0
    # two-block refinement at k1 = k2 = 1: the integral divided by the
    # profile v^(1-chi) (1-v)^(1-chi) must stay bounded in v
    vs = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    ratios = np.array([_dirichlet_two_block(chi, v)
                       / (v * (1 - v)) ** (1.0 - chi) for v in vs])
    two_block_constant = float(ratios.max())
    two_block_ok = bool(np.all(np.isfinite(ratios))
                        and ratios.max() / ratios.min() < 100.0)
    return DirichletCheck(chi=chi, k=k, numeric=numeric, closed_form=closed,
                          rel_err=float(rel_err), c1=c1, c2=c2,
                          bound_ok=bool(bound_ok),
                          two_block_constant=two_block_constant,
                          two_block_ok=two_block_ok)


# ---------------------------------------------------------------------------
# shared helpers for the experiments


def _marginal_cdf_tables(alpha: float, T: float, t1: float):
    """CDF grids of the two coordinates of the conditioned k = 1 reference
    law, from the exactly integrated cell-mass table.

    Returns (xe, Fx, ye, Fy): edges and cumulative masses, normalized."""
    m, xe, ye = ct.reference_fdd_table(alpha, T, t1)
    mx = m.sum(axis=1)
    my = m.sum(axis=0)
    Fx = np.concatenate([[0.0], np.cumsum(mx)])
    Fy = np.concatenate([[0.0], np.cumsum(my)])
    return xe, Fx / Fx[-1], ye, Fy / Fy[-1]


def _cdpm_draws(spec: ct.ChaosSpec, t1: float, grid: int, R: int, n: int,
                rng: np.random.Generator):
    """R environments, each followed in the stream by the 3 n uniforms of its
    n quenched (g_t1, d_t1) draws; then one sampler over all of them.
    Returns (sampler, zeval, path, (R, n, 2) draws)."""
    ws, us = [], []
    for _ in range(R):
        ws.append(ct.sample_brownian(spec.T, spec.M, rng).w)
        us.append(rng.random((3, n)))
    path = ct.BrownianPath(spec.T, spec.M, np.array(ws))
    ze = ct.ZEvaluator(spec, path)
    sampler = ct.CdpmFddSampler(ze, t1, grid=grid)
    return sampler, ze, path, sampler.draw(np.array(us))


# ---------------------------------------------------------------------------
# experiment: convergence


@dataclass(frozen=True)
class ConvergenceConfig:
    alpha: float = 0.75
    beta_hat: float = 0.5
    h_hat: float = 0.0
    T: float = _bound(0.0, 1.0)
    t1: float = 0.5
    n_ladder: tuple = _bound(2, (512, 1024, 2048))
    replicas: tuple = _bound(30, (3000, 2000, 1500))
    pinned_replicas: int = _bound(1, 10_000)
    continuum_replicas: int = _bound(30, 4000)
    continuum_M: int = _bound(2, 2048)
    fdd_replicas: int = _bound(30, 250)
    disorder: str = "standard-normal"
    ks_threshold: float = _bound(0.0, 0.001, 1.0)


def _ks_p(stat: float, n: int) -> float:
    """Asymptotic one-sample KS p-value (conservative for a lattice law)."""
    return float(kolmogorov(stat * np.sqrt(n)))


def _pinned_g_tests(rep: ExperimentReport, cfg: ConvergenceConfig,
                    rf: rn.RenewalFunction, gs: np.ndarray) -> None:
    """Pinned g_{t1} draws against the exact discrete law, and that law
    against the continuum marginal along the N-ladder.

    The discrete law has an atom P(g = t) = u(t) u(N-t) / u(N) of order
    N^(alpha-1) where the continuum CDF is continuous, so the sup-distance
    between the two is at least the atom and decays like N^(alpha-1).
    """
    xe, Fx, _, _ = _marginal_cdf_tables(cfg.alpha, cfg.T, cfg.t1)
    rows = []
    for N in cfg.n_ladder:
        law = rn.conditioned_g_law(rf, N, int(cfg.t1 * N))
        F = np.cumsum(law)
        Fc = np.interp(np.arange(len(F)) / N, xe, Fx)
        # step CDF against a continuous one: the sup sits at a lattice
        # point, on one side of the jump there
        left = np.concatenate([[0.0], F[:-1]])
        dist = max(np.abs(F - Fc).max(), np.abs(left - Fc).max())
        rows.append({"N": N, "distance": float(dist),
                     "lattice_atom": float(law[-1])})
    # draws against the exact law at the top rung (the last F), on the
    # lattice points
    n = len(gs)
    counts = np.bincount(np.rint(gs * cfg.n_ladder[-1]).astype(np.int64),
                         minlength=len(F))
    stat = float(np.max(np.abs(np.cumsum(counts) / n - F)))
    p = _ks_p(stat, n)
    rep.tests["pinned_g_ks"] = {"stat": stat, "p": p}
    rep.verdicts["pinned_g_ks"] = p > cfg.ks_threshold
    # the same draws against the continuum marginal: reported, not gated,
    # since its statistic cannot fall below the lattice atom
    Fs = np.interp(np.sort(gs), xe, Fx)
    stat_c = float(np.max(np.maximum(np.abs(np.arange(1, n + 1) / n - Fs),
                                     np.abs(np.arange(n) / n - Fs))))
    rep.tests["pinned_g_continuum_ks"] = {
        "stat": stat_c, "p": _ks_p(stat_c, n),
        "exact_distance": rows[-1]["distance"],
        "lattice_atom": rows[-1]["lattice_atom"]}
    ladder = {"rows": rows, "rate": None, "predicted_rate": cfg.alpha - 1.0}
    if len(rows) > 1:
        dists = [r["distance"] for r in rows]
        rate = float(np.polyfit(np.log(cfg.n_ladder), np.log(dists), 1)[0])
        # N at which the exact distance falls to the KS critical value of
        # this many draws, extrapolated at the fitted rate
        crit = kolmogi(cfg.ks_threshold) / np.sqrt(n)
        ladder["rate"] = rate
        ladder["n_for_continuum_ks"] = float(
            cfg.n_ladder[-1] * (crit / dists[-1]) ** (1.0 / rate))
        rep.verdicts["pinned_g_converges"] = bool(
            all(b < a for a, b in zip(dists, dists[1:]))
            and abs(rate - (cfg.alpha - 1.0)) <= 0.05)
    rep.tests["pinned_g_exact_ladder"] = ladder


@_experiment("convergence", ConvergenceConfig)
def experiment_convergence(rep, cfg, seed):
    """Discrete-to-continuum convergence ladder.

    beta_hat = 0, which needs h_hat = 0: the sampled pinned g_{t1} at the
    largest N must pass a KS test against its exact discrete law (the
    sampler check), and the sup distance from that exact law to the
    continuum marginal must fall strictly along the N-ladder at the rate
    N^(alpha-1) (the convergence check). A sampled KS against the
    continuum marginal cannot gate: the lattice atom at g = t (0.105 at
    N = 2048) bounds its statistic from below, so it is reported beside
    the exact distance instead.
    beta_hat > 0: KS between Z_N and the continuum Z must be non-increasing
    along the N-ladder, with the N-largest mean and variance matching 1 and
    the second-moment series.
    """
    if cfg.beta_hat == 0.0 and cfg.h_hat != 0.0:
        raise ValueError("beta_hat = 0 checks the h = 0 law; need h_hat = 0")
    if len(cfg.n_ladder) != len(cfg.replicas):
        raise ValueError("need one replicas entry per n_ladder rung")
    if not 0.0 < cfg.t1 < cfg.T:
        raise ValueError("need 0 < t1 < T")
    n_top = cfg.n_ladder[-1]
    # the matched kernel removes the O(N^(alpha-1)) slowly varying
    # corrections of a generic kernel's renewal function, which otherwise
    # dominate the distance to the continuum limit at desk-scale N
    kernel = rn.matched_power_kernel(cfg.alpha, n_top)
    rf = rn.renewal_function(kernel, n_top)

    if cfg.beta_hat == 0.0:
        # disorder-free pinned set: one sampler reused for all replicas
        disorder = dp.DisorderField(omega=np.zeros(n_top - 1),
                                    distribution=cfg.disorder)
        sampler = dp.build_pinned_sampler(kernel, disorder, 0.0, 0.0, n_top)
        rng = stream(seed, 0)
        t_site = cfg.t1 * n_top
        gs = np.empty(cfg.pinned_replicas)
        for i in range(cfg.pinned_replicas):
            tau = sampler.sample(rng)
            gs[i] = cs.g_map(tau, t_site) / n_top
        rep.estimates["g_mean"] = float(gs.mean())
        rep.estimates["pinned_underflows"] = int(sampler.underflow)
        rep.estimates["pinned_norm_error"] = sampler.norm_error
        _pinned_g_tests(rep, cfg, rf, gs)
        return

    # continuum target sample
    spec = ct.ChaosSpec(alpha=cfg.alpha, beta_hat=cfg.beta_hat,
                        h_hat=cfg.h_hat, T=cfg.T, M=cfg.continuum_M)
    rng_c = stream(seed, 1)
    inc = rng_c.standard_normal((cfg.continuum_replicas, cfg.continuum_M)) \
        * np.sqrt(cfg.T / cfg.continuum_M)
    z_cont = ct.z_point_batch(spec, inc, 0.0, spec.T)

    ladder = []
    for i, (N, R) in enumerate(zip(cfg.n_ladder, cfg.replicas)):
        rng_d = stream(seed, 10 + i)
        scale = dp.scale_couplings(cfg.beta_hat, cfg.h_hat, N, kernel)
        om = dp.sample_disorder(cfg.disorder, (R, N - 1), rng_d).omega
        zn = dp.partition_dp_batch(kernel, rf, om, cfg.disorder,
                                   scale.beta_N, scale.h_N, N)
        stat, p = ks_two_sample(zn, z_cont)
        ladder.append({"N": N, "ks": stat, "p": p,
                       "mean": float(zn.mean()), "var": float(zn.var())})
    rep.tests["ladder"] = ladder
    # two asymptotic standard errors of a rung's KS statistic, each
    # 0.5 sqrt(1/n1 + 1/n2)
    slack = max(np.sqrt(1.0 / R + 1.0 / cfg.continuum_replicas)
                for R in cfg.replicas)
    ks_vals = [row["ks"] for row in ladder]
    rep.verdicts["ks_non_increasing"] = all(
        ks_vals[i + 1] <= ks_vals[i] + slack for i in range(len(ks_vals) - 1))
    # largest-N moments vs the continuum targets
    R_top = cfg.replicas[-1]
    zn_top = ladder[-1]
    series = ct.z_second_moment_series(cfg.alpha, cfg.beta_hat, cfg.T)
    var_target = series - 1.0
    se_mean = np.sqrt(zn_top["var"] / R_top)
    se_var = zn_top["var"] * np.sqrt(2.0 / R_top) * 2.0
    rep.estimates["var_series_target"] = var_target
    rep.verdicts["mean_matches"] = abs(zn_top["mean"] - 1.0) < 3 * se_mean
    rep.verdicts["var_matches"] = abs(zn_top["var"] - var_target) < 3 * se_var

    # measure convergence: averaged (g, d) laws at the largest N
    rng_f = stream(seed, 20)
    scale = dp.scale_couplings(cfg.beta_hat, cfg.h_hat, n_top, kernel)
    g_d, d_d = np.empty((2, cfg.fdd_replicas))
    rep.estimates.update(pinned_underflows=0, pinned_norm_error=0.0)
    for i in range(cfg.fdd_replicas):
        dis = dp.sample_disorder(cfg.disorder, n_top - 1, rng_f)
        smp = dp.build_pinned_sampler(kernel, dis, scale.beta_N, scale.h_N,
                                      n_top)
        rep.estimates["pinned_underflows"] += smp.underflow
        tau = smp.sample(rng_f)
        rep.estimates["pinned_norm_error"] = max(
            rep.estimates["pinned_norm_error"], smp.norm_error)
        g_d[i] = cs.g_map(tau, cfg.t1 * n_top) / n_top
        d_d[i] = cs.d_map(tau, cfg.t1 * n_top) / n_top
    spec_f = ct.ChaosSpec(alpha=cfg.alpha, beta_hat=cfg.beta_hat,
                          h_hat=cfg.h_hat, T=cfg.T, M=512)
    *_, pairs = _cdpm_draws(spec_f, cfg.t1, 128, cfg.fdd_replicas, 1, rng_f)
    g_c, d_c = pairs[:, 0].T
    for name, a, b in (("fdd_g_ks", g_d, g_c), ("fdd_d_ks", d_d, d_c)):
        stat, p = ks_two_sample(a, b)
        rep.tests[name] = {"stat": stat, "p": p}
        rep.verdicts[name] = p > cfg.ks_threshold


# ---------------------------------------------------------------------------
# experiment: averaged absolute continuity


@dataclass(frozen=True)
class AveragedConfig:
    alpha: float = 0.75
    beta_hat: float = 0.5
    h_hat: float = 0.0
    T: float = _bound(0.0, 1.0)
    t1: float = 0.4
    M: int = _bound(2, 512)
    w_replicas: int = _bound(2, 2000)
    draws: int = _bound(1, 16)
    grid: int = _bound(1, 128)
    n_boot: int = _bound(1, 200)
    ks_threshold: float = _bound(0.0, 0.001, 1.0)


@_experiment("averaged-abs-continuity", AveragedConfig)
def experiment_averaged_abs_continuity(rep, cfg, seed):
    """Importance-weighted continuum (g, d) law vs the reference law.

    Each disorder replica contributes draws from its quenched sampler with
    weight Z(0, T); the weighted empirical marginals must match the
    disorder-free reference, which is the absolute-continuity statement
    made quantitative. h_hat != 0 enters through the Girsanov factor.
    Each weighted_ks_* verdict tests the null that the weighted marginal is
    the reference one: sqrt(ESS) D must not exceed kolmogi(ks_threshold),
    the asymptotic one-sample KS critical value. ESS counts replicas, each
    worth at least one independent point, so the gate is conservative; the
    bootstrap p, at least 1/(n_boot + 1), is reported but does not gate.
    The report carries the largest renewal-identity residual and the largest
    clipped mass of any one table (CdpmFddSampler's health counters), and
    the residual's disorder-free floor, |sum of the reference masses - 1|."""
    if not 0.0 < cfg.t1 < cfg.T:
        raise ValueError("need 0 < t1 < T")
    spec = ct.ChaosSpec(alpha=cfg.alpha, beta_hat=cfg.beta_hat,
                        h_hat=cfg.h_hat, T=cfg.T, M=cfg.M)
    sampler, ze, path, pairs = _cdpm_draws(spec, cfg.t1, cfg.grid,
                                           cfg.w_replicas, cfg.draws,
                                           stream(seed, 0))
    xs, ys = pairs[..., 0], pairs[..., 1]
    w = ze.z0T()
    if cfg.h_hat != 0.0:
        w = w * ct.girsanov_tilt(path, cfg.beta_hat, cfg.h_hat)
    xe, Fx, ye, Fy = _marginal_cdf_tables(cfg.alpha, cfg.T, cfg.t1)
    rng_b = stream(seed, 1)
    for name, vals, gx, gF in (("g", xs, xe, Fx), ("d", ys, ye, Fy)):
        stat, p, ess = weighted_ks(vals, w, gx, gF, rng_b,
                                   n_boot=cfg.n_boot)
        scaled = float(np.sqrt(ess) * stat)
        rep.tests[f"weighted_ks_{name}"] = {"stat": stat, "p": p,
                                            "sqrt_ess_stat": scaled}
        rep.verdicts[f"weighted_ks_{name}"] = scaled <= kolmogi(
            cfg.ks_threshold)
    rep.estimates["ess"] = ess
    rep.estimates["max_table_residual"] = float(sampler.residual.max())
    rep.estimates["table_residual_floor"] = abs(float(sampler.ref.sum()) - 1.0)
    rep.estimates["clipped_mass"] = float(sampler.clipped.max())
    rep.verdicts["ess_reliable"] = ess >= 100
    se_w = w.std() / np.sqrt(len(w))
    rep.estimates["mean_weight"] = float(w.mean())
    rep.verdicts["mean_weight_one"] = abs(w.mean() - 1.0) < 3 * se_w


# ---------------------------------------------------------------------------
# experiment: singularity


@dataclass(frozen=True)
class SingularityConfig:
    alpha: float = 0.75
    gamma: float = 0.4
    beta_ladder: tuple = _bound(0.0, (0.1, 0.2, 0.4))
    replicas: int = _bound(2, 10_000)
    M: int = _bound(2, 1024)
    martingale_beta: float = _bound(0.0, 1.0, closed=True)
    martingale_pairs: int = _bound(2, 300)  # the log ratios' standard error
    martingale_M: int = _bound(2, 2048)
    levels: tuple = _bound(1, (2, 8))
    covering_draws: int = _bound(1, 400)
    covering_levels: tuple = _bound(1, tuple(range(6, 15)))
    regen_depth: int = _bound(1, 18)


@_experiment("singularity", SingularityConfig)
def experiment_singularity(rep, cfg, seed):
    """Fractional moments, martingale decay, and covering-sum growth.

    Martingale decay: log(f_hi / f_lo) over (set, environment) pairs must
    have a mean below 0 by 3 standard errors, and within 3 standard errors
    of its second-order prediction -(1/2) sum_j [Var Z(a_j, b_j)] between
    the two levels, from the second-moment series on each block span.
    No fixed threshold on the median is derived from the theory: at
    beta_hat = 1 and levels (2, 8) the predicted median is about 0.89.
    """
    if cfg.regen_depth < max(cfg.covering_levels):
        raise ValueError("need regen_depth >= the largest covering_levels")
    if len(cfg.levels) != 2 or cfg.levels[0] >= cfg.levels[1]:
        raise ValueError("need two levels, low < high")

    # (a) fractional moments over the beta ladder, common random numbers:
    # each chunk of paths goes through the whole ladder
    specs = [ct.ChaosSpec(alpha=cfg.alpha, beta_hat=b, M=cfg.M)
             for b in cfg.beta_ladder]
    chunks = [[ct.z_point_batch(spec, inc, 0.0, spec.T) for spec in specs]
              for inc in _normal_chunks(stream(seed, 0), cfg.replicas, cfg.M)]
    frac = []
    for b, z in zip(cfg.beta_ladder, map(np.concatenate, zip(*chunks))):
        # Z <= 0 enters as 0; z_nonpositive counts those replicas
        zg = np.where(z > 0, z, 0.0) ** cfg.gamma
        # control variate: E[Z] = 1 exactly, and Z^gamma is strongly
        # correlated with Z at small couplings, so the regression-adjusted
        # estimator resolves the tiny 1 - E[Z^gamma] gap
        c = float(np.cov(zg, z)[0, 1] / z.var())
        adj = zg - c * (z - 1.0)
        est, se = float(adj.mean()), float(adj.std() / np.sqrt(len(adj)))
        frac.append({"beta_hat": b, "estimate": est, "se": se,
                     "gap_coeff": (1.0 - est) / b ** 2,
                     "z_nonpositive": int(np.sum(z <= 0))})
    rep.tests["fractional_moments"] = frac
    rep.verdicts["frac_below_one"] = all(
        row["estimate"] < 1.0 - 3 * row["se"] for row in frac)
    ests = [row["estimate"] for row in frac]
    rep.verdicts["frac_decreasing"] = all(
        ests[i + 1] < ests[i] for i in range(len(ests) - 1))

    # (b) martingale decay over (tau-bar, W) pairs
    rng_m = stream(seed, 1)
    n_lo, n_hi = cfg.levels
    spec_m = ct.ChaosSpec(alpha=cfg.alpha, beta_hat=cfg.martingale_beta,
                          M=cfg.martingale_M)
    regens, ws = [], []
    for _ in range(cfg.martingale_pairs):
        regens.append(ct.sample_regen_conditioned(cfg.alpha, 1.0, n_hi + 2,
                                                  rng_m))
        ws.append(ct.sample_brownian(1.0, cfg.martingale_M, rng_m).w)
    ze = ct.ZEvaluator(spec_m, ct.BrownianPath(1.0, cfg.martingale_M,
                                               np.array(ws)))
    f_lo = ct.martingale_fn(ze, regens, n_lo)
    f_hi = ct.martingale_fn(ze, regens, n_hi)
    ratios = np.full(cfg.martingale_pairs, np.inf)
    np.divide(f_hi, f_lo, out=ratios, where=f_lo > 0)
    dvar = np.array([ct.block_variance_sum(spec_m, r, n_hi)
                     - ct.block_variance_sum(spec_m, r, n_lo) for r in regens])
    # second order in the disorder: E[log(f_hi / f_lo)] = -dvar / 2 per
    # pair; the predicted median is that of a log-normal ratio with the
    # predicted log-mean
    ok = np.isfinite(ratios) & (ratios > 0)
    logr = np.log(ratios[ok])
    mean = float(logr.mean())
    se = float(logr.std(ddof=1) / np.sqrt(len(logr)))
    pred = float(-0.5 * dvar[ok].mean())
    rep.tests["martingale_ratio"] = {
        "levels": [n_lo, n_hi],
        "median": float(np.median(ratios)), "predicted_median": np.exp(pred),
        "log_mean": mean, "log_se": se, "predicted_log_mean": pred,
        "nonpositive_pairs": int(np.sum(~ok))}
    rep.verdicts["martingale_decay"] = (mean < -3.0 * se
                                        and abs(mean - pred) < 3.0 * se)

    # (c) covering sums at exponent 2 alpha - 1
    rng_c = stream(seed, 2)
    expo = 2.0 * cfg.alpha - 1.0
    sums = np.empty((cfg.covering_draws, len(cfg.covering_levels)))
    for i in range(cfg.covering_draws):
        regen = ct.sample_regen_conditioned(cfg.alpha, 1.0,
                                            cfg.regen_depth, rng_c)
        for j, n in enumerate(cfg.covering_levels):
            sums[i, j] = cs.covering_sum(regen.set, n, expo, 1.0)
    med_sums = np.median(sums, axis=0)
    rep.tests["covering_sums"] = {"levels": list(cfg.covering_levels),
                                  "medians": med_sums}
    rep.verdicts["covering_increasing"] = bool(np.all(np.diff(med_sums) > 0))


# ---------------------------------------------------------------------------
# experiment: Z properties


@dataclass(frozen=True)
class ZPropertiesConfig:
    alpha: float = 0.75
    beta_hat: float = 1.0
    scaling_beta: float = _bound(0.0, 0.7, closed=True)
    scale_factor: float = _bound(0.0, 2.0)
    M: int = _bound(2, 4096)
    replicas: int = _bound(1, 4000)
    translation_replicas: int = _bound(30, 2000)
    translation_M: int = _bound(2, 1024)
    residual_replicas: int = _bound(1, 6)
    residual_M: int = _bound(2, 1024)
    residual_grid: int = _bound(1, 64)
    residual_t1: float = _bound(0.0, 0.4, 1.0)  # T = 1
    ks_threshold: float = _bound(0.0, 0.01, 1.0)


@_experiment("z-properties", ZPropertiesConfig)
def experiment_z_properties(rep, cfg, seed):
    """Scaling, translation invariance, renewal identity, positivity."""
    a, A = cfg.alpha, cfg.scale_factor

    # scaling: algebraic identity on the second-moment series
    lhs = ct.z_second_moment_series(a, cfg.scaling_beta, A)
    rhs = ct.z_second_moment_series(a, A ** (a - 0.5) * cfg.scaling_beta, 1.0)
    scal_err = abs(lhs - rhs) / rhs
    rep.tests["scaling_series"] = {"rel_err": float(scal_err)}
    rep.verdicts["scaling_series"] = scal_err < 1e-12

    # scaling: distributional check at horizon A vs rescaled couplings
    rng = stream(seed, 0)
    R, M = cfg.translation_replicas, cfg.translation_M
    inc_long = rng.standard_normal((R, M)) * np.sqrt(A / M)
    spec_long = ct.ChaosSpec(alpha=a, beta_hat=cfg.scaling_beta, T=A, M=M)
    z_long = ct.z_point_batch(spec_long, inc_long, 0.0, spec_long.T)
    inc_unit = rng.standard_normal((R, M)) * np.sqrt(1.0 / M)
    spec_unit = ct.ChaosSpec(alpha=a,
                             beta_hat=A ** (a - 0.5) * cfg.scaling_beta,
                             T=1.0, M=M)
    z_unit = ct.z_point_batch(spec_unit, inc_unit, 0.0, spec_unit.T)
    stat, p = ks_two_sample(z_long, z_unit)
    rep.tests["scaling_ks"] = {"stat": stat, "p": p}
    rep.verdicts["scaling_ks"] = p > cfg.ks_threshold

    # translation: Z(s, s + l) and Z(0, l) agree in law
    rng_t = stream(seed, 1)
    spec_t = ct.ChaosSpec(alpha=a, beta_hat=cfg.beta_hat, T=1.0, M=M)
    inc_a = rng_t.standard_normal((R, M)) / np.sqrt(M)
    inc_b = rng_t.standard_normal((R, M)) / np.sqrt(M)
    z_shift = ct.z_point_batch(spec_t, inc_a, 0.25, 0.75)
    z_base = ct.z_point_batch(spec_t, inc_b, 0.0, 0.5)
    stat, p = ks_two_sample(z_shift, z_base)
    rep.tests["translation_ks"] = {"stat": stat, "p": p}
    rep.verdicts["translation_ks"] = p > cfg.ks_threshold

    # renewal identity: integrating the quenched (g, d) density against the
    # Z factors must reproduce Z(0, T); residual must shrink >= 30% when the
    # table's grid (4 residual_grid cells a side) doubles
    rng_r = stream(seed, 2)
    spec_r = ct.ChaosSpec(alpha=a, beta_hat=0.5, T=1.0, M=cfg.residual_M)
    ws = [ct.sample_brownian(1.0, cfg.residual_M, rng_r).w
          for _ in range(cfg.residual_replicas)]
    ze = ct.ZEvaluator(spec_r, ct.BrownianPath(1.0, cfg.residual_M,
                                               np.array(ws)))
    coarse, fine = (
        np.mean(ct.CdpmFddSampler(ze, cfg.residual_t1, g).residual)
        for g in (cfg.residual_grid, 2 * cfg.residual_grid))
    rep.tests["renewal_residual"] = {"coarse": float(coarse),
                                     "fine": float(fine)}
    rep.verdicts["renewal_residual_shrinks"] = fine <= 0.7 * coarse

    # positivity at the working coupling strength
    spec_p = ct.ChaosSpec(alpha=a, beta_hat=cfg.beta_hat, T=1.0, M=cfg.M)
    z = np.concatenate([ct.z_point_batch(spec_p, inc, 0.0, spec_p.T)
                        for inc in _normal_chunks(stream(seed, 3),
                                                  cfg.replicas, cfg.M)])
    fail_rate = float(np.mean(z <= 0))
    rep.tests["positivity"] = {"failure_rate": fail_rate,
                               "min_z": float(z.min())}
    rep.verdicts["positivity"] = fail_rate < 1e-3


EXPERIMENTS = {fn.name: (fn.config, fn) for fn in (
    experiment_convergence, experiment_averaged_abs_continuity,
    experiment_singularity, experiment_z_properties)}
