"""Continuum partition functions and regenerative-set samplers.

The continuum disordered pinning model lives on closed subsets of [0, T] and
is driven by a white-noise environment. This module evaluates the
partition-function field Z(s, t) from a discretized Brownian path by an
all-order chaos recursion on grid cells, provides its closed-form second
moment, samples the alpha-stable regenerative set conditioned to contain
{0, T} by recursive bisection, and builds the finite-dimensional densities
(reference and disorder-tilted) plus the singularity martingale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lgamma
from typing import NamedTuple

import numpy as np
from scipy.signal import fftconvolve

from pinning_lab.closed_sets import ClosedSetR, dyadic_blocks
from pinning_lab.renewal import stable_constant
from pinning_lab.volterra import renewal_solve_batch


@dataclass(frozen=True)
class BrownianPath:
    """Brownian motion sampled on the uniform grid iT/M, W(0) = 0."""

    T: float
    M: int
    w: np.ndarray

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.w)

    @property
    def delta(self) -> float:
        return self.T / self.M


def sample_brownian(T: float, M: int, rng: np.random.Generator) -> BrownianPath:
    if M < 2:
        raise ValueError("need M >= 2")
    inc = rng.standard_normal(M) * np.sqrt(T / M)
    w = np.concatenate([[0.0], np.cumsum(inc)])
    return BrownianPath(T=T, M=M, w=w)


@dataclass(frozen=True)
class ChaosSpec:
    """Parameters of the continuum partition function.

    variant "conditioned" pins both endpoints, "free" only the left one;
    "mean-case" is the alpha > 1 regime, where all gap factors collapse to
    1/mean_tau1.
    """

    alpha: float
    beta_hat: float
    h_hat: float = 0.0
    T: float = 1.0
    variant: str = "conditioned"
    M: int = 4096
    mean_tau1: float | None = None

    def __post_init__(self):
        if self.variant not in ("conditioned", "free", "mean-case"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "mean-case":
            if not self.alpha > 1 or self.mean_tau1 is None:
                raise ValueError("mean-case needs alpha > 1 and mean_tau1")
        elif not 0.5 < self.alpha < 1:
            raise ValueError("conditioned/free variants need alpha in (1/2,1)")
        if self.beta_hat < 0 or self.T <= 0 or self.M < 2:
            raise ValueError("need beta_hat >= 0, T > 0, M >= 2")


def chaos_kernel(spec: ChaosSpec, s: float, t: float, times) -> float:
    """Order-k chaos kernel at interior points s < t_1 < ... < t_k < t."""
    ts = np.asarray(times, dtype=float)
    full = np.concatenate([[s], ts, [t]])
    if np.any(np.diff(full) <= 0):
        raise ValueError("need s < t_1 < ... < t_k < t")
    if spec.variant == "mean-case":
        return float(spec.mean_tau1 ** -len(ts))
    a = spec.alpha
    c = stable_constant(a)
    gaps = np.diff(np.concatenate([[s], ts]))
    val = float(np.prod(c * gaps ** (a - 1.0)))
    if spec.variant == "conditioned":
        val *= (t - s) ** (1.0 - a) * (t - ts[-1]) ** (a - 1.0)
    return val


# ---------------------------------------------------------------------------
# grid chaos recursion

# All singular kernel factors are integrated exactly over grid cells
# (product integration); only the disorder increment is sampled per cell.
# This keeps the midpoint-free scheme unbiased at the cell boundaries where
# the (gap)^(alpha-1) factors blow up.


def _gap_factors(alpha: float, delta: float, n: int) -> np.ndarray:
    """kg[d] = exact average of C_alpha (x - y)^(alpha-1) over a cell pair
    at distance d cells, d = 0..n (kg[0] unused)."""
    d = np.arange(n + 2, dtype=float)
    pw = d ** (alpha + 1.0)
    kg = np.empty(n + 1)
    kg[0] = np.nan
    kg[1:] = (pw[2:] - 2.0 * pw[1:-1] + pw[:-2]) / (alpha * (alpha + 1.0))
    return stable_constant(alpha) * delta ** (alpha - 1.0) * kg


def _cell_avg(alpha: float, dist: np.ndarray, delta: float) -> np.ndarray:
    """Exact averages of |x - anchor|^(alpha-1) over the cells whose edges
    lie at the distances dist from the anchor, monotone along axis 0 (n+1
    rows for n cells)."""
    # clamp: the grid-slack in _snap can put an edge a rounding error past
    # the anchor
    p = np.maximum(dist, 0.0) ** alpha
    return np.abs(np.diff(p, axis=0)) / (alpha * delta)


def _snap(x, delta: float):
    """Grid index nearest x, and the end the recursion uses for x: x itself
    when it lies on the grid (to 1e-9 cells), else that nearest grid point.
    Elementwise on an array x.

    Rounding to the nearest point keeps the noise of a short span: keeping
    only the cells fully inside an off-grid span drops up to two cells, and
    a span of a few cells then loses most of its variance.
    """
    r = np.asarray(x) / delta
    i = np.floor(r + 0.5).astype(np.int64)
    return np.where(np.abs(r - i) <= 1e-9, x, i * delta), i


def _ends(spec: ChaosSpec, s, t, delta: float):
    """(s, i0, t, i1): the ends 0 <= s <= t <= T, scalars or arrays, each
    snapped to the grid (_snap) with its grid index."""
    if not np.all((0.0 <= s) & (s <= t) & (t <= spec.T + 1e-12)):
        raise ValueError("need 0 <= s <= t <= T")
    return *_snap(s, delta), *_snap(t, delta)


def _check_grid(spec: ChaosSpec, path: BrownianPath) -> None:
    if abs(spec.T - path.T) > 1e-12 or spec.M != path.M:
        raise ValueError("spec and path disagree on the grid")


def z_point_batch(spec: ChaosSpec, increments: np.ndarray,
                  s: float, t: float) -> np.ndarray:
    """Z(s, t) for many independent paths at once.

    increments has shape (R, M); one renewal_solve_batch call runs the cell
    recursion for all of them. Off-grid ends follow the nearest-grid-point
    rule of _snap.
    """
    if increments.shape[1] != spec.M:
        raise ValueError(f"need increments of shape (R, {spec.M})")
    delta = spec.T / spec.M
    s, i0, t, i1 = _ends(spec, s, t, delta)
    if i1 <= i0:
        return np.ones(increments.shape[0])
    c = spec.beta_hat * increments[:, i0:i1].T + spec.h_hat * delta  # (n, R)
    return _z_cells(spec, delta, c, s, t, i0)


def _z_spans(spec: ChaosSpec, path: BrownianPath, s: np.ndarray,
             t: np.ndarray) -> np.ndarray:
    """Z(s_r, t_r) on one path for arrays of ends 0 <= s <= t <= T: the
    spans are the replicas of one _z_cells call, each zero-padded to the
    longest. An end off the grid moves to its nearest grid point (_snap);
    ends on the grid are used as given, and a span that snaps to no cell
    is 1."""
    _check_grid(spec, path)
    delta = path.delta
    s, i0, t, i1 = _ends(spec, s, t, delta)
    n = i1 - i0
    z = np.ones(len(n))
    live = n > 0
    if live.any():
        lag = np.arange(n[live].max())[:, None]
        cell = np.minimum(i0[live] + lag, path.M - 1)
        c = np.where(lag < n[live], spec.beta_hat * path.increments[cell]
                     + spec.h_hat * delta, 0.0)
        z[live] = _z_cells(spec, delta, c, s[live], t[live], i0[live])
    return z


def _forward(spec: ChaosSpec, delta: float, c: np.ndarray,
             dist: np.ndarray) -> np.ndarray:
    """Forward coefficients A (L, R) of the chaos recursion for the cell
    weights c (L, R), the cells' edges at the distances dist (L+1 rows)
    from the left end, by one renewal_solve_batch call."""
    kg = _gap_factors(spec.alpha, delta, c.shape[0])
    ef = stable_constant(spec.alpha) * _cell_avg(spec.alpha, dist, delta)
    return np.ldexp(*renewal_solve_batch(kg, ef, c))


def _z_cells(spec: ChaosSpec, delta: float, c: np.ndarray, s, t,
             i0) -> np.ndarray:
    """Z over spans of L = len(c) grid cells from grid index i0, one span
    per column of the cell weights c (L, R). s, t and i0 are shared scalars
    or (R,) arrays; cells past the end of a shorter span carry c = 0, which
    leaves its value unchanged."""
    if spec.variant == "mean-case":
        return np.prod(1.0 + c / spec.mean_tau1, axis=0)
    edges = delta * (i0 + np.arange(c.shape[0] + 1)[:, None])
    A = _forward(spec, delta, c, edges - s)
    if spec.variant == "free":
        return 1.0 + A.sum(axis=0)
    tf = _cell_avg(spec.alpha, t - edges, delta)
    return 1.0 + (t - s) ** (1.0 - spec.alpha) * np.einsum("jr,jr->r", tf, A)


def _tavg_base(alpha: float, delta: float, n: int) -> np.ndarray:
    """tavg[d] = exact cell average of (x_q - x)^(alpha-1) over the cell at
    distance d cells below the grid point x_q (d = 0 is the adjacent cell)."""
    d = np.arange(n + 1, dtype=float)
    return delta ** (alpha - 1.0) * ((d + 1.0) ** alpha - d ** alpha) / alpha


def _profile(spec: ChaosSpec, c: np.ndarray, dist: np.ndarray,
             delta: float) -> np.ndarray:
    """Z from the left end to each of the n+1 edges of the cells with
    weights c (n,), whose edges lie at the distances dist from that end.

    The forward coefficients A do not depend on the right end, so one
    recursion plus one convolution yields the whole profile."""
    n = len(c)
    if n == 0:
        return np.ones(1)
    if spec.variant == "mean-case":
        return np.concatenate([[1.0], np.cumprod(1.0 + c / spec.mean_tau1)])
    A = _forward(spec, delta, c[:, None], dist)[:, 0]
    if spec.variant == "free":
        return np.concatenate([[1.0], 1.0 + np.cumsum(A)])
    tavg = _tavg_base(spec.alpha, delta, n)
    S = fftconvolve(A, tavg)[:n]  # S[m] = sum_{l<=m} A[l] tavg[m-l]
    return np.concatenate([[1.0], 1.0 + dist[1:] ** (1.0 - spec.alpha) * S])


def z_profile_from(spec: ChaosSpec, path: BrownianPath,
                   s: float) -> tuple[np.ndarray, np.ndarray]:
    """Z(s, t) for every grid point t >= s, as (grid times, values)."""
    _check_grid(spec, path)
    delta = path.delta
    s, i0, _, _ = _ends(spec, s, spec.T, delta)
    ts = delta * np.arange(i0, spec.M + 1)
    c = spec.beta_hat * path.increments[i0:] + spec.h_hat * delta
    return ts, _profile(spec, c, ts - s, delta)


def z_profile_to(spec: ChaosSpec, path: BrownianPath,
                 t: float) -> tuple[np.ndarray, np.ndarray]:
    """Z(y, t) for every grid point y <= t, as (grid times, values). The
    conditioned chaos kernel is symmetric under time reversal, so this is
    the profile of the cells before t taken in reverse order."""
    if spec.variant == "free":
        raise NotImplementedError("left profile implemented for the "
                                  "conditioned variant")
    _check_grid(spec, path)
    delta = path.delta
    _, _, t, i1 = _ends(spec, 0.0, t, delta)
    ys = delta * np.arange(i1 + 1)
    c = spec.beta_hat * path.increments[:i1] + spec.h_hat * delta
    return ys, _profile(spec, c[::-1], t - ys[::-1], delta)[::-1]


class ZEvaluator:
    """Z(s, t) for one (spec, path) pair. The profiles Z(0, .) and Z(., T),
    each a (grid times, values) pair, are computed once, on first use."""

    def __init__(self, spec: ChaosSpec, path: BrownianPath):
        _check_grid(spec, path)
        self.spec = spec
        self.path = path

    @cached_property
    def from_0(self) -> tuple[np.ndarray, np.ndarray]:
        return z_profile_from(self.spec, self.path, 0.0)

    @cached_property
    def to_T(self) -> tuple[np.ndarray, np.ndarray]:
        return z_profile_to(self.spec, self.path, self.spec.T)

    def z(self, s: float, t: float) -> float:
        """Z(s, t) for 0 <= s <= t <= T, ends snapped as in _z_spans."""
        return float(_z_spans(self.spec, self.path, np.array([s]),
                              np.array([t]))[0])

    def z0T(self) -> float:
        return float(np.interp(self.spec.T, *self.from_0))


# ---------------------------------------------------------------------------
# closed-form moments and the Girsanov tilt


def z_second_moment_series(alpha: float, beta_hat: float, T,
                           k_max: int = 80):
    """E[Z(0,T)^2] for the conditioned variant at h_hat = 0.

    Term k: beta_hat^(2k) C_alpha^(2k) T^((2a-1)k)
            Gamma(2a-1)^(k+1) / Gamma((k+1)(2a-1)).
    The simplex integrals behind each term reduce to Dirichlet integrals;
    the k = 1, 2 terms are cross-checked by quadrature in the test suite.
    T may be an array of horizons, giving an array of moments. The
    convergence check compares log-terms, which stay finite where the
    terms themselves underflow at weak coupling.
    """
    if not 0.5 < alpha < 1:
        raise ValueError("series valid for alpha in (1/2, 1)")
    if beta_hat == 0.0:
        return 1.0
    chi = 2.0 * alpha - 1.0
    c = stable_constant(alpha)
    lg = lgamma(chi)
    k = np.arange(1, k_max + 1)
    log_t = np.log(np.asarray(T, dtype=float))[..., None]
    logterms = (2 * k * np.log(beta_hat * c) + chi * k * log_t
                + (k + 1) * lg - np.array([lgamma((j + 1) * chi) for j in k]))
    if np.any(logterms[..., -1] >= logterms[..., -2]):
        raise ValueError("series not yet decreasing at k_max; raise k_max")
    out = 1.0 + np.exp(logterms).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def second_moment_term(alpha: float, beta_hat: float, T: float, k: int) -> float:
    """Single term of the second-moment series (for quadrature checks)."""
    chi = 2.0 * alpha - 1.0
    c = stable_constant(alpha)
    return float(np.exp(2 * k * np.log(beta_hat * c) + chi * k * np.log(T)
                        + (k + 1) * lgamma(chi) - lgamma((k + 1) * chi)))


def girsanov_tilt(path: BrownianPath, beta_hat: float, h_hat: float) -> float:
    """Radon-Nikodym weight exp((h/b) W_T - (h/b)^2 T / 2) that moves the
    h_hat drift into the environment."""
    if beta_hat <= 0:
        raise ValueError("tilt defined for beta_hat > 0")
    r = h_hat / beta_hat
    return float(np.exp(r * path.w[-1] - 0.5 * r * r * path.T))


# ---------------------------------------------------------------------------
# reference finite-dimensional densities


def fdd_density_reference(alpha: float, T: float, times, xs, ys,
                          conditioned: bool = True) -> float:
    """Joint density of (g_{t_i}, d_{t_i})_i for the alpha-stable
    regenerative set (conditioned: containing T), on the restricted event.

    Density: prod_i C_a (x_i - y_{i-1})^(a-1) (y_i - x_i)^(-1-a), with
    y_0 := 0, times T^(1-a) (T - y_k)^(a-1) in the conditioned case.
    Returns 0 off the support.
    """
    ts = np.asarray(times, dtype=float)
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    k = len(ts)
    if not (len(x) == len(y) == k):
        raise ValueError("times, xs, ys must have equal length")
    yprev = np.concatenate([[0.0], y[:-1]])
    ok = (np.all(yprev <= x) and np.all(x <= ts) and np.all(ts < y))
    if conditioned:
        ok = ok and y[-1] <= T
    if not ok:
        return 0.0
    c = stable_constant(alpha)
    val = float(np.prod(c * (x - yprev) ** (alpha - 1.0)
                        * (y - x) ** (-1.0 - alpha)))
    if conditioned:
        val *= T ** (1.0 - alpha) * (T - y[-1]) ** (alpha - 1.0)
    return val


def arcsine_marginal(alpha: float, t: float, x) -> np.ndarray:
    """Unconditioned marginal density of g_t: sin(pi a)/pi x^(a-1)(t-x)^-a."""
    x = np.asarray(x, dtype=float)
    return np.sin(np.pi * alpha) / np.pi * x ** (alpha - 1.0) * (t - x) ** -alpha


# ---------------------------------------------------------------------------
# regenerative set sampling


@dataclass(frozen=True)
class RegenSample:
    """Dyadic-resolution draw of the conditioned regenerative set."""

    set: ClosedSetR
    level: int


def _sample_gd_unit(alpha: float, n: int, rng: np.random.Generator):
    """n draws of (g, d) at the midpoint of [0, 1] for the set conditioned
    to contain {0, 1}.

    Joint density f(x, y) proportional to x^(a-1) (y-x)^(-1-a) (1-y)^(a-1)
    on 0 < x <= 1/2 < y < 1. The x marginal is Beta(a, 1-a)/2 reweighted by
    (1-x)^(-1), handled by rejection; y given x inverts in closed form.
    """
    xs = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        z = rng.beta(alpha, 1.0 - alpha, todo.size) / 2.0
        accept = rng.random(todo.size) < 1.0 / (2.0 * (1.0 - z))
        xs[todo[accept]] = z[accept]
        todo = todo[~accept]
    # x = 1/2 exactly (possible at floating point) would degenerate y to x
    w0 = np.clip((0.5 - xs) / (1.0 - xs), 1e-12, None)
    u = rng.random(n)
    rho = (1.0 - u) ** (1.0 / alpha) * (1.0 - w0) / w0
    w = 1.0 / (1.0 + rho)
    ys = xs + w * (1.0 - xs)
    return xs, ys


def sample_regen_conditioned(alpha: float, T: float, n_max: int,
                             rng: np.random.Generator) -> RegenSample:
    """Conditioned regenerative set on [0, T] by recursive dyadic bisection.

    Each active interval [s, t] (both endpoints in the set) receives
    (g, d) at its midpoint from the exact k = 1 conditional density; the
    recursion continues on [s, g] and [d, t] until intervals fall below
    T 2^-n_max. Sampling is exact: the conditional law inverts in closed
    form, so no gridded CDF is involved.
    """
    if not 0.5 < alpha < 1:
        raise ValueError("sampler defined for alpha in (1/2, 1)")
    if n_max > 24:
        raise ValueError("n_max capped at 24")
    cutoff = T * 2.0 ** (-n_max)
    pts = [np.array([0.0, T])]
    lo = np.array([0.0])
    hi = np.array([T])
    while lo.size:
        x, y = _sample_gd_unit(alpha, lo.size, rng)
        span = hi - lo
        g = lo + x * span
        d = lo + y * span
        pts.append(g)
        pts.append(d)
        new_lo = np.concatenate([lo, d])
        new_hi = np.concatenate([g, hi])
        keep = new_hi - new_lo >= cutoff
        lo, hi = new_lo[keep], new_hi[keep]
    points = np.unique(np.concatenate(pts))
    return RegenSample(set=ClosedSetR(points, resolution=cutoff), level=n_max)


# ---------------------------------------------------------------------------
# CDPM finite-dimensional laws


def cdpm_fdd_density(zeval: ZEvaluator, times, xs, ys) -> float:
    """Quenched density of (g_{t_i}, d_{t_i})_i under the continuum
    disordered pinning law: the reference density reweighted by the product
    of partition functions over the uncovered gaps, normalized by Z(0,T)."""
    spec = zeval.spec
    z0t = zeval.z0T()
    if z0t <= 0:
        raise ValueError("Z(0,T) <= 0: discretization failure")
    ref = fdd_density_reference(spec.alpha, spec.T, times, xs, ys,
                                conditioned=True)
    if ref == 0.0:
        return 0.0
    z = _z_spans(spec, zeval.path, np.concatenate([[0.0], ys]),
                 np.concatenate([xs, [spec.T]]))
    return float(np.prod(z)) / z0t * ref


def _graded_grid(a: float, b: float, n: int, edge: str) -> np.ndarray:
    """n+1 edges on [a, b], geometrically refined toward the singular end."""
    span = b - a
    r = np.geomspace(span * 1e-9, span, n + 1)
    r[0] = 0.0
    if edge == "left":
        return a + r
    return b - r[::-1]


class _RefTable(NamedTuple):
    """The conditioned k = 1 reference table on the graded grid."""

    masses: np.ndarray  # (nx, ny) cell masses, round-off negatives set to 0
    xe: np.ndarray
    ye: np.ndarray
    xm: np.ndarray  # cell midpoints
    ym: np.ndarray
    clipped: tuple  # (i, j, mass set to 0) of the round-off negative cells


@lru_cache(maxsize=4)
def _reference_table(alpha: float, T: float, t1: float, grid: int) -> _RefTable:
    """Cell masses of C_a x^(a-1) (y-x)^(-1-a) (T-y)^(a-1) over
    [0, t1] x (t1, T], grid cells a side on grids graded toward the
    singular edges: the (y - x) factor by its exact closed-form double
    integral, the boundary power factors by exact single integrals.

    The table depends on no environment: the quenched table of an
    environment is Z(0, xm) masses Z(ym, T), row and column scaled. It is
    built once per argument tuple, and its arrays are read-only.
    """
    half = grid // 2
    xe = np.unique(np.concatenate([
        _graded_grid(0.0, t1 / 2, half, "left"),
        _graded_grid(t1 / 2, t1, half, "right")]))
    ye = np.unique(np.concatenate([
        _graded_grid(t1, (t1 + T) / 2, half, "left"),
        _graded_grid((t1 + T) / 2, T, half, "right")]))
    # exact 1-D integrals of the boundary power factors per cell
    ix = np.diff(xe ** alpha) / alpha                      # int x^(a-1)
    iy = np.diff(-((T - ye) ** alpha)) / alpha             # int (T-y)^(a-1)
    # exact double integral of (y-x)^(-1-a) over each cell pair
    G = (ye[None, :] - xe[:, None]) ** (1.0 - alpha)
    # int over [a,b]x[c,d] of (y-x)^(-1-a) dy dx, with G(u) = u^(1-a):
    # [G(c-a) + G(d-b) - G(d-a) - G(c-b)] / (a (1-a))
    I2 = (G[:-1, :-1] + G[1:, 1:] - G[:-1, 1:] - G[1:, :-1]) / (alpha * (1.0 - alpha))
    # divide out the cell width of each exactly integrated boundary factor:
    # it stands for a smooth factor taken at the cell midpoint
    masses = stable_constant(alpha) * ((ix / np.diff(xe))[:, None] * iy
                                       / np.diff(ye) * I2)
    # round-off in the cancelling differences of I2 leaves tiny negative
    # cells; they carry no probability
    i, j = np.nonzero(masses < 0)
    cut = -masses[i, j]
    masses[i, j] = 0.0
    tab = _RefTable(masses, xe, ye, 0.5 * (xe[:-1] + xe[1:]),
                    0.5 * (ye[:-1] + ye[1:]), (i, j, cut))
    for a in (*tab[:5], i, j, cut):
        a.flags.writeable = False
    return tab


def reference_fdd_table(alpha: float, T: float, t1: float, grid: int = 512):
    """(masses, xe, ye): cell masses of the conditioned k = 1 reference
    density on the graded grid, with its edges. The masses sum to a
    quadrature estimate of 1, and their cumulative sums give the joint CDF
    of (g_t1, d_t1). The arrays are cached and read-only."""
    return _reference_table(alpha, T, t1, grid)[:3]


def _cdpm_factors(zeval: ZEvaluator, t1: float, grid: int):
    """The reference table of grid cells a side, and Z(0, x) and Z(y, T) at
    its cell midpoints, interpolated linearly in the two Z profiles."""
    spec = zeval.spec
    tab = _reference_table(spec.alpha, spec.T, t1, grid)
    return (tab, np.interp(tab.xm, *zeval.from_0),
            np.interp(tab.ym, *zeval.to_T))


class CdpmFddSampler:
    """Tabulated sampler for (g_t1, d_t1) under the quenched CDPM law, k = 1.

    The density Z(0,x) x^(a-1) (y-x)^(-1-a) Z(y,T) (T-y)^(a-1) is tabulated
    on 4 * grid cells a side: the cached reference table (see
    _reference_table), its rows scaled by Z(0, x) and its columns by Z(y, T)
    at the cell midpoints. A Z <= 0 at a midpoint raises ValueError.

    Health counters: `residual` = |mass - Z(0,T)| / Z(0,T), the renewal
    identity, which the Z grid M rather than the table grid limits; and
    `clipped`, the mass of the round-off negative cells set to 0.

    Draws invert the CDF of the row-major flattened table: a row by its
    mass, then a cell inside the row, then the point inside the cell from
    the dominant local power factor.
    """

    def __init__(self, zeval: ZEvaluator, t1: float, grid: int = 512):
        if not 0.0 < t1 < zeval.spec.T:
            raise ValueError("need 0 < t1 < T")
        self.alpha = zeval.spec.alpha
        self.t1 = t1
        tab, self.zx, self.zy = _cdpm_factors(zeval, t1, 4 * grid)
        bad = int(np.sum(self.zx <= 0) + np.sum(self.zy <= 0))
        if bad:
            raise ValueError(f"Z <= 0 at {bad} table midpoints")
        z0t = zeval.z0T()
        if z0t <= 0:
            raise ValueError("Z(0,T) <= 0: discretization failure")
        self.ref, self.xe, self.ye = tab.masses, tab.xe, tab.ye
        self.row_cdf = np.cumsum(self.zx * (self.ref @ self.zy))
        self.mass = float(self.row_cdf[-1])
        self.residual = abs(self.mass - z0t) / z0t
        i, j, cut = tab.clipped
        self.clipped = float(np.sum(self.zx[i] * cut * self.zy[j]))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws, returned as an (n, 2) array of (x, y) pairs."""
        alpha = self.alpha
        u = rng.random(n) * self.mass
        i = np.minimum(np.searchsorted(self.row_cdf, u), len(self.row_cdf) - 1)
        u -= np.where(i > 0, self.row_cdf[i - 1], 0.0)
        cells = np.cumsum(self.zx[i, None] * self.ref[i] * self.zy, axis=1)
        j = np.minimum(np.sum(cells < u[:, None], axis=1), len(self.zy) - 1)
        # x within its column: exact local power x^(a-1)
        a, b = self.xe[i], self.xe[i + 1]
        u = rng.random(n)
        x = (u * b ** alpha + (1 - u) * a ** alpha) ** (1.0 / alpha)
        # y within its row: exact (y-x)^(-1-a) inversion (c > x always)
        c, d = self.ye[j], self.ye[j + 1]
        v = rng.random(n)
        pc, pd = (c - x) ** -alpha, (d - x) ** -alpha
        y = x + (v * pd + (1 - v) * pc) ** (-1.0 / alpha)
        return np.column_stack([x, y])


def sample_cdpm_fdd(zeval: ZEvaluator, t1: float, rng: np.random.Generator,
                    n: int = 1, grid: int = 512) -> np.ndarray:
    """Convenience wrapper: build the k = 1 table and draw n pairs."""
    return CdpmFddSampler(zeval, t1, grid).sample(n, rng)


# ---------------------------------------------------------------------------
# singularity martingale


def martingale_fn(zeval: ZEvaluator, regen: RegenSample, n: int) -> float:
    """f_n = prod over occupied level-n blocks of Z(a_j, b_j), over Z(0,T).

    Blocks are the covering-sum decomposition of the sampled set; all of
    them go through one batched solve (_z_spans). Singleton blocks, and
    blocks whose ends snap to the same grid point, contribute 1.
    """
    T = zeval.spec.T
    z0t = zeval.z0T()
    if z0t <= 0:
        raise ValueError("Z(0,T) <= 0: discretization failure")
    blocks = dyadic_blocks(regen.set, n, T)
    z = _z_spans(zeval.spec, zeval.path, blocks[:, 0], blocks[:, 1])
    return float(np.prod(z)) / z0t


def block_variance_sum(spec: ChaosSpec, regen: RegenSample, n: int) -> float:
    """Sum of Var Z(a_j, b_j) over the level-n blocks of martingale_fn.

    By the scaling identity Var Z(a, b) = series(beta_hat, b - a) - 1. To
    second order E[log Z] = -Var Z / 2, so for levels n_lo < n_hi the mean
    of log(f_hi / f_lo) is predicted as -(sum at n_hi - sum at n_lo) / 2.
    """
    if spec.variant != "conditioned" or spec.h_hat != 0.0:
        raise ValueError("series known for the conditioned variant at h_hat = 0")
    blocks = dyadic_blocks(regen.set, n, spec.T)
    spans = blocks[:, 1] - blocks[:, 0]
    var = z_second_moment_series(spec.alpha, spec.beta_hat, spans[spans > 0])
    return float(np.sum(var - 1.0))
