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
from math import lgamma
from types import SimpleNamespace

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


def _edge_factors(alpha: float, anchor: float, edges: np.ndarray,
                  delta: float, with_c: bool) -> np.ndarray:
    """Exact cell averages of (x - anchor)^(alpha-1) over cells bounded by
    the sorted edge array (len n+1 for n cells)."""
    # clamp: the grid-slack in _snap can put the first edge a rounding
    # error below the anchor
    p = np.maximum(edges - anchor, 0.0) ** alpha
    out = np.diff(p) / (alpha * delta)
    return out * stable_constant(alpha) if with_c else out


def _terminal_factors(alpha: float, t: float, edges: np.ndarray,
                      delta: float) -> np.ndarray:
    """Exact cell averages of (t - x)^(alpha-1)."""
    p = np.maximum(t - edges, 0.0) ** alpha
    out = (p[:-1] - p[1:]) / (alpha * delta)
    return out


def _snap(x: float, delta: float) -> tuple[float, int]:
    """Grid index nearest x, and the end the recursion uses for x: x itself
    when it lies on the grid (to 1e-9 cells), else that nearest grid point.

    Rounding to the nearest point keeps the noise of a short span: keeping
    only the cells fully inside an off-grid span drops up to two cells, and
    a span of a few cells then loses most of its variance.
    """
    r = x / delta
    i = int(np.floor(r + 0.5))
    return (x if abs(r - i) <= 1e-9 else i * delta), i


def _z_eval(spec: ChaosSpec, path: BrownianPath, s: float, t: float) -> float:
    """All-order chaos value Z(s, t) for s, t anywhere in [0, T].

    An end off the grid is moved to its nearest grid point, so the value is
    the grid Z between the grid points nearest s and t (1 when both ends
    round to the same point); ends on the grid are used as given.
    """
    if not 0.0 <= s <= t <= spec.T + 1e-12:
        raise ValueError("need 0 <= s <= t <= T")
    delta = path.delta
    s, i0 = _snap(s, delta)
    t, i1 = _snap(t, delta)
    n = i1 - i0
    if n <= 0:
        return 1.0
    c = spec.beta_hat * path.increments[i0:i1] + spec.h_hat * delta
    if spec.variant == "mean-case":
        return float(np.prod(1.0 + c / spec.mean_tau1))
    edges = delta * np.arange(i0, i1 + 1)
    kg = _gap_factors(spec.alpha, delta, n)
    ef = _edge_factors(spec.alpha, s, edges, delta, with_c=True)
    A = np.empty(n)
    for j in range(n):
        acc = ef[j]
        if j > 0:
            acc += np.dot(kg[j:0:-1], A[:j])
        A[j] = c[j] * acc
    if spec.variant == "free":
        return float(1.0 + A.sum())
    tf = _terminal_factors(spec.alpha, t, edges, delta)
    return float(1.0 + (t - s) ** (1.0 - spec.alpha) * np.dot(A, tf))


def z_point(spec: ChaosSpec, path: BrownianPath, s: float, t: float) -> float:
    """Z(s, t) for grid-aligned s, t."""
    delta = path.delta
    for x in (s, t):
        if abs(x / delta - round(x / delta)) > 1e-9:
            raise ValueError("s and t must lie on the path grid")
    return _z_eval(spec, path, s, t)


def z_point_batch(spec: ChaosSpec, increments: np.ndarray,
                  s: float, t: float) -> np.ndarray:
    """Z(s, t) for many independent paths at once.

    increments has shape (R, M); one renewal_solve_batch call runs the cell
    recursion for all of them. Off-grid ends follow the nearest-grid-point
    rule of _z_eval.
    """
    if not 0.0 <= s <= t <= spec.T + 1e-12:
        raise ValueError("need 0 <= s <= t <= T")
    delta = spec.T / spec.M
    s, i0 = _snap(s, delta)
    t, i1 = _snap(t, delta)
    n = i1 - i0
    R = increments.shape[0]
    if n <= 0:
        return np.ones(R)
    c = spec.beta_hat * increments[:, i0:i1].T + spec.h_hat * delta  # (n, R)
    if spec.variant == "mean-case":
        return np.prod(1.0 + c / spec.mean_tau1, axis=0)
    edges = delta * np.arange(i0, i1 + 1)
    kg = _gap_factors(spec.alpha, delta, n)
    ef = _edge_factors(spec.alpha, s, edges, delta, with_c=True)
    A, e = renewal_solve_batch(kg, ef, c)
    A = np.ldexp(A, e)
    if spec.variant == "free":
        return 1.0 + A.sum(axis=0)
    tf = _terminal_factors(spec.alpha, t, edges, delta)
    return 1.0 + (t - s) ** (1.0 - spec.alpha) * (tf @ A)


def _tavg_base(alpha: float, delta: float, n: int) -> np.ndarray:
    """tavg[d] = exact cell average of (x_q - x)^(alpha-1) over the cell at
    distance d cells below the grid point x_q (d = 0 is the adjacent cell)."""
    d = np.arange(n + 1, dtype=float)
    return delta ** (alpha - 1.0) * ((d + 1.0) ** alpha - d ** alpha) / alpha


def z_profile_from(spec: ChaosSpec, path: BrownianPath,
                   s: float) -> tuple[np.ndarray, np.ndarray]:
    """Z(s, t) for every grid point t >= s in one pass.

    The forward coefficients A do not depend on t, so a single O(M^2)
    recursion plus one convolution yields the whole right profile.
    Returns (grid times, values).
    """
    delta = path.delta
    s, i0 = _snap(s, delta)
    n = spec.M - i0
    ts = delta * np.arange(i0, spec.M + 1)
    if n <= 0:
        return ts, np.ones(len(ts))
    c = spec.beta_hat * path.increments[i0:] + spec.h_hat * delta
    if spec.variant == "mean-case":
        z = np.concatenate([[1.0], np.cumprod(1.0 + c / spec.mean_tau1)])
        return ts, z
    edges = delta * np.arange(i0, spec.M + 1)
    kg = _gap_factors(spec.alpha, delta, n)
    ef = _edge_factors(spec.alpha, s, edges, delta, with_c=True)
    A = np.empty(n)
    for j in range(n):
        acc = ef[j]
        if j > 0:
            acc += np.dot(kg[j:0:-1], A[:j])
        A[j] = c[j] * acc
    if spec.variant == "free":
        return ts, np.concatenate([[1.0], 1.0 + np.cumsum(A)])
    tavg = _tavg_base(spec.alpha, delta, n)
    S = fftconvolve(A, tavg)[:n]  # S[m] = sum_{l<=m} A[l] tavg[m-l]
    z = np.empty(n + 1)
    z[0] = 1.0
    z[1:] = 1.0 + (ts[1:] - s) ** (1.0 - spec.alpha) * S
    return ts, z


def z_profile_to(spec: ChaosSpec, path: BrownianPath,
                 t: float) -> tuple[np.ndarray, np.ndarray]:
    """Z(y, t) for every grid point y <= t, by the mirrored recursion."""
    delta = path.delta
    t, i1 = _snap(t, delta)
    n = i1
    ys = delta * np.arange(0, i1 + 1)
    if n <= 0:
        return ys, np.ones(len(ys))
    c = spec.beta_hat * path.increments[:i1] + spec.h_hat * delta
    if spec.variant == "mean-case":
        z = np.concatenate([np.cumprod((1.0 + c / spec.mean_tau1)[::-1])[::-1],
                            [1.0]])
        return ys, z
    edges = delta * np.arange(0, i1 + 1)
    kg = _gap_factors(spec.alpha, delta, n)
    tf = _terminal_factors(spec.alpha, t, edges, delta)
    E = np.empty(n)
    for j in range(n - 1, -1, -1):
        acc = tf[j]
        if j < n - 1:
            acc += np.dot(kg[1:n - j], E[j + 1:])
        E[j] = c[j] * acc
    if spec.variant == "free":
        # free variant has no terminal factor; fall back to per-point passes
        raise NotImplementedError("left profile implemented for the "
                                  "conditioned variant")
    tavg = stable_constant(spec.alpha) * _tavg_base(spec.alpha, delta, n)
    # Z(y_p, t) = 1 + (t-y_p)^(1-a) sum_{j>=p} tavg[j-p] E[j]
    S = fftconvolve(E[::-1], tavg)[:n][::-1]
    z = np.empty(n + 1)
    z[n] = 1.0
    z[:n] = 1.0 + (t - ys[:n]) ** (1.0 - spec.alpha) * S
    return ys, z


class ZEvaluator:
    """Z(s, t) evaluator for one (spec, path) pair with profile caches."""

    def __init__(self, spec: ChaosSpec, path: BrownianPath):
        if abs(spec.T - path.T) > 1e-12 or spec.M != path.M:
            raise ValueError("spec and path disagree on the grid")
        self.spec = spec
        self.path = path
        self._from: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._to: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def z(self, s: float, t: float) -> float:
        return _z_eval(self.spec, self.path, s, t)

    def z0T(self) -> float:
        return self.z_from(0.0, self.spec.T)

    def z_from(self, s: float, t: float) -> float:
        """Z(s, t) via the cached right profile anchored at s (t is
        interpolated linearly between grid points)."""
        if s not in self._from:
            self._from[s] = z_profile_from(self.spec, self.path, s)
        ts, zs = self._from[s]
        return float(np.interp(t, ts, zs))

    def z_to(self, s: float, t: float) -> float:
        if t not in self._to:
            self._to[t] = z_profile_to(self.spec, self.path, t)
        ys, zs = self._to[t]
        return float(np.interp(s, ys, zs))


@dataclass(frozen=True)
class ZSurface:
    """Z on a triangular anchor grid 0 <= s <= t <= T."""

    T: float
    M: int
    anchors: np.ndarray  # (n, 2) real pairs
    values: np.ndarray
    seed_info: tuple = ()

    def to_csv(self, path) -> None:
        data = np.column_stack([self.anchors, self.values])
        np.savetxt(path, data, delimiter=",", header="s,t,Z", comments="")


def build_zsurface(spec: ChaosSpec, path: BrownianPath, anchors,
                   seed_info: tuple = ()) -> ZSurface:
    anchors = np.asarray(anchors, dtype=float)
    values = np.array([_z_eval(spec, path, s, t) for s, t in anchors])
    return ZSurface(T=spec.T, M=spec.M, anchors=anchors, values=values,
                    seed_info=seed_info)


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
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    ylist = np.concatenate([[0.0], y])
    xlist = np.concatenate([x, [spec.T]])
    w = 1.0
    for yi, xi in zip(ylist, xlist):
        w *= zeval.z(yi, xi)
    return w / z0t * ref


def _graded_grid(a: float, b: float, n: int, edge: str) -> np.ndarray:
    """n+1 edges on [a, b], geometrically refined toward the singular end."""
    span = b - a
    r = np.geomspace(span * 1e-9, span, n + 1)
    r[0] = 0.0
    if edge == "left":
        return a + r
    return b - r[::-1]


class CdpmFddSampler:
    """Tabulated sampler for (g_t1, d_t1) under the quenched CDPM law, k = 1.

    The density Z(0,x) x^(a-1) (y-x)^(-1-a) Z(y,T) (T-y)^(a-1) is
    integrated cell by cell on grids graded toward the singular edges: the
    (y - x) factor by its exact closed-form double integral, the boundary
    power factors by exact single integrals, the smooth Z profiles at cell
    midpoints. The table doubles at most twice, until its total mass is
    stable to 1e-6 (`stable`). Draws pick a cell categorically, then the
    point inside the cell from the dominant local power factor.
    """

    def __init__(self, zeval: ZEvaluator, t1: float, grid: int = 512):
        if not 0.0 < t1 < zeval.spec.T:
            raise ValueError("need 0 < t1 < T")
        self.alpha = zeval.spec.alpha
        self.t1 = t1
        masses, xe, ye = _cdpm_cell_masses(zeval, t1, grid)
        total = masses.sum()
        for _ in range(2):
            m2, xe2, ye2 = _cdpm_cell_masses(zeval, t1, 2 * (len(xe) - 1))
            stable = abs(m2.sum() - total) <= 1e-6 * abs(total)
            masses, xe, ye, total = m2, xe2, ye2, m2.sum()
            if stable:
                break
        self.stable = bool(stable)
        # roundoff in the cancelling double-integral differences can leave
        # tiny negative cell masses; they carry no probability
        flat = np.clip(masses.ravel(), 0.0, None)
        if not flat.sum() > 0:
            raise ValueError("cell-mass table degenerate (Z surface negative?)")
        self.shape = masses.shape
        self.cdf = np.cumsum(flat)
        self.mass = float(self.cdf[-1])
        self.cdf /= self.cdf[-1]
        self.xe, self.ye = xe, ye

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws, returned as an (n, 2) array of (x, y) pairs."""
        alpha = self.alpha
        idx = np.searchsorted(self.cdf, rng.random(n))
        i, j = np.unravel_index(idx, self.shape)
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


class _UnitEvaluator:
    """Z identically 1; turns the CDPM machinery into the reference law."""

    def __init__(self, alpha: float, T: float):
        self.spec = SimpleNamespace(alpha=alpha, T=T)

    def z_from(self, s: float, t: float) -> float:
        return 1.0

    def z_to(self, s: float, t: float) -> float:
        return 1.0


def reference_fdd_table(alpha: float, T: float, t1: float, grid: int = 512):
    """Cell masses of the conditioned k = 1 reference density on the graded
    grid; their sum is a quadrature estimate of 1 and their cumulative sums
    give the joint CDF of (g_t1, d_t1)."""
    return _cdpm_cell_masses(_UnitEvaluator(alpha, T), t1, grid)


def _cdpm_cell_masses(zeval: ZEvaluator, t1: float, grid: int):
    spec = zeval.spec
    alpha, T = spec.alpha, spec.T
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
    xm = 0.5 * (xe[:-1] + xe[1:])
    ym = 0.5 * (ye[:-1] + ye[1:])
    zx = np.array([zeval.z_from(0.0, x) for x in xm])
    zy = np.array([zeval.z_to(y, T) for y in ym])
    # exact double integral of (y-x)^(-1-a) over each cell pair
    G = (ye[None, :] - xe[:, None]) ** (1.0 - alpha)
    # int over [a,b]x[c,d] of (y-x)^(-1-a) dy dx, with G(u) = u^(1-a):
    # [G(c-a) + G(d-b) - G(d-a) - G(c-b)] / (a (1-a))
    I2 = (G[:-1, :-1] + G[1:, 1:] - G[:-1, 1:] - G[1:, :-1]) / (alpha * (1.0 - alpha))
    # smooth ratios: divide out the midpoint value of each exactly
    # integrated factor so nothing is double counted
    fx = (zx * ix)[:, None]
    fy = (zy * iy)[None, :]
    wx = np.diff(xe)[:, None]
    wy = np.diff(ye)[None, :]
    masses = fx / wx * fy / wy * I2
    return stable_constant(alpha) * masses, xe, ye


# ---------------------------------------------------------------------------
# singularity martingale


def martingale_fn(zeval: ZEvaluator, regen: RegenSample, n: int) -> float:
    """f_n = prod over occupied level-n blocks of Z(a_j, b_j), over Z(0,T).

    Blocks are the covering-sum decomposition of the sampled set; singleton
    blocks contribute Z(a,a) = 1.
    """
    T = zeval.spec.T
    z0t = zeval.z0T()
    if z0t <= 0:
        raise ValueError("Z(0,T) <= 0: discretization failure")
    blocks = dyadic_blocks(regen.set, n, T)
    val = 1.0
    for a, b in blocks:
        if b > a:
            val *= zeval.z(a, b)
    return val / z0t


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
