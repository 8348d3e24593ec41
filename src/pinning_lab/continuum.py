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
from scipy.sparse import csr_array
from scipy.linalg import eigh_tridiagonal
from scipy.special import binom, gamma, roots_legendre

from pinning_lab.closed_sets import ClosedSetR, dyadic_blocks
from pinning_lab.renewal import stable_constant
from pinning_lab.volterra import (BLOCK, FarField, convolve, far_field,
                                  renewal_solve_batch)


@dataclass(frozen=True)
class BrownianPath:
    """Brownian motion sampled on the uniform grid iT/M, W(0) = 0: w is one
    path (M+1,) or the rows of R independent environments (R, M+1). The
    continuum layer works along the leading axis, one path being R = 1."""

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
    if not T > 0 or M < 2:
        raise ValueError("need T > 0, M >= 2")
    inc = rng.standard_normal(M) * np.sqrt(T / M)
    w = np.concatenate([[0.0], np.cumsum(inc)])
    return BrownianPath(T=T, M=M, w=w)


@dataclass(frozen=True)
class ChaosSpec:
    """Parameters of the continuum partition function Z(s, t), the polynomial
    chaos pinned at both ends, for alpha in (1/2, 1), where disorder is
    relevant and the CDPM exists; Z lives on M grid cells of [0, T]."""

    alpha: float
    beta_hat: float
    h_hat: float = 0.0
    T: float = 1.0
    M: int = 4096

    def __post_init__(self):
        if not 0.5 < self.alpha < 1:
            raise ValueError("need alpha in (1/2, 1)")
        if self.beta_hat < 0 or self.T <= 0 or self.M < 2:
            raise ValueError("need beta_hat >= 0, T > 0, M >= 2")


def chaos_kernel(spec: ChaosSpec, s: float, t: float, times) -> float:
    """Order-k chaos kernel at interior points s < t_1 < ... < t_k < t."""
    ts = np.asarray(times, dtype=float)
    full = np.concatenate([[s], ts, [t]])
    if np.any(np.diff(full) <= 0):
        raise ValueError("need s < t_1 < ... < t_k < t")
    a = spec.alpha
    c = stable_constant(a)
    gaps = np.diff(np.concatenate([[s], ts]))
    val = float(np.prod(c * gaps ** (a - 1.0)))
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
    at distance d cells, d = 0..n (kg[0] unused).

    The average is the second difference of d^g over alpha g, g = alpha + 1.
    Formed as (d+1)^g - 2 d^g + (d-1)^g it loses about d^2 eps, so from
    d = 8 on it is summed as d^g sum_{k even >= 2} 2 binom(g, k) d^-k, ten
    terms, and kept direct below. Against 40-digit mpmath at alpha = 0.75
    the series is within 4.5e-16 relative up to d = 2^16 and the direct
    form within 3.9e-15 below 8; the direct form at every d was off by
    2.2e-9 at d <= 4,096 and 4.6e-7 at 2^16."""
    g = alpha + 1.0
    d = np.arange(n + 1, dtype=float)
    kg = np.empty(n + 1)
    kg[0] = np.nan
    lo, hi = d[1:8], d[8:]
    kg[1:8] = (lo + 1.0) ** g - 2.0 * lo ** g + (lo - 1.0) ** g
    x = hi ** -2.0
    acc = np.zeros_like(hi)
    for coef in 2.0 * binom(g, np.arange(20, 0, -2)):  # Horner in d^-2
        acc = acc * x + coef
    kg[8:] = hi ** g * x * acc
    return stable_constant(alpha) * delta ** (alpha - 1.0) / (alpha * g) * kg


class _Kernel(NamedTuple):
    """The gap factors of one grid and their far field."""

    kg: np.ndarray  # _gap_factors, lags 0..M
    far: FarField   # lags above BLOCK as an exponential sum


def _far_nodes(alpha: float, T: float, M: int):
    """The nodes s and weights w of the far field of M cells on [0, T]:
    kg[d] = sum_p w_p e^(-s_p d) on the lags BLOCK < d < M.

    With beta = 1 - alpha, d^-beta = Gamma(beta)^-1 int s^(beta-1) e^(-s d)
    ds, and the average of e^(-s (x - y)) over a cell pair d cells apart is
    exactly e^(-s d) (sinh(s/2) / (s/2))^2. A 10-node Gauss-Jacobi rule on
    [0, 1/M] with weight s^-alpha, then 10-node Gauss-Legendre rules on the
    dyadic pieces [2^j/M, 2^(j+1)/M] up to 40/(BLOCK + 1), where e^(-s d)
    is below e^-40 for the lags d > BLOCK, make the sum (Jiang, Zhang, Zhang
    and Zhang, Commun. Comput. Phys. 21, 2017): 100, 130 and 150 nodes at
    M = 512, 4,096 and 16,384. The Gauss-Jacobi rule comes from the
    eigenvectors of the Jacobi matrix of P^(0, -alpha) on [-1, 1] (Golub
    and Welsch, Math. Comp. 23, 1969); on the lags 65..M, M = 256 to
    65,536, the sum is within 1.6e-15 relative of kg at alpha = 0.55 to
    0.99. scipy's roots_jacobi missed by up to 2.0e-14 at alpha = 0.9 and
    2.5e-14 at 0.99: its weight error sits on the node nearest -1."""
    a = 2.0 * np.arange(10) - alpha  # 2k + b for P^(0, b), b = -alpha
    k = np.arange(1.0, 10.0)
    off = 2.0 * k * (k - alpha) / (a[1:] * np.sqrt(a[1:] ** 2 - 1.0))
    x, v = eigh_tridiagonal(alpha * alpha / (a * (a + 2.0)), off)
    s = [(1.0 + x) / (2 * M)]
    w = [v[0] ** 2 * M ** (alpha - 1.0) / (1.0 - alpha)]
    xs, ws = roots_legendre(10)
    lo = 1.0 / M
    while lo < 40.0 / (BLOCK + 1):
        s.append(lo * (3.0 + xs) / 2)
        w.append(ws * lo / 2 * s[-1] ** -alpha)
        lo *= 2.0
    s, w = np.concatenate(s), np.concatenate(w)
    w *= ((np.sinh(s / 2) / (s / 2)) ** 2 / gamma(1.0 - alpha)
          * stable_constant(alpha) * (T / M) ** (alpha - 1.0))
    return s, w


@lru_cache(maxsize=8)
def _kernel(alpha: float, T: float, M: int) -> _Kernel:
    """The gap factors of M cells on [0, T] with their far field
    (_far_nodes), built once per argument tuple, read-only."""
    far = far_field(*_far_nodes(alpha, T, M))
    kern = _Kernel(_gap_factors(alpha, T / M, M), far)
    for a in (kern.kg, *kern.far):
        a.flags.writeable = False
    return kern


def _cell_avg(alpha: float, dist: np.ndarray, delta: float) -> np.ndarray:
    """Exact averages of |x - anchor|^(alpha-1) over the cells whose edges
    lie at the distances dist from the anchor, monotone along axis 0 (n+1
    rows for n cells).

    A cell [a, a + h] off the anchor averages ((a + h)^alpha - a^alpha) /
    (alpha delta); that difference loses about d eps d cells out, so it is
    summed as a^alpha expm1(alpha log1p(h / a)): against 40-digit mpmath at
    alpha = 0.75, within 4.5e-16 relative up to d = 2^16, where the
    difference was off by 8.2e-12. The cell at the anchor (a = 0) is
    h^alpha / (alpha delta)."""
    # clamp: the zero-padded cells of a short span in _z_spans have edges
    # past its right end; they and the anchor cell have a = 0
    p = np.maximum(dist, 0.0)
    a = np.minimum(p[:-1], p[1:])
    h = np.abs(p[1:] - p[:-1])
    edge = a == 0
    a[edge] = 1.0
    avg = a ** alpha * np.expm1(alpha * np.log1p(h / a))
    avg[edge] = h[edge] ** alpha
    return avg / (alpha * delta)


def _snap(x, delta: float):
    """The grid point nearest x, i delta, and its index i, elementwise.

    Rounding to the nearest point keeps the noise of a short span: keeping
    only the cells fully inside an off-grid span drops up to two cells, and
    a span of a few cells then loses most of its variance. Every end is
    that grid point: an end a rounding error off it would move Z by about
    (error / delta)^alpha.
    """
    i = np.floor(np.asarray(x) / delta + 0.5).astype(np.int64)
    return i * delta, i


def _ends(spec: ChaosSpec, s, t, delta: float):
    """(s, i0, t, i1): the ends 0 <= s <= t <= T, scalars or arrays, each
    snapped to the grid (_snap) with its grid index."""
    if not np.all((0.0 <= s) & (s <= t) & (t <= spec.T + 1e-12)):
        raise ValueError("need 0 <= s <= t <= T")
    return *_snap(s, delta), *_snap(t, delta)


def _check_grid(spec: ChaosSpec, path: BrownianPath) -> None:
    if abs(spec.T - path.T) > 1e-12 or spec.M != path.M:
        raise ValueError("spec and path disagree on the grid")


# paths per batched solve in the Z profiles and in z_point_batch, and per
# draw of analysis's streamed environments: the solver holds c, which x
# overwrites, and e, 12 bytes per path and cell
PATH_CHUNK = 250


def z_point_batch(spec: ChaosSpec, increments: np.ndarray,
                  s: float, t: float) -> np.ndarray:
    """Z(s, t) for many independent paths at once, one per row of the
    increments (R, M), PATH_CHUNK paths per solve (at R = 0 one empty
    chunk, which still checks the ends)."""
    if increments.shape[1] != spec.M:
        raise ValueError(f"need increments of shape (R, {spec.M})")
    return np.concatenate([_z_spans(spec, inc, s, t, np.arange(len(inc)))
                           for inc in np.split(increments, range(
                               PATH_CHUNK, len(increments), PATH_CHUNK))])


def _forward(spec: ChaosSpec, c: np.ndarray, avg: np.ndarray) -> np.ndarray:
    """Forward coefficients A (L, R) of the chaos recursion for the cell
    weights c (L, R) and avg, the _cell_avg of the same L cells from the
    left end (L rows): one renewal_solve_batch call on the grid's cached
    gap factors and their far field (_kernel), the forcing C_alpha avg.
    c, C-ordered, is consumed: A is written over it."""
    kern = _kernel(spec.alpha, spec.T, spec.M)
    x, e = renewal_solve_batch(kern.kg, stable_constant(spec.alpha) * avg, c,
                               kern.far)
    return np.ldexp(x, e, out=x)


def _z_spans(spec: ChaosSpec, increments: np.ndarray, s, t,
             env: np.ndarray) -> np.ndarray:
    """Z(s_r, t_r) on the path env_r, for the cell increments (P, M) of P
    paths and ends 0 <= s <= t <= T, each a scalar shared by every span or
    an array like env; ends snap to the grid (_snap).

    The spans are the columns of one recursion over L cells, L the longest
    span: cells past the end of a shorter span carry c = 0, which leaves its
    value unchanged, and a span of no cell is 1."""
    delta = spec.T / spec.M
    s, i0, t, i1 = _ends(spec, s, t, delta)
    lag = np.arange(max(np.max(i1 - i0), 1))[:, None]
    # one (L, P) array: the gathered increments, weighted in place
    c = increments[env, np.minimum(i0 + lag, spec.M - 1)]
    c *= spec.beta_hat
    c += spec.h_hat * delta
    np.copyto(c, 0.0, where=lag >= i1 - i0)
    edges = delta * (i0 + np.arange(len(lag) + 1)[:, None])
    A = _forward(spec, c, _cell_avg(spec.alpha, edges - s, delta))
    tf = _cell_avg(spec.alpha, t - edges, delta)
    return 1.0 + (t - s) ** (1.0 - spec.alpha) * np.einsum("jr,jr->r", tf, A)


def _profile(spec: ChaosSpec, path: BrownianPath, cells: np.ndarray,
             dist: np.ndarray) -> np.ndarray:
    """Z from the left end over the given n cells of every path, in order
    from that end, to each of their n+1 edges, at the distances dist from
    that end: shape (..., n+1), the leading shape of the path.

    The forward coefficients A do not depend on the right end, so one
    recursion plus one convolution along the cells (axis 0, a column per
    path) yields every profile, in chunks of PATH_CHUNK paths."""
    inc = path.increments.reshape(-1, spec.M)
    z = np.ones((len(inc), len(cells) + 1))
    if len(cells):
        tavg = _cell_avg(spec.alpha, dist, path.delta)
        scale = dist[1:, None] ** (1.0 - spec.alpha)
        for p in range(0, len(inc), PATH_CHUNK):
            # the weights (n, P) in C order, a column per path
            c = np.take(inc[p:p + PATH_CHUNK].T, cells, axis=0)
            c *= spec.beta_hat
            c += spec.h_hat * path.delta
            A = _forward(spec, c, tavg)
            # S[m] = sum_{l<=m} A[l] tavg[m-l], dist a multiple of delta
            S = convolve(A, tavg[:, None])[:len(cells)]
            z[p:p + PATH_CHUNK, 1:] += (scale * S).T
    return z.reshape(*path.w.shape[:-1], -1)


def z_profile_from(spec: ChaosSpec, path: BrownianPath,
                   s: float) -> tuple[np.ndarray, np.ndarray]:
    """Z(s, t) for every grid point t >= s, as (grid times, values)."""
    _check_grid(spec, path)
    delta = path.delta
    s, i0, _, _ = _ends(spec, s, spec.T, delta)
    ts = delta * np.arange(i0, spec.M + 1)
    return ts, _profile(spec, path, np.arange(i0, spec.M), ts - s)


def z_profile_to(spec: ChaosSpec, path: BrownianPath,
                 t: float) -> tuple[np.ndarray, np.ndarray]:
    """Z(y, t) for every grid point y <= t, as (grid times, values). The
    chaos kernel is symmetric under time reversal, so this is the profile
    of the cells before t taken in reverse order."""
    _check_grid(spec, path)
    delta = path.delta
    _, _, t, i1 = _ends(spec, 0.0, t, delta)
    ys = delta * np.arange(i1 + 1)
    return ys, _profile(spec, path, np.arange(i1)[::-1],
                        t - ys[::-1])[..., ::-1]


class ZEvaluator:
    """The profiles Z(0, .) and Z(., T) for a spec and a path of one or R
    environments, each a (grid times, values) pair computed once, on first
    use; each value has the leading shape of the path."""

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

    def z0T(self):
        return self.from_0[1][..., -1][()]


def _positive_z0T(zeval: ZEvaluator):
    """Z(0, T) on every path of zeval; a value <= 0 raises ValueError."""
    z0t = zeval.z0T()
    if np.any(z0t <= 0):
        raise ValueError("Z(0,T) <= 0: discretization failure")
    return z0t


def _span_products(zeval: ZEvaluator, spans: list) -> np.ndarray:
    """The product of Z(a, b) over the rows (a, b) of spans[r] on path r,
    for every path of zeval at once (one array of at least one row per
    path): one _z_spans call, shaped like the path's leading axes."""
    ends = np.concatenate(spans)
    counts = [len(b) for b in spans]
    z = _z_spans(zeval.spec, zeval.path.increments.reshape(-1, zeval.spec.M),
                 ends[:, 0], ends[:, 1],
                 np.repeat(np.arange(len(spans)), counts))
    first = np.cumsum(counts) - counts
    return np.multiply.reduceat(z, first).reshape(
        zeval.path.w.shape[:-1])[()]


# ---------------------------------------------------------------------------
# closed-form moments and the Girsanov tilt


def z_second_moment_series(alpha: float, beta_hat: float, T,
                           k_max: int = 80):
    """E[Z(0,T)^2] at h_hat = 0.

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
    if beta_hat < 0 or np.any(np.asarray(T) <= 0):
        raise ValueError("series needs beta_hat >= 0 and T > 0")
    if beta_hat == 0.0:
        return 1.0 if np.ndim(T) == 0 else np.ones(np.shape(T))
    chi = 2.0 * alpha - 1.0
    c = stable_constant(alpha)
    lg = lgamma(chi)
    k = np.arange(1, k_max + 1)
    log_t = np.log(np.asarray(T, dtype=float))[..., None]
    logterms = (2 * k * np.log(beta_hat * c) + chi * k * log_t
                + (k + 1) * lg - _lgamma_table(chi, k_max))
    if np.any(logterms[..., -1] >= logterms[..., -2]):
        raise ValueError("series not yet decreasing at k_max; raise k_max")
    out = 1.0 + np.exp(logterms).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=8)
def _lgamma_table(chi: float, k_max: int) -> np.ndarray:
    """lgamma((j + 1) chi) for j = 1..k_max, read-only: the series' last
    factor, built once per (chi, k_max)."""
    table = np.array([lgamma((j + 1) * chi) for j in np.arange(1, k_max + 1)])
    table.flags.writeable = False
    return table


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
    return np.exp(r * path.w[..., -1] - 0.5 * r * r * path.T)[()]


# ---------------------------------------------------------------------------
# reference finite-dimensional densities


def fdd_density_reference(alpha: float, T: float, times, xs, ys) -> float:
    """Joint density of (g_{t_i}, d_{t_i})_i for the alpha-stable
    regenerative set conditioned to contain T, on the restricted event.

    Density: prod_i C_a (x_i - y_{i-1})^(a-1) (y_i - x_i)^(-1-a), with
    y_0 := 0, times T^(1-a) (T - y_k)^(a-1). Returns 0 off the support.
    """
    ts = np.asarray(times, dtype=float)
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    k = len(ts)
    if not (len(x) == len(y) == k):
        raise ValueError("times, xs, ys must have equal length")
    yprev = np.concatenate([[0.0], y[:-1]])
    ok = (np.all(yprev <= x) and np.all(x <= ts) and np.all(ts < y)
          and y[-1] <= T)
    if not ok:
        return 0.0
    c = stable_constant(alpha)
    val = float(np.prod(c * (x - yprev) ** (alpha - 1.0)
                        * (y - x) ** (-1.0 - alpha)))
    val *= T ** (1.0 - alpha) * (T - y[-1]) ** (alpha - 1.0)
    return val


# ---------------------------------------------------------------------------
# regenerative set sampling


@dataclass(frozen=True)
class RegenSample:
    """Dyadic-resolution draw of the conditioned regenerative set; its
    set's resolution is the cutoff T 2^-n_max."""

    set: ClosedSetR


def _sample_gd_unit(alpha: float, n: int, rng: np.random.Generator):
    """n draws of (g, d) at the midpoint of [0, 1] for the set conditioned
    to contain {0, 1}.

    Joint density f(x, y) proportional to x^(a-1) (y-x)^(-1-a) (1-y)^(a-1)
    on 0 < x <= 1/2 < y < 1. The x marginal is Beta(a, 1-a)/2 reweighted by
    (1-x)^(-1), handled by rejection; y given x inverts in closed form.
    Draws: beta(m), random(m) per rejection round, then random(n); the
    beta draws, about 22,000 a depth-18 set at 72 ns each on Philox, are
    near half its time. 0.5 / (1 - z) is the double 1 / (2 (1 - z)).
    """
    xs = rng.beta(alpha, 1.0 - alpha, n)
    xs /= 2.0
    z, todo = xs, None
    while (rej := (rng.random(z.size) >= 0.5 / (1.0 - z)).nonzero()[0]).size:
        todo = rej if todo is None else todo[rej]
        xs[todo] = z = rng.beta(alpha, 1.0 - alpha, todo.size) / 2.0
    # x = 1/2 exactly (possible at floating point) would degenerate y to x
    rest = 1.0 - xs
    w0 = np.maximum((0.5 - xs) / rest, 1e-12)
    rho = (1.0 - rng.random(n)) ** (1.0 / alpha) * (1.0 - w0) / w0
    ys = 1.0 / (1.0 + rho)
    ys *= rest
    ys += xs
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
    if not T > 0:
        # at T = 0 no interval falls below the cutoff 0: it never ends
        raise ValueError("need T > 0")
    if not 0 <= n_max <= 24:
        raise ValueError("need 0 <= n_max <= 24")
    cutoff = T * 2.0 ** (-n_max)
    pts = [np.array([0.0, T])]
    lo = np.array([0.0])
    hi = np.array([T])
    while lo.size:
        x, y = _sample_gd_unit(alpha, lo.size, rng)
        span = hi - lo
        g = lo + x * span
        d = lo + y * span
        pts += g, d
        new_lo = np.concatenate([lo, d])
        new_hi = np.concatenate([g, hi])
        keep = new_hi - new_lo >= cutoff
        lo, hi = new_lo[keep], new_hi[keep]
    points = np.concatenate(pts)
    points.sort()  # then drop a point only where it equals its left neighbour
    points = points[np.concatenate([[True], points[1:] != points[:-1]])]
    return RegenSample(set=ClosedSetR(points, resolution=cutoff))


# ---------------------------------------------------------------------------
# CDPM finite-dimensional laws


def cdpm_fdd_density(zeval: ZEvaluator, times, xs, ys) -> float:
    """Quenched density of (g_{t_i}, d_{t_i})_i under the continuum
    disordered pinning law: the reference density reweighted by the product
    of partition functions over the uncovered gaps, normalized by Z(0,T)."""
    spec = zeval.spec
    z0t = _positive_z0T(zeval)
    ref = fdd_density_reference(spec.alpha, spec.T, times, xs, ys)
    if ref == 0.0:
        return 0.0
    gaps = np.column_stack([np.concatenate([[0.0], ys]),
                            np.concatenate([xs, [spec.T]])])
    return _span_products(zeval, [gaps] * np.size(z0t)) / z0t * ref


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
    clipped: csr_array  # (nx, ny) the masses of the round-off negative
                        # cells, set to 0 in masses


@lru_cache(maxsize=4)
def _reference_table(alpha: float, T: float, t1: float,
                     cells: int) -> _RefTable:
    """Cell masses of C_a x^(a-1) (y-x)^(-1-a) (T-y)^(a-1) over
    [0, t1] x (t1, T], `cells` cells a side on grids graded toward the
    singular edges: the (y - x) factor by its exact closed-form double
    integral, the boundary power factors by exact single integrals.

    The table depends on no environment: the quenched table of an
    environment is Z(0, xm) masses Z(ym, T), row and column scaled. It is
    built once per argument tuple, and its arrays are read-only.
    """
    half = cells // 2
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
    clipped = csr_array(np.where(masses < 0, -masses, 0.0))
    masses[masses < 0] = 0.0
    tab = _RefTable(masses, xe, ye, 0.5 * (xe[:-1] + xe[1:]),
                    0.5 * (ye[:-1] + ye[1:]), clipped)
    for a in (*tab[:5], clipped.data):
        a.flags.writeable = False
    return tab


def reference_fdd_table(alpha: float, T: float, t1: float, cells: int = 512):
    """(masses, xe, ye): cell masses of the conditioned k = 1 reference
    density on the graded grid of `cells` cells a side, with its edges.
    The masses sum to a quadrature estimate of 1, and their cumulative sums
    give the joint CDF of (g_t1, d_t1). The arrays are cached and read-only."""
    return _reference_table(alpha, T, t1, cells)[:3]


class CdpmFddSampler:
    """Tabulated sampler for (g_t1, d_t1) under the quenched CDPM law, k = 1,
    for every path of zeval at once; the tables, counters and draws carry
    the leading shape of the path.

    The density Z(0,x) x^(a-1) (y-x)^(-1-a) Z(y,T) (T-y)^(a-1) is tabulated
    on 4 * grid cells a side: the cached reference table (see
    _reference_table), its rows scaled by Z(0, x) and its columns by Z(y, T)
    at the cell midpoints. A Z <= 0 at a midpoint raises ValueError.

    Health counters: `residual` = |mass - Z(0,T)| / Z(0,T), the renewal
    identity; and `clipped`, the mass of the round-off negative cells set to
    0. The table grid, not the Z grid M, limits the residual: at 512 cells a
    side, beta_hat = 0.5 and t1 = 0.4 it read 1.4e-4 to 3.2e-3 on three
    environments, flat from M = 512 to 8192, against a disorder-free floor
    |sum of the reference masses - 1| of 4.7e-5. The table samples the rough
    Z profiles at its cell midpoints.

    Draws invert the CDF of the row-major flattened table: a row by its
    mass, then a cell inside the row, then the point inside the cell from
    the dominant local power factor.
    """

    def __init__(self, zeval: ZEvaluator, t1: float, grid: int = 512):
        if not 0.0 < t1 < zeval.spec.T:
            raise ValueError("need 0 < t1 < T")
        if grid < 1:
            raise ValueError("need grid >= 1")
        z0t = _positive_z0T(zeval)
        self.alpha = zeval.spec.alpha
        self.t1 = t1
        tab = _reference_table(self.alpha, zeval.spec.T, t1, 4 * grid)
        # Z at the cell midpoints, one np.interp per path, stored paths
        # fastest: the sums over cells below add in memory order
        self.zx, self.zy = (
            np.stack([np.interp(m, ts, z) for z in zs.reshape(
                -1, zs.shape[-1])], axis=-1).T.reshape(*zs.shape[:-1], -1)
            for m, (ts, zs) in ((tab.xm, zeval.from_0), (tab.ym, zeval.to_T)))
        bad = int(np.sum(self.zx <= 0) + np.sum(self.zy <= 0))
        if bad:
            raise ValueError(f"Z <= 0 at {bad} table midpoints")
        self.ref, self.xe, self.ye = tab.masses, tab.xe, tab.ye
        # the row masses of every path by one matrix product
        self.row_cdf = np.cumsum(self.zx * (self.ref @ self.zy.T).T, axis=-1)
        self.mass = self.row_cdf[..., -1][()]
        self.residual = abs(self.mass - z0t) / z0t
        self.clipped = np.sum(self.zx * (tab.clipped @ self.zy.T).T, axis=-1)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n draws per path from rng.random((..., 3, n)): see draw."""
        return self.draw(rng.random((*self.row_cdf.shape[:-1], 3, n)))

    def draw(self, u: np.ndarray) -> np.ndarray:
        """Draws from the uniforms u (..., 3, n), the leading axes those of
        the path, as an (..., n, 2) array of (x, y) pairs: u[..., 0, :]
        picks the row and the cell inside it, u[..., 1, :] places x and
        u[..., 2, :] places y inside the cell."""
        alpha = self.alpha
        nx, ny = self.ref.shape
        row_cdf, zx, zy = (a.reshape(-1, a.shape[-1])
                           for a in (self.row_cdf, self.zx, self.zy))
        u = u.reshape(len(zx), 3, -1)
        p = np.repeat(np.arange(len(zx)), u.shape[-1])  # path of each draw
        v = (u[:, 0] * row_cdf[:, -1:]).ravel()
        i, j = np.empty((2, len(v)), dtype=np.int64)
        step = max(1, 2 ** 20 // ny)  # (draws, cells) blocks near 8 MB
        for s in (slice(k, k + step) for k in range(0, len(v), step)):
            cdf = row_cdf[p[s]]
            i[s] = np.minimum(np.sum(cdf < v[s, None], axis=1), nx - 1)
            v[s] -= np.where(i[s] > 0, cdf[np.arange(len(cdf)), i[s] - 1], 0)
            cells = np.cumsum(zx[p[s], i[s], None] * self.ref[i[s]]
                              * zy[p[s]], axis=1)
            j[s] = np.minimum(np.sum(cells < v[s, None], axis=1), ny - 1)
        # x within its column: exact local power x^(a-1)
        a, b = self.xe[i], self.xe[i + 1]
        w = u[:, 1].ravel()
        x = (w * b ** alpha + (1 - w) * a ** alpha) ** (1.0 / alpha)
        # y within its row: exact (y-x)^(-1-a) inversion (c > x always)
        c, d = self.ye[j], self.ye[j + 1]
        w = u[:, 2].ravel()
        pc, pd = (c - x) ** -alpha, (d - x) ** -alpha
        y = x + (w * pd + (1 - w) * pc) ** (-1.0 / alpha)
        return np.stack([x, y], -1).reshape(*self.row_cdf.shape[:-1], -1, 2)


# ---------------------------------------------------------------------------
# singularity martingale


def martingale_fn(zeval: ZEvaluator, regen, n: int):
    """f_n = prod over occupied level-n blocks of Z(a_j, b_j), over Z(0,T),
    on every path of zeval: regen is a sequence of one RegenSample per path,
    or a lone RegenSample for a one-path zeval.

    Blocks are the covering-sum decomposition of the sampled set; all of
    them, over every path, go through one batched solve (_z_spans).
    Singleton blocks, and blocks whose ends snap to the same grid point,
    contribute 1.
    """
    regens = [regen] if isinstance(regen, RegenSample) else regen
    paths = zeval.path.w[..., 0].size
    if len(regens) != paths:
        raise ValueError(f"need one set per path: {len(regens)} sets for "
                         f"{paths} paths")
    z0t = _positive_z0T(zeval)
    blocks = [dyadic_blocks(r.set, n, zeval.spec.T) for r in regens]
    return _span_products(zeval, blocks) / z0t


def block_variance_sum(spec: ChaosSpec, regen: RegenSample, n: int) -> float:
    """Sum of Var Z(a_j, b_j) over the level-n blocks of martingale_fn.

    By the scaling identity Var Z(a, b) = series(beta_hat, b - a) - 1. To
    second order E[log Z] = -Var Z / 2, so for levels n_lo < n_hi the mean
    of log(f_hi / f_lo) is predicted as -(sum at n_hi - sum at n_lo) / 2.
    """
    if spec.h_hat != 0.0:
        raise ValueError("series known at h_hat = 0")
    blocks = dyadic_blocks(regen.set, n, spec.T)
    spans = blocks[:, 1] - blocks[:, 0]
    var = z_second_moment_series(spec.alpha, spec.beta_hat, spans[spans > 0])
    return float(np.sum(var - 1.0))
