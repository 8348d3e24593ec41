"""Heavy-tailed renewal kernels and renewal functions.

A renewal process on the non-negative integers is described by its
inter-arrival law K(n) = P(tau_1 = n), assumed here to have a regularly
varying tail K(n) ~ L(n) / n^(1+alpha) with alpha in (0,1) or alpha > 1.
This module builds such kernels (including the return law of nearest-neighbor
birth-death chains), computes the renewal function u(n) = P(n in tau) exactly
by convolution, checks the classical tail asymptotics and a power-law
smoothness condition on u, gives the exact law of the last renewal before
t conditioned on N in tau, and samples renewal point sets.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import zeta

from pinning_lab.volterra import convolve, renewal_solve_batch


class KernelError(ValueError):
    """Raised for kernel specs that cannot yield a valid renewal law."""


# ---------------------------------------------------------------------------
# kernel


@dataclass(frozen=True)
class RenewalKernel:
    """Tabulated gap law with exact analytic tail continuation.

    k[n] = K(n) for 1 <= n <= n_max (k[0] = 0); survival[n] = P(tau_1 > n)
    carries the mass beyond n_max exactly, so sum(k) + survival[n_max] = 1.
    """

    alpha: float
    k: np.ndarray
    survival: np.ndarray
    mean: float = np.inf

    @property
    def n_max(self) -> int:
        return len(self.k) - 1

    def sf(self, n):
        """P(tau_1 > n) for 0 <= n <= n_max."""
        return self.survival[np.asarray(n)]

    def head(self, n: int) -> np.ndarray:
        """K(0..n), zero past the table: the one horizon rule. KernelError if
        a gap up to n can leave the table, n > n_max while the law has mass
        beyond n_max. Within the table it is a view of k."""
        if n <= self.n_max:
            return self.k[:n + 1]
        if self.survival[self.n_max] > 1e-15:
            raise KernelError(f"horizon {n} exceeds the tabulated kernel "
                              f"range {self.n_max}")
        return np.pad(self.k, (0, n - self.n_max))


def _kernel(alpha: float, k: np.ndarray, tail: float,
            mean: float = np.inf) -> RenewalKernel:
    """The one table constructor: survival[n] = tail + sum_{m > n} K(m),
    cumulated backward from the mass beyond n_max, which keeps sf accurate
    deep in the tail."""
    survival = np.empty(len(k))
    survival[-1] = tail
    survival[:-1] = tail + np.cumsum(k[:0:-1])[::-1]
    return RenewalKernel(alpha=alpha, k=k, survival=survival, mean=mean)


def power_law_kernel(alpha: float, n_max: int) -> RenewalKernel:
    """K(n) proportional to n^-(1+alpha), normalized including the exact
    tail zeta(1+alpha, n_max+1) beyond n_max. Rejects alpha <= 0 and
    alpha == 1 (the theory is developed for alpha in (0,1) and alpha > 1
    only)."""
    if not alpha > 0:
        raise KernelError("tail exponent alpha must be positive")
    if alpha == 1.0:
        raise KernelError("alpha = 1 is not supported")
    if n_max < 2:
        raise KernelError("n_max must be at least 2")
    ns = np.arange(1, n_max + 1, dtype=float)
    raw = 1.0 / ns ** (1.0 + alpha)
    tail_raw = float(zeta(1.0 + alpha, n_max + 1))
    total = raw.sum() + tail_raw
    k = np.r_[0.0, raw / total]
    mean = np.inf
    if alpha > 1:
        mean = (float(np.sum(ns * k[1:]))
                + float(zeta(alpha, n_max + 1)) / total)
    return _kernel(alpha, k, tail_raw / total, mean=mean)


def matched_power_kernel(alpha: float, n_max: int,
                         c: float = 0.5) -> RenewalKernel:
    """Kernel whose renewal mass function is exactly c n^(alpha-1).

    K is deconvolved from u(n) = c n^(alpha-1) (n >= 1, u(0) = 1) through
    the renewal equation K(n) = u(n) - sum_{m<n} K(m) u(n-m): one
    renewal_solve_batch call with lag kernel -u, forcing u(1..n_max) and
    unit weights, O(n log^2 n). A K < 0 is a KernelError naming the first
    such n. Against a long-double term-by-term reference K is within
    2.8e-10 relative at n = 2,048 and 2.9e-8 at 65,536; renewal_function's
    u is within 5e-15 of c n^(alpha-1) at 4,096 and 6.1e-12 at 2^20. The
    mass beyond n_max is 1 - sum K, as the renewal is recurrent.

    The gap law has a regularly varying tail with effective slowly varying
    constant C_alpha / c, but none of the slowly decaying corrections a
    generic kernel's renewal function carries. The lattice itself still
    biases continuum comparisons: the pinned g_t law keeps an atom
    P(g_t = t) = u(t) u(N-t) / u(N) = c (N t1 (1 - t1))^(alpha-1) at
    t = t1 N, so its distance to the continuum marginal is exactly of
    order N^(alpha-1).
    """
    if not 0.0 < alpha < 1.0:
        raise KernelError("matched kernel requires alpha in (0, 1)")
    if not 0.0 < c < 1.0:
        raise KernelError("need 0 < c < 1 so that K(1) = c is a probability")
    if n_max < 1:
        raise KernelError("n_max must be at least 1")
    u = np.r_[1.0, c * np.arange(1, n_max + 1, dtype=float) ** (alpha - 1.0)]
    x, e = renewal_solve_batch(-u, u[1:], np.ones((n_max, 1)))
    k = np.r_[0.0, np.ldexp(x, e)[:, 0]]
    if np.any(k < 0):
        raise KernelError("deconvolved kernel negative at "
                          f"n = {np.argmax(k < 0)}")
    return _kernel(alpha, k, max(1.0 - k.sum(), 0.0))


def two_point_kernel(p1: float = 0.5) -> RenewalKernel:
    """K(1) = p1, K(2) = 1 - p1 for 0 < p1 <= 1: the standard hand-check
    kernel. It has no tail, so alpha is nan and any horizon is allowed."""
    if not 0.0 < p1 <= 1.0:
        raise KernelError("need 0 < p1 <= 1")
    return _kernel(np.nan, np.array([0.0, p1, 1.0 - p1]), 0.0,
                   mean=p1 + 2.0 * (1.0 - p1))


# ---------------------------------------------------------------------------
# renewal function


@dataclass(frozen=True)
class RenewalFunction:
    """u[n] = P(n in tau), computed exactly from the kernel."""

    u: np.ndarray
    kernel: RenewalKernel

    @property
    def n_max(self) -> int:
        return len(self.u) - 1


def renewal_function(kernel: RenewalKernel, n_max: int) -> RenewalFunction:
    """Visit probabilities u(0..n_max) of the renewal equation
    u(n) = sum_m K(m) u(n-m), u(0) = 1: one renewal_solve_batch call, with
    forcing K and unit weights, that never rescales as sum K <= 1. Up to
    4096 u is within a few 1e-15 of the term-by-term sums; above that the
    solver's FFT halving adds round-off of order 1e-13 relative at 20000."""
    k = kernel.head(n_max)
    u = np.ldexp(*renewal_solve_batch(k, k[1:], np.ones((n_max, 1))))
    return RenewalFunction(u=np.r_[1.0, u[:, 0]], kernel=kernel)


def stable_constant(alpha: float) -> float:
    """C_alpha = alpha sin(pi alpha) / pi, the constant in the infinite-mean
    renewal asymptotics u(n) ~ C_alpha / (L(n) n^(1-alpha))."""
    return alpha * np.sin(np.pi * alpha) / np.pi


@dataclass(frozen=True)
class RatioTrace:
    ns: np.ndarray
    ratios: np.ndarray
    mode: str  # "infinite-mean" or "finite-mean"


def check_asymptotics(rf: RenewalFunction) -> RatioTrace:
    """Trace of the renewal-theorem ratio at 12 log-spaced indices.

    For alpha in (0,1): r(n) = u(n) L(n) n^(1-alpha) / C_alpha, where the
    effective slowly varying factor L(n) = n^(1+alpha) K(n) is read off the
    kernel itself (this absorbs the normalizing constant exactly).
    For alpha > 1:      r(n) = u(n) E[tau_1].
    Either trace approaches 1 as n grows.
    """
    alpha = rf.kernel.alpha
    n_max = rf.n_max
    ns = np.unique(np.geomspace(16, n_max, 12).astype(int))
    if 0 < alpha < 1:
        ns = ns[ns <= rf.kernel.n_max]
        l_eff = ns ** (1.0 + alpha) * rf.kernel.k[ns]
        ratios = rf.u[ns] * l_eff * ns ** (1.0 - alpha) / stable_constant(alpha)
        mode = "infinite-mean"
    elif alpha > 1:
        ratios = rf.u[ns] * rf.kernel.mean
        mode = "finite-mean"
    else:
        raise KernelError("asymptotics defined for alpha in (0,1) or alpha > 1")
    return RatioTrace(ns=ns, ratios=ratios, mode=mode)


@dataclass(frozen=True)
class SmoothnessFit:
    C: float
    delta: float
    passed: bool
    points: int


def check_smoothness(rf: RenewalFunction) -> SmoothnessFit:
    """Fit |u(n+l)/u(n) - 1| <= C (l/n)^delta over n >= 64, 0 <= l <= n/4.

    delta is the log-log regression slope of the ratio deviation against l/n
    (capped at 1), and C is then the smallest constant making the bound hold
    on the evaluation grid. l = 0 is trivially satisfied and excluded from
    the fit. The fit passes when delta >= 0.05; otherwise C is inf.
    """
    n_max = rf.n_max
    if n_max < 1000:
        raise KernelError("u must be tabulated to n_max >= 1000")
    n_hi = (4 * n_max) // 5
    ns = np.unique(np.geomspace(64, n_hi, 24).astype(int))
    xs, ys = [], []
    for n in ns:
        lmax = n // 4
        if lmax < 1:
            continue
        ls = np.unique(np.geomspace(1, lmax, 16).astype(int))
        r = np.abs(rf.u[n + ls] / rf.u[n] - 1.0)
        keep = r > 0
        xs.append(ls[keep] / n)
        ys.append(r[keep])
    x = np.log(np.concatenate(xs))
    y = np.log(np.concatenate(ys))
    slope, _ = np.polyfit(x, y, 1)
    delta = float(min(max(slope, 0.0), 1.0))
    passed = delta >= 0.05
    c = float(np.max(np.exp(y - delta * x))) if passed else np.inf
    return SmoothnessFit(C=c, delta=delta, passed=passed, points=len(x))


# ---------------------------------------------------------------------------
# Bessel-like walks


def bessel_p_up(alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    """Up-step probabilities, on an integer array x, of a birth-death chain
    whose return-time law has tail exponent alpha: p(x) = 1/2 +
    (1 - 2 alpha)/(4x), clipped away from {0, 1}, with p(0) = 1."""
    def p(x: np.ndarray) -> np.ndarray:
        q = 0.5 + (1.0 - 2.0 * alpha) / (4.0 * np.maximum(x, 1))
        return np.where(x == 0, 1.0, np.clip(q, 0.05, 0.95))
    return p


def _escape_probability(p_up: Callable, cutoff: int = 2_000_000) -> float:
    """P(never return to 0) for the birth-death chain, from the standard
    resistance series: escape = 1 / sum_{k>=0} rho_k, rho_0 = 1 and rho_k =
    prod_{j<=k} q_j/p_j, kept as logs up to K = cutoff - 1.

    The tail decides recurrence: over its last doubling rho is read as a
    power, rho_k ~ k^-gamma with gamma = log(rho_{K//2} / rho_K) /
    log(K / (K//2)). gamma <= 1 is a divergent sum, a recurrent chain, and
    escape 0: bessel_p_up(alpha) has rho_k ~ k^-(1 - 2 alpha), recurrent
    for every alpha > 0, though at alpha = 0.3 the sum to 2,000,000 terms
    reads only 7,931. Otherwise the sum to K gains the tail
    K rho_K / (gamma - 1), that power's integral past K."""
    p = p_up(np.arange(1, cutoff))
    log_rho = np.cumsum(np.log((1.0 - p) / p))
    K, h = len(log_rho), len(log_rho) // 2
    gamma = (log_rho[h - 1] - log_rho[-1]) / np.log(K / h)
    if not gamma > 1.0:
        return 0.0
    with np.errstate(over="ignore"):  # an overflowed rho: escape 0
        rho = np.exp(log_rho)
        total = 1.0 + rho.sum() + K * rho[-1] / (gamma - 1.0)
    return float(1.0 / total)


def bessel_like_return_law(p_up: Callable, n_max: int) -> RenewalKernel:
    """Exact law of half the first return time to 0 of a nearest-neighbor
    birth-death chain on the non-negative integers.

    K(n) = P(T = 2n) is computed by dynamic programming over the
    (time, position) triangle, cut above the last position whose mass has
    not underflowed to exactly 0 (about 38 sqrt(t) at time t; those zeros
    stay 0, so the cut changes no bit); the mass not yet returned by time
    2 n_max is kept as the exact survival tail. alpha is the log-log slope
    of K fitted over max(n_max/20, 8) <= n <= n_max. A transient chain
    (escape probability 1e-6 or more) is rejected, since the associated
    renewal process would terminate.
    """
    t_steps = 2 * n_max
    pu = p_up(np.arange(t_steps + 2))
    if pu[0] != 1.0:
        raise KernelError("p_up(0) must be 1 (reflection at the origin)")
    esc = _escape_probability(p_up)
    if esc >= 1e-6:
        raise KernelError(f"chain is transient (escape probability {esc:.2e})")
    if np.any((pu[1:] <= 0) | (pu[1:] >= 1)):
        raise KernelError("p_up(x) must lie strictly in (0,1) for x >= 1")
    k = np.zeros(n_max + 1)
    # f[x] = P(at x at current time, no return to 0 yet); start after step 1
    f = np.zeros(t_steps + 2)
    f[1] = 1.0
    top = 1
    pd = 1.0 - pu
    for t in range(2, t_steps + 1):
        if t % 2 == 0:
            k[t // 2] = f[1] * pd[1]
        up = f[1:top + 1] * pu[1:top + 1]
        down = f[2:top + 2] * pd[2:top + 2]
        f[2:top + 2] = up
        f[1] = 0.0
        f[1:top + 1] += down
        top = min(top + 1, t_steps)
        while top > 1 and f[top] == 0.0 and f[top - 1] == 0.0:
            top -= 1

    lo, hi = max(n_max // 20, 8), n_max
    ns = np.arange(lo, hi + 1)
    mask = k[ns] > 0
    slope, _ = np.polyfit(np.log(ns[mask]), np.log(k[ns][mask]), 1)
    fitted_alpha = float(-slope - 1.0)
    return _kernel(fitted_alpha, k, float(f.sum()),
                   mean=np.inf if fitted_alpha < 1 else np.nan)


@dataclass(frozen=True)
class BoundTrace:
    max_violation: float
    monotone: bool
    grid_points: int


def check_coupling_bound(rf: RenewalFunction, kernel: RenewalKernel) -> BoundTrace:
    """Verify 0 <= u(n) - u(n+l) <= u(n) P(tau_1 > n) sum_{k<l} u(k) on a
    grid, the bound implied by coalescing two copies of the underlying chain.

    Only meaningful for kernels produced by bessel_like_return_law, whose u
    is a lazy-walk return probability and hence monotone.
    """
    u = rf.u
    n_max = rf.n_max
    cs = np.concatenate([[0.0], np.cumsum(u)])  # cs[l] = sum_{k<l} u(k)
    ns = np.unique(np.geomspace(8, (4 * n_max) // 5, 20).astype(int))
    worst = 0.0
    count = 0
    for n in ns:
        ls = np.unique(np.concatenate([[0], np.geomspace(1, max(n // 4, 1), 12).astype(int)]))
        diff = u[n] - u[n + ls]
        upper = u[n] * kernel.sf(n) * cs[ls]
        worst = max(worst, float(np.max(-diff)), float(np.max(diff - upper)))
        count += len(ls)
    monotone = bool(np.all(np.diff(u[1:]) <= 1e-15))
    return BoundTrace(max_violation=worst, monotone=monotone, grid_points=count)


# ---------------------------------------------------------------------------
# exact conditioned laws


def conditioned_g_law(rf: RenewalFunction, N: int, t: int) -> np.ndarray:
    """P(g_t = x | N in tau) for x = 0..t, with g_t = max(tau ∩ [0, t]).

    A last renewal at x <= t followed by a gap to y > t has probability
    u(x) K(y - x) u(N - y) / u(N); the sum over y = t+1..N is one
    correlation of K with u(N - .). The atom at x = t equals
    u(t) u(N - t) / u(N) by the renewal equation.
    """
    if not 0 <= t < N <= rf.n_max:
        raise ValueError("need 0 <= t < N <= rf.n_max")
    k = rf.kernel.head(N)
    u = rf.u
    # s[j] = sum_{y > t} K(y - (t - j)) u(N - y), for j = t - x = 0..t
    s = convolve(k[1:], u[:N - t])[N - t - 1:N]
    return u[:t + 1] * s[::-1] / u[N]


# ---------------------------------------------------------------------------
# sampling


def sample_renewal(kernel: RenewalKernel, N: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Renewal point set in {0..N}, as a sorted integer array containing 0:
    i.i.d. gaps until the horizon is passed. (Conditioned on N in tau, it
    is the pinned sampler of discrete_pinning with zero coupling.)"""
    cdf = memoryview(np.cumsum(kernel.head(N)[1:]))
    last = cdf[-1] if len(cdf) else 0.0
    pts = [0]
    pos = 0
    while pos < N:
        # a draw beyond cdf[-1] is a gap past the horizon
        x = rng.random()
        if x > last:
            break
        gap = bisect_left(cdf, x) + 1
        if pos + gap > N:
            break
        pos += gap
        pts.append(pos)
    return np.array(pts, dtype=np.int64)
