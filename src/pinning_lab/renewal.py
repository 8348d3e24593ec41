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

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.signal import fftconvolve
from scipy.special import zeta


class KernelError(ValueError):
    """Raised for kernel specs that cannot yield a valid renewal law."""


# ---------------------------------------------------------------------------
# slowly varying part


@dataclass(frozen=True)
class SlowlyVarying:
    """Pointwise evaluator for the slowly varying factor L(n).

    kind is one of "constant", "log-power" (L(n) = log(e + n)^power) or
    "tabulated" (values interpolated on a stored grid, constant beyond it).
    """

    kind: str = "constant"
    value: float = 1.0
    power: float = 0.0
    grid: np.ndarray | None = None
    table: np.ndarray | None = None

    def __call__(self, n):
        n = np.asarray(n, dtype=float)
        if self.kind == "constant":
            return np.full_like(n, self.value)
        if self.kind == "log-power":
            return self.value * np.log(np.e + n) ** self.power
        if self.kind == "tabulated":
            return np.interp(n, self.grid, self.table)
        raise KernelError(f"unknown slowly-varying kind {self.kind!r}")


CONSTANT_L = SlowlyVarying()


# ---------------------------------------------------------------------------
# kernel


@dataclass(frozen=True)
class KernelSpec:
    """Declarative description of an inter-arrival law.

    family "power-law": K(n) proportional to L(n) / n^(1+alpha), normalized
    including the analytic tail beyond n_max.
    family "explicit": finitely supported gap probabilities, intended for
    hand-checkable tests; must be normalized already.
    """

    family: str
    alpha: float | None = None
    n_max: int = 1000
    sv: SlowlyVarying = CONSTANT_L
    probs: tuple[float, ...] | None = None
    allow_irregular: bool = False


@dataclass(frozen=True)
class RenewalKernel:
    """Tabulated gap law with exact analytic tail continuation.

    k[n] = K(n) for 1 <= n <= n_max (k[0] = 0); survival[n] = P(tau_1 > n)
    carries the mass beyond n_max exactly, so sum(k) + survival[n_max] = 1.
    """

    alpha: float
    k: np.ndarray
    survival: np.ndarray
    slowly_varying: SlowlyVarying = CONSTANT_L
    mean: float = np.inf
    regular: bool = True
    tail_fit: dict | None = None

    @property
    def n_max(self) -> int:
        return len(self.k) - 1

    def K(self, n):
        return self.k[np.asarray(n)]

    def sf(self, n):
        """P(tau_1 > n) for 0 <= n <= n_max."""
        return self.survival[np.asarray(n)]

    def L(self, n):
        return self.slowly_varying(n)


def _power_tail_sum(alpha: float, sv: SlowlyVarying, start: int) -> float:
    """Sum of L(n)/n^(1+alpha) over n >= start, to ~1e-13 relative."""
    if sv.kind == "constant":
        return sv.value * float(zeta(1.0 + alpha, start))
    n_cut = max(4 * start, 2_000_000)
    ns = np.arange(start, n_cut, dtype=float)
    head = float(np.sum(sv(ns) / ns ** (1.0 + alpha)))
    with warnings.catch_warnings():
        # the remainder is ~1e-5 of the head; quad roundoff there is harmless
        warnings.simplefilter("ignore")
        rest, _ = quad(lambda x: float(sv(x)) / x ** (1.0 + alpha),
                       n_cut - 0.5, np.inf)
    return head + rest


def build_kernel(spec: KernelSpec) -> RenewalKernel:
    """Construct a normalized RenewalKernel from a spec.

    Rejects alpha <= 0 and alpha == 1 (the theory is developed for
    alpha in (0,1) and alpha > 1 only) and non-normalizable specs.
    Explicit kernels that do not satisfy the regular-variation tail
    assumption are accepted with a warning when allow_irregular is set.
    """
    if spec.family == "power-law":
        alpha = spec.alpha
        if alpha is None or alpha <= 0:
            raise KernelError("tail exponent alpha must be positive")
        if alpha == 1.0:
            raise KernelError("alpha = 1 is not supported")
        if spec.n_max < 2:
            raise KernelError("n_max must be at least 2")
        ns = np.arange(1, spec.n_max + 1, dtype=float)
        raw = spec.sv(ns) / ns ** (1.0 + alpha)
        tail_raw = _power_tail_sum(alpha, spec.sv, spec.n_max + 1)
        total = raw.sum() + tail_raw
        if not np.isfinite(total) or total <= 0:
            raise KernelError("kernel spec is not normalizable")
        k = np.zeros(spec.n_max + 1)
        k[1:] = raw / total
        survival = np.empty(spec.n_max + 1)
        survival[spec.n_max] = tail_raw / total
        # backward exact cumulation keeps sf accurate in the deep tail
        survival[:-1] = survival[spec.n_max] + np.cumsum(k[:0:-1])[::-1]
        mean = np.inf
        if alpha > 1:
            head = float(np.sum(ns * k[1:]))
            mean = head + _power_tail_sum(alpha - 1.0, spec.sv, spec.n_max + 1) / total
        return RenewalKernel(alpha=alpha, k=k, survival=survival,
                             slowly_varying=spec.sv, mean=mean, regular=True)

    if spec.family == "explicit":
        if not spec.probs:
            raise KernelError("explicit family needs gap probabilities")
        probs = np.asarray(spec.probs, dtype=float)
        if np.any(probs <= 0):
            raise KernelError("all tabulated gap probabilities must be positive")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise KernelError("explicit gap probabilities must sum to 1")
        if not spec.allow_irregular:
            raise KernelError(
                "finitely supported kernels violate the heavy-tail assumption; "
                "pass allow_irregular=True for hand-check use")
        warnings.warn("explicit kernel does not satisfy the regular-variation "
                      "tail assumption; accepted for hand-check use only",
                      stacklevel=2)
        k = np.zeros(len(probs) + 1)
        k[1:] = probs
        survival = np.empty(len(k))
        survival[0] = 1.0
        survival[1:] = np.clip(1.0 - np.cumsum(k[1:]), 0.0, 1.0)
        mean = float(np.sum(np.arange(len(k)) * k))
        return RenewalKernel(alpha=spec.alpha if spec.alpha else np.nan,
                             k=k, survival=survival, mean=mean, regular=False)

    raise KernelError(f"unknown kernel family {spec.family!r}")


def power_law_kernel(alpha: float, n_max: int,
                     sv: SlowlyVarying = CONSTANT_L) -> RenewalKernel:
    return build_kernel(KernelSpec("power-law", alpha=alpha, n_max=n_max, sv=sv))


def matched_power_kernel(alpha: float, n_max: int,
                         c: float = 0.5) -> RenewalKernel:
    """Kernel whose renewal mass function is exactly c n^(alpha-1).

    Built by deconvolving u(n) = c n^(alpha-1) (n >= 1, u(0) = 1) through
    the renewal equation. The resulting gap law has a regularly varying
    tail with effective slowly varying constant C_alpha / c, but none of
    the slowly decaying corrections a generic kernel's renewal function
    carries. The lattice itself still biases continuum comparisons: the
    pinned g_t law keeps an atom P(g_t = t) = u(t) u(N-t) / u(N)
    = c (N t1 (1 - t1))^(alpha-1) at t = t1 N, so its distance to the
    continuum marginal is exactly of order N^(alpha-1).
    """
    if not 0.0 < alpha < 1.0:
        raise KernelError("matched kernel requires alpha in (0, 1)")
    if not 0.0 < c < 1.0:
        raise KernelError("need 0 < c < 1 so that K(1) = c is a probability")
    u = np.empty(n_max + 1)
    u[0] = 1.0
    u[1:] = c * np.arange(1, n_max + 1, dtype=float) ** (alpha - 1.0)
    k = np.zeros(n_max + 1)
    for n in range(1, n_max + 1):
        k[n] = u[n] - np.dot(k[1:n], u[n - 1:0:-1])
        if k[n] < 0:
            raise KernelError(f"deconvolved kernel negative at n = {n}")
    survival = np.empty(n_max + 1)
    survival[0] = 1.0
    survival[1:] = np.clip(1.0 - np.cumsum(k[1:]), 0.0, 1.0)
    sv = SlowlyVarying("constant", value=stable_constant(alpha) / c)
    return RenewalKernel(alpha=alpha, k=k, survival=survival,
                         slowly_varying=sv, mean=np.inf, regular=True)


def two_point_kernel(p1: float = 0.5) -> RenewalKernel:
    """K(1) = p1, K(2) = 1 - p1: the standard hand-check kernel."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_kernel(KernelSpec("explicit", probs=(p1, 1.0 - p1),
                                       allow_irregular=True))


def check_tail_regularity(kernel: RenewalKernel, rtol: float = 0.05) -> bool:
    """Is n^(1+alpha) K(n) / L(n) flat between n_max/2 and n_max?"""
    n1, n2 = kernel.n_max // 2, kernel.n_max
    r = lambda n: n ** (1.0 + kernel.alpha) * kernel.k[n] / float(kernel.L(n))
    return bool(abs(r(n2) / r(n1) - 1.0) < rtol)


# ---------------------------------------------------------------------------
# renewal function


@dataclass(frozen=True)
class RenewalFunction:
    """u[n] = P(n in tau), computed exactly from the kernel."""

    u: np.ndarray
    alpha: float
    slowly_varying: SlowlyVarying
    kernel: RenewalKernel

    @property
    def n_max(self) -> int:
        return len(self.u) - 1


def _renewal_u_direct(k: np.ndarray, n_max: int) -> np.ndarray:
    u = np.zeros(n_max + 1)
    u[0] = 1.0
    kmax = len(k) - 1
    for n in range(1, n_max + 1):
        m = min(n, kmax)
        u[n] = np.dot(k[1:m + 1], u[n - 1::-1][:m])
    return u


def _renewal_u_cdq(k: np.ndarray, n_max: int, base: int = 128) -> np.ndarray:
    """Divide-and-conquer convolution, O(n log^2 n); matches the direct
    recursion to ~1e-14."""
    u = np.zeros(n_max + 1)
    u[0] = 1.0
    kmax = len(k) - 1
    acc = np.zeros(n_max + 1)
    acc[1:min(kmax, n_max) + 1] = k[1:min(kmax, n_max) + 1]  # u[0] contribution

    def solve(lo: int, hi: int) -> None:
        if hi - lo <= base:
            for n in range(lo, hi):
                m = min(n - lo, kmax)
                s = acc[n]
                if m > 0:
                    s += np.dot(k[1:m + 1], u[n - 1:n - m - 1:-1])
                u[n] = s
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        width = min(hi - lo - 1, kmax)
        if width >= 1:
            c = fftconvolve(u[lo:mid], k[1:width + 1])
            i0, i1 = mid - lo - 1, hi - lo - 1
            seg = c[i0:i1]
            acc[mid:mid + len(seg)] += seg
        solve(mid, hi)

    if n_max >= 1:
        solve(1, n_max + 1)
    return u


def renewal_function(kernel: RenewalKernel, n_max: int,
                     method: str = "auto") -> RenewalFunction:
    """Visit probabilities u(0..n_max) from the convolution recursion
    u(n) = sum_m K(m) u(n-m), u(0) = 1."""
    if n_max > kernel.n_max and kernel.regular:
        raise KernelError("n_max exceeds the tabulated kernel range")
    if method == "direct" or (method == "auto" and n_max <= 4096):
        u = _renewal_u_direct(kernel.k, n_max)
    else:
        u = _renewal_u_cdq(kernel.k, n_max)
    return RenewalFunction(u=u, alpha=kernel.alpha,
                           slowly_varying=kernel.slowly_varying, kernel=kernel)


def stable_constant(alpha: float) -> float:
    """C_alpha = alpha sin(pi alpha) / pi, the constant in the infinite-mean
    renewal asymptotics u(n) ~ C_alpha / (L(n) n^(1-alpha))."""
    return alpha * np.sin(np.pi * alpha) / np.pi


@dataclass(frozen=True)
class RatioTrace:
    ns: np.ndarray
    ratios: np.ndarray
    mode: str  # "infinite-mean" or "finite-mean"


def check_asymptotics(rf: RenewalFunction, n_points: int = 12) -> RatioTrace:
    """Trace of the renewal-theorem ratio at log-spaced indices.

    For alpha in (0,1): r(n) = u(n) L(n) n^(1-alpha) / C_alpha, where the
    effective slowly varying factor L(n) = n^(1+alpha) K(n) is read off the
    kernel itself (this absorbs the normalizing constant exactly).
    For alpha > 1:      r(n) = u(n) E[tau_1].
    Either trace approaches 1 as n grows.
    """
    alpha = rf.alpha
    n_max = rf.n_max
    ns = np.unique(np.geomspace(16, n_max, n_points).astype(int))
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
    n0: int
    points: int


def check_smoothness(rf: RenewalFunction, n0: int = 64,
                     min_delta: float = 0.05) -> SmoothnessFit:
    """Fit |u(n+l)/u(n) - 1| <= C (l/n)^delta over n >= n0, 0 <= l <= n/4.

    delta is the log-log regression slope of the ratio deviation against l/n
    (capped at 1), and C is then the smallest constant making the bound hold
    on the evaluation grid. l = 0 is trivially satisfied and excluded from
    the fit.
    """
    n_max = rf.n_max
    if n_max < max(4 * n0, 1000):
        raise KernelError("u must be tabulated to n_max >= 1000 with n0 <= n_max/4")
    n_hi = (4 * n_max) // 5
    ns = np.unique(np.geomspace(n0, n_hi, 24).astype(int))
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
    if delta < min_delta:
        return SmoothnessFit(C=np.inf, delta=delta, passed=False, n0=n0,
                             points=len(x))
    c = float(np.max(np.exp(y - delta * x)))
    return SmoothnessFit(C=c, delta=delta, passed=delta >= min_delta, n0=n0,
                         points=len(x))


# ---------------------------------------------------------------------------
# Bessel-like walks


def bessel_p_up(alpha: float) -> Callable[[int], float]:
    """Up-step probabilities of a birth-death chain whose return-time law has
    tail exponent alpha: p(x) = 1/2 + (1 - 2 alpha)/(4x), clipped away from
    {0, 1}, with p(0) = 1."""
    def p(x: int) -> float:
        if x == 0:
            return 1.0
        return float(np.clip(0.5 + (1.0 - 2.0 * alpha) / (4.0 * x), 0.05, 0.95))
    return p


def _escape_probability(p_up: Callable[[int], float], cutoff: int = 2_000_000) -> float:
    """P(never return to 0) for the birth-death chain, from the standard
    resistance series: escape = 1 / sum_k rho_k with rho_k = prod q_j/p_j."""
    total = 1.0
    rho = 1.0
    for x in range(1, cutoff):
        p = p_up(x)
        rho *= (1.0 - p) / p
        total += rho
        if total > 1e9:
            return 0.0
    return 1.0 / total


def bessel_like_return_law(p_up: Callable[[int], float], n_max: int,
                           escape_tol: float = 1e-6) -> RenewalKernel:
    """Exact law of half the first return time to 0 of a nearest-neighbor
    birth-death chain on the non-negative integers.

    K(n) = P(T = 2n) is computed by dynamic programming over the
    (time, position) triangle; the mass not yet returned by time 2 n_max is
    kept as the exact survival tail. A transient chain (escape probability
    above escape_tol) is rejected, since the associated renewal process would
    terminate.
    """
    if p_up(0) != 1.0:
        raise KernelError("p_up(0) must be 1 (reflection at the origin)")
    esc = _escape_probability(p_up)
    if esc >= escape_tol:
        raise KernelError(f"chain is transient (escape probability {esc:.2e})")

    t_steps = 2 * n_max
    pu = np.array([p_up(x) for x in range(t_steps + 2)])
    if np.any((pu[1:] <= 0) | (pu[1:] >= 1)):
        raise KernelError("p_up(x) must lie strictly in (0,1) for x >= 1")
    k = np.zeros(n_max + 1)
    # f[x] = P(at x at current time, no return to 0 yet); start after step 1
    f = np.zeros(t_steps + 2)
    f[1] = 1.0
    top = 1
    for t in range(2, t_steps + 1):
        up = f[1:top + 1] * pu[1:top + 1]
        down = f[2:top + 2] * (1.0 - pu[2:top + 2])
        newf = np.zeros_like(f)
        newf[2:top + 2] = up
        newf[1:top + 1] += down
        if t % 2 == 0:
            k[t // 2] = f[1] * (1.0 - pu[1])
        f = newf
        top = min(top + 1, t_steps)
    residual = float(f.sum())

    survival = np.empty(n_max + 1)
    survival[n_max] = residual
    survival[:-1] = residual + np.cumsum(k[:0:-1])[::-1]

    lo, hi = max(n_max // 20, 8), n_max
    ns = np.arange(lo, hi + 1)
    mask = k[ns] > 0
    slope, _ = np.polyfit(np.log(ns[mask]), np.log(k[ns][mask]), 1)
    fitted_alpha = float(-slope - 1.0)
    fit = {"fitted_alpha": fitted_alpha, "fit_range": (lo, hi),
           "escape_probability": esc}
    return RenewalKernel(alpha=fitted_alpha, k=k, survival=survival,
                         mean=np.inf if fitted_alpha < 1 else np.nan,
                         regular=True, tail_fit=fit)


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
    k = np.zeros(N + 1)
    m = min(N, rf.kernel.n_max)
    k[1:m + 1] = rf.kernel.k[1:m + 1]
    u = rf.u
    # s[j] = sum_{y > t} K(y - (t - j)) u(N - y), for j = t - x = 0..t
    s = fftconvolve(k[1:], u[:N - t], mode="valid")
    return u[:t + 1] * s[::-1] / u[N]


# ---------------------------------------------------------------------------
# sampling


def sample_renewal(kernel: RenewalKernel, N: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Renewal point set in {0..N}, as a sorted integer array containing 0:
    i.i.d. gaps until the horizon is passed. (Conditioned on N in tau, it
    is the pinned sampler of discrete_pinning with zero coupling.)"""
    if N > kernel.n_max and kernel.survival[kernel.n_max] > 1e-15:
        raise KernelError("horizon exceeds the tabulated kernel range")
    cdf = np.cumsum(kernel.k[1:N + 1])
    pts = [0]
    pos = 0
    while pos < N:
        # a draw beyond cdf[-1] is a gap past the horizon
        x = rng.random()
        if x > cdf[-1]:
            break
        gap = int(np.searchsorted(cdf, x)) + 1
        if pos + gap > N:
            break
        pos += gap
        pts.append(pos)
    return np.array(pts, dtype=np.int64)


def export_csv(path, kernel: RenewalKernel, rf: RenewalFunction) -> None:
    """Write columns (n, K(n), u(n)) for n = 0..n_max of rf."""
    n = np.arange(rf.n_max + 1)
    data = np.column_stack([n, kernel.k[:rf.n_max + 1], rf.u])
    np.savetxt(path, data, delimiter=",", header="n,K,u", comments="")
