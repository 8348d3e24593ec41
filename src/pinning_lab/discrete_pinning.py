"""Exact quenched partition functions for disordered pinning models.

Given a renewal kernel, a disorder realization omega and couplings (beta, h),
the conditioned partition function over {a..b} weights each interior renewal
point i with exp(beta omega_i - Lambda(beta) + h). The module generates
disorder, scales (beta_hat, h_hat) to size-N couplings, evaluates Z exactly
by the weighted-renewal recursion (optionally across many replicas at once),
rewrites Z as a polynomial chaos over subsets of sites, and samples the
conditioned Gibbs measure exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pinning_lab.closed_sets import ClosedSetR
from pinning_lab.renewal import KernelError, RenewalFunction, RenewalKernel
from pinning_lab.volterra import renewal_solve_batch


def lambda_of(distribution: str, t):
    """Cumulant generating function log E[exp(t omega)] in closed form."""
    t = np.asarray(t, dtype=float)
    if distribution == "standard-normal":
        out = t * t / 2.0
    elif distribution == "rademacher":
        out = np.log(np.cosh(t))
    else:
        raise ValueError(f"unsupported disorder distribution {distribution!r}")
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class DisorderField:
    """Realization of the i.i.d. environment omega_1..omega_{N-1}."""

    omega: np.ndarray
    distribution: str

    def lam(self, t):
        return lambda_of(self.distribution, t)

    @property
    def n_sites(self) -> int:
        return len(self.omega)


def sample_disorder(distribution: str, n_sites: int,
                    rng: np.random.Generator) -> DisorderField:
    if distribution == "standard-normal":
        om = rng.standard_normal(n_sites)
    elif distribution == "rademacher":
        om = rng.integers(0, 2, n_sites) * 2.0 - 1.0
    else:
        raise ValueError(f"unsupported disorder distribution {distribution!r}")
    return DisorderField(omega=om, distribution=distribution)


@dataclass(frozen=True)
class CouplingScale:
    """Size-N couplings derived from the continuum pair (beta_hat, h_hat).

    alpha in (1/2, 1): beta_N = beta_hat L(N) / N^(alpha - 1/2),
                       h_N = h_hat L(N) / N^alpha, where L(N) is the
                       effective slowly varying value N^(1+alpha) K(N).
    alpha > 1:         beta_N = beta_hat / sqrt(N), h_N = h_hat / N.
    """

    beta_hat: float
    h_hat: float
    N: int
    beta_N: float
    h_N: float


def scale_couplings(beta_hat: float, h_hat: float, N: int,
                    kernel: RenewalKernel) -> CouplingScale:
    alpha = kernel.alpha
    if alpha == 1.0:
        raise KernelError("alpha = 1 has no coupling scaling")
    if beta_hat <= 0:
        raise ValueError("beta_hat must be positive")
    if alpha > 1:
        beta_n = beta_hat / np.sqrt(N)
        h_n = h_hat / N
    else:
        # effective slowly varying value: N^(1+alpha) K(N) absorbs the
        # kernel's normalizing constant, which the asymptotics of the
        # renewal mass function carry as well
        if N <= kernel.n_max:
            ln = float(N ** (1.0 + alpha) * kernel.k[N])
        else:
            ln = float(kernel.L(N))
        beta_n = beta_hat * ln / N ** (alpha - 0.5)
        h_n = h_hat * ln / N ** alpha
    return CouplingScale(beta_hat=beta_hat, h_hat=h_hat, N=N,
                         beta_N=beta_n, h_N=h_n)


# ---------------------------------------------------------------------------
# partition functions


def _site_weights(disorder: DisorderField, beta: float, h: float) -> np.ndarray:
    """w[i] = exp(beta omega_i - Lambda(beta) + h), 1-indexed via w[0]=nan."""
    w = np.empty(disorder.n_sites + 1)
    w[0] = np.nan
    w[1:] = np.exp(beta * disorder.omega - disorder.lam(beta) + h)
    return w


def partition_dp(kernel: RenewalKernel, rf: RenewalFunction,
                 disorder: DisorderField, beta: float, h: float,
                 a: int, b: int) -> float:
    """Conditioned partition function Z(a, b), exactly.

    W(a, j) = K(j-a) + sum_{i in (a,j)} W(a, i) w_i K(j-i), with w the
    interior site weights; Z = W(a, b) / u(b - a). Falls back to a log-domain
    recursion when the weights overflow; raises OverflowError when Z does.
    """
    if not 0 <= a <= b:
        raise ValueError("need 0 <= a <= b")
    n = b - a
    if n > rf.n_max or rf.u[n] <= 0:
        raise KernelError("u(b - a) unavailable or zero")
    if n <= 1:
        return 1.0
    arg = beta * disorder.omega[a:b - 1] - disorder.lam(beta) + h
    if np.max(arg, initial=0.0) > 500.0:
        z = float(np.exp(_log_partition_dp(kernel, rf, arg)))
    else:
        w = np.exp(arg)  # w[i-a-1] is the weight of site i
        W = np.empty(n + 1)
        W[0] = 0.0
        for j in range(1, n + 1):
            m = min(j, kernel.n_max)
            s = kernel.k[j] if j <= kernel.n_max else 0.0
            if j > 1:
                s += np.dot(W[max(j - m, 1):j] * w[max(j - m, 1) - 1:j - 1],
                            kernel.k[min(j - 1, m):0:-1])
            W[j] = s
        z = float(W[n] / rf.u[n])
    if not np.isfinite(z):
        raise OverflowError(f"Z not finite at N={n}, beta={beta}, h={h}")
    return z


def _log_partition_dp(kernel: RenewalKernel, rf: RenewalFunction,
                      arg: np.ndarray) -> float:
    """log Z via logsumexp accumulation; arg holds the interior site
    exponents for sites a+1..b-1."""
    n = len(arg) + 1
    logk = np.full(n + 1, -np.inf)
    m = min(n, kernel.n_max)
    with np.errstate(divide="ignore"):
        logk[1:m + 1] = np.log(kernel.k[1:m + 1])
    logW = np.full(n + 1, -np.inf)
    for j in range(1, n + 1):
        terms = [logk[j]]
        if j > 1:
            t = logW[1:j] + arg[:j - 1] + logk[j - 1:0:-1]
            terms.append(np.max(t) + np.log(np.sum(np.exp(t - np.max(t)))))
        hi = max(terms)
        logW[j] = hi + np.log(sum(np.exp(x - hi) for x in terms))
    return logW[n] - np.log(rf.u[n])


def partition_dp_batch(kernel: RenewalKernel, rf: RenewalFunction,
                       omegas: np.ndarray, distribution: str,
                       beta: float, h: float, N: int) -> np.ndarray:
    """Z(0, N) for many disorder replicas at once.

    omegas has shape (R, N-1). x[j-1] = W(0, j) w_j (no weight at N) solves
    the renewal recursion with forcing K(j); OverflowError if Z overflows.
    """
    R = omegas.shape[0]
    if omegas.shape[1] < N - 1:
        raise ValueError("need at least N-1 disorder sites per replica")
    if N > rf.n_max or rf.u[N] <= 0:
        raise KernelError("u(N) unavailable or zero")
    if N <= 1:
        return np.ones(R)
    k = np.pad(kernel.k[:N + 1], (0, max(0, N - kernel.n_max)))
    lam = lambda_of(distribution, beta)
    w = np.exp(np.pad(beta * omegas[:, :N - 1].T - lam + h, ((0, 1), (0, 0))))
    z = renewal_solve_batch(k, k[1:], w)[-1] / rf.u[N]
    if not np.all(np.isfinite(z)):
        raise OverflowError(f"Z not finite at N={N}, beta={beta}, h={h}")
    return z


@dataclass(frozen=True)
class DiscreteZSurface:
    """Z(a, b) on anchor pairs 0 <= a <= b <= N, with triangular-bisection
    linear interpolation between integer anchors."""

    N: int
    anchors: np.ndarray  # (n_anchor, 2) int pairs
    values: np.ndarray
    interpolation: str = "triangular-bisection-linear"

    def lookup(self) -> dict[tuple[int, int], float]:
        return {(int(a), int(b)): float(v)
                for (a, b), v in zip(self.anchors, self.values)}

    def interpolate(self, s: float, t: float) -> float:
        """Value at real (s, t), each unit square split along its main
        diagonal into two linear pieces."""
        table = self.lookup()

        def zat(a, b):
            if b <= a:
                return 1.0
            try:
                return table[(a, b)]
            except KeyError:
                raise ValueError(f"anchor ({a},{b}) not tabulated") from None

        a, b = int(np.floor(s)), int(np.floor(t))
        fs, ft = s - a, t - b
        if fs == 0.0 and ft == 0.0:
            return zat(a, b)
        if fs >= ft:  # triangle (a,b), (a+1,b), (a+1,b+1)
            return ((1 - fs) * zat(a, b) + (fs - ft) * zat(a + 1, b)
                    + ft * zat(a + 1, b + 1))
        return ((1 - ft) * zat(a, b) + (ft - fs) * zat(a, b + 1)
                + fs * zat(a + 1, b + 1))


def partition_surface(kernel: RenewalKernel, rf: RenewalFunction,
                      disorder: DisorderField, beta: float, h: float,
                      N: int, anchors) -> DiscreteZSurface:
    """Z at every requested anchor pair, sharing the forward recursion
    prefix across all b for a fixed a."""
    anchors = np.asarray(anchors, dtype=int)
    if np.any(anchors < 0) or np.any(anchors[:, 1] > N):
        raise ValueError("anchors must lie in {0..N}")
    if np.any(anchors[:, 0] > anchors[:, 1]):
        raise ValueError("anchors need a <= b")
    w = _site_weights(disorder, beta, h)
    values = np.empty(len(anchors))
    k, kmax = kernel.k, kernel.n_max
    for a in np.unique(anchors[:, 0]):
        sel = anchors[:, 0] == a
        bmax = int(anchors[sel, 1].max())
        n = bmax - a
        W = np.zeros(n + 1)
        for j in range(1, n + 1):
            m = min(j - 1, kmax)
            s = k[j] if j <= kmax else 0.0
            if m >= 1:
                # W[i] already carries its own site weight
                s += np.dot(W[j - m:j], k[m:0:-1])
            # store W weighted at its own site so longer b reuse it; the
            # weight is divided back out when j is read as an endpoint
            W[j] = s * (w[a + j] if a + j < len(w) else 1.0)
        for idx in np.flatnonzero(sel):
            b = int(anchors[idx, 1])
            d = b - a
            if d <= 1:
                values[idx] = 1.0
                continue
            site = w[b] if b < len(w) else 1.0
            values[idx] = (W[d] / site) / rf.u[d]
    return DiscreteZSurface(N=N, anchors=anchors, values=values)


# ---------------------------------------------------------------------------
# polynomial chaos


def xi_vars(disorder: DisorderField, beta: float, h: float) -> np.ndarray:
    """xi_i = exp(beta omega_i - Lambda(beta) + h) - 1, the centered-ish
    multilinear variables of the chaos rewriting."""
    return np.exp(beta * disorder.omega - disorder.lam(beta) + h) - 1.0


def chaos_expansion_exact(kernel: RenewalKernel, rf: RenewalFunction,
                          disorder: DisorderField, beta: float, h: float,
                          r: int, max_order: int | None = None) -> float:
    """Z(0, r) as the exact multilinear polynomial in the xi variables.

    Z = sum over subsets I of {1..r-1} of P(I subset of tau | r in tau)
    prod_{i in I} xi_i, the renewal probability being the product of u over
    consecutive gaps divided by u(r). Subsets are enumerated explicitly
    (vectorized doubling over sites), so the result is an oracle fully
    independent of the dynamic-programming recursion. max_order truncates
    at |I| <= max_order; None means the full expansion.
    """
    if max_order is None and r > 22:
        raise ValueError("full enumeration capped at r <= 22")
    if r > rf.n_max or rf.u[r] <= 0:
        raise KernelError("u(r) unavailable or zero")
    if r <= 1:
        return 1.0
    xi = xi_vars(disorder, beta, h)
    # per-subset running product and last occupied site, doubled site by site
    prod = np.array([1.0])
    last = np.array([0], dtype=np.int64)
    order = np.array([0], dtype=np.int64)
    u = rf.u
    for i in range(1, r):
        newp = prod * u[i - last] * xi[i - 1]
        newo = order + 1
        if max_order is not None:
            keep = newo <= max_order
            newp, newo = newp[keep], newo[keep]
            newl = np.full(len(newp), i, dtype=np.int64)
            prod = np.concatenate([prod, newp])
            last = np.concatenate([last, newl])
            order = np.concatenate([order, newo])
        else:
            prod = np.concatenate([prod, newp])
            last = np.concatenate([last, np.full(len(newp), i, dtype=np.int64)])
            order = np.concatenate([order, newo])
    return float(np.sum(prod * u[r - last]) / u[r])


# ---------------------------------------------------------------------------
# exact Gibbs sampling


@dataclass(frozen=True)
class PinnedSampler:
    """Sequential sampler for the conditioned pinning Gibbs measure.

    V[j] is the weighted partition mass from j to N (interior sites carry
    their Gibbs weight, the endpoint N does not), accumulated in the log
    domain so large couplings cannot overflow. Transition law from i:
    P(next = j) proportional to K(j-i) w_j^{1(j<N)} V(j).
    """

    N: int
    log_cdf: np.ndarray  # (N, N+1); row i = transition CDF from point i
    underflow: bool

    def sample(self, rng: np.random.Generator) -> ClosedSetR:
        pts = [0]
        pos = 0
        while pos < self.N:
            row = self.log_cdf[pos]
            j = int(np.searchsorted(row[pos + 1:], rng.random())) + pos + 1
            pts.append(j)
            pos = j
        return ClosedSetR(np.array(pts, dtype=float), resolution=1.0)


def build_pinned_sampler(kernel: RenewalKernel, disorder: DisorderField,
                         beta: float, h: float, N: int) -> PinnedSampler:
    if N - 1 > disorder.n_sites:
        raise ValueError("disorder field too short for horizon N")
    if N > kernel.n_max and kernel.survival[kernel.n_max] > 1e-15:
        raise KernelError("horizon exceeds the tabulated kernel range")
    arg = np.zeros(N + 1)
    arg[1:N] = beta * disorder.omega[:N - 1] - disorder.lam(beta) + h
    with np.errstate(divide="ignore"):
        logk = np.full(N + 1, -np.inf)
        m = min(N, kernel.n_max)
        logk[1:m + 1] = np.log(kernel.k[1:m + 1])
    logV = np.full(N + 1, -np.inf)
    logV[N] = 0.0
    underflow = False
    for j in range(N - 1, -1, -1):
        t = logk[1:N - j + 1] + arg[j + 1:N + 1] + logV[j + 1:N + 1]
        hi = np.max(t)
        if not np.isfinite(hi):
            underflow = True
            logV[j] = -np.inf
            continue
        logV[j] = hi + np.log(np.sum(np.exp(t - hi)))
    cdf = np.zeros((N, N + 1))
    for i in range(N):
        lw = logk[1:N - i + 1] + arg[i + 1:N + 1] + logV[i + 1:N + 1]
        lw -= np.max(lw)
        w = np.exp(lw)
        c = np.cumsum(w)
        cdf[i, i + 1:] = c / c[-1]
    return PinnedSampler(N=N, log_cdf=cdf, underflow=underflow)


def sample_pinned(kernel: RenewalKernel, disorder: DisorderField,
                  beta: float, h: float, N: int,
                  rng: np.random.Generator) -> ClosedSetR:
    """One draw from the conditioned pinning measure on {0..N}."""
    return build_pinned_sampler(kernel, disorder, beta, h, N).sample(rng)


def enumerate_pinned_exact(kernel: RenewalKernel, disorder: DisorderField,
                           beta: float, h: float, N: int) -> dict:
    """Exact configuration probabilities by brute enumeration (N <= 16).

    Returns a dict mapping interior-site subsets (as frozensets) to their
    probability under the conditioned Gibbs measure.
    """
    if N > 16:
        raise ValueError("exhaustive enumeration capped at N <= 16")
    w = np.exp(beta * disorder.omega[:N - 1] - disorder.lam(beta) + h)
    out = {}
    total = 0.0
    for mask in range(2 ** (N - 1)):
        sites = [i + 1 for i in range(N - 1) if mask >> i & 1]
        pts = [0] + sites + [N]
        gaps = np.diff(pts)
        if np.any(gaps > kernel.n_max):
            if kernel.survival[kernel.n_max] > 1e-15:
                raise KernelError("gap exceeds tabulated kernel range")
            weight = 0.0
        else:
            weight = float(np.prod(kernel.k[gaps])
                           * np.prod(w[[s - 1 for s in sites]]))
        out[frozenset(sites)] = weight
        total += weight
    return {k: v / total for k, v in out.items()}
