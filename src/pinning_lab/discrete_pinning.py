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

from dataclasses import dataclass, field

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


def _transfer(kernel: RenewalKernel, arg: np.ndarray, beta: float,
              h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The weighted renewal recursion over N - 1 sites for R replicas.

    arg (N-1, R) holds the site exponents in the order of the recursion.
    Returns (k, x, e) with k = K(0..N), zero past the kernel's table, and
    x[j-1] 2**e[j-1] = W(j) w_j for j = 1..N, where W(j) = K(j) +
    sum_{i<j} W(i) w_i K(j-i) and the last site carries w = 1.
    """
    N = arg.shape[0] + 1
    with np.errstate(over="ignore"):
        w = np.exp(arg)
    if np.isinf(w).any():
        raise OverflowError(
            f"site weight not finite at N={N}, beta={beta}, h={h}")
    k = np.pad(kernel.k[:N + 1], (0, max(0, N - kernel.n_max)))
    x, e = renewal_solve_batch(k, k[1:], np.vstack([w, np.ones(w.shape[1])]))
    return k, x, e


def partition_dp(kernel: RenewalKernel, rf: RenewalFunction,
                 disorder: DisorderField, beta: float, h: float,
                 a: int, b: int) -> float:
    """Conditioned partition function Z(a, b), exactly: partition_dp_batch
    for one replica whose sites are a+1..b-1."""
    if not 0 <= a <= b:
        raise ValueError("need 0 <= a <= b")
    return float(partition_dp_batch(kernel, rf, disorder.omega[None, a:b - 1],
                                    disorder.distribution, beta, h, b - a)[0])


def partition_dp_batch(kernel: RenewalKernel, rf: RenewalFunction,
                       omegas: np.ndarray, distribution: str,
                       beta: float, h: float, N: int) -> np.ndarray:
    """Z(0, N) for many disorder replicas at once.

    omegas has shape (R, N-1). W(0, j) w_j (no weight at N) solves the
    renewal recursion with forcing K(j), and Z = W(0, N) / u(N);
    OverflowError if a site weight or Z overflows.
    """
    R = omegas.shape[0]
    if omegas.shape[1] < N - 1:
        raise ValueError("need at least N-1 disorder sites per replica")
    if N > rf.n_max or rf.u[N] <= 0:
        raise KernelError("u(N) unavailable or zero")
    if N <= 1:
        return np.ones(R)
    lam = lambda_of(distribution, beta)
    _, x, e = _transfer(kernel, beta * omegas[:, :N - 1].T - lam + h, beta, h)
    with np.errstate(over="ignore"):
        z = np.ldexp(x[-1], e[-1]) / rf.u[N]
    if not np.all(np.isfinite(z)):
        raise OverflowError(f"Z not finite at N={N}, beta={beta}, h={h}")
    return z


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

    V(j) is the weighted partition mass from j to N: interior sites carry
    their Gibbs weight w, the endpoint N does not. mass[m] 2**exp2[m] is
    w_j V(j) at j = N - m, with w_0 = w_N = 1, from one backward solve.
    The transition law from i is P(next = j) proportional to K(j-i) w_j V(j),
    normalized by V(i); its CDF is built when a draw first visits i, then
    kept. underflow is set when some point i < N has w_i V(i) = 0 in
    floating point; such a point is never visited, and if it is 0 itself,
    sample raises FloatingPointError.
    """

    N: int
    k: np.ndarray  # K(0..N)
    mass: np.ndarray
    exp2: np.ndarray
    underflow: bool
    rows: dict = field(default_factory=dict, repr=False, compare=False)

    def row(self, i: int) -> np.ndarray:
        """CDF of the next point over j = i+1..N."""
        cdf = self.rows.get(i)
        if cdf is None:
            top = self.N - i - 1  # m = N - j runs from top down to 0
            cdf = np.cumsum(self.k[1:top + 2] * np.ldexp(
                self.mass[top::-1], self.exp2[top::-1] - self.exp2[top]))
            if not cdf[-1] > 0:
                raise FloatingPointError(f"zero backward mass at point {i}")
            cdf /= cdf[-1]
            self.rows[i] = cdf
        return cdf

    def sample(self, rng: np.random.Generator) -> ClosedSetR:
        pts = [0]
        while pts[-1] < self.N:
            i = pts[-1]
            pts.append(int(np.searchsorted(self.row(i), rng.random())) + i + 1)
        return ClosedSetR(np.array(pts, dtype=float), resolution=1.0)


def build_pinned_sampler(kernel: RenewalKernel, disorder: DisorderField,
                         beta: float, h: float, N: int) -> PinnedSampler:
    """The backward mass is the forward recursion run on the site weights
    in reverse order, N-1 down to 1, with a last weight 1 for site 0."""
    if N - 1 > disorder.n_sites:
        raise ValueError("disorder field too short for horizon N")
    if N > kernel.n_max and kernel.survival[kernel.n_max] > 1e-15:
        raise KernelError("horizon exceeds the tabulated kernel range")
    arg = beta * disorder.omega[:N - 1] - disorder.lam(beta) + h
    k, x, e = _transfer(kernel, arg[::-1, None], beta, h)
    mass = np.concatenate([[1.0], x[:, 0]])
    return PinnedSampler(N=N, k=k, mass=mass,
                         exp2=np.concatenate([[0], e[:, 0]]),
                         underflow=bool(np.any(mass[1:] == 0)))


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
