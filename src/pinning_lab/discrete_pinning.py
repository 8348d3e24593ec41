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

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

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
    """Realization of the i.i.d. environment omega_1..omega_{N-1}, or of
    several, one row each."""

    omega: np.ndarray
    distribution: str

    def lam(self, t):
        return lambda_of(self.distribution, t)

    @property
    def n_sites(self) -> int:
        return self.omega.shape[-1]


def sample_disorder(distribution: str, shape: int | tuple[int, ...],
                    rng: np.random.Generator) -> DisorderField:
    """i.i.d. omega of the given shape: n_sites, or (R, n_sites) for R
    replicas drawn one after another from rng."""
    if distribution == "standard-normal":
        om = rng.standard_normal(shape)
    elif distribution == "rademacher":
        om = rng.integers(0, 2, shape) * 2.0 - 1.0
    else:
        raise ValueError(f"unsupported disorder distribution {distribution!r}")
    return DisorderField(omega=om, distribution=distribution)


@dataclass(frozen=True)
class CouplingScale:
    """Size-N couplings derived from the continuum pair (beta_hat, h_hat).

    alpha in (1/2, 1): beta_N = beta_hat L(N) / N^(alpha - 1/2),
                       h_N = h_hat L(N) / N^alpha, where L(N) is the
                       effective slowly varying value N^(1+alpha) K(N),
                       read inside the kernel's table (KernelError past it
                       when the law has mass there).
    alpha > 1:         beta_N = beta_hat / sqrt(N), h_N = h_hat / N.
    """

    beta_N: float
    h_N: float


def scale_couplings(beta_hat: float, h_hat: float, N: int,
                    kernel: RenewalKernel) -> CouplingScale:
    alpha = kernel.alpha
    if not np.isfinite(alpha):
        raise KernelError(f"kernel has no tail exponent (alpha = {alpha})")
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
        ln = float(N ** (1.0 + alpha) * kernel.head(N)[N])
        beta_n = beta_hat * ln / N ** (alpha - 0.5)
        h_n = h_hat * ln / N ** alpha
    return CouplingScale(beta_N=beta_n, h_N=h_n)


# ---------------------------------------------------------------------------
# partition functions


def _transfer(kernel: RenewalKernel, omega: np.ndarray, distribution: str,
              beta: float, h: float) -> tuple[np.ndarray, ...]:
    """The weighted renewal recursion over N - 1 sites for R replicas.

    omega (N-1, R) holds the sites in the order of the recursion. Their
    weights w = exp(beta omega - Lambda(beta) + h) fill one C-ordered (N, R)
    buffer, built in place, whose last row is 1, the weight of the last
    site. Returns (k, w, x, e) with k = K(0..N), zero past the kernel's
    table, and x[j-1] 2**e[j-1] = W(j) w_j for j = 1..N, where W(j) = K(j)
    + sum_{i<j} W(i) w_i K(j-i).
    """
    N = omega.shape[0] + 1
    k = kernel.head(N)
    w = np.empty((N, omega.shape[1]))
    sites = w[:-1]
    np.multiply(beta, omega, out=sites)
    sites -= lambda_of(distribution, beta)
    sites += h
    with np.errstate(over="ignore"):
        np.exp(sites, out=sites)
    if np.isinf(sites).any():
        raise OverflowError(
            f"site weight not finite at N={N}, beta={beta}, h={h}")
    w[-1] = 1.0
    x, e = renewal_solve_batch(k, k[1:], w)
    return k, w, x, e


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
    _, _, x, e = _transfer(kernel, omegas[:, :N - 1].T, distribution, beta, h)
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
        prod = np.concatenate([prod, newp])
        last = np.concatenate([last, np.full(len(newp), i, dtype=np.int64)])
        order = np.concatenate([order, newo])
    return float(np.sum(prod * u[r - last]) / u[r])


# ---------------------------------------------------------------------------
# exact Gibbs sampling


ROW_START = 16  # entries in a transition row's first prefix
ROW_GROWTH = 2  # factor by which a prefix grows when a draw lies past it
SCALAR_STEPS = 8  # steps that draw a scalar uniform before any block


@dataclass(frozen=True)
class PinnedSampler:
    """Sequential sampler for the conditioned pinning Gibbs measure.

    V(j) is the weighted partition mass from j to N: interior sites carry
    their Gibbs weight w, the endpoint N does not. mass[m] 2**exp2[m] is
    w_j V(j) at j = N - m, with w_0 = w_N = 1, from one backward solve.
    The transition law from i is P(next = j) = K(j-i) w_j V(j) / V(i), and
    inv[i] holds 1/V(i) on the scale of row i's entries. Row i is the CDF
    of that law, the cumulative sum of those terms times inv[i]; its
    entries are exact prefixes of the full row, whose last entry is 1 up
    to round-off. When even the full row ends below the uniform, the step
    goes to N.

    table holds the first ROW_START entries of every row in one flat
    memoryview, built in one vectorized pass on the first sample call.
    A row that is whole in ROW_START entries (N - i <= ROW_START), or that
    could raise (inv[i] not finite, or entry ROW_START - 1 not > 0), holds
    NaN there and is built whole into rows. A step probes the table row at
    entries 0, 7 and 15 and bisects the bracket that holds the uniform;
    past entry 15, rows[i] grows ROW_GROWTH-fold from ROW_START entries
    until it holds the uniform. A NaN row is bisected whole. Either way
    the step finds the index bisect_left finds on the whole row.
    norm_error is the largest |last entry - 1| over the rows built to full
    length. underflow is set when some point i < N has w_i V(i) = 0 in
    floating point; such a point is never visited, and if it is 0 itself,
    or its full row holds no mass, sample raises FloatingPointError.

    A path ends as after one scalar rng.random() per step: len(points) - 1
    of them, or, when a row raises, one per step taken before it. The
    first SCALAR_STEPS steps draw their uniforms as scalars, and one of
    them on a row outside the table builds that row whole first, so that
    any raise comes before its uniform. A longer path then saves the
    generator state once, draws blocks of 32, 64, ... uniforms, and
    rewinds the generator to draw just the ones used.
    """

    N: int
    k: np.ndarray  # K(0..N)
    mass: np.ndarray
    exp2: np.ndarray
    inv: np.ndarray  # 1/V(i) on row i's scale, i = 0..N-1
    underflow: bool
    rows: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def norm_error(self) -> float:
        """Largest |full-row sum / V(i) - 1| over the rows built so far."""
        return max((abs(v[-1] - 1.0) for i, v in self.rows.items()
                    if len(v) == self.N - i), default=0.0)

    @cached_property
    def table(self) -> memoryview:
        """Entries 0..ROW_START-1 of row i at ROW_START i .. ROW_START i + 15,
        by _view's arithmetic; NaN on the rows kept out (see the class)."""
        N, n = self.N, ROW_START
        tab = np.full((N, n), np.nan)
        long = N - n  # rows 0..N-n-1 are longer than n entries
        if long > 0:
            # row i's terms sit at m = N-1-i down to N-i-n, which are the
            # entries i+1.. of the reversed arrays; the shift of the first
            # is 0, and np.ldexp by 0 is the identity _view skips
            win = np.lib.stride_tricks.sliding_window_view
            ms = win(self.mass[::-1][1:], n)[:long]
            es = win(self.exp2[::-1][1:], n)[:long]
            part, inv = tab[:long], self.inv[:long, None]
            with np.errstate(invalid="ignore", over="ignore"):
                np.ldexp(ms, es - es[:, :1], out=part)
                part *= self.k[1:n + 1]
                np.add.accumulate(part, axis=1, out=part)
                part *= inv
            part[~((inv[:, 0] < np.inf) & (part[:, -1] > 0))] = np.nan
        return memoryview(tab.reshape(-1))

    def _view(self, i: int, n: int) -> memoryview:
        """The row from i over its first min(n, N - i) entries, kept."""
        view = self.rows.get(i)
        n = min(n, self.N - i)
        if view is not None and len(view) >= n:
            return view
        if not self.inv[i] < np.inf:
            raise FloatingPointError(f"zero backward mass at point {i}")
        top = self.N - i - 1  # m = N - j runs from top down
        w = self.mass[::-1][i + 1:i + 1 + n]
        # exp2 is non-decreasing, so equal ends mean a zero shift
        if self.exp2[top] != self.exp2[top + 1 - n]:
            w = np.ldexp(w, self.exp2[::-1][i + 1:i + 1 + n] - self.exp2[top])
        # np.cumsum, without its call overhead, large beside a short row
        cdf = np.add.accumulate(self.k[1:n + 1] * w)
        if n == top + 1 and not cdf[-1] > 0:
            raise FloatingPointError(f"zero backward mass at point {i}")
        cdf *= self.inv[i]
        view = self.rows[i] = memoryview(cdf)
        return view

    def _past(self, i: int, u: float) -> int:
        """bisect_left(row, u) for a u past the table's entries of row i:
        rows[i] grows ROW_GROWTH-fold from ROW_START entries until it holds
        u; the last index if the full row ends below u."""
        lo = ROW_START
        while True:
            view = self._view(i, lo * ROW_GROWTH)
            j = bisect_left(view, u, lo)
            if j < len(view):
                return j
            if j == self.N - i:
                return j - 1
            lo = j

    def sample(self, rng: np.random.Generator) -> ClosedSetR:
        N, rows, tab, last = self.N, self.rows, self.table, ROW_START - 1
        bg, start, us, block = rng.bit_generator, None, [], 32
        pts, i, n = [0], 0, 0
        try:
            while i < N:
                b = i * ROW_START
                if n < SCALAR_STEPS:
                    if not tab[b + last] > 0:
                        self._view(i, N - i)
                    u = rng.random()
                else:
                    if n - SCALAR_STEPS == len(us):
                        if start is None:
                            start = bg.state
                        us += rng.random(block).tolist()
                        block *= 2
                    u = us[n - SCALAR_STEPS]
                if u <= tab[b]:
                    j = 0
                elif u <= tab[b + 7]:
                    j = bisect_left(tab, u, b + 1, b + 7) - b
                elif u <= tab[b + last]:
                    j = bisect_left(tab, u, b + 8, b + last) - b
                elif tab[b + last] < u:
                    j = self._past(i, u)
                else:
                    view = rows.get(i) or self._view(i, N - i)
                    j = bisect_left(view, u, 0, len(view) - 1)
                i += j + 1
                n += 1
                pts.append(i)
        finally:
            if start is not None:
                bg.state = start
                rng.random(n - SCALAR_STEPS)
        return ClosedSetR(np.array(pts, dtype=float), resolution=1.0)


def build_pinned_sampler(kernel: RenewalKernel, disorder: DisorderField,
                         beta: float, h: float, N: int) -> PinnedSampler:
    """The backward mass is the forward recursion run on the site weights
    in reverse order, N-1 down to 1, with a last weight 1 for site 0."""
    if N - 1 > disorder.n_sites:
        raise ValueError("disorder field too short for horizon N")
    k, w, x, e = _transfer(kernel, disorder.omega[:N - 1][::-1, None],
                           disorder.distribution, beta, h)
    mass = np.concatenate([[1.0], x[:, 0]])
    exp2 = np.concatenate([[0], e[:, 0]])
    # V(i) = mass[N-i] 2**exp2[N-i] / w_i, on row i's scale 2**exp2[N-i-1];
    # w[::-1] holds w_0 = 1, w_1, ..., w_{N-1}
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.ldexp(w[::-1, 0] / mass[:0:-1], exp2[-2::-1] - exp2[:0:-1])
    return PinnedSampler(N=N, k=k, mass=mass, exp2=exp2, inv=inv,
                         underflow=bool(np.any(mass[1:] == 0)))


def enumerate_pinned_exact(kernel: RenewalKernel, disorder: DisorderField,
                           beta: float, h: float, N: int) -> dict:
    """Exact configuration probabilities by brute enumeration (N <= 16).

    Returns a dict mapping interior-site subsets (as frozensets) to their
    probability under the conditioned Gibbs measure.
    """
    if N > 16:
        raise ValueError("exhaustive enumeration capped at N <= 16")
    k = kernel.head(N)
    w = np.exp(beta * disorder.omega[:N - 1] - disorder.lam(beta) + h)
    out = {}
    total = 0.0
    for mask in range(2 ** (N - 1)):
        sites = [i + 1 for i in range(N - 1) if mask >> i & 1]
        gaps = np.diff([0] + sites + [N])
        weight = float(np.prod(k[gaps]) * np.prod(w[[s - 1 for s in sites]]))
        out[frozenset(sites)] = weight
        total += weight
    return {k: v / total for k, v in out.items()}
