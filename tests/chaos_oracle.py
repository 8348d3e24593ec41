"""Exact reference for the continuum grid Z(s, t), the polynomial chaos pinned
at both ends for alpha in (1/2, 1): its chaos expansion summed term by term
over the subsets of the cells of the span.

With cell weights c_j = beta_hat dW_j + h_hat delta, the grid Z is

    1 + sum over j_1 < ... < j_k of c_{j_1} ... c_{j_k}
          E(j_1) G(j_2 - j_1) ... G(j_k - j_{k-1}) F(j_k),

E the cell average of C_a (x - s)^(a-1), G the average of C_a (x - y)^(a-1)
over two cells d apart, and F the cell average of (t-s)^(1-a) (t - x)^(a-1).
Cells with c_j = 0 drop out of every term, so the sum runs over the subsets
of the cells with c_j != 0: all of them on a grid of at most 12 cells, or a
few chosen ones on a longer span. Every cell average is a separate
quadrature; no code of the package is used but the spec.
"""

from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.integrate import quad

MAX_CELLS = 14


def snap(x: float, delta: float) -> tuple[float, int]:
    """The grid point nearest x, the end used for x, and its index."""
    i = int(np.floor(x / delta + 0.5))
    return i * delta, i


def _pow_int(lo: float, hi: float, p: float) -> float:
    """int_lo^hi x^p dx for 0 <= lo <= hi: directly away from 0, else from
    0 with the endpoint singularity in the quadrature weight."""
    if lo >= hi:
        return 0.0
    if lo > hi - lo:
        return quad(lambda x: x ** p, lo, hi, epsabs=0.0, epsrel=2e-14)[0]
    near = lambda y: quad(lambda x: 1.0, 0.0, y, weight="alg",
                          wvar=(p, 0.0))[0] if y > 0 else 0.0
    return near(hi) - near(lo)


@lru_cache(maxsize=None)
def _gap(alpha: float, delta: float, d: int) -> float:
    """Average of (x - y)^(a-1) over x, y in two cells d >= 1 apart:
    the triangle-weighted integral over the lag u = x - y."""
    lo = quad(lambda u: (u - (d - 1) * delta) * u ** (alpha - 1.0),
              (d - 1) * delta, d * delta, epsabs=0.0, epsrel=2e-14)[0]
    hi = quad(lambda u: ((d + 1) * delta - u) * u ** (alpha - 1.0),
              d * delta, (d + 1) * delta, epsabs=0.0, epsrel=2e-14)[0]
    return (lo + hi) / delta ** 2


def chaos_oracle(spec, increments: np.ndarray, s: float, t: float) -> float:
    """Z(s, t) of the grid chaos recursion for one path's cell increments,
    by enumeration over the subsets of the cells with a nonzero weight."""
    delta = spec.T / spec.M
    s, i0 = snap(s, delta)
    t, i1 = snap(t, delta)
    cells = [j for j in range(i0, i1)
             if spec.beta_hat * increments[j] + spec.h_hat * delta != 0.0]
    assert len(cells) <= MAX_CELLS, "too many cells to enumerate"
    c = {j: spec.beta_hat * increments[j] + spec.h_hat * delta for j in cells}
    a = spec.alpha
    ca = a * np.sin(np.pi * a) / np.pi
    # the parts of the cells [j delta, (j+1) delta] inside [s, t]
    first = {j: ca * _pow_int(max(j * delta - s, 0.0),
                              (j + 1) * delta - s, a - 1.0) / delta
             for j in cells}
    gap = lambda d: ca * _gap(a, delta, d)
    last = {j: (t - s) ** (1.0 - a)
            * _pow_int(max(t - (j + 1) * delta, 0.0), t - j * delta,
                       a - 1.0) / delta
            for j in cells}
    z = 1.0
    for k in range(1, len(cells) + 1):
        for sub in combinations(cells, k):
            term = first[sub[0]] * last[sub[-1]]
            for i, j in zip(sub, sub[1:]):
                term *= gap(j - i)
            for j in sub:
                term *= c[j]
            z += term
    return z
