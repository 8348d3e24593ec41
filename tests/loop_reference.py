"""Plain forms of three hot paths, kept as bit-for-bit oracles.

Each function is the straightforward version the package once ran: the
regenerative-set sampler with its fresh arrays per step and np.unique at
the end, the dyadic block index by division, and the weighted-KS bootstrap
as one weighted ECDF per replicate. The package's faster forms must give the
same doubles and leave the generator in the same state.
"""

import numpy as np


def sample_gd_unit(alpha, n, rng):
    xs = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        z = rng.beta(alpha, 1.0 - alpha, todo.size) / 2.0
        accept = rng.random(todo.size) < 1.0 / (2.0 * (1.0 - z))
        xs[todo[accept]] = z[accept]
        todo = todo[~accept]
    w0 = np.clip((0.5 - xs) / (1.0 - xs), 1e-12, None)
    u = rng.random(n)
    rho = (1.0 - u) ** (1.0 / alpha) * (1.0 - w0) / w0
    w = 1.0 / (1.0 + rho)
    ys = xs + w * (1.0 - xs)
    return xs, ys


def regen_points(alpha, T, n_max, rng):
    """The points of sample_regen_conditioned(alpha, T, n_max, rng)."""
    cutoff = T * 2.0 ** (-n_max)
    pts = [np.array([0.0, T])]
    lo = np.array([0.0])
    hi = np.array([T])
    while lo.size:
        x, y = sample_gd_unit(alpha, lo.size, rng)
        span = hi - lo
        g = lo + x * span
        d = lo + y * span
        pts.append(g)
        pts.append(d)
        new_lo = np.concatenate([lo, d])
        new_hi = np.concatenate([g, hi])
        keep = new_hi - new_lo >= cutoff
        lo, hi = new_lo[keep], new_hi[keep]
    return np.unique(np.concatenate(pts))


def block_index(points, n, T):
    """The points in [0, T] and their level-n block index, by division."""
    pts = points[np.searchsorted(points, 0.0):
                 np.searchsorted(points, T, side="right")]
    j = pts / (T * 2.0 ** (-n))
    np.ceil(j, out=j)
    k = 0
    while k < j.size and j[k] == 0.0:
        j[k] = 1.0
        k += 1
    return pts, j


def weighted_ecdf(values, weights, grid_x):
    flat = values.ravel()
    order = np.argsort(flat)
    idx = np.searchsorted(flat[order], grid_x, side="right")
    w = np.repeat(weights, values.shape[1])[order]
    cum = np.concatenate([[0.0], np.cumsum(w)])
    return cum[idx] / cum[-1]


def weighted_ks(values, weights, grid_x, grid_F, rng, n_boot=200):
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    R = values.shape[0]
    ehat = weighted_ecdf(values, weights, grid_x)
    stat = float(np.max(np.abs(ehat - grid_F)))
    ess = float(weights.sum() ** 2 / np.sum(weights ** 2))
    hits = 0
    for _ in range(n_boot):
        idx = rng.integers(0, R, R)
        eb = weighted_ecdf(values[idx], weights[idx], grid_x)
        if np.max(np.abs(eb - ehat)) >= stat:
            hits += 1
    return stat, float((hits + 1) / (n_boot + 1)), ess
