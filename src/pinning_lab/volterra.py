"""Replica-batched solver of the weighted renewal recursion
x[j] = c[j] (f[j] + sum_{i<j} k[j-i] x[i]), shared by the discrete partition
functions (forward and backward) and the continuum chaos coefficients."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BLOCK = 64  # indices per block; each block takes its whole past in one GEMM


def renewal_solve_batch(k: np.ndarray, f: np.ndarray,
                        c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x of shape (n, R) for weights c of shape (n, R), the forcing f (n,)
    and the lag kernel k (n+1,) shared by all replicas; k[0] is not read.

    Returns (x, e): the solution is x * 2**e, e an integer array of the
    shape of x. With |f| <= 1 and sum |k| <= 1 each index grows the running
    maximum by at most 2 max(|c|, 1), so a block of b indices grows it by at
    most exp(b (max log+|c| + 1)). The block length keeps that within about
    exp(600), and after a block whose largest |x| leaves less than that
    growth below the largest double, the past of that replica is scaled down
    by a power of two. An input that never gets there is solved in blocks of
    BLOCK with e = 0, unscaled.
    """
    n, R = c.shape
    step = np.log(max(1.0, float(np.max(np.abs(c), initial=0.0)))) + 1.0
    b = min(BLOCK, max(1, int(600 // step)))
    limit = np.exp(max(np.log(np.finfo(float).max) - b * step, 0.0))
    x = np.empty((n, R))
    e = np.zeros((n, R), dtype=np.int64)
    # the past on the current scale, x * 2**(e - cur); x itself until a rescale
    past, cur = x, np.zeros(R, dtype=np.int64)
    for j0 in range(0, n, b):
        m = min(b, n - j0)
        # the Toeplitz slice k[j0 + a - i], a < m, i < j0, times the past
        acc = np.ldexp(f[j0:j0 + m, None], -cur) + sliding_window_view(
            k[j0 + m - 1:0:-1], j0)[::-1] @ past[:j0]
        for a in range(m):  # then the terms inside the block
            acc[a] += k[a:0:-1] @ past[j0:j0 + a]
            past[j0 + a] = c[j0 + a] * acc[a]
        x[j0:j0 + m] = past[j0:j0 + m]
        e[j0:j0 + m] = cur
        peak = np.max(np.abs(past[j0:j0 + m]), axis=0)
        big = peak > limit
        if big.any():
            if past is x:
                past = x.copy()
            shift = np.where(big, np.frexp(peak)[1], 0)
            past[:j0 + m] = np.ldexp(past[:j0 + m], -shift)
            cur += shift
    return x, e
