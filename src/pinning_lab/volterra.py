"""Replica-batched solver of the weighted renewal recursion
x[j] = c[j] (f[j] + sum_{i<j} k[j-i] x[i]), shared by the discrete partition
functions and the continuum chaos coefficients."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

BLOCK = 64  # indices per block; each block takes its whole past in one GEMM


def renewal_solve_batch(k: np.ndarray, f: np.ndarray,
                        c: np.ndarray) -> np.ndarray:
    """x of shape (n, R) for weights c of shape (n, R), the forcing f (n,)
    and the lag kernel k (n+1,) shared by all replicas; k[0] is not read."""
    n, R = c.shape
    x = np.empty((n, R))
    for j0 in range(0, n, BLOCK):
        b = min(BLOCK, n - j0)
        # the Toeplitz slice k[j0 + a - i], a < b, i < j0, times x[:j0]
        acc = f[j0:j0 + b, None] + sliding_window_view(
            k[j0 + b - 1:0:-1], j0)[::-1] @ x[:j0]
        for a in range(b):  # then the terms inside the block
            acc[a] += k[a:0:-1] @ x[j0:j0 + a]
            x[j0 + a] = c[j0 + a] * acc[a]
    return x
