"""Replica-batched solver of the weighted renewal recursion
x[j] = c[j] (f[j] + sum_{i<j} k[j-i] x[i]).

It is the one copy of that recursion behind every caller: the renewal
function u(n) (renewal), the Z profiles Z(0, .) and Z(., T), scalar Z(s, t)
and the batched continuum Z (continuum), and the discrete Z_N and the pinned
sampler's backward mass (discrete_pinning). The scheme is blocked in the
manner of Hairer, Lubich and Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985):
each block takes its whole past in one matrix product, and the terms inside
the block by one triangular solve per replica, or by one vectorized step per
index when the replicas are many against the block length."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.lapack import dtrtrs

BLOCK = 64  # indices per block; each block takes its whole past in one GEMM
TRI_RATIO = 4  # triangular in-block solves while TRI_RATIO * R <= block length


def renewal_solve_batch(k: np.ndarray, f: np.ndarray,
                        c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x of shape (n, R) for weights c of shape (n, R), the forcing f of
    shape (n,) shared by all replicas or (n, R), and the lag kernel k (n+1,)
    shared by all replicas; k[0] is not read.

    Returns (x, e): the solution is x * 2**e, e an integer array of the
    shape of x. With |f| <= 1 and sum |k| <= 1 each index grows the running
    maximum by at most 2 max(|c|, 1), so a block of b indices grows it by at
    most exp(b (max log+|c| + 1)). The block length keeps that within about
    exp(600), and after a block whose largest |x| leaves less than that
    growth below the largest double, the past of that replica is scaled down
    by a power of two. An input that never gets there is solved in blocks of
    BLOCK with e = 0, unscaled.

    Inside a block each replica solves (I - diag(c) Toe) x = c acc, Toe the
    block's strictly lower Toeplitz matrix of k, by one LAPACK dtrtrs call
    when TRI_RATIO * R <= b; otherwise all replicas step one index at a time.
    """
    n, R = c.shape
    f = f.reshape(n, -1)
    step = np.log(max(1.0, float(np.max(np.abs(c), initial=0.0)))) + 1.0
    b = min(BLOCK, max(1, int(600 // step)))
    limit = np.exp(max(np.log(np.finfo(float).max) - b * step, 0.0))
    # toe[j, i] = k[j - i] for i < j and 0 for i >= j: a strided view
    toe = sliding_window_view(np.concatenate([k[n:0:-1], np.zeros(n)]),
                              n)[n:0:-1]
    tri = TRI_RATIO * R <= b
    if tri:  # every full block has the same in-block matrix
        neg = -np.asfortranarray(toe[:b, :b])
    x = np.empty((n, R))
    e = np.zeros((n, R), dtype=np.int64)
    # the past on the current scale, x * 2**(e - cur); x itself until a rescale
    past, cur = x, np.zeros(R, dtype=np.int64)
    for j0 in range(0, n, b):
        m = min(b, n - j0)
        blk = slice(j0, j0 + m)
        # np.dot copies the strided slice for BLAS; matmul would not use it
        acc = np.ldexp(f[blk], -cur) + np.dot(toe[blk, :j0], past[:j0])
        if tri:
            for r in range(R):
                past[blk, r] = dtrtrs(neg[:m, :m] * c[blk, r, None],
                                      c[blk, r] * acc[:, r],
                                      lower=1, unitdiag=1)[0]
        else:
            for a in range(m):
                acc[a] += k[a:0:-1] @ past[j0:j0 + a]
                past[j0 + a] = c[j0 + a] * acc[a]
        x[blk] = past[blk]
        e[blk] = cur
        peak = np.max(np.abs(past[blk]), axis=0)
        big = peak > limit
        if big.any():
            if past is x:
                past = x.copy()
            shift = np.where(big, np.frexp(peak)[1], 0)
            past[:j0 + m] = np.ldexp(past[:j0 + m], -shift)
            cur += shift
    return x, e
