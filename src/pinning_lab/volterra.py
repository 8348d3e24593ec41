"""Replica-batched solver of the weighted renewal recursion
x[j] = c[j] (f[j] + sum_{i<j} k[j-i] x[i]), and the FFT product convolve.

The solver is the one copy of that recursion behind u(n) and the matched
kernel (renewal), every Z of the continuum layer, and the discrete Z_N and
the pinned sampler's backward mass (discrete_pinning). The scheme is that
of Hairer, Lubich and Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985): an
input longer than HALVE_ABOVE rows is halved, the first half's share of
the later sums taken by one convolve over all replicas, so a long solve
costs O(n log^2 n); a shorter one is blocked, each block taking its past
by one matrix product and its own terms by a triangular solve per replica
or, for many replicas, a step per index that is one BLAS matrix-vector
product. convolve also serves the Z profiles and the exact g-law.

A kernel whose lags above BLOCK are a sum of p decaying exponentials,
k[d] = sum_p w_p exp(-s_p d), can come with its far field (FarField, from
far_field(s, w)); the continuum gap factors do. Such a solve is not
halved. Each block then takes the previous block through one fixed
BLOCK x BLOCK Toeplitz panel and everything older through a state S of
p x R, read as (BLOCK x p) S and advanced a block at a time as
S <- exp(-s BLOCK) S + (p x BLOCK) x_prev: the fast oblivious convolution
of Lubich and Schaedle (SIAM J. Sci. Comput. 24, 2002), O(n (BLOCK + p) R)
in place of O(n^2 R).

A solve writes x over the caller's weights c, which it consumes, and
allocates only x's int32 power-of-two exponents e: with c, 12 bytes per
replica and index, halved or not. On top come np.dot's C-ordered copy of
each block's strided Toeplitz panel (up to BLOCK x n doubles) and, once
some replica rescales, a copy of x's past. With a far field there is no
such copy: S and the per-block work arrays add O((BLOCK + p) R) doubles.
Each caller builds c once, in place and in C order, so the blocks read
rows.

The matched kernel's deconvolution (lag kernel -u) is the least benign
input: against a long-double term-by-term reference its K is within
2.8e-10 relative at n = 2,048 and 2.9e-8 at 65,536 (a float term-by-term
loop: 1.4e-10 and 2.1e-7), and the renewal u rebuilt from it stays within
6.1e-12 of its target at n = 2^20."""

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg.lapack import dtrtrs

HALVE_ABOVE = 4096  # longer inputs are halved; the halves meet by one FFT
BLOCK = 64  # indices per block; each block takes its past in one GEMM or two
TRI_RATIO = 4  # triangular in-block solves while TRI_RATIO * R <= block length


def convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full convolution of a and b along axis 0, the other axes broadcast,
    by one real FFT product at next_fast_len; exact when one has length 1."""
    if len(a) == 1 or len(b) == 1:
        return a * b
    n = len(a) + len(b) - 1
    m = next_fast_len(n, True)
    return irfft(rfft(a, m, axis=0) * rfft(b, m, axis=0), m, axis=0)[:n]


class FarField(NamedTuple):
    """The lags d > BLOCK of a kernel k[d] = sum_p w_p exp(-s_p d), in the
    forms a blocked solve reads them (see far_field)."""

    read: np.ndarray    # (BLOCK, p): w_p exp(-s_p (BLOCK + a)), row a
    update: np.ndarray  # (p, BLOCK): exp(-s_p (BLOCK - i)), column i
    decay: np.ndarray   # (p, 1): exp(-s_p BLOCK)


def far_field(s: np.ndarray, w: np.ndarray) -> FarField:
    """The far field of the exponential sum of nodes s and weights w."""
    a = np.arange(BLOCK)
    return FarField(w * np.exp(-np.outer(BLOCK + a, s)),
                    np.exp(-np.outer(s, BLOCK - a)),
                    np.exp(-BLOCK * s)[:, None])


def renewal_solve_batch(k: np.ndarray, f: np.ndarray, c: np.ndarray,
                        far: FarField | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """x of shape (n, R) for weights c of shape (n, R), the forcing f of
    shape (n,) shared by all replicas or (n, R), and the lag kernel k of at
    least n+1 entries shared by all replicas; only k[1..n] is read.

    Returns (x, e): the solution is x * 2**e, e an int32 array (np.frexp's
    exponent type) of the shape of x. c is consumed: x is c, each entry
    written over once its weight is read, so a caller passes a C-ordered
    float64 buffer it no longer needs (a copy, if it reads the weights
    later); another c raises ValueError. With |f| <= 1 and sum |k| <= 1
    each index grows the running maximum by at most 2 max(|c|, 1), so a
    block of b indices grows it by at most exp(b (max log+|c| + 1)), max
    |c| read as max(max c, -min c) with no |c| copy. The block length keeps
    that within about exp(600), and after a block whose largest |x| leaves
    less than that growth below the largest double, the past of that
    replica and S are scaled down by a power of two. An input that never
    gets there is solved in blocks of BLOCK with e = 0, unscaled. A signed
    kernel such as -u in the matched kernel's deconvolution is outside that
    bound (sum |k| >> 1); that solve stays unscaled because its solution K
    lies in [0, 1].

    A forcing above that bound starts scaled down. Without a far field and
    above HALVE_ABOVE rows, the first n // 2 are solved first; their share
    of the later sums is one convolve on the first half's final per-replica
    scale e1[-1], with the later forcing shifted by the same power of two.

    far, the far field of k's lags above BLOCK (FarField of p nodes), is
    used when the blocks are BLOCK long and n > 2 BLOCK + 4 p: the mean
    whole-past read per row, n / 2, then exceeds what the far field costs a
    row (the panel, the read and the update of S: BLOCK + 2 p). From the
    second block on, each block takes the previous one through one fixed
    BLOCK x BLOCK panel, and from the third on everything older through S.

    Inside a block each replica solves (I - diag(c) Toe) x = c acc, Toe the
    block's strictly lower Toeplitz matrix of k, by one LAPACK dtrtrs call
    when TRI_RATIO * R <= b; otherwise all replicas step one index at a time,
    each step's in-block terms one BLAS matrix-vector product with a
    contiguous reversed copy of k[1..min(b, n)].
    """
    n, R = c.shape
    if c.dtype != np.float64 or not c.flags.c_contiguous:
        raise ValueError("need weights c as a C-ordered float64 array")
    f = f[:, None] if f.ndim == 1 else f
    if far is None and n > HALVE_ABOVE:
        h = n // 2
        x1, e1 = renewal_solve_batch(k, f[:h], c[:h])
        cur = e1[-1]
        f2 = np.ldexp(f[h:], -cur) + convolve(np.ldexp(x1, e1 - cur),
                                              k[1:n, None])[h - 1:n - 1]
        e2 = renewal_solve_batch(k, f2, c[h:])[1]
        return c, np.concatenate([e1, e2 + cur])
    step = np.log(max(1.0, float(c.max(initial=0.0)),
                      -float(c.min(initial=0.0)))) + 1.0
    b = min(BLOCK, max(1, int(600 // step)))
    limit = np.exp(max(np.log(np.finfo(float).max) - b * step, 0.0))
    if far is not None and not (b == BLOCK and
                                n > 2 * BLOCK + 4 * len(far.decay)):
        far = None
    w = n if far is None else 2 * b  # the rows of the Toeplitz matrix read
    # toe[j, i] = k[j - i] for i < j and 0 for i >= j: a strided view
    toe = sliding_window_view(np.concatenate([k[w:0:-1], np.zeros(w)]),
                              w)[w:0:-1]
    if far is not None:  # near[a, i] = k[b + a - i], the previous block
        near = np.ascontiguousarray(toe[b:, :b])
        S = np.zeros((len(far.decay), R))
    tri = TRI_RATIO * R <= b
    if tri:  # every full block has the same in-block matrix
        neg = -np.asfortranarray(toe[:b, :b])
    else:  # k[a:0:-1] as krev[top - a:]: matmul skips BLAS on a negative
        top = min(b, n)  # stride, and k may hold just n + 1 entries
        krev = k[top:0:-1].copy()
    x = c  # each x[j, r] is written over c[j, r] once that is read
    e = np.zeros((n, R), dtype=np.int32)
    # the past on the current scale, x * 2**(e - cur); x itself until a rescale
    fpeak = np.max(np.abs(f), axis=0, initial=0.0)
    past, cur = x, np.where(fpeak > limit, np.frexp(fpeak)[1],
                            np.zeros(R, dtype=np.int32))
    scaled = cur.any()  # e stays 0 until some replica is scaled
    for j0 in range(0, n, b):
        m = min(b, n - j0)
        blk = slice(j0, j0 + m)
        acc = np.ldexp(f[blk], -cur)
        if far is None:  # np.dot copies the strided slice for BLAS
            acc += np.dot(toe[blk, :j0], past[:j0])
        elif j0:
            acc += near[:m] @ past[j0 - b:j0]
            if j0 > b:
                S *= far.decay
                S += far.update @ past[j0 - 2 * b:j0 - b]
                acc += far.read[:m] @ S
        if tri:
            for r in range(R):
                past[blk, r] = dtrtrs(neg[:m, :m] * c[blk, r, None],
                                      c[blk, r] * acc[:, r],
                                      lower=1, unitdiag=1)[0]
        else:
            for a in range(m):
                acc[a] += krev[top - a:] @ past[j0:j0 + a]
                past[j0 + a] = c[j0 + a] * acc[a]
        if past is not x:
            x[blk] = past[blk]
        if scaled:
            e[blk] = cur
        if np.abs(past[blk]).max(initial=0.0) > limit:
            peak = np.max(np.abs(past[blk]), axis=0)
            big = peak > limit
            if past is x:
                past = x.copy()
            shift = np.where(big, np.frexp(peak)[1], 0)
            past[:j0 + m] = np.ldexp(past[:j0 + m], -shift)
            if far is not None:
                S = np.ldexp(S, -shift)
            cur += shift
            scaled = True
    return x, e
