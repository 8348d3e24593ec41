"""Finite-resolution closed subsets of the real line.

A set is stored as its sorted array of resolved points together with the
resolution it was generated at; dyadic samplers at level n carry resolution
2^-n. The module provides the last-point / next-point maps g_t and d_t, the
Fell-Matheron metric (Hausdorff distance after arctan compactification),
and the fractal diagnostics used downstream: dyadic box counts and
covering sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClosedSetR:
    """Closed subset of the line, resolved to finitely many points."""

    points: np.ndarray
    resolution: float = 1.0

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1:
            raise ValueError("points must be one-dimensional")
        # a NaN fails every comparison, so the increase check rejects one
        # among two or more points, and the end checks a lone NaN
        if not (pts[1:] > pts[:-1]).all():
            raise ValueError("points must be strictly increasing")
        if pts.size and not (-np.inf < pts[0] and pts[-1] < np.inf):
            raise ValueError("points must be finite")
        if not self.resolution > 0:
            raise ValueError("resolution must be positive")

    def __len__(self) -> int:
        return len(self.points)


def g_map(C: ClosedSetR, t: float) -> float:
    """sup{x in C : x <= t}, with sup of the empty set = -inf."""
    i = np.searchsorted(C.points, t, side="right")
    return float(C.points[i - 1]) if i > 0 else -np.inf


def d_map(C: ClosedSetR, t: float) -> float:
    """inf{x in C : x > t}, with inf of the empty set = +inf."""
    i = np.searchsorted(C.points, t, side="right")
    return float(C.points[i]) if i < len(C.points) else np.inf


# ---------------------------------------------------------------------------
# Fell-Matheron metric


def _compactified(C: ClosedSetR) -> np.ndarray:
    """arctan image of C together with the two marks at +-pi/2."""
    return np.concatenate([[-np.pi / 2], np.arctan(C.points), [np.pi / 2]])


def _directed_hausdorff_sorted(a: np.ndarray, b: np.ndarray) -> float:
    """max over x in a of the distance to the nearest point of b; both sorted."""
    idx = np.searchsorted(b, a)
    left = np.abs(a - b[np.clip(idx - 1, 0, len(b) - 1)])
    right = np.abs(b[np.clip(idx, 0, len(b) - 1)] - a)
    return float(np.max(np.minimum(left, right)))


def fm_distance(C1: ClosedSetR, C2: ClosedSetR) -> float:
    """Hausdorff distance between C1 and C2 after adjoining the marks at
    +-infinity and mapping through arctan. Sorted sweeps, O((n1+n2) log)."""
    a, b = _compactified(C1), _compactified(C2)
    return max(_directed_hausdorff_sorted(a, b),
               _directed_hausdorff_sorted(b, a))


# ---------------------------------------------------------------------------
# fractal diagnostics


def _check_level(C: ClosedSetR, n: int, T: float) -> None:
    if not T < np.inf:
        raise ValueError("T must be finite")
    if T * 2.0 ** (-n) < C.resolution:
        raise ValueError("resolution too coarse for the requested dyadic level")


def _blocks_of(C: ClosedSetR, n: int, T: float):
    """The points of C in [0, T] and the index j of the level-n dyadic block
    [(j-1)T/2^n, jT/2^n] holding each, non-decreasing since the points are
    sorted. A point on a block boundary belongs to the block it closes
    (left-open blocks except the first, which holds 0). A block width w that
    is a power of two (T = 1) has an exact 1/w, so p * (1/w) is p / w."""
    _check_level(C, n, T)
    pts = C.points[np.searchsorted(C.points, 0.0):
                   np.searchsorted(C.points, T, side="right")]
    w = T * 2.0 ** (-n)
    exact = np.frexp(w)[0] == 0.5 and 1.0 / w < np.inf
    j = pts * (1.0 / w) if exact else pts / w
    np.ceil(j, out=j)
    # j is 0 only on a leading run: the point 0, and any point so close to
    # it that its quotient underflows; those belong to the first block
    k = 0
    while k < j.size and j[k] == 0.0:
        j[k] = 1.0
        k += 1
    return pts, j


def box_count(C: ClosedSetR, n: int, T: float) -> int:
    """Number of level-n dyadic blocks [(j-1)T/2^n, jT/2^n] meeting C."""
    pts, j = _blocks_of(C, n, T)
    return 0 if pts.size == 0 else 1 + int(np.count_nonzero(j[1:] != j[:-1]))


def dyadic_blocks(C: ClosedSetR, n: int, T: float) -> np.ndarray:
    """Per occupied level-n dyadic block, the extreme points (a_j, b_j) of C
    inside it. Returns an array of (a, b) rows, ordered left to right."""
    pts, j = _blocks_of(C, n, T)
    if pts.size == 0 or pts[0] != 0.0 or pts[-1] != T:
        raise ValueError("block decomposition requires 0 and T in the set")
    # block r + 1 starts at point c[r], and block r ends just before it
    c = np.flatnonzero(j[1:] != j[:-1]) + 1
    out = np.empty((c.size + 1, 2))
    out[0, 0], out[-1, 1] = pts[0], pts[-1]
    out[1:, 0] = pts[c]
    out[:-1, 1] = pts[c - 1]
    return out


def covering_sum(C: ClosedSetR, n: int, exponent: float, T: float) -> float:
    """Sum over occupied dyadic blocks of (b_j - a_j)^exponent, where a_j and
    b_j are the extreme points of C inside block j. Singleton blocks
    contribute 0 (0^exponent := 0 by convention)."""
    blocks = dyadic_blocks(C, n, T)
    spans = blocks[:, 1] - blocks[:, 0]
    spans = spans[spans > 0]
    return float(np.sum(spans ** exponent))


def box_count_slope(counts: dict[int, int]) -> float:
    """log2(count) vs level regression slope, the box-dimension estimate."""
    ns = np.array(sorted(counts))
    ys = np.log2([counts[n] for n in ns])
    slope, _ = np.polyfit(ns, ys, 1)
    return float(slope)
