"""Gauss-Legendre panel helpers shared by the quadrature-heavy modules."""

import functools

import numpy as np

# Entries per scratch array in one block of a batched computation (fem1d
# assembly, the symbol engine); bounds the memory of a block.
BLOCK_ENTRIES = 65536


@functools.lru_cache(maxsize=16)
def gauss_rule(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def panel_rule(a, b, n):
    """n-point Gauss points and weights of the panels [a[i], b[i]], one
    row per panel."""
    x, w = gauss_rule(n)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return mid[:, None] + half[:, None] * x[None, :], half[:, None] * w


def panel_points(breaks, n):
    """Gauss points and weights for the panels delimited by `breaks`.

    breaks is an increasing 1-D array of panel edges; returns flat arrays
    (points, weights) covering every panel with the n-point rule.
    """
    breaks = np.asarray(breaks, dtype=float)
    pts, wts = panel_rule(breaks[:-1], breaks[1:], n)
    return pts.ravel(), wts.ravel()


def geometric_breaks(lo, hi, ratio=4.0):
    """Geometrically graded panel edges from hi down to lo (0 < lo < hi)."""
    edges = [hi]
    t = hi
    while t > lo * (1 + 1e-12):
        t = max(t / ratio, lo)
        edges.append(t)
    return np.array(edges[::-1])


def merge_breaks(lo, hi, *candidate_lists):
    """Sorted unique break points on [lo, hi] including both endpoints."""
    pts = np.concatenate([[lo, hi], *candidate_lists], dtype=float)
    return np.unique(pts[(lo <= pts) & (pts <= hi)])

