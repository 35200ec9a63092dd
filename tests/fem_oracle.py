"""The strip path of P1 stiffness assembly, kept as the oracle for the
shape-grouped assembly of `hsnl.fem1d`.

It is the point-by-point assembly that `fem1d.assemble` used for a
callable coefficient A: the 8-point Gauss points of every x-panel, sorted,
each with the hat gradients of its own window, a block of points at a
time.  Each run of points with the same window adds one Gram product to a
dense strip of hats, which joins the band once the points pass it.  It
holds every x-point at once, so it refuses more than `MAX_PANELS` panels.
"""

import numpy as np

from hsnl import fem1d as _fem
from hsnl import kernels as _kern
from hsnl._quad import BLOCK_ENTRIES, panel_points
from hsnl.symbols import _nu_sign

MAX_PANELS = 16384     # x-panels of one assembly, all held at once


def x_panels(kernel, nu_sign, mesh):
    """8-point Gauss points and weights of every x-panel."""
    breaks = _fem._x_breaks(kernel, nu_sign, mesh)
    if len(breaks) - 1 > MAX_PANELS:
        raise _fem.AssemblyError("assembly panel budget exceeded")
    return panel_points(breaks, 8)


def window_starts(mesh, nu_sign, top, xs, width):
    """First interior hat of each point's window of width hats, clamped
    to the interior hats 1 .. n_cells - 1."""
    lo = xs if nu_sign > 0 else xs - top
    return np.clip(np.floor(lo / mesh.h) - 1, 1,
                   mesh.n_cells - width).astype(int)


def add_strip(band, s0, strip):
    """Add the upper band of strip's symmetric part (its two triangles
    differ by rounding) to band, from band column s0 on."""
    sym, bw = 0.5 * (strip + strip.T), len(band) - 1
    for k in range(bw + 1):
        band[bw - k, s0 + k:s0 + len(sym)] += np.diagonal(sym, k)


def stiffness_band(kernel, nu, A, mesh):
    """Upper stiffness band, in the layout of `FemSystem.stiffness_band`,
    from every x-point's window of hats; A is a number or a callable."""
    _kern.moments(kernel)
    nu_sign = _nu_sign(nu)
    profiles = _fem._hat_profiles(kernel)
    width = _fem._window_width(mesh, profiles[3])
    band = np.zeros((width, mesh.n_cells - 1))
    xq, wq = x_panels(kernel, nu_sign, mesh)
    weights = wq * _fem._as_fn(A)(xq)
    block = max(1, BLOCK_ENTRIES // (width + 2))
    s0, strip = 0, np.zeros((0, 0))
    for start in range(0, len(xq), block):
        xs = xq[start:start + block]
        first = window_starts(mesh, nu_sign, profiles[3], xs, width)
        rows = _fem._window_gradients(profiles, nu_sign, mesh.h, xs, first,
                                      width)
        weighted = rows * weights[start:start + block, None]
        # x_panels returns sorted points, so equal window starts come in
        # runs; each run adds its Gram block to a dense strip of hats s0..,
        # which joins the band once a block sees hats past the strip's end
        if first[-1] - 1 + width > s0 + len(strip):
            add_strip(band, s0, strip)
            s0 = first[0] - 1
            strip = np.zeros((first[-1] - 1 - s0 + width,) * 2)
        cuts = np.flatnonzero(np.diff(first)) + 1
        for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(first)]):
            s = first[a] - 1 - s0
            strip[s:s + width, s:s + width] += weighted[a:b].T @ rows[a:b]
    add_strip(band, s0, strip)
    return band
