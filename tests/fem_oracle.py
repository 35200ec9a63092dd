"""Two earlier paths of P1 stiffness assembly, kept as oracles for the
shape-grouped assembly of `hsnl.fem1d`.

The strip path (`stiffness_band`) is the point-by-point assembly that
`fem1d.assemble` used for a callable coefficient A: the 8-point Gauss
points of every x-panel, sorted, each with the hat gradients of its own
window, a block of points at a time.  Each run of points with the same
window adds one Gram product to a dense strip of hats, which joins the
band once the points pass it.  It holds every x-point at once, so it
refuses more than `MAX_PANELS` panels.  Its panels come from `x_breaks`,
the layout `fem1d` used before it built the panels in cell coordinates:
absolute break positions (node minus nu times each shift), with edges
within 1e-12 h of each other merged.  It shares no code with
`fem1d._panel_shapes`, so it is an independent reference for it.

The shape-by-shape path (`shape_band`) evaluates the hat gradients of
each panel shape in a call of its own and samples A at every point; its
band must equal `fem1d.assemble`'s bit for bit.
"""

import math

import numpy as np

from hsnl import fem1d as _fem
from hsnl import kernels as _kern
from hsnl._quad import BLOCK_ENTRIES, merge_breaks, panel_points
from hsnl.symbols import _nu_sign

MAX_PANELS = 16384     # x-panels of one assembly, all held at once


def x_breaks(kernel, nu_sign, mesh):
    """Edges of the x-panels over the extended support of every hat
    gradient: the nodes, and each node shifted by the horizon and by every
    kernel breakpoint against nu.

    A shift that is a multiple of h lands on a node only up to roundoff;
    of edges within 1e-12 h of each other only the first is kept (and the
    ends), so no panel is a few ulps wide.
    """
    top = _kern.support(kernel)[1]
    if nu_sign > 0:
        lo, hi = -top, mesh.length
    else:
        lo, hi = 0.0, mesh.length + top
    offsets = np.array([0.0, top, *_kern.breakpoints(kernel)])
    cand = (mesh.nodes[:, None] - nu_sign * offsets).ravel()
    breaks = merge_breaks(lo, hi, cand, mesh.nodes)
    gap, inner = 1e-12 * mesh.h, breaks[1:-1]
    keep = (np.diff(breaks[:-1]) > gap) & (breaks[-1] - inner > gap)
    return np.concatenate([breaks[:1], inner[keep], breaks[-1:]])


def x_panels(kernel, nu_sign, mesh):
    """8-point Gauss points and weights of every x-panel."""
    breaks = x_breaks(kernel, nu_sign, mesh)
    if len(breaks) - 1 > MAX_PANELS:
        raise _fem.AssemblyError("assembly panel budget exceeded")
    return panel_points(breaks, 8)


def window_starts(mesh, nu_sign, top, xs, width):
    """First interior hat of each point's window of width hats, clamped
    to the interior hats 1 .. n_cells - 1: floor(lo / h), lo the start of
    the point's horizon, the first hat whose stencil can meet it."""
    lo = xs if nu_sign > 0 else xs - top
    return np.clip(np.floor(lo / mesh.h), 1, mesh.n_cells - width).astype(int)


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


def shape_gradients(profiles, nu_sign, h, offset, width, hats):
    """Hat gradients at the 8 Gauss points of one panel shape, in one
    `_window_gradients` call of their own: (shift, rows, points, weights)
    as `fem1d._gradients_by_shape` yields them for that shape.  hats[0] ..
    hats[1] are the hats of the cell's axis that are unknowns in some cell
    of the shape; the window is cut to those and to the hats seen."""
    top = profiles[3]
    xs, ws = panel_points(np.array([offset, offset + width]), 8)
    reach = xs[[0, -1]] + ((-top, 0.0) if nu_sign < 0 else (0.0, top))
    span = np.clip(reach / h, hats[0] - 1, hats[1] + 1)
    first = max(hats[0], math.floor(span[0]) - 1)
    last = min(hats[1], math.ceil(span[1]) + 1)
    rows = _fem._window_gradients(profiles, nu_sign, h, xs, first,
                                  last - first + 1)
    seen = np.flatnonzero(rows.any(axis=0))
    if seen.size:
        rows = rows[:, seen[0]:seen[-1] + 1]
        first += int(seen[0])
    return first - 1, rows, xs, ws


def shape_band(kernel, nu, A, mesh):
    """Upper stiffness band from the panel shapes one at a time, each
    with its own hat-gradient evaluation, and A sampled at every point of
    every cell even when it is a number; the Gram scatter is
    `fem1d._add_shape`.  `fem1d.assemble` must give these bits."""
    nu_sign, a_fn = _nu_sign(nu), _fem._as_fn(A)
    profiles = _fem._hat_profiles(kernel)
    band = np.zeros((_fem._window_width(mesh, profiles[3]),
                     mesh.n_cells - 1), order="F")
    cell, offsets, widths, label = _fem._panel_shapes(kernel, nu_sign, mesh)
    for s, (offset, width) in enumerate(zip(offsets, widths)):
        cells = cell[label == s]
        hats = (1 - cells[-1], mesh.n_cells - 1 - cells[0])
        shift, rows, points, ws = shape_gradients(profiles, nu_sign, mesh.h,
                                                  offset, width, hats)
        weights = a_fn(cells[:, None] * mesh.h + points) * ws
        _fem._add_shape(band, rows, weights, cells, shift)
    np.cumsum(band, axis=1, out=band)
    bw = band.shape[0] - 1
    for d in range(1, bw + 1):
        band[bw - d, :d] = 0.0
    return band
