"""1-D conforming P1 Galerkin machinery for the nonlocal diffusion problem.

Hat-function gradients are evaluated semi-analytically: phi_i(x + nu t) is
piecewise linear in t, so on every segment the integrand against the kernel
profile is alpha + beta t and the integral is a difference of the two
radial antiderivatives H_0 and H_1.  No inner quadrature ever touches the
kernel singularity.  On a uniform mesh a hat's gradient at x depends only
on the offset of x from the hat's node, so hats are evaluated by node
offset, with no mesh.  A quadrature point x only sees the hats whose
stencil meets its kernel horizon, a window of ceil(top/h) + 2 hats.
Unknowns are the interior nodes, which enforces the volume constraint
u = 0 outside the domain.

The x-integral runs over 8-point Gauss panels between the nodes and the
nodes shifted by the horizon and the kernel breakpoints, laid out in cell
coordinates: an edge is a cell and an exact offset in it, and panels with
the same start offset, cell count and end offset (one panel shape) have
the same hat gradients at their 8 points, one hat further per cell.  So
assembly evaluates each shape's points once, on the axis of one cell; a
uniform mesh has one to four shapes, a kernel with breakpoints more.  The
points of all shapes go through one hat-gradient evaluation per assembly,
each point with its own window (one evaluation per group of shapes when
the windows would hold more than BLOCK_ENTRIES entries), and the kernel's
radial antiderivatives are built once per kernel and memoized.  Only the
weights A(x_q) w_q change from cell to cell.  Per shape, each band
diagonal is a correlation along the cells of those weights with the
shape's per-point Gram diagonals.  The band is kept as column
differences, summed once at the end, so the weights enter through their
steps from cell to cell.  A number A steps only at the ends of each run
of cells that holds a shape, and is not sampled; a callable A is sampled
in every cell and steps wherever it changes.  A shape's steps are
scattered directly, all in one product with its Gram diagonals, or,
where that counts less work, correlated by FFT, a few band diagonals at
a time.  No array of all x-points is held, so the number of panels is
not limited.

Since a point sees only its window, the stiffness and mass matrices are
banded, and a `FemSystem` stores only their upper bands, in the
`(width, n)` row layout of LAPACK's banded Cholesky `dpbtrf`: `width` is
the window width (2 for the local operator and the mass).  The nonlocal
stiffness band is held in Fortran order, so BLAS and LAPACK read it
without a copy.  Assembly factors the stiffness band once and the
`FemSystem` keeps that factor, so every later solve is an O(n * width)
banded back-substitution (`dpbtrs`).  The solves, the general band solve
of the control's Newton system (`dgbsv`) and the band products (BLAS
`dsbmv`) call `scipy.linalg.lapack` and `.blas` directly, with the
finiteness checks of SciPy's wrappers.  A `FemSystem` built by hand
factors on first use, and its `stiffness` and `mass` properties build
dense copies for checks.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from numpy.lib.stride_tricks import sliding_window_view

from . import kernels as _kern
from ._quad import BLOCK_ENTRIES, gauss_rule, panel_rule
from .symbols import _nu_sign

_CALL = 4096    # work units of one NumPy call in _add_shape (measured)


class AssemblyError(RuntimeError):
    """Assembly or factorization failed (non-SPD system, missing cutoff)."""


@dataclass(frozen=True)
class Mesh1D:
    length: float
    n_cells: int

    def __post_init__(self):
        if not self.length > 0.0:
            raise ValueError("mesh length must be positive")
        if int(self.n_cells) != self.n_cells or self.n_cells < 2:
            raise ValueError("need at least two cells")

    @property
    def h(self):
        return self.length / self.n_cells

    @property
    def nodes(self):
        return np.linspace(0.0, self.length, self.n_cells + 1)


_GX, _GW = gauss_rule(8)
_GS = 0.5 * (_GX + 1.0)


def _cell_rule(mesh):
    """8-point Gauss points of every cell, (n_cells, 8), and their weights."""
    return mesh.nodes[:-1, None] + mesh.h * _GS, 0.5 * mesh.h * _GW


@dataclass(eq=False)
class FemSystem:
    """Upper-band stiffness and mass and the load of one Galerkin system.

    Row width - 1 - k of a band holds the k-th superdiagonal, ending in
    the last column (the layout of `scipy.linalg.cholesky_banded`).
    `factor` is the banded Cholesky factor of the stiffness, in the
    `(cb, lower)` form `scipy.linalg.cho_solve_banded` takes, with lower
    always False.  It is computed once, so build a new system rather than
    changing the stiffness of one that has been solved.
    """

    stiffness_band: np.ndarray
    mass_band: np.ndarray
    load: np.ndarray

    @functools.cached_property
    def factor(self):
        return _factor(self.stiffness_band)

    @property
    def stiffness(self):
        """Dense symmetric stiffness, built from the band on each access."""
        return _dense(self.stiffness_band)

    @property
    def mass(self):
        """Dense symmetric mass, built from the band on each access."""
        return _dense(self.mass_band)


def _as_fn(g):
    """A callable as given, or a constant as a function of x."""
    if callable(g):
        return g
    val = float(g)
    return lambda x: np.full(np.shape(x), val)


@functools.lru_cache(maxsize=256)
def _hat_profiles(kernel):
    """Radial antiderivatives H_0 and H_1, H_0 at infinity (the value at
    the support top for compact support), and the top; built once per
    kernel."""
    h0, h0_inf = _kern.radial_antideriv(kernel, 0)
    h1, _ = _kern.radial_antideriv(kernel, 1)
    if not math.isfinite(h0_inf):
        raise AssemblyError("kernel tail is not summable; cut it off")
    return h0, h1, h0_inf, _kern.support(kernel)[1]


def _window_width(mesh, top):
    """Interior hats whose stencil can meet one point's kernel horizon:
    from floor(lo / h) to ceil((lo + top) / h), lo the horizon's start."""
    return min(mesh.n_cells - 1,
               math.ceil(min(top, mesh.length) / mesh.h) + 2)


def _window_gradients(profiles, nu_sign, h, xs, first, width):
    """Half-space gradients at the points xs of the hats first .. first +
    width - 1, hat k having its node at k * h on the points' axis.

    first is one hat for every point or one per point; rows[r, k] is the
    gradient of hat first + k (or first[r] + k) at xs[r].  A hat's
    gradient depends only on the offset of the point from its node, so
    any axis with nodes at the multiples of h serves: a mesh's, a cell's
    or a single hat's.  A hat whose stencil [(k - 1) h, (k + 1) h] misses
    [x, x + top] (nu = 1) or [x - top, x] (nu = -1) is exactly 0 at x.
    """
    h0, h1, h0_inf, top = profiles
    nodes = h * (np.reshape(first, (-1, 1)) - 1 + np.arange(width + 2))
    t_all = nu_sign * (nodes - xs[:, None])
    t_clip = np.clip(t_all, 0.0, top)
    with np.errstate(invalid="ignore"):
        h0_all = h0(t_clip)
        h1_all = h1(t_clip)
    if nu_sign > 0:
        ia, ib, ic = np.s_[:, :-2], np.s_[:, 1:-1], np.s_[:, 2:]
    else:
        ia, ib, ic = np.s_[:, 2:], np.s_[:, 1:-1], np.s_[:, :-2]
    t_a, t_b, t_c = t_all[ia], t_all[ib], t_all[ic]
    phi_x = np.where(t_b >= 0.0,
                     np.where(t_a < 0.0, -t_a / h, 0.0),
                     np.where(t_c > 0.0, t_c / h, 0.0))
    coef_rise = -t_a / h - phi_x
    # a point on the hat's node (t_b = 0) has an exactly zero fall
    # coefficient, which roundoff in t_c / h - 1 misses; it would meet
    # H0(0), infinite for kernels of infinite mass
    coef_fall = np.where(t_b == 0.0, 0.0, t_c / h - phi_x)
    live_rise = (coef_rise != 0.0) & (t_clip[ib] > t_clip[ia])
    live_fall = (coef_fall != 0.0) & (t_clip[ic] > t_clip[ib])
    with np.errstate(invalid="ignore"):
        d0_rise = h0_all[ib] - h0_all[ia]
        d0_fall = h0_all[ic] - h0_all[ib]
        d0_tail = h0_inf - h0_all[ic]
        out = (np.where(live_rise, coef_rise * d0_rise, 0.0)
               + np.where(live_fall, coef_fall * d0_fall, 0.0)
               + (h1_all[ib] - h1_all[ia]) / h
               - (h1_all[ic] - h1_all[ib]) / h
               - np.where(phi_x > 0.0, phi_x * d0_tail, 0.0))
    return nu_sign * out


def hat_gradient(kernel, nu, mesh, i, x):
    """Half-space gradient of the interior hat phi_i at the point x."""
    _kern.standing_moments(kernel)
    if not 1 <= i <= mesh.n_cells - 1:
        raise ValueError("hat index must name an interior node")
    x = float(x)
    if math.isnan(x):
        raise ValueError("hat gradient point is NaN")
    rows = _window_gradients(_hat_profiles(kernel), _nu_sign(nu), mesh.h,
                             np.array([x - mesh.nodes[i]]), 0, 1)
    return float(rows[0, 0])


def _panel_shapes(kernel, nu_sign, mesh):
    """Cell of every x-panel, offset in a cell and width of every shape,
    and the shape label of every panel (cell * h + [offset, offset + width]).

    The edges are the nodes and the nodes shifted by -nu times the horizon
    and every kernel breakpoint, from node 0 shifted by the horizon to node
    n (nu = 1) or from node 0 to node n shifted by it (nu = -1).  A shift
    moves node j to node j + q plus an offset in [0, h), exact by fmod.
    Offsets within 1e-12 h of each other or of a node (0 or h) are one, so
    no panel is a few ulps wide; no tolerance acts on an edge.
    An edge is the integer (rank of its cell) * m + (index of its offset
    among m), and a shape the exact triple (start offset, cell count, end
    offset), labelled by the integer (start * R + rank of count) * m + end.
    """
    h, tol = mesh.h, 1e-12 * mesh.h
    q, rem = np.divmod(-nu_sign * np.array(
        [0.0, _kern.support(kernel)[1], *_kern.breakpoints(kernel)]), h)
    up = rem > h - tol
    q = q.astype(np.int64) + up
    rem[up] = 0.0
    srt = np.sort(rem)
    offsets = srt[np.r_[True, np.diff(srt) > tol]]
    family = np.searchsorted(offsets, rem, side="right") - 1
    # ranks, not cells 2**52 apart: keys < (n + 1) k m for k shifts, labels
    # < m**2 R for R < 2**27 counts: int64 holds both below 2**18 breakpoints
    m, n = len(offsets), mesh.n_cells
    cells, rank = np.unique(np.arange(n + 1)[:, None] + q,
                            return_inverse=True)
    keys = rank.reshape(n + 1, -1) * m + family
    # column 0 holds the nodes, column 1 the nodes shifted by the horizon
    lo, hi = keys[[0, n], [1, 0] if nu_sign > 0 else [0, 1]]
    # a sort, as np.unique hashes ints, several times slower for these
    keys = np.sort(keys[(lo <= keys) & (keys <= hi)])
    edge, o = np.divmod(keys[np.r_[True, keys[1:] > keys[:-1]]], m)
    cell = cells[edge]
    counts, size = np.unique(np.diff(cell), return_inverse=True)
    r = len(counts)
    codes, label = np.unique((o[:-1] * r + size) * m + o[1:],
                             return_inverse=True)
    start, size, end = codes // (r * m), codes // m % r, codes % m
    return (cell[:-1], offsets[start],
            counts[size] * h + offsets[end] - offsets[start], label)


def _gradients_by_shape(profiles, nu_sign, h, offsets, widths, hats):
    """Hat gradients at the 8 Gauss points of every panel shape.

    Shape s has its points in [offsets[s], offsets[s] + widths[s]] on the
    axis of one cell, which has hat k's node at k * h; in every other cell
    a panel of that shape sees the same gradients, one hat further per
    cell.  Yields (shift, rows, points, weights) for each shape in turn:
    rows[q, k] is the gradient at point q of the k-th hat of one window
    that holds every hat the 8 points see, and for the panel cell * h +
    [offset, offset + width] of a mesh that hat is band column cell +
    shift + k (a negative column or one past the last names a hat that is
    not an unknown); point q lies at cell * h + points[q].  A point x sees
    the hats whose stencil [(k-1)h, (k+1)h] meets [x, x + top] (nu = 1) or
    [x - top, x] (nu = -1), ceil(top/h) + 2 of them at most; the window is
    cut to the hats seen and to hats[0][s] .. hats[1][s], the hats of this
    axis that are unknowns in some cell of the shape, so a horizon longer
    than the mesh costs no more hats.

    The points of all shapes go through one `_window_gradients` call, each
    with its own first hat, on the widest shape's window; when that holds
    more than BLOCK_ENTRIES entries, through one call per group of shapes.
    """
    top = profiles[3]
    xs, ws = panel_rule(offsets, offsets + widths, 8)
    reach = xs[:, [0, -1]] + ((-top, 0.0) if nu_sign < 0 else (0.0, top))
    span = np.clip(reach / h, hats[0][:, None] - 1, hats[1][:, None] + 1)
    # a hat of margin against rounding, then only the hats seen are kept
    first = np.maximum(hats[0], np.floor(span[:, 0]).astype(int) - 1)
    count = np.minimum(hats[1], np.ceil(span[:, 1]).astype(int) + 1) \
        - first + 1
    wide = int(count.max())
    group = max(1, BLOCK_ENTRIES // (8 * (wide + 2)))
    for g0 in range(0, len(xs), group):
        g = slice(g0, g0 + group)
        rows = _window_gradients(profiles, nu_sign, h, xs[g].ravel(),
                                 np.repeat(first[g], 8), wide)
        rows = rows.reshape(-1, 8, wide)
        seen = rows.any(axis=1) & (np.arange(wide) < count[g, None])
        hit = seen.any(axis=1)
        lo = np.where(hit, seen.argmax(axis=1), 0)
        hi = np.where(hit, wide - seen[:, ::-1].argmax(axis=1), count[g])
        for j, s in enumerate(range(g0, g0 + len(rows))):
            yield (first[s] + lo[j] - 1, rows[j, :, lo[j]:hi[j]], xs[s],
                   ws[s])


def _add_columns(diff, d, at, vals):
    """Add vals[i, k] to row bw - d[i] of diff at column at + k; a column
    left of 0 adds to column 0, one past the last is dropped."""
    bw, n = diff.shape[0] - 1, diff.shape[1]
    lo, hi = max(0, at), min(n, at + vals.shape[1])
    if lo < hi:
        diff[bw - d, lo:hi] += vals[:, lo - at:hi - at]
    if at < 0:
        diff[bw - d, 0] += vals[:, :-at].sum(axis=1)


def _gram_diagonals(rows, d):
    """Gram diagonals of every point, [q, i, k] = rows[q, k - d[i]] *
    rows[q, k] (0 where k < d[i]), for a run d of consecutive diagonals."""
    padded = np.concatenate([np.zeros((len(rows), d[-1])), rows], axis=1)
    # window s pairs with diagonal d[-1] - s: it is rows[:, k - d[-1] + s]
    windows = sliding_window_view(padded, rows.shape[1], axis=1)
    return windows[:, len(d) - 1::-1] * rows[:, None]


def _add_steps(diff, rows, steps, cols):
    """Direct scatter: the Gram block of window weights steps[r] at band
    column cols[r], for every r, all steps in one product."""
    bw, (points, wide) = diff.shape[0] - 1, rows.shape
    chunk = max(1, BLOCK_ENTRIES // (max(points, len(steps)) * wide))
    for d0 in range(0, bw + 1, chunk):
        d = np.arange(d0, min(bw + 1, d0 + chunk))
        blocks = steps @ _gram_diagonals(rows, d).reshape(points, -1)
        for block, at in zip(blocks.reshape(len(steps), len(d), wide), cols):
            _add_columns(diff, d, at, block)


def _correlate_steps(diff, rows, steps, at, size):
    """FFT scatter: the Gram block of window weights steps[r] at band
    column at + r for every r, one correlation along r per diagonal, with
    FFTs of length size."""
    bw, wide = diff.shape[0] - 1, rows.shape[1]
    spectra = np.fft.rfft(steps, size, axis=0)
    length = len(steps) + wide - 1
    chunk = max(1, BLOCK_ENTRIES // (len(rows) * size))
    for d0 in range(0, bw + 1, chunk):
        d = np.arange(d0, min(bw + 1, d0 + chunk))
        product = np.einsum("fq,qif->if", spectra, np.fft.rfft(
            _gram_diagonals(rows, d), size, axis=2))
        _add_columns(diff, d, at,
                     np.fft.irfft(product, size, axis=1)[:, :length])


def _add_shape(diff, rows, weights, cells, shift):
    """Add one panel shape's Gram blocks, weighted by weights[r] in cell
    cells[r] (a cell without the shape weighs 0), to the column
    differences of the upper band; in cell c, window hat k is band column
    c + shift + k.  The work of a scatter counts one unit per FFT entry
    and log2 of its length, 4 per entry of a contraction, _CALL per call.
    """
    bw, wide = diff.shape[0] - 1, rows.shape[1]
    c0 = cells[0]
    held = np.zeros((cells[-1] - c0 + 3, len(rows)))
    held[cells - c0 + 1] = weights
    steps = np.diff(held, axis=0)       # step r is at cell c0 + r
    live = np.flatnonzero(steps.any(axis=1))
    if not live.size:
        return
    size = 1 << (len(steps) + wide - 2).bit_length()     # FFT length
    if (len(live) * (_CALL + 4 * (bw + 1) * wide)
            <= 3 * _CALL + (bw + 1) * size * math.log2(size)):
        _add_steps(diff, rows, steps[live], c0 + shift + live)
    else:
        _correlate_steps(diff, rows, steps, c0 + shift, size)


def _hat_pairing(mesh, vals, wq):
    """Inner products with every interior hat of an integrand sampled at
    the per-cell Gauss points (cell start + h * _GS), weights wq."""
    right = np.sum(wq * vals * _GS, axis=1)
    left = np.sum(wq * vals * (1.0 - _GS), axis=1)
    out = np.zeros(mesh.n_cells + 1)
    out[1:] += right
    out[:-1] += left
    return out[1:-1]


def _load_vector(f, mesh):
    xq, wq = _cell_rule(mesh)
    with np.errstate(over="ignore", invalid="ignore"):
        load = _hat_pairing(mesh, _as_fn(f)(xq), wq)
    if not np.all(np.isfinite(load)):
        raise ValueError("the load vector is not finite")
    return load


def _dense(band):
    """Symmetric matrix whose upper band is band."""
    bw, n = band.shape[0] - 1, band.shape[1]
    out = np.zeros((n, n))
    for k in range(bw + 1):
        idx = np.arange(n - k)
        out[idx, idx + k] = out[idx + k, idx] = band[bw - k, k:]
    return out


def _band_product(band, x):
    """band @ x for the symmetric matrix whose upper band is band."""
    return sla.blas.dsbmv(band.shape[0] - 1, 1.0, band, x)


def _check_finite(*arrays):
    """Raise scipy.linalg's ValueError if an array has infs or NaNs."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


def _factor(band):
    """Banded Cholesky factor (cb, lower) of the symmetric upper band, by
    LAPACK dpbtrf."""
    _check_finite(band)
    cb, info = sla.lapack.dpbtrf(band)
    if info > 0:
        low = sla.eigvals_banded(band, select="i", select_range=(0, 0))[0]
        raise AssemblyError("stiffness is not positive definite (smallest "
                            "eigenvalue %.3e)" % low)
    # scipy's cho_solve_banded checks the factor at every solve; it does
    # not change, so once here
    _check_finite(cb)
    return cb, False


def _cho_solve(factor, rhs):
    """Solve with a banded Cholesky factor from _factor, by LAPACK dpbtrs;
    rhs is left as it is."""
    _check_finite(rhs)
    if rhs.shape != factor[0].shape[1:]:
        raise ValueError("shapes of cb and b are not compatible.")
    return sla.lapack.dpbtrs(factor[0], rhs)[0]


def _band_solve(half, work, rhs):
    """Solve the general band system with half sub- and superdiagonals in
    work, in the (3 half + 1)-row layout of LAPACK dgbsv (entry (i, j) in
    row 2 half + i - j, the first half rows for its fill-in).  dgbsv
    overwrites work with the LU factors and rhs with the solution."""
    _check_finite(work, rhs)
    _, _, x, info = sla.lapack.dgbsv(half, half, work, rhs, overwrite_ab=1,
                                     overwrite_b=1)
    if info > 0:
        raise sla.LinAlgError("singular matrix")
    return x


def _system(stiffness_band, mesh, f):
    """FemSystem with the P1 mass and load, factored once here."""
    mass_band = np.zeros((2, mesh.n_cells - 1))
    mass_band[0, 1:] = mesh.h / 6.0
    mass_band[1] = 4.0 * mesh.h / 6.0
    system = FemSystem(stiffness_band, mass_band, _load_vector(f, mesh))
    system.factor  # factor now: a system that is not SPD fails here
    return system


def assemble(kernel, nu, A, f, mesh):
    """Galerkin system for the bilinear form int A (G phi_i)(G phi_j) dx.

    The kernel must have compact support (apply cutoff first); the
    x-integration runs over the extended support of all hat gradients,
    so a callable coefficient A is evaluated slightly outside the domain
    too.  A is a number or a callable on arrays of points; a callable
    that returns a constant gives the band of that number, bit for bit.
    """
    if kernel.d != 1:
        raise ValueError("the Galerkin solver is one-dimensional")
    _kern.standing_moments(kernel)
    top = _kern.support(kernel)[1]
    if top == math.inf:
        raise AssemblyError("assembly needs a compactly supported kernel; "
                            "apply cutoff first")
    # past 2**52 cells the horizon's count of whole cells is not exact in
    # a float, and the x-panel keys could overflow
    if top / mesh.h >= 2.0 ** 52:
        raise ValueError("the horizon spans %.3g cells; at most 2**52 are "
                         "resolved" % (top / mesh.h))
    sign = _nu_sign(nu)
    number = None if callable(A) else float(A)
    if number is not None and not math.isfinite(number):
        raise ValueError("A = %g is not finite" % number)
    # the x-quadrature weights are below h
    if number is not None and math.isinf(number * mesh.h):
        raise ValueError("A = %g overflows the quadrature weights" % number)
    profiles = _hat_profiles(kernel)
    band = np.zeros((_window_width(mesh, profiles[3]), mesh.n_cells - 1),
                    order="F")
    cell, offsets, widths, label = _panel_shapes(kernel, sign, mesh)
    # each shape's cells, increasing, as panels come in position order
    cells = cell[np.argsort(label, kind="stable")]
    counts = np.bincount(label)
    ends = np.cumsum(counts)
    starts = ends - counts
    hats = (1 - cells[ends - 1], mesh.n_cells - 1 - cells[starts])
    shapes = _gradients_by_shape(profiles, sign, mesh.h, offsets, widths,
                                 hats)
    for a, b, (shift, rows, points, ws) in zip(starts, ends, shapes):
        held = cells[a:b]
        if number is None:
            xs = held[:, None] * mesh.h + points
            samples = A(xs)
            if not np.all(np.isfinite(samples)):
                raise ValueError("A is not finite at x = %g"
                                 % xs[~np.isfinite(samples)][0])
            weights = samples * ws
        else:
            weights = np.broadcast_to(number * ws, (len(held), len(ws)))
        _add_shape(band, rows, weights, held, shift)
    np.cumsum(band, axis=1, out=band)
    # entries left of a band row's first column pair a hat with one
    # before hat 1; the band layout keeps them zero
    bw = band.shape[0] - 1
    head = band[:, :bw]
    head[np.arange(bw + 1)[:, None] < bw - np.arange(bw)] = 0.0
    return _system(band, mesh, f)


def assemble_local(A, f, mesh):
    """Standard local P1 system for -(A u')' with zero boundary values."""
    if not sys.float_info.min <= mesh.h * mesh.h < math.inf:
        raise ValueError("h = %g is out of range: h**2 leaves the normal "
                         "floats" % mesh.h)
    xq, wq = _cell_rule(mesh)
    k = np.sum(wq * _as_fn(A)(xq), axis=1) / mesh.h ** 2
    band = np.zeros((2, mesh.n_cells - 1))
    band[0, 1:] = -k[1:-1]
    band[1] = k[:-1] + k[1:]
    return _system(band, mesh, f)


def solve_state(system):
    """Banded Cholesky solve of the Galerkin system, with a residual check.

    The system's factor is reused; a hand-built system factors here once.
    """
    u = _cho_solve(system.factor, system.load)
    # norms of the vectors scaled to max|load| = 1, so that a load near
    # the top of the float range does not overflow them
    size = max(float(np.max(np.abs(system.load))), 1e-300)
    residual = np.linalg.norm((_band_product(system.stiffness_band, u)
                               - system.load) / size)
    scale = max(np.linalg.norm(system.load / size), 1e-300)
    if not residual <= 1e-10 * scale:
        raise AssemblyError("solver residual %.3e exceeds tolerance"
                            % (residual / scale))
    return u


def smallest_eigenvalue(system, tol=1e-10, maxit=500):
    """Smallest generalized eigenvalue of the system by inverse power."""
    stiff, mass = system.stiffness_band, system.mass_band
    rng = np.random.default_rng(0)
    y = rng.standard_normal(stiff.shape[1])
    y /= math.sqrt(y @ _band_product(mass, y))
    lam = y @ _band_product(stiff, y)
    for _ in range(maxit):
        z = _cho_solve(system.factor, _band_product(mass, y))
        z /= math.sqrt(z @ _band_product(mass, z))
        lam_new = z @ _band_product(stiff, z)
        y = z
        if abs(lam_new - lam) <= tol * abs(lam_new):
            return lam_new
        lam = lam_new
    raise AssemblyError("inverse power iteration did not converge")


def poincare_constant(kernel, nu, mesh):
    """Discrete Poincare constant lambda_min(B, M)^{-1/2} with A = 1.

    kernel None selects the local H^1 reference form instead.
    """
    if kernel is None:
        system = assemble_local(1.0, 0.0, mesh)
    else:
        system = assemble(kernel, nu, 1.0, 0.0, mesh)
    lam = smallest_eigenvalue(system)
    if lam <= 0.0:
        raise AssemblyError("nonpositive smallest eigenvalue %.3e "
                            "violates coercivity" % lam)
    return lam ** -0.5


def p1_interpolant(mesh, coeffs):
    """Callable P1 function with the given interior coefficients."""
    vals = np.zeros(mesh.n_cells + 1)
    vals[1:-1] = np.asarray(coeffs, dtype=float)
    nodes = mesh.nodes

    def fn(x):
        return np.interp(np.asarray(x, dtype=float), nodes, vals,
                         left=0.0, right=0.0)

    return fn
