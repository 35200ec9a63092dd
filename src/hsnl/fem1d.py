"""1-D conforming P1 Galerkin machinery for the nonlocal diffusion problem.

Hat-function gradients are evaluated semi-analytically: phi_i(x + nu t) is
piecewise linear in t, so on every segment the integrand against the kernel
profile is alpha + beta t and the integral is a difference of the two
radial antiderivatives H_0 and H_1.  No inner quadrature ever touches the
kernel singularity.  On a uniform mesh a hat's gradient at x depends only
on the offset of x from the hat's node, so hats are evaluated by node
offset, with no mesh.  A quadrature point x only sees the hats whose
stencil meets its kernel horizon, a window of about top/h + 3 hats.
Unknowns are the interior nodes, which enforces the volume constraint
u = 0 outside the domain.

The x-integral runs over 8-point Gauss panels between the nodes and the
nodes shifted by the horizon and the kernel breakpoints.  Panels at the
same offset in their cells and of the same width (one panel shape) have
the same hat gradients at their 8 points, one hat further per cell, so
assembly groups the panels by shape and evaluates each shape's points
once, on the axis of one cell; a uniform mesh has one to four shapes.
Only the weights A(x_q) w_q change from cell to cell.  Per shape, each band
diagonal is a correlation along the cells of those weights with the
shape's per-point Gram diagonals.  The band is kept as column
differences, summed once at the end, so the weights enter through their
steps from cell to cell.  A constant A steps only at the ends of each run
of cells that holds a shape, a varying A in every cell; the steps are
scattered directly, one Gram block each, or, where that counts less work,
correlated by FFT, a few band diagonals at a time.  No array of all
x-points is held, so the number of panels is not limited.

Since a point sees only its window, the stiffness and mass matrices are
banded, and a `FemSystem` stores only their upper bands, in the
`(width, n)` row layout that `scipy.linalg.cholesky_banded` reads: `width`
is the window width (2 for the local operator and the mass).  The
nonlocal stiffness band is held in Fortran order, so BLAS and LAPACK read
it without a copy.  Assembly factors the stiffness band once and the
`FemSystem` keeps that factor, so every later solve is an
O(n * width) banded back-substitution; band products go through BLAS
`dsbmv`.  A `FemSystem` built by hand factors on first use, and its
`stiffness` and `mass` properties build dense copies for checks.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import kernels as _kern
from ._quad import BLOCK_ENTRIES, merge_breaks, panel_points
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

    @property
    def interior(self):
        return np.arange(1, self.n_cells)


_GX, _GW = np.polynomial.legendre.leggauss(8)
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
    `(cb, lower)` form `scipy.linalg.cho_solve_banded` takes.  It is
    computed once, so build a new system rather than changing the
    stiffness of one that has been solved.
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


def _hat_profiles(kernel):
    """Radial antiderivatives H_0 and H_1, H_0 at infinity (the value at
    the support top for compact support), and the top."""
    h0, h0_inf = _kern.radial_antideriv(kernel, 0)
    h1, _ = _kern.radial_antideriv(kernel, 1)
    if not math.isfinite(h0_inf):
        raise AssemblyError("kernel tail is not summable; cut it off")
    return h0, h1, h0_inf, _kern.support(kernel)[1]


def _window_width(mesh, top):
    """Interior hats whose stencil can meet one point's kernel horizon."""
    return min(mesh.n_cells - 1,
               math.ceil(min(top, mesh.length) / mesh.h) + 3)


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


def _x_breaks(kernel, nu_sign, mesh):
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


def _cluster(values, tol):
    """Labels 0, 1, ... of values, joining sorted neighbours within tol."""
    order = np.argsort(values, kind="stable")
    labels = np.empty(len(values), dtype=int)
    labels[order] = np.cumsum(np.r_[0, np.diff(values[order]) > tol])
    return labels


def _panel_shapes(breaks, h):
    """Cell, offset in the cell and width of every panel, and shape labels.

    A panel [a, b] is cell * h + [offset, offset + width], the cell being
    the node a rounds to when a is within 1e-9 h of it (so that panels
    starting on a node share an offset near 0 whichever way the node
    rounded), else the cell a lies in.  Panels whose offsets and widths
    agree to 1e-12 h share a label; the offset and width returned for a
    label are those of its first panel.
    """
    a, b = breaks[:-1], breaks[1:]
    q = a / h
    cell = np.where(np.abs(q - np.round(q)) < 1e-9, np.round(q), np.floor(q))
    offset, width = a - cell * h, b - a
    key = (_cluster(offset, 1e-12 * h) * len(a)
           + _cluster(width, 1e-12 * h))
    _, first, label = np.unique(key, return_index=True, return_inverse=True)
    return cell.astype(int), offset[first], width[first], label


def _shape_gradients(profiles, nu_sign, h, offset, width):
    """Hat gradients at the 8 Gauss points of one panel shape.

    The points lie in [offset, offset + width] on the axis of one cell,
    which has hat k's node at k * h; in every other cell the panel of this
    shape sees the same gradients, one hat further per cell.  Returns
    (shift, rows, points, weights): rows[q, k] is the gradient at point q
    of the k-th hat of one window that holds every hat the 8 points see,
    and for the panel cell * h + [offset, offset + width] of a mesh that
    hat is band column cell + shift + k (a negative column or one past the
    last names a hat that is not an unknown); point q lies at cell * h +
    points[q].
    """
    top = profiles[3]
    xs, ws = panel_points(np.array([offset, offset + width]), 8)
    lo = xs[[0, -1]] - (top if nu_sign < 0 else 0.0)
    first = math.floor(lo[0] / h) - 1
    last = math.floor(lo[1] / h) + math.ceil(top / h) + 1
    rows = _window_gradients(profiles, nu_sign, h, xs, first,
                             last - first + 1)
    return first - 1, rows, xs, ws


def _add_columns(diff, d, at, vals):
    """Add vals[i, k] to row bw - d[i] of diff at column at + k; a column
    left of 0 adds to column 0, one past the last is dropped."""
    bw, n = diff.shape[0] - 1, diff.shape[1]
    lo, hi = max(0, at), min(n, at + vals.shape[1])
    if lo < hi:
        diff[bw - d, lo:hi] += vals[:, lo - at:hi - at]
    if at < 0:
        diff[bw - d, 0] += vals[:, :-at].sum(axis=1)


def _add_steps(diff, rows, steps, cols):
    """Direct scatter: the Gram block of window weights steps[r] at band
    column cols[r], for every r."""
    bw, wide = diff.shape[0] - 1, rows.shape[1]
    chunk = max(1, BLOCK_ENTRIES // (len(rows) * wide))
    for d0 in range(0, bw + 1, chunk):
        d = np.arange(d0, min(bw + 1, d0 + chunk))
        for at, weights in zip(cols, steps):
            padded = np.concatenate([np.zeros((len(rows), bw)),
                                     rows * weights[:, None]], axis=1)
            # diag[i, k] pairs window hats k - d[i] and k
            diag = np.einsum("qik,qk->ik",
                             padded[:, bw - d[:, None] + np.arange(wide)],
                             rows)
            _add_columns(diff, d, at, diag)


def _correlate_steps(diff, rows, steps, at, size):
    """FFT scatter: the Gram block of window weights steps[r] at band
    column at + r for every r, one correlation along r per diagonal, with
    FFTs of length size."""
    bw, wide = diff.shape[0] - 1, rows.shape[1]
    padded = np.concatenate([np.zeros((len(rows), bw)), rows], axis=1)
    spectra = np.fft.rfft(steps, size, axis=0)
    length = len(steps) + wide - 1
    chunk = max(1, BLOCK_ENTRIES // (len(rows) * size))
    for d0 in range(0, bw + 1, chunk):
        d = np.arange(d0, min(bw + 1, d0 + chunk))
        pairs = padded[:, bw - d[:, None] + np.arange(wide)] * rows[:, None]
        product = np.einsum("fq,qif->if", spectra,
                            np.fft.rfft(pairs, size, axis=2))
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
    return _hat_pairing(mesh, _as_fn(f)(xq), wq)


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


def _factor(band):
    """Banded Cholesky factor (cb, lower) of the symmetric upper band."""
    try:
        return sla.cholesky_banded(band), False
    except sla.LinAlgError:
        low = sla.eigvals_banded(band, select="i", select_range=(0, 0))[0]
        raise AssemblyError("stiffness is not positive definite (smallest "
                            "eigenvalue %.3e)" % low)


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
    _kern.standing_moments(kernel)
    if _kern.support(kernel)[1] == math.inf:
        raise AssemblyError("assembly needs a compactly supported kernel; "
                            "apply cutoff first")
    sign, a_fn = _nu_sign(nu), _as_fn(A)
    profiles = _hat_profiles(kernel)
    band = np.zeros((_window_width(mesh, profiles[3]), mesh.n_cells - 1),
                    order="F")
    cell, offsets, widths, label = _panel_shapes(
        _x_breaks(kernel, sign, mesh), mesh.h)
    for s, (offset, width) in enumerate(zip(offsets, widths)):
        cells = cell[label == s]
        shift, rows, points, ws = _shape_gradients(profiles, sign, mesh.h,
                                                   offset, width)
        weights = a_fn(cells[:, None] * mesh.h + points) * ws
        _add_shape(band, rows, weights, cells, shift)
    np.cumsum(band, axis=1, out=band)
    # entries left of a band row's first column pair a hat with one
    # before hat 1; the band layout keeps them zero
    bw = band.shape[0] - 1
    for d in range(1, bw + 1):
        band[bw - d, :d] = 0.0
    return _system(band, mesh, f)


def assemble_local(A, f, mesh):
    """Standard local P1 system for -(A u')' with zero boundary values."""
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
    u = sla.cho_solve_banded(system.factor, system.load)
    residual = np.linalg.norm(_band_product(system.stiffness_band, u)
                              - system.load)
    scale = max(np.linalg.norm(system.load), 1e-300)
    if residual > 1e-10 * scale:
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
        z = sla.cho_solve_banded(system.factor, _band_product(mass, y))
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
