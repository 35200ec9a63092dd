"""1-D conforming P1 Galerkin machinery for the nonlocal diffusion problem.

Hat-function gradients are evaluated semi-analytically: phi_i(x + nu t) is
piecewise linear in t, so on every segment the integrand against the kernel
profile is alpha + beta t and the integral is a difference of the two
radial antiderivatives H_0 and H_1.  No inner quadrature ever touches the
kernel singularity.  A quadrature point x only sees the hats whose stencil
meets its kernel horizon, a window of about top/h + 3 hats, so assembly
evaluates that window for a block of points at once and adds each run of
points with the same window as one dense Gram product.  Unknowns are the
interior nodes only; the volume constraint u = 0 outside the domain is
enforced by that basis choice.

The stiffness matrix is therefore banded, with a half-bandwidth of about
top/h + 2 (1 for the local operator).  The SPD check that ends assembly
reads the half-bandwidth from the matrix's nonzero pattern and factors the
upper band once with `scipy.linalg.cholesky_banded`; the `FemSystem`
keeps that factor, and every later solve is an O(n * bandwidth) banded
back-substitution.  A `FemSystem` built by hand factors on first use.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from . import kernels as _kern
from ._quad import BLOCK_ENTRIES, merge_breaks, panel_points
from .symbols import _nu_sign

_MAX_PANELS = 16384     # x-panels allowed per assembly (dense n x n matrix)


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
    """Dense stiffness, mass and load of one Galerkin system.

    `factor` is the banded Cholesky factor of the symmetrized stiffness,
    in the `(cb, lower)` form `scipy.linalg.cho_solve_banded` takes.  It
    is computed once, so build a new system rather than changing the
    stiffness of one that has been solved.
    """

    stiffness: np.ndarray
    mass: np.ndarray
    load: np.ndarray
    meta: dict = field(default_factory=dict)

    @functools.cached_property
    def factor(self):
        return _check_spd(self.stiffness, "stiffness")[1]


def _as_fn(g):
    """A callable as given, or a constant as a function of x."""
    if callable(g):
        return g
    val = float(g)
    return lambda x: np.full(np.shape(x), val)


def _hat_profiles(kernel):
    """Radial antiderivatives H_0, H_1, H_0 at the support top, and the top."""
    h0, h0_inf = _kern.radial_antideriv(kernel, 0)
    h1, _ = _kern.radial_antideriv(kernel, 1)
    top = _kern.support(kernel)[1]
    if top < math.inf:
        h0_top = float(h0(np.array([top]))[0])
    else:
        h0_top = h0_inf
        if not math.isfinite(h0_top):
            raise AssemblyError("kernel tail is not summable; cut it off")
    return h0, h1, h0_top, top


def _window_width(mesh, top):
    """Interior hats whose stencil can meet one point's kernel horizon."""
    return min(mesh.n_cells - 1,
               math.ceil(min(top, mesh.length) / mesh.h) + 3)


def _window_gradients(profiles, nu_sign, mesh, xs, width):
    """Half-space gradients of the hats in each point's window.

    Returns (first, rows): point xs[r] sees the interior hats first[r] ..
    first[r] + width - 1, and rows[r, k] is the gradient of hat
    first[r] + k there.  Every other hat vanishes at xs[r], because its
    stencil [x_{i-1}, x_{i+1}] misses [x, x + top] (nu = 1) or
    [x - top, x] (nu = -1).
    """
    h0, h1, h0_top, top = profiles
    h = mesh.h
    lo = xs if nu_sign > 0 else xs - top
    first = np.clip(np.floor(lo / h) - 1, 1,
                    mesh.n_cells - width).astype(int)
    nodes = mesh.nodes[first[:, None] - 1 + np.arange(width + 2)]
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
    # a point on the hat's node (t_b = 0, in panels a few ulps wide) has
    # an exactly zero fall coefficient, which roundoff in t_c / h - 1
    # misses; it would meet H0(0), infinite for kernels of infinite mass
    coef_fall = np.where(t_b == 0.0, 0.0, t_c / h - phi_x)
    live_rise = (coef_rise != 0.0) & (t_clip[ib] > t_clip[ia])
    live_fall = (coef_fall != 0.0) & (t_clip[ic] > t_clip[ib])
    with np.errstate(invalid="ignore"):
        d0_rise = h0_all[ib] - h0_all[ia]
        d0_fall = h0_all[ic] - h0_all[ib]
        d0_tail = h0_top - h0_all[ic]
        out = (np.where(live_rise, coef_rise * d0_rise, 0.0)
               + np.where(live_fall, coef_fall * d0_fall, 0.0)
               + (h1_all[ib] - h1_all[ia]) / h
               - (h1_all[ic] - h1_all[ib]) / h
               - np.where(phi_x > 0.0, phi_x * d0_tail, 0.0))
    return first, nu_sign * out


def hat_gradient(kernel, nu, mesh, i, x):
    """Half-space gradient of the interior hat phi_i at the point x."""
    _kern.moments(kernel)
    if not 1 <= i <= mesh.n_cells - 1:
        raise ValueError("hat index must name an interior node")
    x = float(x)
    if math.isnan(x):
        raise ValueError("hat gradient point is NaN")
    profiles = _hat_profiles(kernel)
    width = _window_width(mesh, profiles[3])
    first, rows = _window_gradients(profiles, _nu_sign(nu), mesh,
                                    np.array([x]), width)
    k = i - first[0]
    return float(rows[0, k]) if 0 <= k < width else 0.0


def _x_panels(kernel, nu_sign, mesh):
    top = _kern.support(kernel)[1]
    if nu_sign > 0:
        lo, hi = -top, mesh.length
    else:
        lo, hi = 0.0, mesh.length + top
    offsets = [0.0, top] + [b for b in _kern.breakpoints(kernel)]
    cand = [node - nu_sign * b for node in mesh.nodes for b in offsets]
    breaks = merge_breaks(lo, hi, cand, mesh.nodes)
    if len(breaks) - 1 > _MAX_PANELS:
        raise AssemblyError("assembly panel budget exceeded")
    return panel_points(breaks, 8)


def _mass_matrix(mesh):
    n = mesh.n_cells - 1
    h = mesh.h
    mass = np.zeros((n, n))
    idx = np.arange(n)
    mass[idx, idx] = 4.0 * h / 6.0
    mass[idx[:-1], idx[:-1] + 1] = h / 6.0
    mass[idx[:-1] + 1, idx[:-1]] = h / 6.0
    return mass


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


def _half_bandwidth(sym):
    """Largest j - i over the nonzero entries sym[i, j]."""
    n = sym.shape[0]
    last = n - 1 - np.argmax(sym[:, ::-1] != 0.0, axis=1)
    return max(int(np.max(last - np.arange(n))), 0)


def _upper_band(sym, bw):
    """Upper band of sym in the row layout `cholesky_banded` reads."""
    band = np.zeros((bw + 1, sym.shape[0]))
    for k in range(bw + 1):
        band[bw - k, k:] = np.diagonal(sym, k)
    return band


def _check_spd(matrix, what):
    """Symmetrized matrix and its banded Cholesky factor (cb, lower)."""
    asym = np.abs(matrix - matrix.T).max()
    scale = max(np.abs(matrix).max(), 1e-300)
    if asym > 1e-12 * scale:
        raise AssemblyError("%s is not symmetric (relative asymmetry %.3e)"
                            % (what, asym / scale))
    sym = 0.5 * (matrix + matrix.T)
    try:
        cb = sla.cholesky_banded(_upper_band(sym, _half_bandwidth(sym)))
    except sla.LinAlgError:
        eigs = sla.eigvalsh(sym)
        raise AssemblyError("%s is not positive definite (smallest "
                            "eigenvalue %.3e)" % (what, eigs[0]))
    return sym, (cb, False)


def _system(stiff, mesh, f, meta):
    """FemSystem holding the factor its SPD check computed."""
    sym, factor = _check_spd(stiff, "stiffness")
    system = FemSystem(stiffness=sym, mass=_mass_matrix(mesh),
                       load=_load_vector(f, mesh), meta=meta)
    system.factor = factor
    return system


def assemble(kernel, nu, A, f, mesh):
    """Galerkin system for the bilinear form int A (G phi_i)(G phi_j) dx.

    The kernel must have compact support (apply cutoff first); the
    x-integration runs over the extended support of all hat gradients,
    so the coefficient A is evaluated slightly outside the domain too.
    """
    _kern.moments(kernel)
    if _kern.support(kernel)[1] == math.inf:
        raise AssemblyError("assembly needs a compactly supported kernel; "
                            "apply cutoff first")
    sign = _nu_sign(nu)
    a_fn = _as_fn(A)
    xq, wq = _x_panels(kernel, sign, mesh)
    weights = wq * a_fn(xq)
    profiles = _hat_profiles(kernel)
    width = _window_width(mesh, profiles[3])
    n_int = mesh.n_cells - 1
    stiff = np.zeros((n_int, n_int))
    block = max(1, BLOCK_ENTRIES // (width + 2))
    for start in range(0, len(xq), block):
        first, rows = _window_gradients(profiles, sign, mesh,
                                        xq[start:start + block], width)
        weighted = rows * weights[start:start + block, None]
        # _x_panels returns sorted points, so equal window starts come in
        # runs; each run adds one dense width x width block
        cuts = np.flatnonzero(np.diff(first)) + 1
        for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(first)]):
            s = first[a] - 1
            stiff[s:s + width, s:s + width] += weighted[a:b].T @ rows[a:b]
    meta = {"kernel": repr(kernel), "nu": sign, "domain": mesh.length,
            "n_cells": mesh.n_cells}
    return _system(stiff, mesh, f, meta)


def assemble_local(A, f, mesh):
    """Standard local P1 system for -(A u')' with zero boundary values."""
    xq, wq = _cell_rule(mesh)
    k = np.sum(wq * _as_fn(A)(xq), axis=1) / mesh.h ** 2
    n = mesh.n_cells - 1
    idx = np.arange(n)
    stiff = np.zeros((n, n))
    stiff[idx, idx] = k[:-1] + k[1:]
    stiff[idx[:-1], idx[1:]] = -k[1:-1]
    stiff[idx[1:], idx[:-1]] = -k[1:-1]
    return _system(stiff, mesh, f, {"local": True, "n_cells": mesh.n_cells})


def solve_state(system):
    """Banded Cholesky solve of the Galerkin system, with a residual check.

    The system's factor is reused; a hand-built system factors here once.
    """
    u = sla.cho_solve_banded(system.factor, system.load)
    # residual against the symmetric part, which is what was factored
    stiff = system.stiffness
    residual = np.linalg.norm(0.5 * (stiff @ u + u @ stiff) - system.load)
    scale = max(np.linalg.norm(system.load), 1e-300)
    if residual > 1e-10 * scale:
        raise AssemblyError("solver residual %.3e exceeds tolerance"
                            % (residual / scale))
    return u


def smallest_eigenvalue(stiff, mass, tol=1e-10, maxit=500):
    """Smallest generalized eigenvalue of (stiff, mass) by inverse power."""
    sym, factor = _check_spd(stiff, "stiffness")
    return _inverse_power(sym, factor, mass, tol, maxit)


def _inverse_power(sym, factor, mass, tol=1e-10, maxit=500):
    """Inverse power iteration against the banded factor of sym."""
    rng = np.random.default_rng(0)
    y = rng.standard_normal(sym.shape[0])
    y /= math.sqrt(y @ mass @ y)
    lam = y @ sym @ y
    for _ in range(maxit):
        z = sla.cho_solve_banded(factor, mass @ y)
        z /= math.sqrt(z @ mass @ z)
        lam_new = z @ sym @ z
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
    lam = _inverse_power(system.stiffness, system.factor, system.mass)
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
