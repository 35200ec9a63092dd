"""Box-constrained optimal control with the nonlocal diffusion state map.

State space: interior P1 hats on a uniform mesh.  Control space: P0 cell
values.  The reduced objective is minimized by projected gradient with
Armijo backtracking; the cellwise projection clip(-p / (lam_reg Gamma))
solves the discrete variational inequality exactly because the control
is piecewise constant.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import fem1d as _fem
from .experiments import (_cells_for, _diagonal, _l2_error, _reference_h,
                          parallel_map)
from .fem1d import _GS, _as_fn, _hat_pairing

# the acceptance suite's KKT oracle reads these helpers under these names
_as_xfn = _as_fn
_cell_quad = _fem._cell_rule


class NonconvergenceError(RuntimeError):
    """Projected gradient ran out of iterations; carries the residual."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = float(residual)


@dataclass(frozen=True)
class ControlProblem:
    """Data of one tracking problem; kernel=None means the local operator.

    alpha and beta are the box bounds (constants or functions), gamma the
    control weight with positive lower bound, lam_reg the regularization
    weight.  A custom integrand can replace quadratic tracking by passing
    F(x, u) together with its derivative F_xi(x, u).
    """

    mesh: object
    kernel: object = None
    A: float = 1.0
    alpha: object = -1.0
    beta: object = 1.0
    lam_reg: float = 1.0
    gamma: object = 1.0
    u_des: object = 0.0
    nu: int = 1
    F: object = None
    F_xi: object = None

    def __post_init__(self):
        if not self.lam_reg > 0.0:
            raise ValueError("lam_reg must be positive")
        if (self.F is None) != (self.F_xi is None):
            raise ValueError("a custom objective needs both F and F_xi")
        xq, wq = _cell_quad(self.mesh)
        if np.min(_as_fn(self.gamma)(xq)) <= 0.0:
            raise ValueError("gamma must be positive on the domain")
        a = _as_fn(self.alpha)(xq)
        b = _as_fn(self.beta)(xq)
        if np.any(a >= b):
            raise ValueError("bounds must satisfy alpha < beta everywhere")

    def tracking(self):
        """The objective integrand and its derivative in the state slot."""
        if self.F is not None:
            return self.F, self.F_xi
        des = _as_fn(self.u_des)

        def f_val(x, u):
            return (u - des(x)) ** 2

        def f_der(x, u):
            return 2.0 * (u - des(x))

        return f_val, f_der


@dataclass(frozen=True, eq=False)
class OptimalTriple:
    u: np.ndarray
    g: np.ndarray
    p: np.ndarray
    residual: float
    objective_value: float
    iterations: int


def _cell_bounds(mesh, alpha, beta):
    """Clipped cell bounds sup_T alpha and inf_T beta, by dense sampling."""
    xq, _ = _cell_quad(mesh)
    samples = np.concatenate([xq, mesh.nodes[:-1, None],
                              mesh.nodes[1:, None]], axis=1)
    lo = np.max(_as_fn(alpha)(samples), axis=1)
    hi = np.min(_as_fn(beta)(samples), axis=1)
    if np.any(lo > hi):
        cell = int(np.argmax(lo - hi))
        raise ValueError("bounds cross on cell %d; the mesh is too coarse"
                         % cell)
    return lo, hi


def _state_at_quad(mesh, u):
    """Values of the interior P1 function at the per-cell Gauss points."""
    padded = np.concatenate([[0.0], np.asarray(u, dtype=float), [0.0]])
    return padded[:-1, None] * (1.0 - _GS) + padded[1:, None] * _GS


def _coupling_matrix(mesh):
    """Dense C, (C g)_i = (g_i + g_{i+1}) h / 2; a test oracle for _couple."""
    n = mesh.n_cells
    coup = np.zeros((n - 1, n))
    idx = np.arange(n - 1)
    coup[idx, idx] = 0.5 * mesh.h
    coup[idx, idx + 1] = 0.5 * mesh.h
    return coup


def _couple(mesh, g):
    """C g: the control load on the interior hats, a two-point average."""
    return 0.5 * mesh.h * (g[:-1] + g[1:])


def _couple_t(mesh, p):
    """C^T p, with the adjoint zero at both boundary nodes."""
    padded = np.concatenate([[0.0], p, [0.0]])
    return 0.5 * mesh.h * (padded[:-1] + padded[1:])


def control_to_Zh(q, mesh, alpha, beta):
    """Cell averages of q pushed inside the clipped cellwise bounds."""
    lo, hi = _cell_bounds(mesh, alpha, beta)
    xq, wq = _cell_quad(mesh)
    avg = (_as_fn(q)(xq) @ wq) / mesh.h
    return np.minimum(np.maximum(avg, lo), hi)


def _adjoint_load(problem, u):
    _, f_der = problem.tracking()
    xq, wq = _cell_quad(problem.mesh)
    vals = f_der(xq, _state_at_quad(problem.mesh, u))
    return _hat_pairing(problem.mesh, vals, wq)


def solve_adjoint(system, u, problem):
    """Adjoint solve: the state operator is self-adjoint, so its banded
    factor, made once per system, serves the adjoint too."""
    return sla.cho_solve_banded(system.factor, _adjoint_load(problem, u))


def objective(u, g, problem):
    f_val, _ = problem.tracking()
    xq, wq = _cell_quad(problem.mesh)
    track = float(np.sum(f_val(xq, _state_at_quad(problem.mesh, u)) @ wq))
    gamma_int = _as_fn(problem.gamma)(xq) @ wq
    penalty = 0.5 * problem.lam_reg * float(np.sum(gamma_int
                                                   * np.asarray(g) ** 2))
    return track + penalty


class _Reduced:
    """Factored state operator and quadrature data for one problem.

    Every step costs O(n * bandwidth): banded solves against the system's
    one factor, C and C^T as stencils, and the cell quadrature points and
    u_des there computed once.
    """

    def __init__(self, problem):
        mesh = problem.mesh
        if problem.kernel is None:
            system = _fem.assemble_local(problem.A, 0.0, mesh)
        else:
            system = _fem.assemble(problem.kernel, problem.nu, problem.A,
                                   0.0, mesh)
        self.problem = problem
        self.mesh = mesh
        self.factor = system.factor
        self.xq, self.wq = _cell_quad(mesh)
        # u_des at the quadrature points; None selects the custom F
        self.des = (_as_fn(problem.u_des)(self.xq) if problem.F is None
                    else None)
        self.gamma_int = _as_fn(problem.gamma)(self.xq) @ self.wq
        self.lo, self.hi = _cell_bounds(mesh, problem.alpha, problem.beta)

    def state(self, g):
        return sla.cho_solve_banded(self.factor, _couple(self.mesh, g))

    def adjoint(self, u_q):
        """Adjoint state for the state sampled at the quadrature points."""
        if self.des is None:
            vals = self.problem.F_xi(self.xq, u_q)
        else:
            vals = 2.0 * (u_q - self.des)
        return sla.cho_solve_banded(
            self.factor, _hat_pairing(self.mesh, vals, self.wq))

    def project(self, p):
        raw = -_couple_t(self.mesh, p) / (self.problem.lam_reg
                                          * self.gamma_int)
        return np.minimum(np.maximum(raw, self.lo), self.hi)

    def gradient(self, g, p):
        return (_couple_t(self.mesh, p)
                + self.problem.lam_reg * self.gamma_int * g) / self.mesh.h

    def distance(self, ga, gb):
        return math.sqrt(self.mesh.h * float(np.sum((ga - gb) ** 2)))


def _objective_decrease(problem, reduced, u_q, g, d, du):
    """j(g + d) - j(g), free of the cancellation in subtracting totals.

    For quadratic tracking the difference expands exactly: the state map
    is affine, so the change is (2(u - u_des) + du) du in the tracking
    term plus lam Gamma (g d + d^2/2) in the penalty.  Custom objectives
    fall back to an honest subtraction.  u_q is the state u at the cell
    quadrature points, shared by every line-search step.
    """

    xq, wq = reduced.xq, reduced.wq
    du_q = _state_at_quad(problem.mesh, du)
    if reduced.des is None:
        track = float(np.sum((problem.F(xq, u_q + du_q)
                              - problem.F(xq, u_q)) @ wq))
    else:
        track = float(np.sum(((2.0 * (u_q - reduced.des) + du_q) * du_q)
                             @ wq))
    pen = problem.lam_reg * float(np.sum(reduced.gamma_int
                                         * (g * d + 0.5 * d * d)))
    return track + pen


def solve_optimal(problem, tol=1e-8, max_iter=500, g0=None, callback=None):
    """Projected gradient with Armijo backtracking on the reduced problem.

    Terminates when the fixed-point residual |g - clip(-p/(lam Gamma))|
    in L2 drops below tol; raises NonconvergenceError otherwise.
    """

    reduced = _Reduced(problem)
    if g0 is None:
        g = np.zeros(problem.mesh.n_cells)
    else:
        g = np.asarray(g0, dtype=float).copy()
    g = np.minimum(np.maximum(g, reduced.lo), reduced.hi)
    residual = math.inf
    for it in range(1, max_iter + 1):
        u = reduced.state(g)
        u_q = _state_at_quad(problem.mesh, u)
        p = reduced.adjoint(u_q)
        residual = reduced.distance(g, reduced.project(p))
        if callback is not None:
            callback(it, g, objective(u, g, problem))
        if residual <= tol:
            return OptimalTriple(u=u, g=g, p=p, residual=residual,
                                 objective_value=objective(u, g, problem),
                                 iterations=it)
        grad = reduced.gradient(g, p)
        step = 1.0 / problem.lam_reg
        while True:
            g_new = np.minimum(np.maximum(g - step * grad, reduced.lo),
                               reduced.hi)
            d = g_new - g
            slope = problem.mesh.h * float(grad @ d)
            if slope == 0.0:
                raise NonconvergenceError(
                    "no feasible descent direction left at residual %.3e"
                    % residual, residual)
            du = reduced.state(d)
            if _objective_decrease(problem, reduced, u_q, g, d,
                                   du) <= 1e-4 * slope:
                break
            step *= 0.5
            if step * problem.lam_reg < 1e-20:
                raise NonconvergenceError(
                    "line search stalled at residual %.3e" % residual,
                    residual)
        g = g_new
    raise NonconvergenceError("projected gradient needed more than %d "
                              "iterations (residual %.3e)"
                              % (max_iter, residual), residual)


def p0_interpolant(mesh, values):
    """Piecewise-constant evaluator for cell values, zero outside."""
    values = np.asarray(values, dtype=float)
    nodes = mesh.nodes

    def fn(x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0,
                      mesh.n_cells - 1)
        out = values[idx]
        return np.where((x >= 0.0) & (x <= mesh.length), out, 0.0)

    return fn


_MOMENT_TESTS = (lambda x: np.ones_like(x),
                 lambda x: x,
                 lambda x: np.sin(np.pi * x))


def control_moments(g, mesh):
    """Integrals of the control against the fixed weak test functions."""
    xq, wq = _cell_quad(mesh)
    g = np.asarray(g, dtype=float)
    return np.array([float(np.sum(g * (phi(xq) @ wq)))
                     for phi in _MOMENT_TESTS])


@dataclass(frozen=True)
class ControlSweepTable:
    """Rows (param, h, state_error, control_error, moment_error)."""

    rows: tuple

    def diagonal(self):
        return _diagonal(self.rows)


def control_ac_sweep(make_problem, params, hs, length=1.0, reference_h=None,
                     tol=1e-8, max_iter=500):
    """Optimal pairs over a (param, h) grid against the fine local pair.

    make_problem(param, mesh) builds the problem for one cell; parameter
    0 must build the local limit problem, which also furnishes the
    reference on a mesh at least four times finer than the finest h.
    Nonconvergent cells are reported with NaN errors.
    """

    params = tuple(float(p) for p in params)
    hs = tuple(float(h) for h in hs)
    n_ref = _cells_for(_reference_h(hs, reference_h, length), length)
    meshes = {h: _fem.Mesh1D(length, _cells_for(h, length)) for h in hs}
    fine = _fem.Mesh1D(length, n_ref)
    ref_problem = make_problem(0.0, fine)
    if ref_problem.kernel is not None:
        raise ValueError("parameter 0 must build the local problem")
    ref = solve_optimal(ref_problem, tol, max_iter)
    ref_state = _fem.p1_interpolant(fine, ref.u)
    ref_control = p0_interpolant(fine, ref.g)
    ref_moments = control_moments(ref.g, fine)

    def one_cell(cell):
        param, h = cell
        mesh = meshes[h]
        problem = make_problem(param, mesh)
        try:
            triple = solve_optimal(problem, tol, max_iter)
        except NonconvergenceError:
            return (param, h, math.nan, math.nan, math.nan)
        n_int = max(mesh.n_cells, n_ref)
        state_err = _l2_error(_fem.p1_interpolant(mesh, triple.u),
                              ref_state, length, n_int)
        ctrl_err = _l2_error(p0_interpolant(mesh, triple.g), ref_control,
                             length, n_int)
        mom_err = float(np.max(np.abs(control_moments(triple.g, mesh)
                                      - ref_moments)))
        return (param, h, state_err, ctrl_err, mom_err)

    cells = [(p, h) for p in params for h in hs]
    return ControlSweepTable(rows=tuple(parallel_map(one_cell, cells)))
