"""Box-constrained optimal control with the nonlocal diffusion state map.

State space: interior P1 hats on a uniform mesh.  Control space: P0 cell
values.  The reduced objective is minimized by projected Newton
(Bertsekas 1982) with an Armijo search along the projection arc: cells
near a bound whose gradient points outward take a scaled gradient step,
the others a Newton step from one banded solve of the state-adjoint
system.  A custom objective has no Hessian here and takes the scaled
gradient step on every cell (projected gradient).  The cellwise
projection clip(-C^T p / (lam_reg Gamma)) solves the discrete variational
inequality exactly because the control is piecewise constant.
"""

import math
from dataclasses import dataclass

import numpy as np
# unused by the solver, which calls LAPACK through fem1d; the benchmark's
# tracer (perfbench/tracer.py) proxies this module's sla attribute
import scipy.linalg as sla  # noqa: F401

from . import fem1d as _fem
from .experiments import _cells_for, _diagonal, _l2_error, _reference_h
from .fem1d import _GS, _as_fn, _cell_rule, _hat_pairing

# the frozen acceptance suite's KKT oracle reads these two helpers under
# these names; nothing in the library does
_as_xfn = _as_fn
_cell_quad = _cell_rule


# the residual's roundoff floor in units of eps max|g| sqrt(length): on the
# unit interval (n 64-512, ball horizons 0.05-0.2, lam 1e-3 and 1e-5,
# targets of size 1e6-1e12, no box) the projected Newton iterates after
# the third wander between 0.6 and 4.4e3 of them, so 1e4 leaves a margin
# of about 2
_ROUNDOFF = 1e4


class NonconvergenceError(RuntimeError):
    """The control solver ran out of iterations or of descent; carries
    the residual."""

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
        xq, wq = _cell_rule(self.mesh)
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
    xq, _ = _cell_rule(mesh)
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
    xq, wq = _cell_rule(mesh)
    avg = (_as_fn(q)(xq) @ wq) / mesh.h
    return np.minimum(np.maximum(avg, lo), hi)


def _adjoint_load(problem, u):
    _, f_der = problem.tracking()
    xq, wq = _cell_rule(problem.mesh)
    vals = f_der(xq, _state_at_quad(problem.mesh, u))
    return _hat_pairing(problem.mesh, vals, wq)


def solve_adjoint(system, u, problem):
    """Adjoint solve: the state operator is self-adjoint, so its banded
    factor, made once per system, serves the adjoint too."""
    return _fem._cho_solve(system.factor, _adjoint_load(problem, u))


def objective(u, g, problem):
    f_val, _ = problem.tracking()
    xq, wq = _cell_rule(problem.mesh)
    track = float(np.sum(f_val(xq, _state_at_quad(problem.mesh, u)) @ wq))
    gamma_int = _as_fn(problem.gamma)(xq) @ wq
    penalty = 0.5 * problem.lam_reg * float(np.sum(gamma_int
                                                   * np.asarray(g) ** 2))
    return track + penalty


def _kkt_band(stiffness_band, mass_band):
    """Half-width and band of [[K, T], [-2M, K]] in the unknowns
    (u_0, p_0, u_1, p_1, ...), with T = 0, in the (3 half + 1)-row layout
    of LAPACK dgbsv (fem1d._band_solve); _Reduced.newton_direction writes
    T = C_I D_I^-1 C_I^T.

    Below the first half rows, kept zero for dgbsv's fill-in, row half
    holds the diagonal.  K sits on the even offsets from it, M and T on
    offsets -3, -1, 1 and 3, so each step overwrites T's entries in place.
    """
    width, m = stiffness_band.shape
    half = max(2 * width - 2, 3)
    full = np.zeros((3 * half + 1, 2 * m), order="F")
    band = full[half:]
    for k in range(width):
        row = stiffness_band[width - 1 - k, k:]
        for parity in (0, 1):
            band[half - 2 * k, 2 * k + parity::2] = row
            band[half + 2 * k, parity:2 * (m - k):2] = row
    band[half + 1, 0::2] = -2.0 * mass_band[1]
    band[half - 1, 2::2] = -2.0 * mass_band[0, 1:]
    band[half + 3, 0:2 * m - 2:2] = -2.0 * mass_band[0, 1:]
    return half, full


class _Reduced:
    """Factored state operator and quadrature data for one problem.

    Every gradient step costs O(n * bandwidth): banded solves against the
    system's one factor, C and C^T as stencils, and the cell quadrature
    points and u_des there computed once.  Next to the factor it keeps
    the band of the Newton system (_kkt_band) for quadratic tracking.
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
        # the caller's floating-point settings, for F, F_xi and the callback
        self.user_errstate = np.geterr()
        self.factor = system.factor
        self.xq, self.wq = _cell_rule(mesh)
        # u_des at the quadrature points; None selects the custom F
        self.des = None
        if problem.F is None:
            self.des = _as_fn(problem.u_des)(self.xq)
            if not np.all(np.isfinite(self.des)):
                raise ValueError("u_des has infs or NaNs")
            with np.errstate(over="ignore"):
                target = float(np.sum(self.des ** 2 @ self.wq))
            if not math.isfinite(target):
                raise ValueError("u_des is so large that the tracking term "
                                 "overflows")
        self.gamma_int = _as_fn(problem.gamma)(self.xq) @ self.wq
        # lam Gamma: the penalty's diagonal Hessian, one entry per cell
        with np.errstate(over="ignore"):
            self.scale = problem.lam_reg * self.gamma_int
        if not np.all((0.0 < self.scale) & (self.scale < math.inf)):
            raise ValueError("lam_reg times the integral of gamma over a "
                             "cell overflows or underflows")
        self.lo, self.hi = _cell_bounds(mesh, problem.alpha, problem.beta)
        # the Newton system's K and M part, built once; none for a custom F
        self.kkt = (None if self.des is None
                    else _kkt_band(system.stiffness_band, system.mass_band))
        # each Newton step copies the band here, as dgbsv overwrites it
        self.work = None if self.kkt is None else np.empty_like(self.kkt[1])

    def user(self, fn, *args):
        """fn(*args) under the caller's floating-point settings rather
        than the solver's own (see _descend)."""
        with np.errstate(**self.user_errstate):
            return fn(*args)

    def state(self, g):
        return _fem._cho_solve(self.factor, _couple(self.mesh, g))

    def adjoint(self, u_q):
        """Adjoint state for the state sampled at the quadrature points."""
        if self.des is None:
            vals = self.user(self.problem.F_xi, self.xq, u_q)
        else:
            vals = 2.0 * (u_q - self.des)
        return _fem._cho_solve(self.factor,
                               _hat_pairing(self.mesh, vals, self.wq))

    def project(self, p):
        raw = -_couple_t(self.mesh, p) / self.scale
        return np.minimum(np.maximum(raw, self.lo), self.hi)

    def gradient(self, g, p):
        """Gradient C^T p + lam Gamma g of the reduced objective in g."""
        return _couple_t(self.mesh, p) + self.scale * g

    def distance(self, ga, gb):
        return math.sqrt(self.mesh.h * float(np.sum((ga - gb) ** 2)))

    def newton_direction(self, g, grad, eps):
        """Bertsekas' projected Newton direction for quadratic tracking.

        A cell within eps of a bound whose gradient points outward is
        active and takes the scaled gradient step -G / (lam Gamma).  The
        free cells I take the Newton step d_I = -H_II^-1 G_I, with H the
        reduced Hessian 2 C^T K^-1 M K^-1 C + D and D = lam Gamma.  With
        d_I = -D_I^-1 (G_I + C_I^T dp) that is one banded solve:

            K du + C_I D_I^-1 C_I^T dp = -C_I D_I^-1 G_I
            -2M du + K dp = 0.
        """
        active = (((g <= self.lo + eps) & (grad > 0.0))
                  | ((g >= self.hi - eps) & (grad < 0.0)))
        inv = np.where(active, 0.0, 1.0 / self.scale)
        half, full = self.kkt
        band = full[half:]
        quarter = 0.25 * self.mesh.h ** 2
        band[half - 1, 1::2] = quarter * (inv[:-1] + inv[1:])
        band[half - 3, 3::2] = quarter * inv[1:-1]
        band[half + 1, 1:-1:2] = quarter * inv[1:-1]
        np.copyto(self.work, full)
        rhs = np.zeros(band.shape[1])
        rhs[0::2] = -_couple(self.mesh, inv * grad)
        dp = _fem._band_solve(half, self.work, rhs)[1::2]
        return -(grad + np.where(active, 0.0, _couple_t(self.mesh, dp))) \
            / self.scale


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
        track = float(np.sum((reduced.user(problem.F, xq, u_q + du_q)
                              - reduced.user(problem.F, xq, u_q)) @ wq))
    else:
        track = float(np.sum(((2.0 * (u_q - reduced.des) + du_q) * du_q)
                             @ wq))
    pen = problem.lam_reg * float(np.sum(reduced.gamma_int
                                         * (g * d + 0.5 * d * d)))
    return track + pen


def solve_optimal(problem, tol=1e-8, max_iter=500, g0=None, callback=None):
    """Projected Newton with an Armijo search along the projection arc.

    Each iteration solves the state and the adjoint for the current
    control g and stops when the fixed-point residual
    |g - clip(-C^T p/(lam Gamma))| in L2 is at most tol, or at most the
    roundoff floor 1e4 eps max|g| sqrt(length) (_ROUNDOFF) when that is
    larger: a control of size 1e8 carries residuals of 1e-5 from rounding
    alone, which no tol below them can meet.  Otherwise it picks
    a direction d (newton_direction, or -G/(lam Gamma) on every cell for a
    custom F) and halves the step t from 1 until clip(g + t d) decreases
    the objective enough; a trial whose objective change is not finite
    counts as not decreasing it.  `iterations` counts the residual checks,
    so a start that is already optimal returns iterations=1 and max_iter
    caps the count.  Raises ValueError for max_iter < 1 or tol <= 0, and
    NonconvergenceError when the iterations or the line search run out or
    the control, state or adjoint stop being finite.
    """

    if not max_iter >= 1:
        raise ValueError("max_iter must be at least 1, got %r" % (max_iter,))
    if not tol > 0.0:
        raise ValueError("tol must be positive, got %r" % (tol,))
    reduced = _Reduced(problem)
    if g0 is None:
        g = np.zeros(problem.mesh.n_cells)
    else:
        g = np.asarray(g0, dtype=float).copy()
    g = np.minimum(np.maximum(g, reduced.lo), reduced.hi)
    return _descend(reduced, g, tol, max_iter, callback,
                    reduced.des is not None)


def _descend(reduced, g, tol, max_iter, callback, newton):
    """The iteration of solve_optimal from the feasible start g; with
    newton=False every cell takes the scaled gradient step.

    The solver's own arithmetic runs with overflow and invalid results
    silenced and caught by the finiteness checks instead; F, F_xi and the
    callback run under the caller's settings (_Reduced.user).
    """
    problem = reduced.problem
    residual = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            u = reduced.state(g)
            u_q = _state_at_quad(problem.mesh, u)
            p = reduced.adjoint(u_q)
            residual = reduced.distance(g, reduced.project(p))
            if not math.isfinite(residual):
                raise NonconvergenceError(
                    "the control iteration overflowed at iteration %d" % it,
                    math.inf)
            if callback is not None:
                reduced.user(callback, it, g, objective(u, g, problem))
            floor = _ROUNDOFF * np.finfo(float).eps * float(
                np.max(np.abs(g))) * math.sqrt(problem.mesh.length)
            if residual <= max(tol, floor):
                return OptimalTriple(
                    u=u, g=g, p=p, residual=residual,
                    objective_value=reduced.user(objective, u, g, problem),
                    iterations=it)
            g = _line_search(reduced, g, u_q, p, residual, newton)
    raise NonconvergenceError("the control solver needed more than %d "
                              "iterations (residual %.3e)"
                              % (max_iter, residual), residual)


def _line_search(reduced, g, u_q, p, residual, newton):
    """The next control: clip(g + t d) for the first t = 1, 1/2, ... whose
    objective change is finite and meets the Armijo condition."""
    grad = reduced.gradient(g, p)
    if newton:
        direction = reduced.newton_direction(g, grad, min(1e-3, residual))
    else:
        direction = -grad / reduced.scale
    step = 1.0
    while True:
        g_new = np.minimum(np.maximum(g + step * direction, reduced.lo),
                           reduced.hi)
        d = g_new - g
        slope = float(grad @ d)
        if slope == 0.0:
            raise NonconvergenceError(
                "no feasible descent direction left at residual %.3e"
                % residual, residual)
        # a Newton step cut by the box may point uphill; shorten it
        if slope < 0.0:
            change = _objective_decrease(reduced.problem, reduced, u_q, g,
                                         d, reduced.state(d))
            if math.isfinite(change) and change <= 1e-4 * slope:
                return g_new
        step *= 0.5
        if step < 1e-20:
            raise NonconvergenceError(
                "line search stalled at residual %.3e" % residual, residual)


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
    xq, wq = _cell_rule(mesh)
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

    def one_cell(param, h):
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

    return ControlSweepTable(rows=tuple(one_cell(p, h) for p in params
                                        for h in hs))
