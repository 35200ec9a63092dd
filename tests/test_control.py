import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from hsnl import kernels as K
from hsnl import fem1d as F
from hsnl import control as C


def u_des_parabola(x):
    return 2.0 * x * (1.0 - x)


def ball_problem(mesh, delta=0.2, **kw):
    kw.setdefault("alpha", -50.0)
    kw.setdefault("beta", 50.0)
    kw.setdefault("lam_reg", 0.01)
    kw.setdefault("u_des", u_des_parabola)
    kern = None if delta == 0.0 else K.rescaled(K.constant_ball(), delta)
    return C.ControlProblem(mesh=mesh, kernel=kern, **kw)


def test_problem_validation():
    mesh = F.Mesh1D(1.0, 8)
    with pytest.raises(ValueError):
        C.ControlProblem(mesh=mesh, lam_reg=0.0)
    with pytest.raises(ValueError):
        C.ControlProblem(mesh=mesh, gamma=-1.0)
    with pytest.raises(ValueError):
        C.ControlProblem(mesh=mesh, alpha=1.0, beta=-1.0)
    with pytest.raises(ValueError):
        C.ControlProblem(mesh=mesh, F=lambda x, u: u * u)


def test_control_projection_of_a_feasible_constant():
    mesh = F.Mesh1D(1.0, 4)
    g = C.control_to_Zh(0.37, mesh, -1.0, 1.0)
    assert g == pytest.approx(np.full(4, 0.37), rel=1e-14)


def test_control_projection_averages_the_identity():
    # cell averages of q(x) = x on four cells, bounds inactive
    mesh = F.Mesh1D(1.0, 4)
    g = C.control_to_Zh(lambda x: x, mesh, -1.0, 1.0)
    assert g == pytest.approx([1 / 8, 3 / 8, 5 / 8, 7 / 8], rel=1e-14)


def test_control_projection_clips_at_the_upper_bound():
    mesh = F.Mesh1D(1.0, 4)
    g = C.control_to_Zh(lambda x: x, mesh, -1.0, 0.3)
    assert g == pytest.approx([1 / 8, 0.3, 0.3, 0.3], rel=1e-14)


def test_control_projection_detects_crossing_bounds():
    mesh = F.Mesh1D(1.0, 2)
    with pytest.raises(ValueError):
        C.control_to_Zh(0.0, mesh, lambda x: x, lambda x: 1.0 - x)


def test_adjoint_vanishes_when_state_hits_the_target():
    mesh = F.Mesh1D(1.0, 8)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(7)
    prob = ball_problem(mesh, u_des=F.p1_interpolant(mesh, u))
    system = F.assemble(prob.kernel, 1, 1.0, 0.0, mesh)
    p = C.solve_adjoint(system, u, prob)
    assert np.abs(p).max() <= 1e-12


def test_adjoint_is_linear_in_the_mismatch():
    mesh = F.Mesh1D(1.0, 8)
    prob = ball_problem(mesh, u_des=0.0)
    system = F.assemble(prob.kernel, 1, 1.0, 0.0, mesh)
    u = np.sin(np.pi * mesh.nodes[1:-1])
    p1 = C.solve_adjoint(system, u, prob)
    p2 = C.solve_adjoint(system, 2.0 * u, prob)
    assert p2 == pytest.approx(2.0 * p1, rel=1e-12)


def test_adjoint_matches_explicit_transpose_solve():
    mesh = F.Mesh1D(1.0, 8)
    prob = ball_problem(mesh)
    system = F.assemble(prob.kernel, 1, 1.0, 0.0, mesh)
    u = np.linspace(0.1, 0.7, 7)
    p = C.solve_adjoint(system, u, prob)
    rhs = C._adjoint_load(prob, u)
    oracle = np.linalg.solve(system.stiffness.T, rhs)
    assert p == pytest.approx(oracle, rel=1e-10)


def test_coupling_stencils_match_the_dense_matrix():
    mesh = F.Mesh1D(1.0, 13)
    rng = np.random.default_rng(3)
    g = rng.standard_normal(13)
    p = rng.standard_normal(12)
    coup = C._coupling_matrix(mesh)
    assert C._couple(mesh, g) == pytest.approx(coup @ g, rel=1e-15,
                                               abs=1e-16)
    assert C._couple_t(mesh, p) == pytest.approx(coup.T @ p, rel=1e-15,
                                                 abs=1e-16)


def test_control_solves_reuse_one_factor_per_system(factor_count):
    # the upper bound binds, so projected Newton takes several iterations
    mesh = F.Mesh1D(1.0, 16)
    prob = ball_problem(mesh, alpha=0.0, beta=2.0)
    triple = C.solve_optimal(prob, tol=1e-10, max_iter=2000)
    assert triple.iterations > 3
    assert len(factor_count) == 1
    system = F.assemble(prob.kernel, 1, 1.0, 0.0, mesh)
    assert len(factor_count) == 2
    p = C.solve_adjoint(system, triple.u, prob)
    assert len(factor_count) == 2
    assert p == pytest.approx(triple.p, rel=1e-10, abs=1e-14)


def test_nonfinite_target_is_rejected_before_iterating():
    mesh = F.Mesh1D(1.0, 8)
    prob = ball_problem(mesh, u_des=lambda x: np.full(np.shape(x), np.nan))
    with pytest.raises(ValueError, match="infs or NaNs"):
        C.solve_optimal(prob)


def test_objective_zeros_and_hand_value():
    mesh = F.Mesh1D(1.0, 2)
    prob = C.ControlProblem(mesh=mesh, lam_reg=0.8, u_des=0.0)
    assert C.objective(np.zeros(1), np.zeros(2), prob) == 0.0
    # u = c phi_1: integral of the squared hat is 2h/3; the penalty adds
    # (lam/2) h (g1^2 + g2^2)
    c = 0.7
    g = np.array([0.3, -0.4])
    want = c * c * 2.0 * 0.5 / 3.0 + 0.4 * 0.5 * (0.09 + 0.16)
    got = C.objective(np.array([c]), g, prob)
    assert got == pytest.approx(want, rel=1e-13)


def test_objective_vanishes_on_the_target():
    mesh = F.Mesh1D(1.0, 8)
    u = np.linspace(0.0, 0.9, 7)
    prob = ball_problem(mesh, u_des=F.p1_interpolant(mesh, u))
    assert C.objective(u, np.zeros(8), prob) <= 1e-28


def test_zero_target_gives_the_zero_triple():
    mesh = F.Mesh1D(1.0, 16)
    triple = C.solve_optimal(ball_problem(mesh, u_des=0.0, alpha=-1.0,
                                          beta=1.0), tol=1e-12)
    assert np.abs(triple.g).max() == 0.0
    assert np.abs(triple.u).max() == 0.0
    assert np.abs(triple.p).max() == 0.0
    assert triple.objective_value == 0.0
    assert triple.iterations == 1


def test_inactive_bounds_match_the_dense_kkt_solve():
    mesh = F.Mesh1D(1.0, 16)
    prob = ball_problem(mesh)
    triple = C.solve_optimal(prob, tol=1e-10, max_iter=2000)

    system = F.assemble(prob.kernel, 1, 1.0, 0.0, mesh)
    stiff = 0.5 * (system.stiffness + system.stiffness.T)
    coup = C._coupling_matrix(mesh)
    xq, wq = F._cell_rule(mesh)
    target = F._hat_pairing(mesh, u_des_parabola(xq), wq)
    gamma_int = np.diag(F._as_fn(prob.gamma)(xq) @ wq)
    ni, n = 15, 16
    zero = np.zeros
    kkt = np.block([
        [stiff, zero((ni, ni)), -coup],
        [-2.0 * system.mass, stiff, zero((ni, n))],
        [zero((n, ni)), coup.T, prob.lam_reg * gamma_int],
    ])
    rhs = np.concatenate([np.zeros(ni), -2.0 * target, np.zeros(n)])
    sol = np.linalg.solve(kkt, rhs)
    assert triple.u == pytest.approx(sol[:ni], abs=1e-6)
    assert triple.p == pytest.approx(sol[ni:2 * ni], abs=1e-6)
    assert triple.g == pytest.approx(sol[2 * ni:], abs=1e-6)


def test_returned_control_is_exactly_feasible():
    mesh = F.Mesh1D(1.0, 16)
    prob = ball_problem(mesh, alpha=0.0, beta=2.0)
    triple = C.solve_optimal(prob, tol=1e-10, max_iter=2000)
    lo, hi = C._cell_bounds(mesh, prob.alpha, prob.beta)
    assert np.all(triple.g >= lo)
    assert np.all(triple.g <= hi)
    assert np.any(triple.g == hi)  # the cap binds for this target


def test_stored_residual_is_reproducible():
    mesh = F.Mesh1D(1.0, 16)
    prob = ball_problem(mesh, alpha=0.0, beta=2.0)
    triple = C.solve_optimal(prob, tol=1e-10, max_iter=2000)
    reduced = C._Reduced(prob)
    again = reduced.distance(triple.g, reduced.project(triple.p))
    assert abs(again - triple.residual) <= 1e-12


def test_objective_nonincreasing_across_iterations():
    mesh = F.Mesh1D(1.0, 16)
    values = []
    C.solve_optimal(ball_problem(mesh, delta=0.1, alpha=0.0, beta=2.0),
                    tol=1e-10, max_iter=2000,
                    callback=lambda it, g, j: values.append(j))
    assert len(values) > 3
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12 * max(1.0, abs(a))


def test_no_feasible_direction_improves_the_objective():
    # discrete variational inequality: moving from the optimum toward any
    # feasible control never wins more than rounding noise
    mesh = F.Mesh1D(1.0, 16)
    prob = ball_problem(mesh, alpha=0.0, beta=2.0)
    triple = C.solve_optimal(prob, tol=1e-10, max_iter=2000)
    reduced = C._Reduced(prob)
    base = C.objective(triple.u, triple.g, prob)
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = rng.uniform(reduced.lo, reduced.hi)
        trial_g = triple.g + 1e-4 * (q - triple.g)
        trial_j = C.objective(reduced.state(trial_g), trial_g, prob)
        assert trial_j >= base - 1e-8 * reduced.distance(q, triple.g)


def test_gamma_scaling_covariance():
    mesh = F.Mesh1D(1.0, 16)
    tol = 1e-10
    a = C.solve_optimal(ball_problem(mesh, lam_reg=0.02, gamma=1.0),
                        tol=tol, max_iter=2000)
    b = C.solve_optimal(ball_problem(mesh, lam_reg=0.01, gamma=2.0),
                        tol=tol, max_iter=2000)
    reduced = C._Reduced(ball_problem(mesh))
    assert reduced.distance(a.g, b.g) <= 10.0 * tol


def test_two_random_starts_agree():
    mesh = F.Mesh1D(1.0, 16)
    prob = ball_problem(mesh, alpha=0.0, beta=2.0)
    rng = np.random.default_rng(11)
    tol = 1e-10
    a = C.solve_optimal(prob, tol=tol, max_iter=2000,
                        g0=rng.uniform(0.0, 2.0, 16))
    b = C.solve_optimal(prob, tol=tol, max_iter=2000,
                        g0=rng.uniform(0.0, 2.0, 16))
    reduced = C._Reduced(prob)
    assert reduced.distance(a.g, b.g) <= 10.0 * tol


def test_iteration_budget_is_enforced():
    mesh = F.Mesh1D(1.0, 16)
    with pytest.raises(C.NonconvergenceError) as info:
        C.solve_optimal(ball_problem(mesh), tol=1e-12, max_iter=1)
    assert info.value.residual > 0.0


def test_control_moments_integrate_exactly():
    mesh = F.Mesh1D(1.0, 4)
    g = np.array([1.0, 0.0, 0.0, -2.0])
    m = C.control_moments(g, mesh)
    assert m[0] == pytest.approx(0.25 - 0.5, rel=1e-14)
    assert m[1] == pytest.approx(1.0 / 32 - 2.0 * 7.0 / 32, rel=1e-13)
    # integral of sin(pi x) over [0, 1/4] and [3/4, 1]
    s = (1.0 - math.cos(math.pi / 4)) / math.pi
    assert m[2] == pytest.approx(s - 2.0 * s, rel=1e-9)


def test_interpolant_for_cell_values():
    mesh = F.Mesh1D(1.0, 4)
    fn = C.p0_interpolant(mesh, np.array([1.0, 2.0, 3.0, 4.0]))
    assert fn(np.array([0.1, 0.3, 0.6, 0.9])) == pytest.approx(
        [1.0, 2.0, 3.0, 4.0])
    assert fn(-0.5) == 0.0 and fn(1.5) == 0.0


def make_sweep_problem(param, mesh):
    kern = None if param == 0.0 else K.rescaled(K.constant_ball(), param)
    return C.ControlProblem(mesh=mesh, kernel=kern, alpha=-50.0, beta=50.0,
                            lam_reg=0.01, u_des=u_des_parabola)


def test_control_sweep_diagonal_shrinks():
    table = C.control_ac_sweep(make_sweep_problem, (0.2, 0.1, 0.05),
                               (1 / 8, 1 / 16, 1 / 32),
                               reference_h=1 / 128, tol=1e-9, max_iter=2000)
    assert len(table.rows) == 9
    diag = table.diagonal()
    states = [r[2] for r in diag]
    moments = [r[4] for r in diag]
    assert states[0] > states[1] > states[2]
    assert moments[0] > moments[1] > moments[2]
    assert all(np.isfinite(r[2]) and r[2] >= 0.0 for r in table.rows)


def test_control_sweep_with_active_bounds():
    def make(param, mesh):
        kern = None if param == 0.0 else K.rescaled(K.constant_ball(),
                                                    param)
        return C.ControlProblem(mesh=mesh, kernel=kern, alpha=0.0, beta=2.0,
                                lam_reg=0.01, u_des=u_des_parabola)

    table = C.control_ac_sweep(make, (0.2, 0.05), (1 / 8, 1 / 16),
                               reference_h=1 / 64, tol=1e-9, max_iter=2000)
    moments = [r[4] for r in table.diagonal()]
    assert moments[1] < moments[0]


def test_control_sweep_marks_failed_cells():
    # the local reference (zero target) is optimal at its start while the
    # nonlocal cells cannot finish within the iteration budget, so their
    # rows must come back as NaN instead of raising
    def make(param, mesh):
        kern = None if param == 0.0 else K.rescaled(K.constant_ball(),
                                                    param)
        target = 0.0 if param == 0.0 else u_des_parabola
        return C.ControlProblem(mesh=mesh, kernel=kern, alpha=-50.0,
                                beta=50.0, lam_reg=0.01, u_des=target)

    table = C.control_ac_sweep(make, (0.2,), (1 / 8,), reference_h=1 / 32,
                               tol=1e-10, max_iter=1)
    assert math.isnan(table.rows[0][2])
    assert math.isnan(table.rows[0][3])
    assert math.isnan(table.rows[0][4])


@pytest.mark.parametrize("hs,reference_h,match", [
    ((0.3,), None, "divide"),               # 3.33 cells
    ((1 / 8,), 0.03, "divide"),             # 33.3 reference cells
    ((1 / 8,), 1 / 16, "four times finer"),
])
def test_control_sweep_rejects_h_that_does_not_fit(hs, reference_h, match):
    with pytest.raises(ValueError, match=match):
        C.control_ac_sweep(make_sweep_problem, (0.2,), hs,
                           reference_h=reference_h)


def test_vanishing_horizon_recovers_the_local_discrete_pair():
    mesh = F.Mesh1D(1.0, 16)
    local = C.solve_optimal(make_sweep_problem(0.0, mesh), tol=1e-11,
                            max_iter=3000)
    nonlocal_ = C.solve_optimal(make_sweep_problem(1e-4, mesh), tol=1e-11,
                                max_iter=3000)
    state_diff = math.sqrt(mesh.h * np.sum((nonlocal_.u - local.u) ** 2))
    control_diff = math.sqrt(mesh.h * np.sum((nonlocal_.g - local.g) ** 2))
    assert state_diff <= 1e-4
    assert control_diff <= 1e-4


def cli_problem(n, delta, lam):
    """The problem `hsnl control --n n --delta delta --lam lam` solves."""
    kern = None if delta == 0.0 else K.rescaled(K.constant_ball(), delta)
    return C.ControlProblem(mesh=F.Mesh1D(1.0, n), kernel=kern,
                            lam_reg=lam, u_des=lambda x: 0.5 * x * (1.0 - x))


def dense_reduced_hessian(prob):
    """2 C^T K^-1 M K^-1 C + lam Gamma from dense matrices."""
    system = (F.assemble_local(prob.A, 0.0, prob.mesh) if prob.kernel is None
              else F.assemble(prob.kernel, prob.nu, prob.A, 0.0, prob.mesh))
    coup = C._coupling_matrix(prob.mesh)
    sens = np.linalg.solve(system.stiffness, coup)
    reduced = C._Reduced(prob)
    return 2.0 * sens.T @ system.mass @ sens + np.diag(reduced.scale)


@pytest.mark.parametrize("n,delta", [(2, 0.0), (3, 0.0), (16, 0.0),
                                     (5, 0.2), (16, 0.1), (16, 0.6)])
def test_newton_direction_matches_the_dense_reduced_hessian(n, delta):
    prob = ball_problem(F.Mesh1D(1.0, n), delta=delta, alpha=0.0, beta=2.0,
                        gamma=lambda x: 1.0 + x)
    reduced = C._Reduced(prob)
    hessian = dense_reduced_hessian(prob)
    rng = np.random.default_rng(n)
    for _ in range(3):
        g = rng.choice([0.0, 2.0, 1.0], size=n, p=[0.3, 0.3, 0.4])
        grad = rng.standard_normal(n)
        active = (((g == 0.0) & (grad > 0.0)) | ((g == 2.0) & (grad < 0.0)))
        got = reduced.newton_direction(g, grad, 1e-3)
        free = ~active
        hess = hessian[np.ix_(free, free)]
        want = -grad / reduced.scale
        want[free] = -np.linalg.solve(hess, grad[free])
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("n,delta", [(16, 0.0), (16, 0.1), (5, 0.6)])
def test_newton_system_solve_matches_solve_banded(monkeypatch, n, delta):
    # dgbsv on the (3 half + 1)-row band against scipy.linalg.solve_banded
    # on its last 2 half + 1 rows, for a box that binds on some cells
    prob = ball_problem(F.Mesh1D(1.0, n), delta=delta, alpha=0.0, beta=2.0)
    reduced = C._Reduced(prob)
    rng = np.random.default_rng(n)
    g = rng.choice([0.0, 2.0, 1.0], size=n, p=[0.3, 0.3, 0.4])
    grad = rng.standard_normal(n)
    active = (((g == 0.0) & (grad > 0.0)) | ((g == 2.0) & (grad < 0.0)))
    assert active.any() and not active.all()
    got = reduced.newton_direction(g, grad, 1e-3)
    half, band = reduced.kkt
    assert not band[:half].any()
    rhs = rng.standard_normal(band.shape[1])
    want = sla.solve_banded((half, half), band[half:], rhs)
    assert np.array_equal(F._band_solve(half, band.copy(order="F"),
                                        rhs.copy()), want)
    monkeypatch.setattr(F, "_band_solve", lambda half, work, rhs:
                        sla.solve_banded((half, half), work[half:], rhs))
    assert np.array_equal(reduced.newton_direction(g, grad, 1e-3), got)


@pytest.mark.parametrize("prob", [
    cli_problem(128, 0.1, 1e-5),
    cli_problem(32, 0.0, 1e-3),
    ball_problem(F.Mesh1D(1.0, 32), delta=0.1, lam_reg=1e-5),
    ball_problem(F.Mesh1D(1.0, 24), delta=0.2, alpha=0.2, beta=2.0,
                 gamma=lambda x: 0.5 + x, nu=-1),
], ids=["benchmark", "local", "unconstrained", "lower-bound"])
def test_found_active_set_matches_the_dense_kkt_solve(prob):
    triple = C.solve_optimal(prob, tol=1e-12)
    reduced = C._Reduced(prob)
    mesh = prob.mesh
    active = (triple.g == reduced.lo) | (triple.g == reduced.hi)
    system = (F.assemble_local(prob.A, 0.0, mesh) if prob.kernel is None
              else F.assemble(prob.kernel, prob.nu, prob.A, 0.0, mesh))
    coup = C._coupling_matrix(mesh)
    xq, wq = F._cell_rule(mesh)
    target = F._hat_pairing(mesh, F._as_fn(prob.u_des)(xq), wq)
    ni, n = mesh.n_cells - 1, mesh.n_cells
    # free cells: C^T p + lam Gamma g = 0; active cells: g at its bound
    control_rows = np.where(active[:, None], 0.0, coup.T)
    fixed = np.where(active, 1.0, reduced.scale)
    kkt = np.block([
        [system.stiffness, np.zeros((ni, ni)), -coup],
        [-2.0 * system.mass, system.stiffness, np.zeros((ni, n))],
        [np.zeros((n, ni)), control_rows, np.diag(fixed)],
    ])
    rhs = np.concatenate([np.zeros(ni), -2.0 * target,
                          np.where(active, triple.g, 0.0)])
    sol = np.linalg.solve(kkt, rhs)
    assert triple.u == pytest.approx(sol[:ni], rel=0.0, abs=1e-10)
    assert triple.p == pytest.approx(sol[ni:2 * ni], rel=0.0, abs=1e-10)
    assert triple.g == pytest.approx(sol[2 * ni:], rel=0.0, abs=1e-10)


def test_benchmark_problem_converges_in_few_iterations():
    triple = C.solve_optimal(cli_problem(128, 0.1, 1e-5), max_iter=15)
    assert triple.residual <= 1e-8


@pytest.mark.parametrize("scale", [1e8, 1e10])
def test_large_control_stops_at_its_roundoff_floor(scale):
    # the benchmark problem with its target scaled and the box far away:
    # at scale 1e8 rounding alone leaves residuals near 1e-5, above the
    # default tol, and the solver used to run out of its 500 iterations
    prob = C.ControlProblem(
        mesh=F.Mesh1D(1.0, 128), kernel=K.rescaled(K.constant_ball(), 0.1),
        alpha=-1e12, beta=1e12, lam_reg=1e-5,
        u_des=lambda x: scale * 0.5 * x * (1.0 - x))
    triple = C.solve_optimal(prob, max_iter=20)
    size = np.abs(triple.g).max()
    assert triple.iterations <= 5
    assert triple.residual <= max(
        1e-8, C._ROUNDOFF * np.finfo(float).eps * size)
    # the floor is relative roundoff, far below the control's size
    assert triple.residual <= 1e-11 * size


@pytest.mark.parametrize("n", [64, 128, 256, 512])
@pytest.mark.parametrize("delta,lam", [(0.1, 1e-5), (0.0, 1e-4),
                                       (0.05, 1e-6)])
def test_iteration_count_stays_bounded_under_refinement(n, delta, lam):
    triple = C.solve_optimal(cli_problem(n, delta, lam), max_iter=25)
    assert triple.residual <= 1e-8


@settings(max_examples=12)
@given(delta=st.sampled_from([0.0, 0.05, 0.2]), nu=st.sampled_from([1, -1]),
       gamma=st.floats(0.5, 2.0), box=st.sampled_from(["inactive", "active"]),
       log_lam=st.floats(-5.0, -1.0), q_lo=st.floats(0.0, 0.4),
       q_hi=st.floats(0.6, 1.0))
def test_newton_matches_projected_gradient(delta, nu, gamma, box, log_lam,
                                           q_lo, q_hi):
    # without a binding bound projected gradient needs about 1e4 iterations
    # below lam = 1e-3 (seconds per example), so those draws use 1e-3
    lam = 10.0 ** (log_lam if box == "active" else max(log_lam, -3.0))
    prob = ball_problem(F.Mesh1D(1.0, 8), delta=delta, lam_reg=lam,
                        gamma=gamma, nu=nu)
    if box == "active":
        # bounds at quantiles of the unconstrained optimum bind on some
        # cells and leave others free
        free = C.solve_optimal(prob, tol=1e-12).g
        prob = dataclasses.replace(prob, alpha=np.quantile(free, q_lo),
                                   beta=np.quantile(free, q_hi))
    newton = C.solve_optimal(prob, tol=1e-10)
    # the solver's loop with the scaled gradient step on every cell
    reduced = C._Reduced(prob)
    start = np.clip(0.0, reduced.lo, reduced.hi)
    oracle = C._descend(reduced, start, 1e-12, 50000, None, False)
    assert newton.g == pytest.approx(oracle.g, rel=0.0, abs=1e-8)
    assert newton.u == pytest.approx(oracle.u, rel=0.0, abs=1e-8)


def tracking_problem(F_val, F_der):
    # the target at the quadrature points, so F needs no function of x
    mesh = F.Mesh1D(1.0, 16)
    return ball_problem(mesh, alpha=0.0, beta=2.0,
                        F=lambda x, u: F_val(u - u_des_parabola(x)),
                        F_xi=lambda x, u: F_der(u - u_des_parabola(x)))


def test_custom_quadratic_F_matches_the_newton_path():
    tol = 1e-10
    custom = tracking_problem(lambda e: e * e, lambda e: 2.0 * e)
    newton = C.solve_optimal(ball_problem(F.Mesh1D(1.0, 16), alpha=0.0,
                                          beta=2.0), tol=tol)
    gradient = C.solve_optimal(custom, tol=tol, max_iter=5000)
    assert gradient.iterations > newton.iterations
    reduced = C._Reduced(custom)
    assert reduced.distance(gradient.g, newton.g) <= 10.0 * tol


def test_non_quadratic_F_passes_the_variational_inequality():
    prob = tracking_problem(lambda e: e ** 4 + e * e,
                            lambda e: 4.0 * e ** 3 + 2.0 * e)
    triple = C.solve_optimal(prob, tol=1e-10, max_iter=5000)
    assert triple.residual <= 1e-10
    reduced = C._Reduced(prob)
    assert np.any(triple.g == reduced.hi)  # the cap binds here too
    base = C.objective(triple.u, triple.g, prob)
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = rng.uniform(reduced.lo, reduced.hi)
        trial_g = triple.g + 1e-4 * (q - triple.g)
        trial_j = C.objective(reduced.state(trial_g), trial_g, prob)
        assert trial_j >= base - 1e-8 * reduced.distance(q, triple.g)


@pytest.mark.parametrize("kw,match", [
    ({"max_iter": 0}, "max_iter"), ({"tol": 0.0}, "tol"),
    ({"tol": -1.0}, "tol"), ({"tol": math.nan}, "tol")])
def test_solver_settings_are_validated(kw, match):
    prob = ball_problem(F.Mesh1D(1.0, 8))
    with pytest.raises(ValueError, match=match):
        C.solve_optimal(prob, **kw)


def test_huge_target_is_rejected_before_iterating():
    prob = ball_problem(F.Mesh1D(1.0, 8), u_des=1e300)
    with pytest.raises(ValueError, match="overflow"):
        C.solve_optimal(prob)


def test_overflowing_iteration_is_nonconvergence():
    prob = ball_problem(F.Mesh1D(1.0, 8), alpha=-math.inf, beta=math.inf,
                        lam_reg=1e-300)
    with pytest.raises(C.NonconvergenceError, match="overflow"):
        C.solve_optimal(prob)


def test_custom_F_undefined_on_part_of_a_trial_step_still_converges():
    # F is only defined for u <= cap, below some of the first trial states;
    # the caller silences the invalid sqrt, so F returns NaN there and the
    # line search must halve the step rather than give up
    mesh = F.Mesh1D(1.0, 16)
    tol = 1e-10
    newton = C.solve_optimal(ball_problem(mesh), tol=tol)
    cap = 1.1 * np.max(newton.u)
    undefined = []

    def F_val(x, u):
        undefined.append(bool(np.any(u > cap)))
        return (u - u_des_parabola(x)) ** 2 + 0.0 * np.sqrt(cap - u)

    prob = ball_problem(mesh, F=F_val,
                        F_xi=lambda x, u: 2.0 * (u - u_des_parabola(x)))
    with np.errstate(invalid="ignore"):
        triple = C.solve_optimal(prob, tol=tol, max_iter=5000)
    assert any(undefined)
    assert math.isfinite(triple.objective_value)
    assert C._Reduced(prob).distance(triple.g, newton.g) <= 10.0 * tol


def test_callback_errors_pass_through_unchanged():
    def callback(it, g, j):
        raise FloatingPointError("raised by the callback")

    with pytest.raises(FloatingPointError, match="by the callback"):
        C.solve_optimal(ball_problem(F.Mesh1D(1.0, 8)), callback=callback)
