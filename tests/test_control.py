import math

import numpy as np
import pytest
import scipy.linalg as sla

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
    mesh = F.Mesh1D(1.0, 16)
    prob = ball_problem(mesh)
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
    xq, wq = C._cell_quad(mesh)
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
    C.solve_optimal(ball_problem(mesh, delta=0.1), tol=1e-10, max_iter=2000,
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
        C.solve_optimal(ball_problem(mesh), tol=1e-12, max_iter=2)
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
    # the local reference (zero target) converges in one sweep while the
    # nonlocal cells cannot finish within the iteration budget, so their
    # rows must come back as NaN instead of raising
    def make(param, mesh):
        kern = None if param == 0.0 else K.rescaled(K.constant_ball(),
                                                    param)
        target = 0.0 if param == 0.0 else u_des_parabola
        return C.ControlProblem(mesh=mesh, kernel=kern, alpha=-50.0,
                                beta=50.0, lam_reg=0.01, u_des=target)

    table = C.control_ac_sweep(make, (0.2,), (1 / 8,), reference_h=1 / 32,
                               tol=1e-10, max_iter=2)
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
