"""hsnl control: a box-constrained optimal control, state and control CSVs."""

import numpy as np

from .. import cli as _cli, control as _control, fem1d as _fem
from .. import kernels as _kern


def run(cfg):
    n = cfg.get_int("n", 32)
    delta = cfg.get_float("delta", 0.1)
    tol = cfg.get_float("tol", 1e-8)
    max_iter = cfg.get_int("max_iter", 500)
    lam = cfg.get_float("lam", 0.01)
    # infinite box bounds leave the control unconstrained
    alpha = cfg.get_float("alpha", -1.0, allow_inf=True)
    beta = cfg.get_float("beta", 1.0, allow_inf=True)
    raw_gamma = cfg.get("gamma", "const:1")
    if not raw_gamma.startswith("const:"):
        raise _cli.CliError("gamma supports const:<number> only")
    gamma = _cli._number("gamma", raw_gamma[len("const:"):])
    scale = cfg.get_float("udes_scale", 1.0)
    target = _cli._named_function(cfg.get_choice(
        "udes", ("zero", "parabola", "sine"), "parabola"))
    nu = _cli._parse_nu(cfg, 1)
    state_out = cfg.get("state_out", "state.csv")
    control_out = cfg.get("control_out", "control.csv")
    mesh = _fem.Mesh1D(1.0, n)
    kernel = None if delta == 0.0 else _kern.rescaled(_kern.constant_ball(),
                                                      delta)
    problem = _control.ControlProblem(
        mesh=mesh, kernel=kernel, alpha=alpha, beta=beta, lam_reg=lam,
        gamma=gamma, u_des=lambda x: scale * target(x), nu=nu)
    triple = _control.solve_optimal(problem, tol=tol, max_iter=max_iter)
    full = np.concatenate([[0.0], triple.u, [0.0]])
    _cli._write_csv(state_out, cfg, "x,u", [mesh.nodes, full])
    _cli._write_csv(control_out, cfg, "cell,g", [np.arange(n), triple.g])
    return "objective=%s,residual=%s,iters=%d" % (
        _cli._fmt(triple.objective_value), _cli._fmt(triple.residual),
        triple.iterations)
