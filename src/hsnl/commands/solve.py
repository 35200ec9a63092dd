"""hsnl solve: one 1-D Galerkin solve, written as x,u on the mesh nodes."""

import numpy as np

from .. import cli as _cli, fem1d as _fem


def run(cfg):
    kernel = _cli._build_kernel(cfg, allow_local=True)
    nu = _cli._parse_nu(cfg, 1 if kernel is None else kernel.d)
    if kernel is not None and kernel.d != 1:
        raise _cli.CliError("the solver is one-dimensional")
    n = cfg.get_int("n", 64)
    length = cfg.get_float("length", 1.0)
    coef = _cli._parse_field(cfg, "coef")
    rhs = _cli._parse_field(cfg, "rhs")
    out = cfg.get("out", "solve.csv")
    mesh = _fem.Mesh1D(length, n)
    if kernel is None:
        system = _fem.assemble_local(coef, rhs, mesh)
    else:
        system = _fem.assemble(kernel, nu, coef, rhs, mesh)
    u = _fem.solve_state(system)
    full = np.concatenate([[0.0], u, [0.0]])
    _cli._write_csv(out, cfg, "x,u", [mesh.nodes, full])
    return "n=%d umax=%s out=%s" % (n, _cli._fmt(float(np.abs(u).max())),
                                    out)
