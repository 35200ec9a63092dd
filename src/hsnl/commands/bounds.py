"""hsnl bounds: the symbol inequality checks, one CSV row per check."""

import math

from .. import cli as _cli, kernels as _kern, symbols as _sym


def run(cfg):
    kernel = _cli._build_kernel(cfg)
    _kern.standing_moments(kernel)
    nu = _cli._parse_nu(cfg, kernel.d)
    grid = _cli._xi_grid(cfg)
    out = cfg.get("out", "bounds.csv")
    radius = cfg.get_float("cutoff_radius", 1.0)
    tau = cfg.get_float("tau", 0.01)
    reports = [_sym.check_linear_bound(kernel, nu, grid),
               _sym.check_lower_bound_small_xi(kernel, nu),
               _sym.check_lower_bound_large_xi(kernel, nu),
               _sym.check_hermitian_symmetry(kernel, nu, grid)]
    # an infinite tail mass bounds nothing, so that row is left out
    if math.isfinite(_kern.tail_mass(kernel, radius)):
        reports.append(_sym.check_cutoff_perturbation(kernel, nu, grid,
                                                      radius))
    reports.append(_sym.check_eta_envelope(kernel.d, nu, tau, grid))
    rows = [(r.name, *r.grid_span(), r.margin, r.passed) for r in reports]
    _cli._write_csv(out, cfg, "name,grid_min,grid_max,margin,pass",
                    zip(*rows))
    failures = sum(1 for r in rows if not r[4])
    return "checks=%d failures=%d out=%s" % (len(rows), failures, out)
