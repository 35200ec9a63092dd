"""hsnl symbol: the Fourier symbol at listed points or on a d=1 grid."""

import math

import numpy as np

from .. import cli as _cli, kernels as _kern, symbols as _sym


def run(cfg):
    kernel = _cli._build_kernel(cfg)
    nu = _cli._parse_nu(cfg, kernel.d)
    if cfg.has("xis"):
        raw = cfg.get("xis")
        points = []
        for part in raw.split(","):
            try:
                comps = tuple(float(p) for p in part.split(":"))
            except ValueError:
                raise _cli.CliError("key xis expects numbers, got %r" % part)
            if not all(math.isfinite(c) for c in comps):
                raise _cli.CliError("key xis: xi point %r is not finite"
                                    % part)
            if len(comps) != kernel.d:
                raise _cli.CliError("xi point %r has %d components, kernel "
                                    "is d=%d" % (part, len(comps), kernel.d))
            points.append(comps)
        cfg.resolved["xis"] = ",".join(":".join(_cli._fmt(c) for c in p)
                                       for p in points)
    else:
        if kernel.d != 1:
            raise _cli.CliError("the default grid is one-dimensional; pass "
                                "--xis for d=2")
        points = _cli._xi_grid(cfg)
    out = cfg.get("out", "symbol.csv")
    d = kernel.d
    xis = np.asarray(points, dtype=float).reshape(len(points), d)
    _kern.standing_moments(kernel)
    # a value that overflows reaches _write_csv, which refuses it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = _sym._symbol_values(kernel, nu,
                                     xis if d > 1 else xis[:, 0])
    header = ",".join(["xi_%d" % (k + 1) for k in range(d)]
                      + ["re_%d" % (k + 1) for k in range(d)]
                      + ["im_%d" % (k + 1) for k in range(d)])
    _cli._write_csv(out, cfg, header,
                    [*xis.T, *values.real.T, *values.imag.T])
    return "points=%d out=%s" % (len(xis), out)
