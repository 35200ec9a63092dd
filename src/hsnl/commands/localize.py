"""hsnl localize: the nonlocal-to-local error of a bump over a delta ladder."""

import math

import numpy as np

from .. import cli as _cli, operators as _ops


def _bump_handle():
    def bump(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= 1.0, (1.0 - x ** 2) ** 2, 0.0)

    def dbump(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) <= 1.0, -4.0 * x * (1.0 - x ** 2), 0.0)

    return _ops.SmoothFunction(fn=bump, lipschitz=1.5396007178390021,
                               support_radius=1.0, sup_norm=1.0,
                               derivative=dbump)


def run(cfg):
    kernel = _cli._build_kernel(cfg)
    if kernel.d != 1:
        raise _cli.CliError("localization runs in d=1")
    deltas = cfg.get_floats("deltas", "0.2,0.1,0.05,0.025")
    norm = cfg.get_choice("norm", ("l2", "linf"), "l2")
    out = cfg.get("out", "localize.csv")
    table = _ops.localization_study(kernel, _bump_handle(), deltas,
                                    2 if norm == "l2" else math.inf)
    rate = table.diag_order
    rows = [(delta, err, rate) for delta, _, err in table.rows]
    _cli._write_csv(out, cfg, "delta,error,rate", zip(*rows))
    return "rate=%s rows=%d out=%s" % (_cli._fmt(rate), len(rows), out)
