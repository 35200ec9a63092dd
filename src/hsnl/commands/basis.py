"""hsnl basis: orthonormality defects of seeded direction-adapted frames."""

import numpy as np

from .. import cli as _cli, symbols as _sym


def run(cfg):
    d = cfg.get_int("d", 2)
    if d < 2:
        raise _cli.CliError("the frame construction needs d >= 2")
    count = cfg.get_int("count", 1000)
    if count < 1:
        raise _cli.CliError("count must be at least 1")
    seed = cfg.get_int("seed", 0)
    out = cfg.get("out", "basis.csv")
    rng = np.random.default_rng(seed)
    rows = []
    eye = np.eye(d)
    for index in range(count):
        mu = rng.standard_normal(d)
        mu[0] = abs(mu[0]) + 1e-12
        frame = _sym.ortho_basis(mu)
        q = frame.matrix
        defect = float(np.max(np.abs(q.T @ q - eye)))
        unit = mu / np.linalg.norm(mu)
        s = np.sqrt(np.cumsum(unit ** 2))
        formula = np.array([unit[0] * abs(unit[k + 1]) / (s[k] * s[k + 1])
                            for k in range(d - 1)])
        first_row_err = float(np.max(np.abs(q[0, :d - 1] - formula)))
        rows.append((index, defect, first_row_err))
    _cli._write_csv(out, cfg, "index,defect,first_row_error", zip(*rows))
    worst_defect = max(r[1] for r in rows)
    worst_row = max(r[2] for r in rows)
    return "samples=%d max_defect=%s max_first_row_error=%s out=%s" % (
        count, _cli._fmt(worst_defect), _cli._fmt(worst_row), out)
