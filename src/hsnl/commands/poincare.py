"""hsnl poincare: Poincare constants over a horizon or level ladder."""

from .. import cli as _cli, experiments as _exp, kernels as _kern


def run(cfg):
    cap = cfg.get_float("cap", 0.5)
    out = cfg.get("out", "poincare.csv")
    base = _cli._build_kernel(cfg, allow_local=True)
    if base is None:
        hs = cfg.get_floats("hs", required=True)
        table = _exp.poincare_sweep(None, hs, cap=cap)
    else:
        nu = _cli._parse_nu(cfg, base.d)
        h = cfg.get_float("h", 1.0 / 256.0)
        if cfg.has("levels"):
            levels = cfg.get_floats("levels")
            table = _exp.poincare_sweep(
                lambda lev: _kern.min_level(base, lev), levels, h=h, nu=nu,
                cap=cap)
        else:
            if cfg.has("kernel.delta"):
                raise _cli.CliError("kernel.delta conflicts with the deltas "
                                    "ladder; pick one")
            deltas = cfg.get_floats("deltas", "0.2,0.1,0.05,0.025")
            table = _exp.poincare_sweep(
                lambda d: _kern.rescaled(base, d), deltas, h=h, nu=nu,
                cap=cap)
    _cli._write_csv(out, cfg, "delta,h,cp", zip(*table.rows))
    top = max(cp for _, _, cp in table.rows)
    return "verdict=%s max_cp=%s out=%s" % (
        "pass" if table.verdict else "fail", _cli._fmt(top), out)
