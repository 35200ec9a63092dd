"""hsnl ac: an asymptotic-compatibility sweep, local or nonlocal limit."""

from .. import cli as _cli, experiments as _exp, kernels as _kern


def run(cfg):
    mode = cfg.get_choice("mode", ("local", "nonlocal"), "local")
    out = cfg.get("out", "ac.csv")
    hs = cfg.get_floats("hs", "0.0625,0.03125,0.015625,0.0078125")
    coef = _cli._parse_field(cfg, "coef")
    rhs = _cli._parse_field(cfg, "rhs")
    if mode == "local":
        base = _cli._build_kernel(cfg)
        deltas = cfg.get_floats("deltas", "0.2,0.1,0.05,0.025")
        reference = cfg.get_choice("reference",
                                   ("analytic_local", "fine_local_fem"),
                                   "analytic_local")
        ref_h = cfg.get_float("reference_h") if cfg.has("reference_h") \
            else None
        config = _exp.SweepConfig(
            family=lambda d: _kern.rescaled(base, d), params=deltas, hs=hs,
            A=coef, f=rhs, reference=reference, reference_h=ref_h)
        table = _exp.ac_local_sweep(config)
    else:
        if not cfg.has("kernel.family"):
            cfg.pairs.setdefault("kernel.family", "riesz_truncated")
            cfg.pairs.setdefault("kernel.s", "0.5")
        base = _cli._build_kernel(cfg)
        levels = cfg.get_floats("levels", "4,16,64,256")
        ref_h = cfg.get_float("reference_h") if cfg.has("reference_h") \
            else None
        config = _exp.SweepConfig(
            family=lambda lev: _kern.min_level(base, lev), params=levels,
            hs=hs, A=coef, f=rhs, reference="fine_nonlocal_fem",
            reference_kernel=base, reference_h=ref_h)
        table = _exp.ac_nonlocal_sweep(config)
    _cli._write_csv(out, cfg, "param,h,l2_error", zip(*table.rows))
    trend = _exp.classify_trend([e for _, _, e in table.diagonal()])
    return "diagonal_trend=%s" % trend
