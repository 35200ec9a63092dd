"""hsnl appendix: the two oscillatory limit integrals over a delta ladder."""

import math

from .. import cli as _cli, symbols as _sym


def run(cfg):
    deltas = cfg.get_floats("deltas", "0.1,0.01,0.001")
    out = cfg.get("out", "appendix.csv")
    table = _sym.appendix_limit_table(deltas)
    header = "delta,sin_integral,cos_integral,sin_upto1,cos_upto1"
    _cli._write_csv(out, cfg, header, [[entry[key] for entry in table]
                                       for key in header.split(",")])
    last = table[-1]
    return "sin_gap=%s cos_abs=%s out=%s" % (
        _cli._fmt(abs(last["sin_integral"] - 2.0 * math.pi)),
        _cli._fmt(abs(last["cos_integral"])), out)
