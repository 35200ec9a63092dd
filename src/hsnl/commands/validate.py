"""hsnl validate: the kernel assumption report, printed as key=value."""

from .. import cli as _cli, kernels as _kern


def run(cfg):
    kernel = _cli._build_kernel(cfg)
    report = _kern.validate_assumptions(kernel)
    for line in _cli._echo_lines(cfg):
        print(line)
    flat = {k: v for k, v in report.items() if k != "delta_ladder"}
    for delta, entries in (report.get("delta_ladder") or {}).items():
        for name, value in entries.items():
            flat["ladder.%s.%s" % (_cli._fmt(delta), name)] = value
    for key in sorted(flat):
        value = flat[key]
        print("%s=%s" % (key, "none" if value is None else _cli._fmt(value)))
    ok = (report["m1_ok"] and report["m2_ok"] and report["nonnegative"]
          and report["monotone"] is not False)
    return "valid=%s" % ("yes" if ok else "no")
