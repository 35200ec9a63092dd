"""Command line front end; every subcommand emits deterministic artifacts.

Configuration is a flat key=value map assembled from an optional file
(--config path) overlaid by flags.  The fully resolved map is echoed into
the output header as '# key=value' lines, so any produced file can be fed
back through --config to reproduce the run.  Floats print with 17
significant digits; identical configs give identical bytes.
"""

import math
import os
import sys

import numpy as np

from . import control as _control
from . import experiments as _exp
from . import fem1d as _fem
from . import kernels as _kern
from . import operators as _ops
from . import symbols as _sym


class CliError(Exception):
    """Bad configuration or validation failure; exit code 1."""


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def _canon(key):
    key = key.strip()
    if key.startswith("kernel-"):
        key = "kernel." + key[len("kernel-"):]
    if key.startswith("kernel."):
        return "kernel." + key[len("kernel."):].replace("-", "_")
    return key.replace("-", "_")


def _parse_flags(args):
    pairs = {}
    i = 0
    while i < len(args):
        token = args[i]
        if not token.startswith("--"):
            raise CliError("expected a --flag, got %r" % token)
        body = token[2:]
        if "=" in body:
            key, value = body.split("=", 1)
            i += 1
        else:
            key = body
            if i + 1 >= len(args):
                raise CliError("flag --%s needs a value" % key)
            value = args[i + 1]
            i += 2
        pairs[_canon(key)] = value.strip()
    return pairs


def _read_config_file(path):
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise CliError("cannot read config file %s: %s" % (path, exc))
    pairs = {}
    for line in lines:
        line = line.strip()
        if line.startswith("#"):
            line = line[1:].strip()
        if not line or "=" not in line:
            continue
        key, value = line.split("=", 1)
        pairs[_canon(key)] = value.strip()
    return pairs


class Config:
    """Key lookup that records every resolved value for the echo header."""

    def __init__(self, pairs, command):
        self.pairs = pairs
        self.resolved = {"command": command}

    def has(self, key):
        return key in self.pairs

    def get(self, key, default=None, required=False):
        if key in self.pairs:
            value = self.pairs[key]
        elif required:
            raise CliError("missing required key %s" % key)
        else:
            value = default
        if value is not None:
            self.resolved[key] = str(value)
        return value

    def get_float(self, key, default=None, required=False, allow_inf=False):
        raw = self.get(key, default, required)
        if raw is None:
            return None
        value = _number(key, raw, allow_inf)
        self.resolved[key] = _fmt(value)
        return value

    def get_int(self, key, default=None, required=False):
        raw = self.get(key, default, required)
        if raw is None:
            return None
        try:
            value = int(str(raw), 10)
        except ValueError:
            raise CliError("key %s expects an integer, got %r" % (key, raw))
        self.resolved[key] = str(value)
        return value

    def get_floats(self, key, default=None, required=False):
        raw = self.get(key, default, required)
        if raw is None:
            return None
        values = tuple(_number(key, part) for part in str(raw).split(","))
        self.resolved[key] = ",".join(_fmt(v) for v in values)
        return values

    def get_choice(self, key, choices, default=None):
        value = self.get(key, default)
        if value not in choices:
            raise CliError("key %s must be one of %s, got %r"
                           % (key, "/".join(sorted(choices)), value))
        return value


def _number(key, text, allow_inf=False):
    """A number in key's value: never NaN, infinite only if allow_inf."""
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise CliError("key %s expects a number, got %r" % (key, text))
    if math.isnan(value) or (math.isinf(value) and not allow_inf):
        raise CliError("key %s expects finite numbers, got %s"
                       % (key, _fmt(value)))
    return value


def _echo_lines(cfg):
    return ["# %s=%s" % (k, v) for k, v in sorted(cfg.resolved.items())]


def _write_csv(path, cfg, header, rows):
    lines = _echo_lines(cfg)
    lines.append(header)
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Shared pieces: kernels, directions, named functions.
# ---------------------------------------------------------------------------

_FAMILIES = ("constant_ball", "riesz_truncated", "fractional_vanishing",
             "log_regularized", "log_truncated", "local")


def _build_kernel(cfg, default_family="constant_ball", allow_local=False):
    family = cfg.get_choice("kernel.family", _FAMILIES, default_family)
    if family == "local":
        if not allow_local:
            raise CliError("this subcommand needs a genuine kernel family")
        return None
    d = cfg.get_int("kernel.d", 1)
    delta = cfg.get_float("kernel.delta") if cfg.has("kernel.delta") else None
    if family == "constant_ball":
        kernel = _kern.constant_ball(d)
    elif family == "riesz_truncated":
        kernel = _kern.riesz_truncated(d, cfg.get_float("kernel.s",
                                                        required=True))
    else:
        if delta is None:
            raise CliError("kernel.delta is required for %s" % family)
        maker = {"fractional_vanishing": _kern.fractional_vanishing,
                 "log_regularized": _kern.log_regularized,
                 "log_truncated": _kern.log_truncated}[family]
        kernel = maker(d, delta)
        delta = None
    if delta is not None:
        kernel = _kern.rescaled(kernel, delta)
    if cfg.has("kernel.level"):
        kernel = _kern.min_level(kernel, cfg.get_float("kernel.level"))
    if cfg.has("kernel.cutoff"):
        kernel = _kern.cutoff(kernel, cfg.get_float("kernel.cutoff"))
    return kernel


def _parse_nu(cfg, d):
    raw = cfg.get("nu", "+1")
    if ":" in raw:
        vec = tuple(_number("nu", p) for p in raw.split(":"))
        if len(vec) != d:
            raise CliError("nu has %d components but the kernel lives in "
                           "d=%d" % (len(vec), d))
        return np.asarray(vec)
    if raw in ("+1", "1", "-1"):
        sign = -1.0 if raw == "-1" else 1.0
        if d == 1:
            return int(sign)
        axis = np.zeros(d)
        axis[0] = sign
        return axis
    raise CliError("nu expects +1, -1, or colon-separated components")


def _named_function(name):
    table = {
        "zero": lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        "one": lambda x: np.ones_like(np.asarray(x, dtype=float)),
        "parabola": lambda x: 0.5 * np.asarray(x) * (1.0 - np.asarray(x)),
        "sine": lambda x: np.sin(np.pi * np.asarray(x)),
        "one_plus_x": lambda x: 1.0 + np.asarray(x, dtype=float),
    }
    if name not in table:
        raise CliError("unknown function name %r (have %s)"
                       % (name, "/".join(sorted(table))))
    return table[name]


def _parse_field(cfg, key):
    """const:c or func:name, as used by the coefficient and load flags."""
    spec = cfg.get(key, "const:1")
    if spec.startswith("const:"):
        return _number(key, spec[len("const:"):])
    if spec.startswith("func:"):
        return _named_function(spec[len("func:"):])
    raise CliError("%s expects const:<number> or func:<name>, got %r"
                   % (key, spec))


def _xi_grid(cfg):
    lo = cfg.get_float("xi_min", 0.01)
    hi = cfg.get_float("xi_max", 100.0)
    count = cfg.get_int("xi_count", 200)
    if not 0.0 < lo < hi:
        raise CliError("need 0 < xi_min < xi_max")
    if count < 2:
        raise CliError("xi_count must be at least 2")
    return np.geomspace(lo, hi, count)


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


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns the one-line stdout summary.
# ---------------------------------------------------------------------------

def _cmd_symbol(cfg):
    kernel = _build_kernel(cfg)
    nu = _parse_nu(cfg, kernel.d)
    if cfg.has("xis"):
        raw = cfg.get("xis")
        points = []
        for part in raw.split(","):
            try:
                comps = tuple(float(p) for p in part.split(":"))
            except ValueError:
                raise CliError("key xis expects numbers, got %r" % part)
            if not all(math.isfinite(c) for c in comps):
                raise CliError("key xis: xi point %r is not finite" % part)
            if len(comps) != kernel.d:
                raise CliError("xi point %r has %d components, kernel is "
                               "d=%d" % (part, len(comps), kernel.d))
            points.append(comps)
        cfg.resolved["xis"] = ",".join(":".join(_fmt(c) for c in p)
                                       for p in points)
    else:
        if kernel.d != 1:
            raise CliError("the default grid is one-dimensional; pass "
                           "--xis for d=2")
        points = _xi_grid(cfg)
    out = cfg.get("out", "symbol.csv")
    d = kernel.d
    xis = np.asarray(points, dtype=float).reshape(len(points), d)
    _kern.standing_moments(kernel)
    values = _sym._symbol_values(kernel, nu, xis if d > 1 else xis[:, 0])
    rows = [(*xi, *value.real, *value.imag) for xi, value in zip(xis, values)]
    header = ",".join(["xi_%d" % (k + 1) for k in range(d)]
                      + ["re_%d" % (k + 1) for k in range(d)]
                      + ["im_%d" % (k + 1) for k in range(d)])
    _write_csv(out, cfg, header, rows)
    return "points=%d out=%s" % (len(rows), out)


def _cmd_bounds(cfg):
    kernel = _build_kernel(cfg)
    nu = _parse_nu(cfg, kernel.d)
    grid = _xi_grid(cfg)
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
    _write_csv(out, cfg, "name,grid_min,grid_max,margin,pass", rows)
    failures = sum(1 for r in rows if not r[4])
    return "checks=%d failures=%d out=%s" % (len(rows), failures, out)


def _cmd_localize(cfg):
    kernel = _build_kernel(cfg)
    if kernel.d != 1:
        raise CliError("localization runs in d=1")
    deltas = cfg.get_floats("deltas", "0.2,0.1,0.05,0.025")
    norm = cfg.get_choice("norm", ("l2", "linf"), "l2")
    out = cfg.get("out", "localize.csv")
    table = _ops.localization_study(kernel, _bump_handle(), deltas,
                                    2 if norm == "l2" else math.inf)
    rate = table.diag_order
    rows = [(delta, err, rate) for delta, _, err in table.rows]
    _write_csv(out, cfg, "delta,error,rate", rows)
    return "rate=%s rows=%d out=%s" % (_fmt(rate), len(rows), out)


def _cmd_solve(cfg):
    kernel = _build_kernel(cfg, allow_local=True)
    nu = _parse_nu(cfg, 1 if kernel is None else kernel.d)
    if kernel is not None and kernel.d != 1:
        raise CliError("the solver is one-dimensional")
    n = cfg.get_int("n", 64)
    length = cfg.get_float("length", 1.0)
    coef = _parse_field(cfg, "coef")
    rhs = _parse_field(cfg, "rhs")
    out = cfg.get("out", "solve.csv")
    mesh = _fem.Mesh1D(length, n)
    if kernel is None:
        system = _fem.assemble_local(coef, rhs, mesh)
    else:
        system = _fem.assemble(kernel, nu, coef, rhs, mesh)
    u = _fem.solve_state(system)
    full = np.concatenate([[0.0], u, [0.0]])
    rows = list(zip(mesh.nodes, full))
    _write_csv(out, cfg, "x,u", rows)
    return "n=%d umax=%s out=%s" % (n, _fmt(float(np.abs(u).max())), out)


def _cmd_poincare(cfg):
    cap = cfg.get_float("cap", 0.5)
    out = cfg.get("out", "poincare.csv")
    family_name = cfg.get("kernel.family", "constant_ball")
    if family_name == "local":
        cfg.resolved["kernel.family"] = "local"
        hs = cfg.get_floats("hs", required=True)
        table = _exp.poincare_sweep(None, hs, cap=cap)
    else:
        base = _build_kernel(cfg)
        nu = _parse_nu(cfg, base.d)
        h = cfg.get_float("h", 1.0 / 256.0)
        if cfg.has("levels"):
            levels = cfg.get_floats("levels")
            table = _exp.poincare_sweep(
                lambda lev: _kern.min_level(base, lev), levels, h=h, nu=nu,
                cap=cap)
        else:
            if cfg.has("kernel.delta"):
                raise CliError("kernel.delta conflicts with the deltas "
                               "ladder; pick one")
            deltas = cfg.get_floats("deltas", "0.2,0.1,0.05,0.025")
            table = _exp.poincare_sweep(
                lambda d: _kern.rescaled(base, d), deltas, h=h, nu=nu,
                cap=cap)
    _write_csv(out, cfg, "delta,h,cp", table.rows)
    top = max(cp for _, _, cp in table.rows)
    return "verdict=%s max_cp=%s out=%s" % (
        "pass" if table.verdict else "fail", _fmt(top), out)


def _cmd_ac(cfg):
    mode = cfg.get_choice("mode", ("local", "nonlocal"), "local")
    out = cfg.get("out", "ac.csv")
    hs = cfg.get_floats("hs", "0.0625,0.03125,0.015625,0.0078125")
    coef = _parse_field(cfg, "coef")
    rhs = _parse_field(cfg, "rhs")
    if mode == "local":
        base = _build_kernel(cfg)
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
        base = _build_kernel(cfg)
        levels = cfg.get_floats("levels", "4,16,64,256")
        ref_h = cfg.get_float("reference_h") if cfg.has("reference_h") \
            else None
        config = _exp.SweepConfig(
            family=lambda lev: _kern.min_level(base, lev), params=levels,
            hs=hs, A=coef, f=rhs, reference="fine_nonlocal_fem",
            reference_kernel=base, reference_h=ref_h)
        table = _exp.ac_nonlocal_sweep(config)
    _write_csv(out, cfg, "param,h,l2_error", table.rows)
    trend = _exp.classify_trend([e for _, _, e in table.diagonal()])
    return "diagonal_trend=%s" % trend


def _cmd_control(cfg):
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
        raise CliError("gamma supports const:<number> only")
    gamma = _number("gamma", raw_gamma[len("const:"):])
    scale = cfg.get_float("udes_scale", 1.0)
    target = _named_function(cfg.get_choice(
        "udes", ("zero", "parabola", "sine"), "parabola"))
    nu = _parse_nu(cfg, 1)
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
    _write_csv(state_out, cfg, "x,u", list(zip(mesh.nodes, full)))
    _write_csv(control_out, cfg, "cell,g",
               list(zip(range(n), triple.g)))
    return "objective=%s,residual=%s,iters=%d" % (
        _fmt(triple.objective_value), _fmt(triple.residual),
        triple.iterations)


def _cmd_appendix(cfg):
    deltas = cfg.get_floats("deltas", "0.1,0.01,0.001")
    out = cfg.get("out", "appendix.csv")
    rows = []
    for entry in _sym.appendix_limit_table(deltas):
        rows.append((entry["delta"], entry["sin_integral"],
                     entry["cos_integral"], entry["sin_upto1"],
                     entry["cos_upto1"]))
    _write_csv(out, cfg, "delta,sin_integral,cos_integral,sin_upto1,"
               "cos_upto1", rows)
    last = rows[-1]
    return "sin_gap=%s cos_abs=%s out=%s" % (
        _fmt(abs(last[1] - 2.0 * math.pi)), _fmt(abs(last[2])), out)


def _cmd_basis(cfg):
    d = cfg.get_int("d", 2)
    if d < 2:
        raise CliError("the frame construction needs d >= 2")
    count = cfg.get_int("count", 1000)
    if count < 1:
        raise CliError("count must be at least 1")
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
    _write_csv(out, cfg, "index,defect,first_row_error", rows)
    worst_defect = max(r[1] for r in rows)
    worst_row = max(r[2] for r in rows)
    return "samples=%d max_defect=%s max_first_row_error=%s out=%s" % (
        count, _fmt(worst_defect), _fmt(worst_row), out)


def _cmd_validate(cfg):
    kernel = _build_kernel(cfg)
    report = _kern.validate_assumptions(kernel)
    for line in _echo_lines(cfg):
        print(line)
    flat = {}
    for key, value in report.items():
        if key == "delta_ladder":
            continue
        flat[key] = value
    ladder = report.get("delta_ladder")
    if ladder:
        for delta, entries in ladder.items():
            for name, value in entries.items():
                flat["ladder.%s.%s" % (_fmt(delta), name)] = value
    for key in sorted(flat):
        value = flat[key]
        print("%s=%s" % (key, "none" if value is None else _fmt(value)))
    ok = (report["m1_ok"] and report["m2_ok"] and report["nonnegative"]
          and report["monotone"] is not False)
    return "valid=%s" % ("yes" if ok else "no")


_KERNEL_KEYS = ("kernel.family", "kernel.d", "kernel.s", "kernel.delta",
                "kernel.level", "kernel.cutoff")

# the keys each subcommand reads; threads, config and command are taken
# out before the check, so every subcommand accepts them
_COMMANDS = {
    "symbol": (_cmd_symbol, _KERNEL_KEYS + ("nu", "xis", "xi_min", "xi_max",
                                            "xi_count", "out")),
    "bounds": (_cmd_bounds, _KERNEL_KEYS + ("nu", "xi_min", "xi_max",
                                            "xi_count", "tau",
                                            "cutoff_radius", "out")),
    "localize": (_cmd_localize, _KERNEL_KEYS + ("deltas", "norm", "out")),
    "solve": (_cmd_solve, _KERNEL_KEYS + ("nu", "n", "length", "coef",
                                          "rhs", "out")),
    "poincare": (_cmd_poincare, _KERNEL_KEYS + ("nu", "deltas", "levels",
                                                "hs", "h", "cap", "out")),
    "ac": (_cmd_ac, _KERNEL_KEYS + ("mode", "deltas", "levels", "hs",
                                    "reference", "reference_h", "coef",
                                    "rhs", "out")),
    "control": (_cmd_control, ("udes", "udes_scale", "alpha", "beta", "lam",
                               "gamma", "delta", "n", "tol", "max_iter",
                               "nu", "state_out", "control_out")),
    "appendix": (_cmd_appendix, ("deltas", "out")),
    "basis": (_cmd_basis, ("d", "count", "seed", "out")),
    "validate": (_cmd_validate, _KERNEL_KEYS),
}


def run(argv):
    argv = list(argv)
    if not argv:
        print("usage: hsnl <%s> [--key value ...]"
              % "|".join(sorted(_COMMANDS)), file=sys.stderr)
        return 1
    command = argv[0]
    if command not in _COMMANDS:
        print("error: unknown subcommand %r" % command, file=sys.stderr)
        return 1
    handler, allowed = _COMMANDS[command]
    old_threads = os.environ.get("HSNL_THREADS")
    try:
        flags = _parse_flags(argv[1:])
        merged = {}
        if "config" in flags:
            merged.update(_read_config_file(flags["config"]))
        merged.update(flags)
        merged.pop("config", None)
        file_command = merged.pop("command", command)
        if file_command != command:
            raise CliError("config file belongs to subcommand %r"
                           % file_command)
        # the worker count steers execution, not results, so it stays out
        # of the echoed configuration
        raw_threads = merged.pop("threads", None)
        for key in merged:
            if key not in allowed:
                raise CliError("unknown key %s" % key)
        if raw_threads is not None:
            try:
                threads = int(str(raw_threads), 10)
            except ValueError:
                raise CliError("threads expects an integer")
            if threads < 1:
                raise CliError("threads must be at least 1")
            os.environ["HSNL_THREADS"] = str(threads)
        cfg = Config(merged, command)
        summary = handler(cfg)
        print(summary)
        return 0
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (_control.NonconvergenceError, _fem.AssemblyError,
            _sym.SymbolError, np.linalg.LinAlgError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (_kern.AssumptionError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if old_threads is None:
            os.environ.pop("HSNL_THREADS", None)
        else:
            os.environ["HSNL_THREADS"] = old_threads


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
