"""Command line front end; every subcommand emits deterministic artifacts.

Configuration is a flat key=value map assembled from an optional file
(--config path) overlaid by flags.  The fully resolved map is echoed into
the output header as '# key=value' lines, so any produced file can be fed
back through --config to reproduce the run.  Floats print with 17
significant digits; identical configs give identical bytes.

The subcommands share what is here; the handler of each is run(cfg) in
hsnl/commands/<subcommand>.py, and run() imports only the one it calls,
so a job compiles one handler.
"""

import importlib
import math
import sys
from itertools import chain

import numpy as np

from . import control as _control
from . import fem1d as _fem
from . import kernels as _kern
from . import symbols as _sym


class CliError(Exception):
    """Bad configuration or validation failure; exit code 1."""


class OutputError(Exception):
    """A result to be written is not a finite number; exit code 2."""


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


def _write_csv(path, cfg, header, columns):
    """Echoed config, header and columns, one per header name, the body
    formatted with one %: a float or integer array as it is, any other
    column value by value with _fmt, so the bytes are the _fmt join of
    each row.  Raises OutputError, and writes nothing, if a number is not
    finite."""
    specs, cols = [], []
    for name, values in zip(header.split(","), columns):
        kind = values.dtype.kind if isinstance(values, np.ndarray) else "O"
        bad = np.flatnonzero(~np.isfinite(values)) if kind == "f" else [
            r for r, v in enumerate(values)
            if isinstance(v, (float, np.floating)) and not math.isfinite(v)]
        if len(bad):
            raise OutputError("%s row %d, column %s: %s is not finite" % (
                path, bad[0] + 1, name, _fmt(values[bad[0]])))
        specs.append("%.17g" if kind == "f" else "%d" if kind in "biu"
                     else "%s")
        cols.append(values.tolist() if specs[-1] != "%s"
                    else list(map(_fmt, values)))
    lines = _echo_lines(cfg) + [header]
    if cols and cols[0]:
        lines.append("\n".join([",".join(specs)] * len(cols[0]))
                     % tuple(chain.from_iterable(zip(*cols))))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


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


_KERNEL_KEYS = ("kernel.family", "kernel.d", "kernel.s", "kernel.delta",
                "kernel.level", "kernel.cutoff")

# the keys each subcommand reads; threads, config and command are taken
# out before the check, so every subcommand accepts them.  The handler of
# a subcommand is run() of its module in hsnl.commands
_COMMANDS = {
    "symbol": _KERNEL_KEYS + ("nu", "xis", "xi_min", "xi_max", "xi_count",
                              "out"),
    "bounds": _KERNEL_KEYS + ("nu", "xi_min", "xi_max", "xi_count", "tau",
                              "cutoff_radius", "out"),
    "localize": _KERNEL_KEYS + ("deltas", "norm", "out"),
    "solve": _KERNEL_KEYS + ("nu", "n", "length", "coef", "rhs", "out"),
    "poincare": _KERNEL_KEYS + ("nu", "deltas", "levels", "hs", "h", "cap",
                                "out"),
    "ac": _KERNEL_KEYS + ("mode", "deltas", "levels", "hs", "reference",
                          "reference_h", "coef", "rhs", "out"),
    "control": ("udes", "udes_scale", "alpha", "beta", "lam", "gamma",
                "delta", "n", "tol", "max_iter", "nu", "state_out",
                "control_out"),
    "appendix": ("deltas", "out"),
    "basis": ("d", "count", "seed", "out"),
    "validate": _KERNEL_KEYS,
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
    allowed = _COMMANDS[command]
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
        # sweeps run serially, so a thread count changes nothing; configs
        # and scripts pass one, so it is still accepted and checked, and
        # it stays out of the echoed configuration
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
        cfg = Config(merged, command)
        handler = importlib.import_module(".commands." + command, __package__)
        summary = handler.run(cfg)
        print(summary)
        return 0
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (_control.NonconvergenceError, _fem.AssemblyError,
            _sym.SymbolError, np.linalg.LinAlgError, OutputError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    # an array too large to allocate: numpy's message names its size
    except (_kern.AssumptionError, ValueError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    # this file runs as __main__ under `python -m`; the handlers import
    # hsnl.cli, whose run() catches their CliError
    from hsnl import cli
    cli.main()
