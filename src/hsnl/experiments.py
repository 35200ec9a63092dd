"""Parameter sweeps for asymptotic compatibility and Poincare stability."""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import fem1d as _fem


@dataclass(frozen=True)
class RateTable:
    """Error table over a (parameter, mesh size) grid with fitted orders.

    rows holds (param, h, error) triples in grid order.  row_orders fits
    the order in h for each parameter, col_orders the order in the
    parameter for each h; both only where at least three points exist.
    diag_order is the fit along the diagonal (k-th parameter with k-th h).
    Gridless studies store h = 0 and carry their fit in col_orders.
    """

    rows: tuple
    row_orders: tuple
    col_orders: tuple
    diag_order: float = None

    def __post_init__(self):
        if any(r[2] < 0.0 for r in self.rows):
            raise ValueError("errors must be nonnegative")

    def row_errors(self, param):
        return [r[2] for r in self.rows if r[0] == param]

    def diagonal(self):
        return _diagonal(self.rows)


def _diagonal(rows):
    """The rows pairing the k-th parameter with the k-th h, in grid order."""
    params = list(dict.fromkeys(r[0] for r in rows))
    hs = list(dict.fromkeys(r[1] for r in rows))
    cells = {(r[0], r[1]): r for r in rows}
    return [cells[key] for key in zip(params, hs)]


@dataclass(frozen=True)
class PoincareTable:
    """Poincare constants along a parameter ladder with a cap verdict."""

    rows: tuple
    cap: float
    verdict: bool


def estimate_rate(errors, params):
    """Least-squares slope of log(error) against log(param)."""
    errors = np.asarray(errors, dtype=float)
    params = np.asarray(params, dtype=float)
    if len(errors) < 2:
        raise ValueError("need at least two points for a rate")
    floor = 1e-300
    return float(np.polyfit(np.log(params),
                            np.log(np.maximum(errors, floor)), 1)[0])


def plateau_reached(values, rel=0.01):
    """True once the last two entries agree to the given relative change."""
    if len(values) < 2:
        return False
    a, b = values[-2], values[-1]
    return abs(b - a) <= rel * max(abs(a), 1e-300)


def classify_trend(values, rel=0.01):
    """Label a sequence decreasing, increasing, or flat (within rel)."""
    values = [float(v) for v in values]
    if len(values) < 2:
        return "flat"
    down = all(b <= a * (1.0 + rel) for a, b in zip(values, values[1:]))
    up = all(b >= a * (1.0 - rel) for a, b in zip(values, values[1:]))
    if down and values[-1] < (1.0 - rel) * values[0]:
        return "decreasing"
    if up and values[-1] > (1.0 + rel) * values[0]:
        return "increasing"
    return "flat"


_REFERENCES = ("analytic_local", "fine_local_fem", "fine_nonlocal_fem")


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for an asymptotic-compatibility sweep.

    family maps a ladder parameter (horizon, level, or exponent) to a
    kernel.  params and hs are the two ladders; every h must divide the
    domain length.  The reference solution is either the closed form for
    constant data, a fine local solve, or a fine nonlocal solve with
    reference_kernel; FEM references live on a mesh at least four times
    finer than the finest h in the grid.
    """

    family: object
    params: tuple
    hs: tuple
    A: float = 1.0
    f: object = 1.0
    length: float = 1.0
    nu: int = 1
    reference: str = "analytic_local"
    reference_kernel: object = None
    reference_h: float = None

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        object.__setattr__(self, "hs", tuple(float(h) for h in self.hs))
        if not callable(self.family):
            raise ValueError("family must map a parameter to a kernel")
        if not self.params or not self.hs:
            raise ValueError("both ladders must be nonempty")
        if not _strictly_monotone(self.params):
            raise ValueError("parameter ladder must be strictly monotone")
        if any(b >= a for a, b in zip(self.hs, self.hs[1:])):
            raise ValueError("h ladder must be strictly decreasing")
        for h in self.hs:
            _cells_for(h, self.length)
        if self.reference not in _REFERENCES:
            raise ValueError("unknown reference kind %r" % (self.reference,))
        if self.reference != "analytic_local":
            object.__setattr__(self, "reference_h", _reference_h(
                self.hs, self.reference_h, self.length))


def _strictly_monotone(seq):
    if len(seq) < 2:
        return True
    inc = all(b > a for a, b in zip(seq, seq[1:]))
    dec = all(b < a for a, b in zip(seq, seq[1:]))
    return inc or dec


def _cells_for(h, length):
    if not h > 0:
        raise ValueError("mesh size h must be positive, got %g" % h)
    n = length / h
    cells = int(round(n))
    if cells < 2 or abs(cells - n) > 1e-9:
        raise ValueError("h = %g does not divide the domain length" % h)
    return cells


def _reference_h(hs, reference_h, length):
    """reference_h, by default a quarter of the finest h; it must be at
    least four times finer than every h and divide the domain length."""
    finest = min(hs) / 4.0
    ref_h = finest if reference_h is None else reference_h
    if ref_h > finest + 1e-12:
        raise ValueError("reference mesh must be at least four times "
                         "finer than the finest h")
    _cells_for(ref_h, length)
    return ref_h


def parallel_map(fn, items):
    """Map preserving order; threads only when HSNL_THREADS asks for them."""
    items = list(items)
    try:
        workers = int(os.environ.get("HSNL_THREADS", "1"))
    except ValueError:
        workers = 1
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _l2_error(u_fn, ref_fn, length, n_cells):
    # the 8-point Gauss rule of fem1d per cell; exact for piecewise
    # polynomials up to degree 7 on cells aligned with both functions
    mesh = _fem.Mesh1D(length, n_cells)
    xq, _ = _fem._cell_rule(mesh)
    diff = np.asarray(u_fn(xq), dtype=float) - np.asarray(ref_fn(xq),
                                                          dtype=float)
    return float(math.sqrt(0.5 * mesh.h * np.sum(_fem._GW * diff * diff)))


def _reference(config):
    """Build the reference interpolant; returns (callable, cell count)."""
    if config.reference == "analytic_local":
        if callable(config.A) or callable(config.f):
            raise ValueError("the closed-form reference needs constant "
                             "coefficients; use fine_local_fem instead")
        scale = float(config.f) / float(config.A)
        length = config.length

        def u0(x):
            x = np.asarray(x, dtype=float)
            return 0.5 * scale * x * (length - x)

        return u0, 0
    n_ref = _cells_for(config.reference_h, config.length)
    mesh = _fem.Mesh1D(config.length, n_ref)
    if config.reference == "fine_local_fem":
        system = _fem.assemble_local(config.A, config.f, mesh)
    else:
        if config.reference_kernel is None:
            raise ValueError("fine_nonlocal_fem needs reference_kernel")
        system = _fem.assemble(config.reference_kernel, config.nu,
                               config.A, config.f, mesh)
    coeffs = _fem.solve_state(system)
    return _fem.p1_interpolant(mesh, coeffs), n_ref


def _solve_cell(config, kernel, h, ref_fn, n_ref):
    n = _cells_for(h, config.length)
    mesh = _fem.Mesh1D(config.length, n)
    system = _fem.assemble(kernel, config.nu, config.A, config.f, mesh)
    u_fn = _fem.p1_interpolant(mesh, _fem.solve_state(system))
    return _l2_error(u_fn, ref_fn, config.length, max(n, n_ref))


def _fit_order(errors, params):
    pts = [(p, e) for p, e in zip(params, errors)
           if math.isfinite(p) and p > 0.0 and e > 0.0]
    if len(pts) < 3:
        return None
    return estimate_rate([e for _, e in pts], [p for p, _ in pts])


def _build_table(params, hs, errors):
    grid = {}
    rows = []
    k = 0
    for p in params:
        for h in hs:
            grid[p, h] = errors[k]
            rows.append((p, h, errors[k]))
            k += 1
    row_orders = []
    for p in params:
        fit = _fit_order([grid[p, h] for h in hs], hs)
        if fit is not None:
            row_orders.append((p, fit))
    col_orders = []
    for h in hs:
        fit = _fit_order([grid[p, h] for p in params], params)
        if fit is not None:
            col_orders.append((h, fit))
    m = min(len(params), len(hs))
    diag = _fit_order([grid[params[k], hs[k]] for k in range(m)], params[:m])
    return RateTable(rows=tuple(rows), row_orders=tuple(row_orders),
                     col_orders=tuple(col_orders), diag_order=diag)


def _run_ac(config, allowed):
    if config.reference not in allowed:
        raise ValueError("this sweep needs one of the references %r"
                         % (allowed,))
    ref_fn, n_ref = _reference(config)
    kernels = {p: config.family(p) for p in config.params}
    cells = [(p, h) for p in config.params for h in config.hs]
    errors = parallel_map(
        lambda cell: _solve_cell(config, kernels[cell[0]], cell[1],
                                 ref_fn, n_ref), cells)
    return _build_table(config.params, config.hs, errors)


def ac_local_sweep(config):
    """Nonlocal solves against the local limit over a (param, h) grid."""
    return _run_ac(config, ("analytic_local", "fine_local_fem"))


def ac_nonlocal_sweep(config):
    """Kernel-ladder solves against a fine solve with the limit kernel."""
    return _run_ac(config, ("fine_nonlocal_fem",))


def poincare_sweep(family, params, h=None, length=1.0, nu=1, cap=0.5):
    """Poincare constants along a ladder, with a cap-and-stability verdict.

    family maps each ladder entry to a kernel (None entries mean the
    local operator).  Passing family=None turns the ladder into a list
    of mesh sizes for the local operator itself, stored with param 0.
    """

    params = tuple(float(p) for p in params)
    if not params:
        raise ValueError("the ladder must be nonempty")
    if family is None:
        rows = []
        for hp in params:
            mesh = _fem.Mesh1D(length, _cells_for(hp, length))
            rows.append((0.0, hp, _fem.poincare_constant(None, nu, mesh)))
    else:
        if h is None:
            raise ValueError("a mesh size is required with a kernel family")
        mesh = _fem.Mesh1D(length, _cells_for(h, length))
        values = parallel_map(
            lambda p: _fem.poincare_constant(family(p), nu, mesh), params)
        rows = [(p, h, cp) for p, cp in zip(params, values)]
    constants = [r[2] for r in rows]
    verdict = (max(constants) <= cap
               and plateau_reached(constants, rel=0.05))
    return PoincareTable(rows=tuple(rows), cap=cap, verdict=verdict)
