"""Pointwise and spectral application of the half-space nonlocal operators.

The pointwise path integrates the difference form

    G u(x) = int_{z . nu >= 0} (z/|z|) w(|z|) (u(x+z) - u(x)) dz

directly: the difference is O(|z|) near the origin for Lipschitz u, so the
integral is absolutely convergent whenever the first moment of the kernel
over the unit ball is finite and no principal value is ever needed.  The
quadrature drops a tiny origin neighbourhood whose contribution is bounded
by the Lipschitz constant times a partial moment, integrates the rest on
geometrically graded Gauss panels, and replaces the far tail (where u has
decayed) by the closed-form tail mass times -u(x).

The spectral path acts on periodic samples by Fourier multiplication with
the symbol; it approximates the whole-space operator applied to the
periodized function, with wrap-around error bounded by the kernel mass
beyond half a box length.
"""

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels as _kern
from ._quad import geometric_breaks, merge_breaks, panel_points
from .experiments import RateTable, estimate_rate
from .symbols import _nu_sign, _nu_unit2, _rotation_to, _symbol_values

_ABS_TOL = 1e-10        # error allowed for the dropped origin and far tail
_MAX_PANELS = 16384     # radial quadrature panels allowed per evaluation


@dataclass(frozen=True)
class SmoothFunction:
    """Function handle with the metadata the quadrature needs.

    fn must be vectorized (it receives arrays of points; in two dimensions
    an (n, 2) array).  lipschitz bounds |u(x)-u(y)|/|x-y|, support_radius
    bounds the support, sup_norm bounds |u|, derivative is the gradient
    handle used by the localization study.
    """

    fn: object
    lipschitz: float = None
    support_radius: float = None
    sup_norm: float = None
    derivative: object = None

    def __call__(self, x):
        return self.fn(x)


def as_handle(u):
    if isinstance(u, SmoothFunction):
        return u
    return SmoothFunction(fn=u)


@dataclass(eq=False)
class SampledField:
    """Samples of a field, either on a periodic box or explicit points.

    domain is the box length (or a tuple of lengths in two dimensions) for
    periodic uniform grids, or an explicit array of sample points.  kind
    is "scalar" or "vector".
    """

    domain: object
    values: np.ndarray
    kind: str = "scalar"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.kind not in ("scalar", "vector"):
            raise ValueError("kind must be 'scalar' or 'vector'")
        if not self.periodic:
            pts = np.asarray(self.domain, dtype=float)
            if len(pts) != len(self.values):
                raise ValueError("sample points and values differ in length")

    @property
    def periodic(self):
        if isinstance(self.domain, numbers.Real):
            return True
        return (isinstance(self.domain, tuple)
                and all(isinstance(t, numbers.Real) for t in self.domain))

    def grid(self):
        """Sample coordinates (periodic grids are uniform, start at 0)."""
        if not self.periodic:
            return np.asarray(self.domain, dtype=float)
        if isinstance(self.domain, numbers.Real):
            n = self.values.shape[0]
            return np.arange(n) * (float(self.domain) / n)
        axes = [np.arange(n) * (float(length) / n)
                for length, n in zip(self.domain, self.values.shape)]
        return axes


def _sup_norm_estimate(handle, center, d):
    if handle.sup_norm is not None:
        return handle.sup_norm
    radius = handle.support_radius if handle.support_radius is not None \
        else 64.0
    if d == 1:
        pts = np.linspace(center - radius, center + radius, 4097)
        vals = handle(pts)
    else:
        side = np.linspace(center[0] - radius, center[0] + radius, 129)
        side2 = np.linspace(center[1] - radius, center[1] + radius, 129)
        xx, yy = np.meshgrid(side, side2)
        vals = handle(np.column_stack([xx.ravel(), yy.ravel()]))
    return float(np.max(np.abs(vals)))


def _tail_start(kernel, sup_u):
    """Quadrature upper end and whether a closed-form tail term follows."""
    hi = _kern.support(kernel)[1]
    if hi < math.inf:
        return hi, False
    target = _ABS_TOL / (2.0 * max(sup_u, 1e-30))
    radius = 2.0
    for _ in range(120):
        if _kern.tail_mass(kernel, radius) <= target:
            return radius, True
        radius *= 2.0
    raise _kern.AssumptionError("kernel tail mass does not decay")


def _inner_start(kernel, lipschitz, order, angular):
    """Lower quadrature end; the dropped bit is bounded through lipschitz."""
    if not _kern.is_singular(kernel):
        return 0.0
    if lipschitz is None:
        raise _kern.AssumptionError(
            "singular kernels need a Lipschitz constant on the handle")
    if lipschitz == 0.0:
        return 0.0
    hi = _kern.support(kernel)[1]
    t0 = min(1e-3, min(hi, 1.0) / 16.0)
    target = _ABS_TOL / (16.0 * angular * lipschitz)
    for _ in range(200):
        if _kern.radial_integral(kernel, 0.0, t0, order) <= target:
            return t0
        t0 *= 0.5
    return t0


def _radial_nodes(kernel, t0, top):
    """Gauss nodes/weights on (t0, top), graded toward t0 and split at
    every kernel breakpoint."""
    lo = t0 if t0 > 0.0 else min(1.0, top) * 1e-3
    inner_top = min(1.0, top)
    edges = [geometric_breaks(lo, inner_top, ratio=3.0)]
    if t0 == 0.0:
        edges.append(np.array([0.0, lo]))
    if top > inner_top:
        edges.append(geometric_breaks(inner_top, top, ratio=2.0))
    breaks = np.unique(np.concatenate(edges))
    breaks = merge_breaks(breaks[0], breaks[-1], breaks,
                          _kern.breakpoints(kernel))
    if len(breaks) - 1 > _MAX_PANELS:
        raise ValueError("quadrature panel budget exceeded")
    return panel_points(breaks, 24)


def _prepare_1d(kernel, handle, xs):
    _kern.standing_moments(kernel)
    sup_u = _sup_norm_estimate(handle, float(np.mean(xs)), 1)
    top, closed_tail = _tail_start(kernel, sup_u)
    t0 = _inner_start(kernel, handle.lipschitz, 1, 1.0)
    t, wt = _radial_nodes(kernel, t0, top)
    wbar = _kern.eval(kernel, t)
    tail = _kern.radial_integral(kernel, top, math.inf, 0) if closed_tail \
        else 0.0
    return t, wt * wbar, tail


def _gradient_values_1d(kernel, nu, handle, xs):
    """Half-space gradient of a scalar handle at each point of xs (1-D)."""
    sign = _nu_sign(nu)
    xs = np.asarray(xs, dtype=float)
    t, weights, tail = _prepare_1d(kernel, handle, xs)
    ux = np.asarray(handle(xs), dtype=float)
    diff = handle(xs[:, None] + sign * t[None, :]) - ux[:, None]
    out = diff @ weights
    out -= ux * tail
    return sign * out


def _theta_rule(panels=8, order=16):
    edges = np.linspace(-0.5 * math.pi, 0.5 * math.pi, panels + 1)
    return panel_points(edges, order)


def _gradient_point_2d(kernel, nu, handle, x):
    _kern.standing_moments(kernel)
    nu2 = _nu_unit2(nu)
    rot = _rotation_to(nu2)
    x = np.asarray(x, dtype=float)
    sup_u = _sup_norm_estimate(handle, x, 2)
    top, closed_tail = _tail_start(kernel, sup_u)
    t0 = _inner_start(kernel, handle.lipschitz, 2, math.pi)
    t, wt = _radial_nodes(kernel, t0, top)
    radial_w = wt * _kern.eval(kernel, t) * t
    theta, wtheta = _theta_rule()
    dirs = (rot @ np.stack([np.cos(theta), np.sin(theta)])).T
    pts = x[None, None, :] + t[:, None, None] * dirs[None, :, :]
    ux = float(handle(x[None, :])[0])
    vals = handle(pts.reshape(-1, 2)).reshape(len(t), len(theta))
    profile = radial_w @ (vals - ux)
    out = (dirs * (wtheta * profile)[:, None]).sum(axis=0)
    if closed_tail:
        out -= ux * _kern.radial_integral(kernel, top, math.inf, 1) \
            * 2.0 * nu2
    return out


def gradient_pointwise(kernel, nu, u, x):
    """Half-space nonlocal gradient of u at the point x.

    Returns a length-d vector.  u may be a bare vectorized callable or a
    SmoothFunction; singular kernels require the Lipschitz constant.
    """
    handle = as_handle(u)
    if kernel.d == 1:
        val = _gradient_values_1d(kernel, nu, handle,
                                  np.array([float(x)]))[0]
        return np.array([val])
    return _gradient_point_2d(kernel, nu, handle, x)


def divergence_pointwise(kernel, nu, v, x):
    """Half-space nonlocal divergence of a vector field handle at x."""
    handle = as_handle(v)
    if kernel.d == 1:
        val = _gradient_values_1d(kernel, nu, handle,
                                  np.array([float(x)]))[0]
        return float(val)
    total = 0.0
    for j in range(2):
        comp = SmoothFunction(
            fn=(lambda pts, jj=j: np.asarray(handle(pts))[..., jj]),
            lipschitz=handle.lipschitz,
            support_radius=handle.support_radius,
            sup_norm=handle.sup_norm)
        total += _gradient_point_2d(kernel, nu, comp, x)[j]
    return total


def _require_pow2(n):
    if n < 2 or n & (n - 1):
        raise ValueError("periodic grid size must be a power of two")


def gradient_spectral(kernel, nu, field):
    """Apply the gradient to a periodic SampledField by DFT multiplication.

    The output is real up to roundoff; the imaginary residue is asserted
    below 1e-10 of the field scale and discarded.  In d=1 the result
    holds one value per sample, in d=2 a 2-vector per sample.
    """
    if field.kind != "scalar":
        raise ValueError("spectral gradient expects a scalar field")
    if not field.periodic:
        raise ValueError("spectral gradient needs a periodic grid")
    d, shape = kernel.d, field.values.shape
    if len(shape) != d:
        raise ValueError("spectral gradient needs a %d-D grid" % d)
    for n in shape:
        _require_pow2(n)
    lengths = np.atleast_1d(np.asarray(field.domain, dtype=float))
    scale = max(1.0, float(np.max(np.abs(field.values))))
    uhat = np.fft.fftn(field.values)
    idx = np.indices(shape).reshape(d, -1)
    energy = np.abs(uhat.ravel()) ** 2
    high = np.any([np.minimum(i, n - i) > n / 3.0
                   for i, n in zip(idx, shape)], axis=0)
    if energy.sum() > 0 and energy[high].sum() > 0.01 * energy.sum():
        warnings.warn("top-third Fourier modes carry more than 1% of the "
                      "energy; spectral gradient may alias")
    freqs = [np.fft.fftfreq(n, d=length / n)
             for n, length in zip(shape, lengths)]
    xis = np.stack(np.meshgrid(*freqs, indexing="ij"), axis=-1).reshape(-1, d)
    # lambda(-xi) = conj(lambda(xi)): evaluate one of each mirror pair, in
    # one batch, and conjugate for the other.  -xi sits at the negated
    # indices mod the grid size, except on a Nyquist line, whose frequency
    # -n/2 has no positive partner on the grid and evaluates itself.
    flat = np.arange(xis.shape[0])
    nyquist = np.any([i == n // 2 for i, n in zip(idx, shape)], axis=0)
    mirror = np.where(nyquist, flat,
                      np.ravel_multi_index(-idx, shape, mode="wrap"))
    own = mirror >= flat
    lam = np.empty(xis.shape, dtype=complex)
    lam[own] = _symbol_values(kernel, nu, xis[own] if d > 1 else xis[own, 0])
    lam[~own] = np.conj(lam[mirror[~own]])
    out = np.fft.ifftn(lam.reshape(shape + (d,)) * uhat[..., None],
                       axes=tuple(range(d)))
    assert np.max(np.abs(out.imag)) <= 1e-10 * scale
    return SampledField(field.domain, out.real.reshape(shape) if d == 1
                        else out.real, kind="vector")


def localization_study(base_kernel, u, delta_list, p=2):
    """Errors of the rescaled gradient against the local gradient.

    base_kernel should carry full first moment 2d so that the rescaled
    family converges to the classical derivative.  Returns a RateTable
    whose single column fit is the observed order in delta; gridless rows
    store h = 0.
    """
    if base_kernel.d != 1:
        raise ValueError("the localization study is one-dimensional")
    handle = as_handle(u)
    if handle.derivative is None:
        raise ValueError("the handle needs a derivative for comparison")
    radius = handle.support_radius if handle.support_radius is not None \
        else 1.0
    grid = np.linspace(-radius - 0.25, radius + 0.25, 241)
    spacing = grid[1] - grid[0]
    errors = []
    for delta in delta_list:
        scaled = _kern.rescaled(base_kernel, delta)
        grad = _gradient_values_1d(scaled, 1, handle, grid)
        residual = grad - np.asarray(handle.derivative(grid), dtype=float)
        if p == 2:
            errors.append(float(np.sqrt(spacing * np.sum(residual ** 2))))
        elif p in (math.inf, np.inf, "inf"):
            errors.append(float(np.max(np.abs(residual))))
        else:
            raise ValueError("p must be 2 or inf")
    slope = estimate_rate(errors, delta_list)
    rows = tuple((float(d), 0.0, e) for d, e in zip(delta_list, errors))
    return RateTable(rows=rows, row_orders=(),
                     col_orders=((0.0, slope),), diag_order=slope)


def direction_moment_matrix(kernel, nu):
    """Half-space matrix int |z| w (z/|z|)(z/|z|)^T dz and its radial value.

    Returns (lhs, rhs) where rhs = (1/2d) int |z| w dz times the identity;
    for radial kernels the two agree.
    """
    _kern.standing_moments(kernel)
    full = _kern.partial_moments(kernel, 0.0, math.inf, 1)
    if not math.isfinite(full):
        raise _kern.AssumptionError("needs a finite full first moment")
    d = kernel.d
    rhs = (full / (2.0 * d)) * np.eye(d)
    if d == 1:
        lhs = np.array([[_kern.radial_integral(kernel, 0.0, math.inf, 1)]])
        return lhs, rhs
    radial = _kern.radial_integral(kernel, 0.0, math.inf, 2)
    theta, wtheta = _theta_rule(panels=4, order=16)
    nu2 = _nu_unit2(nu)
    rot = _rotation_to(nu2)
    dirs = (rot @ np.stack([np.cos(theta), np.sin(theta)])).T
    angular = (dirs[:, :, None] * dirs[:, None, :]
               * wtheta[:, None, None]).sum(axis=0)
    return radial * angular, rhs
