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
from .symbols import _nu_sign, _nu_unit2, _rotation_to, _symbol_values


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    max_panels: int = 16384


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


def _tail_start(kernel, sup_u, abs_tol):
    """Quadrature upper end and whether a closed-form tail term follows."""
    hi = _kern.support(kernel)[1]
    if hi < math.inf:
        return hi, False
    target = abs_tol / (2.0 * max(sup_u, 1e-30))
    radius = 2.0
    for _ in range(120):
        if _kern.tail_mass(kernel, radius) <= target:
            return radius, True
        radius *= 2.0
    raise _kern.AssumptionError("kernel tail mass does not decay")


def _inner_start(kernel, lipschitz, abs_tol, order, angular):
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
    target = abs_tol / (16.0 * angular * lipschitz)
    for _ in range(200):
        if _kern.radial_integral(kernel, 0.0, t0, order) <= target:
            return t0
        t0 *= 0.5
    return t0


def _radial_nodes(kernel, t0, top, quad):
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
    if len(breaks) - 1 > quad.max_panels:
        raise ValueError("quadrature panel budget exceeded")
    return panel_points(breaks, 24)


def _prepare_1d(kernel, handle, xs, quad):
    _kern.moments(kernel)
    sup_u = _sup_norm_estimate(handle, float(np.mean(xs)), 1)
    top, closed_tail = _tail_start(kernel, sup_u, quad.abs_tol)
    t0 = _inner_start(kernel, handle.lipschitz, quad.abs_tol, 1, 1.0)
    t, wt = _radial_nodes(kernel, t0, top, quad)
    wbar = _kern.eval(kernel, t)
    tail = _kern.radial_integral(kernel, top, math.inf, 0) if closed_tail \
        else 0.0
    return t, wt * wbar, tail


def _gradient_values_1d(kernel, nu, handle, xs, quad):
    """Half-space gradient of a scalar handle at each point of xs (1-D)."""
    sign = _nu_sign(nu)
    xs = np.asarray(xs, dtype=float)
    t, weights, tail = _prepare_1d(kernel, handle, xs, quad)
    ux = np.asarray(handle(xs), dtype=float)
    diff = handle(xs[:, None] + sign * t[None, :]) - ux[:, None]
    out = diff @ weights
    out -= ux * tail
    return sign * out


def _theta_rule(panels=8, order=16):
    edges = np.linspace(-0.5 * math.pi, 0.5 * math.pi, panels + 1)
    return panel_points(edges, order)


def _gradient_point_2d(kernel, nu, handle, x, quad, dot_with=None):
    _kern.moments(kernel)
    nu2 = _nu_unit2(nu)
    rot = _rotation_to(nu2)
    x = np.asarray(x, dtype=float)
    sup_u = _sup_norm_estimate(handle, x, 2)
    top, closed_tail = _tail_start(kernel, sup_u, quad.abs_tol)
    t0 = _inner_start(kernel, handle.lipschitz, quad.abs_tol, 2, math.pi)
    t, wt = _radial_nodes(kernel, t0, top, quad)
    radial_w = wt * _kern.eval(kernel, t) * t
    theta, wtheta = _theta_rule()
    dirs = (rot @ np.stack([np.cos(theta), np.sin(theta)])).T
    pts = x[None, None, :] + t[:, None, None] * dirs[None, :, :]
    ux = float(handle(x[None, :])[0])
    vals = handle(pts.reshape(-1, 2)).reshape(len(t), len(theta))
    profile = radial_w @ (vals - ux)
    if dot_with is None:
        out = (dirs * (wtheta * profile)[:, None]).sum(axis=0)
        if closed_tail:
            out -= ux * _kern.radial_integral(kernel, top, math.inf, 1) \
                * 2.0 * nu2
        return out
    comp = dirs @ np.asarray(dot_with, dtype=float)
    out = float(np.sum(wtheta * profile * comp))
    if closed_tail:
        out -= ux * _kern.radial_integral(kernel, top, math.inf, 1) \
            * 2.0 * float(nu2 @ np.asarray(dot_with, dtype=float))
    return out


def gradient_pointwise(kernel, nu, u, x, quad=None):
    """Half-space nonlocal gradient of u at the point x.

    Returns a length-d vector.  u may be a bare vectorized callable or a
    SmoothFunction; singular kernels require the Lipschitz constant.
    """
    quad = quad or QuadratureSpec()
    handle = as_handle(u)
    if kernel.d == 1:
        val = _gradient_values_1d(kernel, nu, handle,
                                  np.array([float(x)]), quad)[0]
        return np.array([val])
    return _gradient_point_2d(kernel, nu, handle, x, quad)


def divergence_pointwise(kernel, nu, v, x, quad=None):
    """Half-space nonlocal divergence of a vector field handle at x."""
    quad = quad or QuadratureSpec()
    handle = as_handle(v)
    if kernel.d == 1:
        val = _gradient_values_1d(kernel, nu, handle,
                                  np.array([float(x)]), quad)[0]
        return float(val)
    total = 0.0
    for j in range(2):
        comp = SmoothFunction(
            fn=(lambda pts, jj=j: np.asarray(handle(pts))[..., jj]),
            lipschitz=handle.lipschitz,
            support_radius=handle.support_radius,
            sup_norm=handle.sup_norm)
        e = np.zeros(2)
        e[j] = 1.0
        total += _gradient_point_2d(kernel, nu, comp, x, quad, dot_with=e)
    return total


def _symbol_line(kernel, nu, n, length):
    """Symbol values on the nonnegative fft frequencies k/L, k=0..n//2."""
    return _symbol_values(kernel, nu, np.arange(n // 2 + 1) / length)[:, 0]


def _aliasing_fraction(coeffs):
    energy = np.abs(coeffs) ** 2
    total = energy.sum()
    if total == 0.0:
        return 0.0
    n = coeffs.shape[0]
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    high = energy[k > n / 3.0].sum()
    return float(high / total)


def _require_pow2(n):
    if n < 2 or n & (n - 1):
        raise ValueError("periodic grid size must be a power of two")


def gradient_spectral(kernel, nu, field):
    """Apply the gradient to a periodic SampledField by DFT multiplication.

    The output is real up to roundoff; the imaginary residue is asserted
    below 1e-10 of the field scale and discarded.
    """
    if field.kind != "scalar":
        raise ValueError("spectral gradient expects a scalar field")
    if not field.periodic:
        raise ValueError("spectral gradient needs a periodic grid")
    scale = max(1.0, float(np.max(np.abs(field.values))))
    if kernel.d == 1:
        n = field.values.shape[0]
        _require_pow2(n)
        length = float(field.domain)
        uhat = np.fft.fft(field.values)
        if _aliasing_fraction(uhat) > 0.01:
            warnings.warn("top-third Fourier modes carry more than 1% of "
                          "the energy; spectral gradient may alias")
        line = _symbol_line(kernel, nu, n, length)
        freqs = np.fft.fftfreq(n, d=length / n)
        idx = np.minimum(np.abs(np.rint(freqs * length)).astype(int), n // 2)
        lam = np.where(freqs >= 0, line[idx], np.conj(line[idx]))
        out = np.fft.ifft(lam * uhat)
        assert np.max(np.abs(out.imag)) <= 1e-10 * scale
        return SampledField(field.domain, out.real, kind="vector")
    nx, ny = field.values.shape
    _require_pow2(nx)
    _require_pow2(ny)
    lx, ly = (float(t) for t in field.domain)
    uhat = np.fft.fft2(field.values)
    kx = np.abs(np.fft.fftfreq(nx, d=1.0 / nx))
    ky = np.abs(np.fft.fftfreq(ny, d=1.0 / ny))
    energy = np.abs(uhat) ** 2
    mask = (kx[:, None] > nx / 3.0) | (ky[None, :] > ny / 3.0)
    if energy.sum() > 0 and energy[mask].sum() > 0.01 * energy.sum():
        warnings.warn("top-third Fourier modes carry more than 1% of the "
                      "energy; spectral gradient may alias")
    fx = np.fft.fftfreq(nx, d=lx / nx)
    fy = np.fft.fftfreq(ny, d=ly / ny)
    xis = np.stack(np.meshgrid(fx, fy, indexing="ij"), axis=-1).reshape(-1, 2)
    # lambda(-xi) = conj(lambda(xi)): evaluate one of each mirror pair, in
    # one batch, and conjugate for the other
    key = {tuple(xi): k for k, xi in enumerate(xis)}
    mirror = np.array([key.get((-a, -b), k) for k, (a, b) in enumerate(xis)])
    own = mirror >= np.arange(len(xis))
    lam = np.empty(xis.shape, dtype=complex)
    lam[own] = _symbol_values(kernel, nu, xis[own])
    lam[~own] = np.conj(lam[mirror[~own]])
    out_hat = lam.reshape(nx, ny, 2) * uhat[:, :, None]
    out = np.stack([np.fft.ifft2(out_hat[:, :, 0]),
                    np.fft.ifft2(out_hat[:, :, 1])], axis=-1)
    assert np.max(np.abs(out.imag)) <= 1e-10 * scale
    return SampledField(field.domain, out.real, kind="vector")


def localization_study(base_kernel, u, delta_list, p=2):
    """Errors of the rescaled gradient against the local gradient.

    base_kernel should carry full first moment 2d so that the rescaled
    family converges to the classical derivative.  Returns a RateTable
    whose single column fit is the observed order in delta; gridless rows
    store h = 0.
    """
    from .experiments import RateTable, estimate_rate

    if base_kernel.d != 1:
        raise ValueError("the localization study is one-dimensional")
    handle = as_handle(u)
    if handle.derivative is None:
        raise ValueError("the handle needs a derivative for comparison")
    radius = handle.support_radius if handle.support_radius is not None \
        else 1.0
    grid = np.linspace(-radius - 0.25, radius + 0.25, 241)
    spacing = grid[1] - grid[0]
    quad = QuadratureSpec()
    errors = []
    for delta in delta_list:
        scaled = _kern.rescaled(base_kernel, delta)
        grad = _gradient_values_1d(scaled, 1, handle, grid, quad)
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
    _kern.moments(kernel)
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
