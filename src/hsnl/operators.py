"""Pointwise and spectral application of the half-space nonlocal operators.

The pointwise path integrates the difference form

    G u(x) = int_{z . nu >= 0} (z/|z|) w(|z|) (u(x+z) - u(x)) dz

directly: the difference is O(|z|) near the origin for Lipschitz u, so the
integral is absolutely convergent whenever the first moment of the kernel
over the unit ball is finite and no principal value is ever needed.  The
quadrature drops a tiny origin neighbourhood whose contribution is bounded
by the Lipschitz constant times a partial moment, integrates the rest in
polar form z = t theta, on graded Gauss panels in t times a rule for the
directions theta . nu >= 0 (nu itself in d=1, Gauss panels on the
half-circle in d=2), and replaces the far tail (where u has decayed) by
the closed-form tail mass times -u(x).  The gradient, the divergence (its
trace on a vector field) and the localization study share this one rule.

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
_SUP_SAMPLES = {1: 4097, 2: 129}    # sup-norm samples per axis, by d


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


def _values(handle, pts):
    """Values of a k-component handle at the points pts, a (d, ...) array
    of coordinates, as a (k, ...) array.  A d=1 handle takes the
    coordinates themselves, a d=2 handle an (N, 2) array of points."""
    d, lead = pts.shape[0], pts.shape[1:]
    vals = np.asarray(handle(pts[0] if d == 1 else pts.reshape(d, -1).T),
                      dtype=float)
    return vals.reshape(math.prod(lead), -1).T.reshape((-1,) + lead)


def _sup_norm_estimate(handle, xs):
    if handle.sup_norm is not None:
        return handle.sup_norm
    radius = handle.support_radius if handle.support_radius is not None \
        else 64.0
    axes = [np.linspace(c - radius, c + radius, _SUP_SAMPLES[len(xs)])
            for c in xs.mean(axis=1)]
    pts = np.stack(np.meshgrid(*axes))
    return float(np.max(np.abs(_values(handle, pts))))


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


def _directions(nu, d, panels=8):
    """Unit directions (m, d) and weights (m,) of a rule on the half-sphere
    theta . nu >= 0: nu itself in d=1, and in d=2 the half-circle on
    16-point Gauss panels, rotated to nu."""
    if d == 1:
        return np.array([[_nu_sign(nu)]]), np.ones(1)
    edges = np.linspace(-0.5 * math.pi, 0.5 * math.pi, panels + 1)
    theta, weights = panel_points(edges, 16)
    rot = _rotation_to(_nu_unit2(nu))
    return (rot @ np.stack([np.cos(theta), np.sin(theta)])).T, weights


def _apply(kernel, nu, handle, xs):
    """Half-space gradient of each component of the handle at each column
    of xs, a (d, n) array: an (n, d, k) array for a k-component handle.

    G u(x) = sum_theta w_theta theta P(x, theta), where the radial profile
    P(x, theta) = int_0^top w(t) t^(d-1) (u(x + t theta) - u(x)) dt minus
    u(x) times the closed-form mass of w(t) t^(d-1) beyond top.
    """
    if not np.all(np.isfinite(xs)):
        raise ValueError("the gradient points must be finite")
    _kern.standing_moments(kernel)
    d = kernel.d
    top, closed_tail = _tail_start(kernel, _sup_norm_estimate(handle, xs))
    t0 = _inner_start(kernel, handle.lipschitz, d,
                      _kern.surface_measure(d) / 2.0)
    t, wt = _radial_nodes(kernel, t0, top)
    radial_w = wt * _kern.eval(kernel, t) * t ** (d - 1)
    tail = _kern.radial_integral(kernel, top, math.inf, d - 1) \
        if closed_tail else 0.0
    dirs, wdir = _directions(nu, d)
    ux = _values(handle, xs)
    # (d, n, m, nt) points and (k, n, m, nt) differences: the radial nodes
    # run along the last, contiguous axis
    pts = xs[:, :, None, None] + (dirs.T[:, :, None] * t)[:, None]
    diff = _values(handle, pts) - ux[:, :, None, None]
    profile = (diff.reshape(-1, len(t)) @ radial_w).reshape(diff.shape[:-1])
    profile -= ux[:, :, None] * tail
    terms = dirs.T[:, None, None, :] * (wdir * profile)
    # -0.0 is the exact additive identity: one direction keeps its bits
    return terms.sum(axis=-1, initial=-0.0).transpose(2, 0, 1)


def gradient_pointwise(kernel, nu, u, x):
    """Half-space nonlocal gradient of u at the point x.

    Returns a length-d vector.  u may be a bare vectorized callable or a
    SmoothFunction; singular kernels require the Lipschitz constant.
    """
    xs = np.asarray(x, dtype=float).reshape(kernel.d, 1)
    return _apply(kernel, nu, as_handle(u), xs)[0, :, 0]


def divergence_pointwise(kernel, nu, v, x):
    """Half-space nonlocal divergence of a vector field handle at x."""
    xs = np.asarray(x, dtype=float).reshape(kernel.d, 1)
    grad = _apply(kernel, nu, as_handle(v), xs)[0]
    if grad.shape[1] != kernel.d:
        raise ValueError("the divergence needs a %d-component field"
                         % kernel.d)
    return float(np.diagonal(grad).sum(initial=-0.0))


def _require_pow2(n):
    if n < 2 or n & (n - 1):
        raise ValueError("periodic grid size must be a power of two")


def gradient_spectral(kernel, nu, field):
    """Apply the gradient to a periodic SampledField by DFT multiplication.

    On Nyquist lines lambda is replaced by its Hermitian part
    (lambda(k) + conj(lambda(-k mod n))) / 2, so the output is real up to
    roundoff; an imaginary residue above 1e-10 of the field scale (or a
    NaN) raises ArithmeticError, and a smaller one is discarded.  In d=1
    the result holds one value per sample, in d=2 a 2-vector per sample.
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
    wrap = np.ravel_multi_index(-idx, shape, mode="wrap")
    mirror = np.where(nyquist, flat, wrap)
    own = mirror >= flat
    lam = np.empty(xis.shape, dtype=complex)
    lam[own] = _symbol_values(kernel, nu, xis[own] if d > 1 else xis[own, 0])
    lam[~own] = np.conj(lam[mirror[~own]])
    # a real field's transform is Hermitian, uhat(-k mod n) =
    # conj(uhat(k)); with the Hermitian part of lambda on the Nyquist
    # lines, so is lambda * uhat, and its inverse transform is real
    lam[nyquist] = 0.5 * (lam[nyquist] + np.conj(lam[wrap[nyquist]]))
    out = np.fft.ifftn(lam.reshape(shape + (d,)) * uhat[..., None],
                       axes=tuple(range(d)))
    residue = np.max(np.abs(out.imag))
    if not residue <= 1e-10 * scale:
        raise ArithmeticError("spectral gradient has an imaginary residue "
                              "%.3e of the field scale" % (residue / scale))
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
        grad = _apply(scaled, 1, handle, grid[None, :])[:, 0, 0]
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
    radial = _kern.radial_integral(kernel, 0.0, math.inf, d)
    dirs, wdir = _directions(nu, d, panels=4)
    angular = (dirs[:, :, None] * dirs[:, None, :]
               * wdir[:, None, None]).sum(axis=0)
    return radial * angular, rhs
