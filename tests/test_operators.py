import math
import warnings

import numpy as np
import pytest

from hsnl import kernels as K
from hsnl import operators as O
from hsnl.symbols import _symbol_values, symbol


def window_linear(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= 3.0, x, 0.0)


def bump(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= 1.0, (1.0 - x ** 2) ** 2, 0.0)


def dbump(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= 1.0, -4.0 * x * (1.0 - x ** 2), 0.0)


BUMP = O.SmoothFunction(fn=bump, lipschitz=1.5396007178390021,
                        support_radius=1.0, sup_norm=1.0, derivative=dbump)


def test_gradient_of_linear_function_is_one():
    u = O.SmoothFunction(fn=window_linear, lipschitz=1.0,
                         support_radius=3.0, sup_norm=3.0)
    for nu in (1, -1):
        g = O.gradient_pointwise(K.constant_ball(), nu, u, 0.2)
        assert g.shape == (1,)
        assert g[0] == pytest.approx(1.0, abs=1e-9)


def test_gradient_of_constant_vanishes():
    u = O.SmoothFunction(fn=lambda x: np.where(np.abs(x) <= 3.0, 1.0, 0.0),
                         lipschitz=0.0, support_radius=3.0, sup_norm=1.0)
    g = O.gradient_pointwise(K.constant_ball(), 1, u, 0.1)
    assert abs(g[0]) <= 1e-12


def test_gradient_of_bump_near_local_derivative():
    # Taylor expansion of the quartic under the delta-ball kernel gives
    # u' + u'' d/3 + u''' d^2/12 + u'''' d^3/60 exactly
    delta = 0.05
    k = K.rescaled(K.constant_ball(), delta)
    g = O.gradient_pointwise(k, 1, BUMP, 0.3)[0]
    d2, d3, d4 = -4.0 + 12.0 * 0.09, 24.0 * 0.3, 24.0
    oracle = (-1.092 + d2 * delta / 3.0 + d3 * delta ** 2 / 12.0
              + d4 * delta ** 3 / 60.0)
    assert g == pytest.approx(oracle, rel=1e-12)
    assert abs(g - (-1.092)) <= 0.05


def test_singular_kernel_requires_lipschitz():
    with pytest.raises(K.AssumptionError):
        O.gradient_pointwise(K.riesz_truncated(1, 0.5), 1,
                             lambda x: np.sin(x), 0.0)


def test_divergence_equals_gradient_in_1d():
    d = O.divergence_pointwise(K.rescaled(K.constant_ball(), 0.1), 1,
                               BUMP, 0.25)
    g = O.gradient_pointwise(K.rescaled(K.constant_ball(), 0.1), 1,
                             BUMP, 0.25)
    assert d == pytest.approx(g[0], rel=1e-13)


def test_divergence_of_constant_vanishes():
    v = O.SmoothFunction(fn=lambda x: np.where(np.abs(x) <= 3.0, 0.7, 0.0),
                         lipschitz=0.0, support_radius=3.0, sup_norm=0.7)
    assert abs(O.divergence_pointwise(K.constant_ball(), -1, v, 0.0)) <= 1e-12


def vfield(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) <= 1.0, x * (1.0 - x ** 2) ** 2, 0.0)


VF = O.SmoothFunction(fn=vfield, lipschitz=1.0, support_radius=1.0,
                      sup_norm=1.0)


@pytest.mark.parametrize("kernel", [K.constant_ball(),
                                    K.riesz_truncated(1, 0.5)])
def test_integration_by_parts(kernel):
    # <G u, v> = -<u, D^{-nu} v> over a window covering both supports
    edges = np.linspace(-2.0, 2.0, 65)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    gx, gw = np.polynomial.legendre.leggauss(8)
    xs = (mid[:, None] + half * gx[None, :]).ravel()
    ws = np.tile(half * gw, len(mid))
    gu = O._apply(kernel, 1, BUMP, xs[None, :])[:, 0, 0]
    dv = O._apply(kernel, -1, VF, xs[None, :])[:, 0, 0]
    lhs = float(np.sum(ws * gu * vfield(xs)))
    rhs = -float(np.sum(ws * bump(xs) * dv))
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_gradient_linear_combination():
    # the difference form carries eps * |u| evaluation noise, which the
    # singular-kernel weight amplifies; bounded kernels meet 1e-10 while
    # truncated-riesz evaluations level off near 1e-7
    a, b = 2.5, -1.3
    combo = O.SmoothFunction(
        fn=lambda x: a * bump(x) + b * vfield(x),
        lipschitz=abs(a) * 1.54 + abs(b), support_radius=1.0, sup_norm=4.0)
    cases = [(K.constant_ball(), 1e-10),
             (K.rescaled(K.constant_ball(), 0.3), 1e-10),
             (K.riesz_truncated(1, 0.5), 5e-7)]
    for kernel, tol in cases:
        for x in (-0.7, 0.0, 0.4, 0.9, 1.3):
            lhs = O.gradient_pointwise(kernel, 1, combo, x)[0]
            rhs = (a * O.gradient_pointwise(kernel, 1, BUMP, x)[0]
                   + b * O.gradient_pointwise(kernel, 1, VF, x)[0])
            assert lhs == pytest.approx(rhs, abs=tol)


def test_spectral_linearity():
    k = K.riesz_truncated(1, 0.5)
    length, n = 2.0, 16
    x = np.arange(n) * (length / n)
    u = np.sin(2 * np.pi * x / length)
    v = np.cos(4 * np.pi * x / length)
    a, b = 2.5, -1.3
    lhs = O.gradient_spectral(k, 1, O.SampledField(length, a * u + b * v))
    rhs = (a * O.gradient_spectral(k, 1, O.SampledField(length, u)).values
           + b * O.gradient_spectral(k, 1, O.SampledField(length, v)).values)
    assert np.abs(lhs.values - rhs).max() <= 1e-12


def test_gradient_2d_linear_field_is_exact():
    def ulin(p):
        p = np.asarray(p, dtype=float)
        inside = np.linalg.norm(p, axis=-1) <= 5.0
        return np.where(inside, 1.7 * p[..., 0] - 0.6 * p[..., 1], 0.0)

    h = O.SmoothFunction(fn=ulin, lipschitz=2.0, support_radius=5.0,
                         sup_norm=10.0)
    k2 = K.constant_ball(2)
    for nu in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
        g = O.gradient_pointwise(k2, nu, h, np.array([0.3, -0.2]))
        assert np.allclose(g, [1.7, -0.6], atol=1e-10)


def test_divergence_2d_linear_field():
    def vlin(p):
        p = np.asarray(p, dtype=float)
        inside = (np.linalg.norm(p, axis=-1) <= 5.0)[..., None]
        comp = np.stack([0.4 * p[..., 0] + 1.1 * p[..., 1],
                         -0.2 * p[..., 0] + 0.9 * p[..., 1]], axis=-1)
        return np.where(inside, comp, 0.0)

    hv = O.SmoothFunction(fn=vlin, lipschitz=2.0, support_radius=5.0,
                          sup_norm=10.0)
    dv = O.divergence_pointwise(K.constant_ball(2), np.array([0.6, 0.8]),
                                hv, np.array([0.1, 0.2]))
    assert dv == pytest.approx(1.3, abs=1e-10)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_pointwise_operators_reject_a_non_finite_point(x):
    kern = K.riesz_truncated(1, 0.5)
    with pytest.raises(ValueError, match="finite"):
        O.gradient_pointwise(kern, 1, np.sin, x)
    with pytest.raises(ValueError, match="finite"):
        O.divergence_pointwise(K.constant_ball(2), np.array([0.6, 0.8]),
                               BUMP, np.array([0.1, x]))


def test_spectral_sine_mode():
    k = K.constant_ball()
    length, n = 2.0, 32
    x = np.arange(n) * (length / n)
    u = np.sin(2.0 * np.pi * x / length)
    out = O.gradient_spectral(k, 1, O.SampledField(length, u))
    assert out.kind == "vector"
    lam = symbol(k, 1, 1.0 / length).value[0]
    closed = (lam.real * np.sin(2 * np.pi * x / length)
              + lam.imag * np.cos(2 * np.pi * x / length))
    assert np.abs(out.values - closed).max() <= 1e-12
    handle = O.SmoothFunction(fn=lambda t: np.sin(2 * np.pi * t / length),
                              lipschitz=np.pi, sup_norm=1.0)
    pw = O._apply(k, 1, handle, x[None, :16])[:, 0, 0]
    assert np.abs(out.values[:16] - pw).max() <= 1e-6


@pytest.mark.filterwarnings("ignore:top-third Fourier modes")
@pytest.mark.parametrize("field", ["smooth", "random"])
def test_spectral_2d_matches_the_symbol_on_every_frequency(field):
    # one of each mirror pair is evaluated and the other conjugated; a
    # random field has energy on the Nyquist lines, where the real part of
    # the inverse transform is the Hermitian part of lambda
    k = K.rescaled(K.constant_ball(2), 0.3)
    nu = np.array([0.6, 0.8])
    nx, ny, lx, ly = 8, 16, 1.0, 2.0
    x = np.arange(nx)[:, None] * (lx / nx)
    y = np.arange(ny)[None, :] * (ly / ny)
    if field == "smooth":
        u = (np.cos(2 * np.pi * x / lx) * np.sin(2 * np.pi * y / ly)
             + 0.3 * np.sin(4 * np.pi * y / ly - 2 * np.pi * x / lx))
    else:
        u = np.random.default_rng(5).standard_normal((nx, ny))
    out = O.gradient_spectral(k, nu, O.SampledField((lx, ly), u))
    fx, fy = np.fft.fftfreq(nx, d=lx / nx), np.fft.fftfreq(ny, d=ly / ny)
    xis = np.stack(np.meshgrid(fx, fy, indexing="ij"), axis=-1)
    lam = _symbol_values(k, nu, xis.reshape(-1, 2)).reshape(nx, ny, 2)
    want = np.fft.ifft2(lam * np.fft.fft2(u)[:, :, None], axes=(0, 1))
    assert np.abs(out.values - want.real).max() <= 1e-12


@pytest.mark.filterwarnings("ignore:top-third Fourier modes")
def test_spectral_nyquist_mode_takes_the_real_part_of_the_symbol():
    # cos(pi j) lives on the Nyquist frequency n / (2 L) alone, where
    # lambda has no mirror partner on the grid
    k = K.riesz_truncated(1, 0.5)
    length, n = 2.0, 16
    u = np.cos(np.pi * np.arange(n))
    out = O.gradient_spectral(k, 1, O.SampledField(length, u))
    lam = symbol(k, 1, n / (2.0 * length)).value[0]
    assert np.abs(out.values - lam.real * u).max() <= 1e-12 * abs(lam)


def test_spectral_imaginary_residue_raises(monkeypatch):
    monkeypatch.setattr(O, "_symbol_values", lambda kernel, nu, xis:
                        np.full((len(xis), 1), complex(np.nan)))
    u = np.sin(2 * np.pi * np.arange(16) / 16)
    with pytest.raises(ArithmeticError, match="imaginary residue"):
        O.gradient_spectral(K.constant_ball(), 1, O.SampledField(2.0, u))


def test_spectral_constant_is_zero():
    out = O.gradient_spectral(K.constant_ball(), 1,
                              O.SampledField(2.0, np.ones(16)))
    assert np.abs(out.values).max() == 0.0


def test_spectral_parseval():
    k = K.riesz_truncated(1, 0.4)
    length, n = 2.0, 32
    x = np.arange(n) * (length / n)
    u = np.sin(2 * np.pi * x / length) + 0.3 * np.cos(6 * np.pi * x / length)
    out = O.gradient_spectral(k, 1, O.SampledField(length, u))
    uhat = np.fft.fft(u)
    lam = np.array([symbol(k, 1, f).value[0] if f >= 0
                    else np.conj(symbol(k, 1, -f).value[0])
                    for f in np.fft.fftfreq(n, d=length / n)])
    lhs = np.sum(np.abs(out.values) ** 2) * (length / n)
    rhs = np.sum(np.abs(lam * uhat) ** 2) / n * (length / n)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_spectral_translation_equivariance():
    k = K.constant_ball()
    length, n = 2.0, 32
    x = np.arange(n) * (length / n)
    u = np.exp(np.cos(2 * np.pi * x / length))
    base = O.gradient_spectral(k, 1, O.SampledField(length, u))
    shifted = O.gradient_spectral(k, 1, O.SampledField(length, np.roll(u, 1)))
    assert np.abs(shifted.values - np.roll(base.values, 1)).max() <= 5e-13


def test_spectral_aliasing_warning():
    spiky = np.zeros(32)
    spiky[::2] = 1.0
    with pytest.warns(UserWarning, match="alias"):
        O.gradient_spectral(K.constant_ball(), 1, O.SampledField(2.0, spiky))
    smooth = np.sin(2 * np.pi * np.arange(32) / 32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        O.gradient_spectral(K.constant_ball(), 1, O.SampledField(2.0, smooth))


def test_spectral_input_validation():
    with pytest.raises(ValueError):
        O.gradient_spectral(K.constant_ball(), 1,
                            O.SampledField(2.0, np.ones(12)))
    with pytest.raises(ValueError):
        O.gradient_spectral(K.constant_ball(), 1,
                            O.SampledField(np.linspace(0, 1, 8),
                                           np.ones(8)))
    with pytest.raises(ValueError):
        O.gradient_spectral(K.constant_ball(), 1,
                            O.SampledField(2.0, np.ones(16), kind="vector"))


def test_sampled_field_checks():
    with pytest.raises(ValueError):
        O.SampledField(np.linspace(0, 1, 5), np.ones(4))
    with pytest.raises(ValueError):
        O.SampledField(1.0, np.ones(4), kind="tensor")
    f = O.SampledField(2.0, np.ones(8))
    assert f.periodic


def test_spectral_2d_matches_pointwise():
    k2 = K.constant_ball(2)
    lengths = (4.0, 4.0)
    n = 8
    gx = np.arange(n) * (lengths[0] / n)
    xx, yy = np.meshgrid(gx, gx, indexing="ij")
    vals = (np.sin(2 * np.pi * xx / lengths[0])
            + 0.5 * np.cos(2 * np.pi * (xx + yy) / lengths[0]))
    out = O.gradient_spectral(k2, np.array([1.0, 0.0]),
                              O.SampledField(lengths, vals))
    assert out.values.shape == (n, n, 2)

    def uh(p):
        p = np.asarray(p, dtype=float)
        return (np.sin(2 * np.pi * p[..., 0] / lengths[0])
                + 0.5 * np.cos(2 * np.pi * (p[..., 0] + p[..., 1])
                               / lengths[0]))

    h = O.SmoothFunction(fn=uh, lipschitz=3.0, sup_norm=1.5)
    for (i, j) in ((1, 2), (5, 7)):
        pw = O.gradient_pointwise(k2, np.array([1.0, 0.0]), h,
                                  np.array([gx[i], gx[j]]))
        assert np.abs(out.values[i, j] - pw).max() <= 1e-6


def test_localization_rate_near_one():
    deltas = [0.2, 0.1, 0.05, 0.025]
    table = O.localization_study(K.constant_ball(), BUMP, deltas, p=2)
    errors = [r[2] for r in table.rows]
    assert errors[0] == pytest.approx(0.31889041181421, rel=1e-9)
    assert errors[-1] == pytest.approx(0.041981609309014414, rel=1e-9)
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert 0.8 <= table.diag_order <= 1.2
    sup_table = O.localization_study(K.constant_ball(), BUMP, deltas,
                                     p=math.inf)
    assert 0.8 <= sup_table.diag_order <= 1.2


def test_localization_exact_for_linear():
    u = O.SmoothFunction(fn=window_linear, lipschitz=1.0,
                         support_radius=1.0, sup_norm=4.0,
                         derivative=lambda x: np.ones_like(x))
    table = O.localization_study(K.constant_ball(), u, [0.2, 0.1], p=math.inf)
    assert max(r[2] for r in table.rows) <= 1e-9


def test_localization_requires_derivative():
    with pytest.raises(ValueError):
        O.localization_study(K.constant_ball(), O.SmoothFunction(fn=bump),
                             [0.1])


def test_radial_identity():
    lhs, rhs = O.direction_moment_matrix(
        K.rescaled(K.constant_ball(2), 0.5), np.array([0.0, 1.0]))
    assert np.abs(lhs - rhs).max() <= 1e-8
    lhs2, rhs2 = O.direction_moment_matrix(K.riesz_truncated(2, 0.5),
                                           np.array([1.0, 0.0]))
    assert np.abs(lhs2 - rhs2).max() <= 1e-8
    lhs1, rhs1 = O.direction_moment_matrix(K.constant_ball(), 1)
    assert lhs1[0, 0] == pytest.approx(rhs1[0, 0], rel=1e-14)
    with pytest.raises(K.AssumptionError):
        O.direction_moment_matrix(K.fractional_vanishing(1, 0.2,
                                                         normalize=False), 1)


def _swirl(p):
    p = np.asarray(p, dtype=float)
    bump2 = np.exp(-(p[..., 0] ** 2 + 2.0 * p[..., 1] ** 2))
    return np.stack([bump2 * np.sin(p[..., 0] + 0.5 * p[..., 1]),
                     bump2 * (p[..., 0] * p[..., 1] + 0.3)], axis=-1)


@pytest.mark.parametrize("kernel", [K.rescaled(K.constant_ball(2), 0.3),
                                    K.riesz_truncated(2, 0.5),
                                    K.fractional_vanishing(2, 0.3)])
def test_divergence_2d_is_the_trace_of_the_component_gradients(kernel):
    field = O.SmoothFunction(fn=_swirl, lipschitz=3.0, sup_norm=1.5)
    nu, x = np.array([0.6, -0.8]), np.array([0.2, -0.1])
    parts = [O.gradient_pointwise(
        kernel, nu, O.SmoothFunction(fn=lambda p, j=j: _swirl(p)[..., j],
                                     lipschitz=3.0, sup_norm=1.5), x)[j]
        for j in range(2)]
    div = O.divergence_pointwise(kernel, nu, field, x)
    assert div == pytest.approx(sum(parts), rel=1e-13)


def test_divergence_2d_builds_one_radial_rule(monkeypatch):
    calls = []
    real = O._radial_nodes

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(O, "_radial_nodes", counted)
    field = O.SmoothFunction(fn=_swirl, lipschitz=3.0, sup_norm=1.5)
    O.divergence_pointwise(K.riesz_truncated(2, 0.5), np.array([1.0, 0.0]),
                           field, np.array([0.1, 0.2]))
    assert len(calls) == 1
