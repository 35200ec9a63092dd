import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hsnl import kernels as K
from hsnl import symbols as S


def closed_form_ball(xi):
    # profile 2 on (0,1): 2((e^{2 pi i xi} - 1)/(2 pi i xi) - 1), written in
    # a half-angle form that stays accurate near xi = 0
    if xi == 0.0:
        return 0.0 + 0.0j
    y = 2.0 * math.pi * xi
    return complex(2.0 * (math.sin(y) / y - 1.0),
                   4.0 * math.sin(0.5 * y) ** 2 / y)


def test_constant_ball_symbol_closed_form_points():
    k = K.constant_ball()
    assert S.symbol(k, 1, 1.0).value[0] == pytest.approx(-2.0 + 0.0j,
                                                         abs=1e-12)
    assert S.symbol(k, 1, 0.5).value[0] == pytest.approx(
        -2.0 + (4.0 / math.pi) * 1j, abs=1e-12)


@given(st.floats(min_value=-200.0, max_value=200.0))
def test_constant_ball_symbol_matches_closed_form(xi):
    k = K.constant_ball()
    got = S.symbol(k, 1, xi).value[0]
    want = closed_form_ball(xi)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_symbol_zero_frequency_is_exactly_zero():
    assert S.symbol(K.riesz_truncated(1, 0.5), 1, 0.0).value[0] == 0.0
    v = S.symbol(K.constant_ball(2), np.array([0.6, 0.8]),
                 np.array([0.0, 0.0])).value
    assert v[0] == 0.0 and v[1] == 0.0


def test_riesz_symbol_oracle_values():
    # frozen from a 40-digit independent evaluation of
    # int_0^1 r^{-3/2}(e^{2 pi i xi r} - 1) dr
    k = K.riesz_truncated(1, 0.5)
    cases = {
        0.5: -2.3441899359944579341 + 4.69960688811024055j,
        3.7: -10.125737380605042039 + 12.101749514571604017j,
        50.0: -42.428844578414136373 + 44.425646403645785445j,
    }
    for xi, want in cases.items():
        assert S.symbol(k, 1, xi).value[0] == pytest.approx(want, rel=1e-11)


def test_fractional_symbol_oracle_values():
    # lambda(1) for the raw kernel 2 delta |z|^{delta-2}, against the
    # gamma-function closed form of the two limit integrals
    cases = {
        0.05: -0.92163386116839795456 + 11.710468531796878301j,
        0.1: -1.7291094449880327587 + 10.917167377332114941j,
        0.2: -3.0859491907793207872 + 9.4975750210208108827j,
    }
    for dl, want in cases.items():
        k = K.fractional_vanishing(1, dl, normalize=False)
        assert S.symbol(k, 1, 1.0).value[0] == pytest.approx(want, rel=1e-11)


def test_log_regularized_symbol_oracle_value():
    # frozen from a QAWO/Fourier-weight adaptive quadrature reference
    k = K.log_regularized(1, 0.2)
    want = -4.979018396941246 + 3.8357433436508193j
    assert S.symbol(k, 1, 2.0).value[0] == pytest.approx(want, rel=2e-8)


def test_hermitian_symmetry_d1():
    k = K.riesz_truncated(1, 0.5)
    rng = np.random.default_rng(11)
    for xi in rng.uniform(-50.0, 50.0, size=1000):
        a = S.symbol(k, 1, xi).value[0]
        b = S.symbol(k, 1, -xi).value[0]
        assert abs(b - np.conj(a)) <= 1e-10 * max(1.0, abs(a))


def test_direction_reflection_d1():
    k = K.log_regularized(1, 0.1)
    for xi in (0.3, 2.0, 17.5):
        plus = S.symbol(k, 1, xi).value[0]
        minus = S.symbol(k, -1, xi).value[0]
        assert minus == pytest.approx(-np.conj(plus), rel=1e-14)


def test_symbol_d2_oracle():
    k = K.constant_ball(2)
    v = S.symbol(k, np.array([1.0, 0.0]), np.array([0.7, -0.3])).value
    assert v[0] == pytest.approx(-2.4402935900328305673
                                 + 0.4654263127074497104j, rel=1e-10)
    assert v[1] == pytest.approx(0.83044049793756450051
                                 - 0.1994684197317641616j, rel=1e-10)


def test_rotation_covariance_d2():
    k = K.constant_ball(2)
    rng = np.random.default_rng(23)
    xi = np.array([1.1, -0.4])
    nu = np.array([0.6, 0.8])
    base = S.symbol(k, nu, xi).value
    for _ in range(100):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        rot = np.array([[math.cos(phi), -math.sin(phi)],
                        [math.sin(phi), math.cos(phi)]])
        lhs = S.symbol(k, rot @ nu, rot @ xi).value
        assert np.linalg.norm(lhs - rot @ base) <= 1e-8


def test_hermitian_symmetry_d2():
    k = K.constant_ball(2)
    rng = np.random.default_rng(5)
    nu = np.array([1.0, 0.0])
    for _ in range(25):
        xi = rng.uniform(-8.0, 8.0, size=2)
        a = S.symbol(k, nu, xi).value
        b = S.symbol(k, nu, -xi).value
        assert np.linalg.norm(b - np.conj(a)) <= 1e-10


def test_eta_closed_form_d1():
    got = S.symbol_eta(0.1, 1, 5.0, 1)[0]
    assert got == pytest.approx(-1.0 - (2.0 / math.pi) * 1j, rel=1e-13)
    assert S.symbol_eta(0.3, 1, 0.0, 1)[0] == 0.0


def test_eta_d2_oracle():
    # frozen from an independent double quadrature of
    # int int u_j(th) (e^{-2 pi i tau xi.u r} - 1) r dr dth
    got = S.symbol_eta(0.05, np.array([1.0, 0.0]), np.array([3.0, 4.0]), 2)
    assert got[0] == pytest.approx(-0.2526978250269003
                                   - 0.4086038481045944j, rel=1e-10)
    assert got[1] == pytest.approx(-0.17045070014704153
                                   - 0.5448051308061258j, rel=1e-10)


def test_eta_envelope_bound():
    rng = np.random.default_rng(17)
    for _ in range(100):
        tau = 10.0 ** rng.uniform(-3, 0)
        xi = rng.uniform(-20.0, 20.0, size=2)
        mag = np.linalg.norm(S.symbol_eta(tau, np.array([1.0, 0.0]), xi, 2))
        assert mag <= S.eta_bound(2, tau, np.linalg.norm(xi)) + 1e-8
    for _ in range(50):
        tau = 10.0 ** rng.uniform(-3, 0)
        xi = rng.uniform(-40.0, 40.0)
        mag = abs(S.symbol_eta(tau, 1, xi, 1)[0])
        assert mag <= S.eta_bound(1, tau, abs(xi)) + 1e-8


def test_eta_rejects_bad_tau():
    with pytest.raises(ValueError):
        S.symbol_eta(0.0, 1, 1.0, 1)


def test_linear_bound_reports():
    grid = list(np.geomspace(0.1, 100.0, 25))
    for k in (K.constant_ball(), K.riesz_truncated(1, 0.5),
              K.fractional_vanishing(1, 0.1)):
        rep = S.check_linear_bound(k, 1, grid)
        assert rep.passed
        assert rep.margin >= -1e-8
    # integrable kernel: the flat bound 2||w||_1 caps the rhs at high xi
    rep = S.check_linear_bound(K.constant_ball(), 1, [50.0])
    assert rep.rhs[0] == pytest.approx(8.0, rel=1e-12)


def test_small_xi_lower_bound():
    rep = S.check_lower_bound_small_xi(K.constant_ball(), 1)
    assert rep.passed and rep.margin > 0.0
    # |lambda(xi)|/|xi| -> pi * (full first moment) = 2 pi
    assert rep.lhs[-1] / rep.grid[-1] == pytest.approx(2.0 * math.pi,
                                                       rel=1e-3)
    rep2 = S.check_lower_bound_small_xi(K.riesz_truncated(1, 0.5), 1)
    assert rep2.passed and rep2.margin > 0.0
    rep3 = S.check_lower_bound_small_xi(K.fractional_vanishing(1, 0.2), 1)
    assert rep3.passed and "tail cut" in rep3.note


def test_large_xi_lower_bound():
    rep = S.check_lower_bound_large_xi(K.constant_ball(), 1, N=1.0, eps=0.5)
    assert rep.passed and rep.margin > 0.0
    # closed form: Re lambda = 2(sin(2 pi xi)/(2 pi xi) - 1)
    for xi, re_got in zip(rep.grid, rep.lhs):
        want = abs(2.0 * (math.sin(2 * math.pi * xi) / (2 * math.pi * xi)
                          - 1.0))
        assert re_got == pytest.approx(want, rel=1e-9)
    rep2 = S.check_lower_bound_large_xi(K.riesz_truncated(1, 0.5), 1)
    assert rep2.passed and rep2.margin > 0.0


def test_large_xi_log_truncated_is_report_only():
    rep = S.check_lower_bound_large_xi(K.log_truncated(1, 0.1), 1)
    assert "no pass/fail claim" in rep.note
    assert rep.passed  # no claim is made either way
    assert math.isfinite(rep.margin)


def test_fractional_sandwich_spread():
    grid = list(np.geomspace(0.1, 100.0, 31))
    rep = S.check_fractional_sandwich(0.1, 1, grid)
    assert rep.passed
    # exact self-similarity of the full-space fractional kernel makes the
    # ratio |lambda|/|xi|^{1-delta} constant; allow quadrature noise
    lo, hi = rep.rhs
    assert hi / lo < 1.001
    assert hi / lo >= 1.0


def test_riesz_scaled_ratio_bounded():
    grid = list(np.geomspace(1.0, 100.0, 21))
    for s in (0.5, 0.7, 0.9):
        k = K.riesz_truncated(1, s)
        ratios = [abs(S.symbol(k, 1, t).value[0]) / t ** s for t in grid]
        spread = max(ratios) / min(ratios)
        assert min(ratios) > 0.0
        assert spread < 50.0


def test_compactness_ratio_scan_decreases_with_tau():
    grid = list(np.geomspace(0.01, 100.0, 31))
    taus = [1e-1, 1e-2, 1e-3, 1e-4]
    rows = S.compactness_ratio_scan(lambda s: K.riesz_truncated(1, s),
                                    [0.5], taus, grid)
    assert [r["tau"] for r in rows] == taus
    sups = [r["sup_ratio"] for r in rows]
    assert all(r["passed"] for r in rows)
    assert all(b < a for a, b in zip(sups, sups[1:]))
    # linear regime: halving tau roughly halves the supremum
    half = S.compactness_ratio_scan(lambda s: K.riesz_truncated(1, s),
                                    [0.5], [2e-3, 1e-3], grid)
    assert half[0]["sup_ratio"] / half[1]["sup_ratio"] == pytest.approx(
        2.0, rel=0.3)


def test_scaling_identity():
    rep = S.scaling_identity_check(K.constant_ball(), [0.25, 1.0, 2.0],
                                   [0.5, 2.0, 11.0])
    assert rep.passed and rep.margin <= 1e-6
    got = S.symbol(K.rescaled(K.constant_ball(), 0.25), 1, 2.0).value[0]
    assert got == pytest.approx(4.0 * closed_form_ball(0.5), rel=1e-10)


def test_appendix_limit_table():
    rows = S.appendix_limit_table([1e-3, 1e-2, 1e-1])
    oracle = {
        1e-3: (6.2743008618804346048, -0.0098556568530020283823),
        1e-2: (6.194953125355736581, -0.097318100364349216608),
        1e-1: (5.4585836886660574703, -0.86455472249401637936),
    }
    for row in rows:
        want_sin, want_cos = oracle[row["delta"]]
        assert row["sin_integral"] == pytest.approx(want_sin, rel=1e-8)
        assert row["cos_integral"] == pytest.approx(want_cos, rel=1e-8)
        assert abs(row["cos_integral"]) <= 2.0 * math.pi ** 2 * row["delta"]
        # truncating the upper limit at 1 moves either integral by <= 4 delta
        assert abs(row["sin_integral"] - row["sin_upto1"]) <= 4 * row["delta"]
        assert abs(row["cos_integral"] - row["cos_upto1"]) <= 4 * row["delta"]
    assert abs(rows[0]["sin_integral"] - 2.0 * math.pi) <= 0.05


def test_ortho_basis_examples():
    ob = S.ortho_basis([1.0, 0.0])
    assert np.allclose(ob.matrix[:, 0], [0.0, -1.0])
    r = 1.0 / math.sqrt(2.0)
    ob2 = S.ortho_basis([r, -r])
    assert np.allclose(ob2.matrix[:, 0], [r, r], atol=1e-12)


def test_ortho_basis_properties():
    rng = np.random.default_rng(31)
    for d in (2, 3, 4):
        for _ in range(20):
            mu = rng.normal(size=d)
            mu[0] = abs(mu[0]) + 0.05
            ob = S.ortho_basis(mu)
            m = ob.matrix
            assert np.abs(m.T @ m - np.eye(d)).max() <= 1e-12
            assert np.allclose(m[:, -1], ob.mu, atol=1e-12)
            assert np.all(m[0, :-1] >= -1e-15)
            s = np.sqrt(np.cumsum(ob.mu ** 2))
            for kk in range(1, d):
                want = ob.mu[0] * abs(ob.mu[kk]) / (s[kk - 1] * s[kk])
                assert m[0, kk - 1] == pytest.approx(want, abs=1e-12)


def test_ortho_basis_domain_errors():
    with pytest.raises(ValueError):
        S.ortho_basis([-1.0, 0.0])
    with pytest.raises(ValueError):
        S.ortho_basis([0.0, 1.0])
    with pytest.raises(ValueError):
        S.ortho_basis([1.0])


def test_cutoff_perturbation_bounded_by_tail_mass():
    k = K.fractional_vanishing(1, 0.3)
    kc = K.cutoff(k, 1.0)
    m2 = K.tail_mass(k, 1.0)
    for xi in (0.5, 3.0, 20.0):
        a = S.symbol(k, 1, xi).value[0]
        b = S.symbol(kc, 1, xi).value[0]
        assert abs(a - b) <= 2.0 * m2 + 1e-8


def test_symbol_rejects_degenerate_kernel():
    dead = K.tabulated(1, [0.5, 1.0], [0.0, 0.0])
    with pytest.raises(K.AssumptionError):
        S.symbol(dead, 1, 1.0)


def test_symbol_sample_fields():
    samp = S.symbol(K.constant_ball(), 1, 0.5)
    assert np.allclose(samp.value, samp.re_part + 1j * samp.im_part)
    assert samp.xi.shape == (1,)


# ---------------------------------------------------------------------------
# The batched half-line engine against the scalar oracle.
# ---------------------------------------------------------------------------

ORACLE_KERNELS = {
    "constant_ball": lambda d: K.constant_ball(d),
    "riesz_truncated": lambda d: K.riesz_truncated(d, 0.4),
    "fractional_vanishing": lambda d: K.fractional_vanishing(d, 0.2),
    "log_regularized": lambda d: K.log_regularized(d, 0.1),
    "log_truncated": lambda d: K.log_truncated(d, 0.05),
    "tabulated": lambda d: K.tabulated(d, [0.05, 0.2, 0.6, 1.3],
                                       [9.0, 4.0, 1.5, 0.3]),
    "min_level": lambda d: K.min_level(K.riesz_truncated(d, 0.5), 30.0),
    "rescaled": lambda d: K.rescaled(K.constant_ball(d), 0.1),
    "cutoff": lambda d: K.cutoff(K.log_regularized(d, 0.2), 0.7),
}

# c = 0 and c < 0, Taylor-only frequencies (z1 at the support top), the
# panel zone, the far tail, and log_regularized Taylor moments on both
# sides of the split between the forward and the backward recurrence
ORACLE_CS = np.array([0.0, -0.35, -41.0, 1e-7, 0.02, 0.2, 0.26, 0.9, 2.4,
                      3.1, 8.0, 27.5, 140.0, 900.0])


def power_law_reference(kernel, c, power):
    """S(c) for a kernel of pow pieces from mpmath's incomplete gamma.

    A piece coeff r^p on (a, b) adds coeff [(-iw)^-alpha (Gamma(alpha,
    -iwa) - Gamma(alpha, -iwb)) - (b^alpha - a^alpha)/alpha] with w = 2 pi
    |c| and alpha = p + power + 1; Gamma(alpha, -i w inf) = 0, and a^alpha
    = 0 at a = 0 and b^alpha = 0 at b = inf, as analytic continuation in
    alpha gives.  Negative c take the conjugate.
    """
    import mpmath

    if c == 0.0:
        return 0j
    with mpmath.workdps(40):
        iw = 2j * mpmath.pi * abs(mpmath.mpf(c))
        total = mpmath.mpc(0)
        for kind, a, b, coeff, p in K._pieces(kernel):
            assert kind == "pow"
            alpha = mpmath.mpf(p) + power + 1
            osc = mpmath.gammainc(alpha, -iw * a)
            ends = -(a ** alpha if a > 0.0 else 0)
            if b < math.inf:
                osc -= mpmath.gammainc(alpha, -iw * b)
                ends += mpmath.mpf(b) ** alpha
            total += coeff * ((-iw) ** -alpha * osc - ends / alpha)
        value = complex(total)
    return value if c > 0.0 else value.conjugate()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("family", sorted(ORACLE_KERNELS))
def test_batched_half_line_matches_scalar_oracle(family, d):
    import symbol_oracle

    k = ORACLE_KERNELS[family](d)
    got = S._half_line_symbol(k, ORACLE_CS, d - 1)
    if family == "fractional_vanishing":
        # the scalar oracle's panels are too coarse for this kernel at
        # |c| < 1/4 (19% off at c = 1e-7, 3.1e-9 at c = 0.02), where the
        # engine takes the closed form
        want = np.array([power_law_reference(k, c, d - 1) for c in ORACLE_CS])
    else:
        want = np.array([symbol_oracle.half_line_symbol(k, c, d - 1)
                         for c in ORACLE_CS])
    assert got.shape == ORACLE_CS.shape
    assert got[0] == 0.0
    scale = np.maximum(np.abs(want), 1e-300)
    assert np.max(np.abs(got - want) / scale) <= 1e-12


POWER_LAW_KERNELS = {
    "constant_ball": lambda d: K.constant_ball(d),
    "riesz_truncated-1e-08": lambda d: K.riesz_truncated(d, 1e-8),
    "riesz_truncated-1e-05": lambda d: K.riesz_truncated(d, 1e-5),
    "riesz_truncated-0.01": lambda d: K.riesz_truncated(d, 0.01),
    "riesz_truncated-0.4": lambda d: K.riesz_truncated(d, 0.4),
    "riesz_truncated-0.99": lambda d: K.riesz_truncated(d, 0.99),
    "fractional_vanishing": lambda d: K.fractional_vanishing(d, 0.2),
    "log_truncated": lambda d: K.log_truncated(d, 0.05),
    "min_level": lambda d: K.min_level(K.riesz_truncated(d, 0.5), 30.0),
    "rescaled": lambda d: K.rescaled(K.constant_ball(d), 0.1),
}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("family", sorted(POWER_LAW_KERNELS))
def test_power_law_symbol_matches_incomplete_gamma(family, d):
    k = POWER_LAW_KERNELS[family](d)
    # just below and just above the phases 2, where a piece end passes
    # from the series to the continued fraction, and 4 pi at every finite
    # piece end
    ends = {t for piece in K._pieces(k) for t in piece[1:3]
            if 0.0 < t < math.inf}
    cs = np.concatenate([ORACLE_CS] + [phase / (2.0 * math.pi * t)
                                       * np.array([1.0 - 1e-9, 1.0 + 1e-9])
                                       for t in sorted(ends)
                                       for phase in (2.0, S._TAIL_PHASE)])
    got = S._half_line_symbol(k, cs, d - 1)
    want = np.array([power_law_reference(k, c, d - 1) for c in cs])
    assert got[0] == 0.0
    assert np.all(np.abs(got[1:] - want[1:]) <= 1e-13 * np.abs(want[1:]))


def test_power_law_kernels_never_enter_the_zones(monkeypatch):
    # pow pieces only: every frequency takes the series and the continued
    # fraction of _power_law_block, never a Taylor zone or a panel
    def entered(*args):
        raise AssertionError("zone entered")

    monkeypatch.setattr(S, "_taylor_zone", entered)
    monkeypatch.setattr(S, "_panel_zone", entered)
    for family in sorted(POWER_LAW_KERNELS):
        for d in (1, 2):
            got = S._half_line_symbol(POWER_LAW_KERNELS[family](d),
                                      ORACLE_CS, d - 1)
            assert np.all(np.isfinite(got))
    # a log_regularized kernel still takes them
    with pytest.raises(AssertionError, match="zone entered"):
        S._half_line_symbol(K.log_regularized(1, 0.1), np.array([1.9]), 0)


def _logreg_tail_from(d, coeff, dl, w, r):
    """int_r^inf coeff r^(d-1) (e^{iwr} - 1) / (r (r + dl)^d) dr from
    mpmath, z = -iw dl: coeff / dl [E1(-iwr) - e^z E1(-iw(r + dl)) -
    log1p(dl / r)] for d = 1, coeff [e^z E2(-iw(r + dl)) - 1] / (r + dl)
    for d = 2."""
    import mpmath

    z = -1j * w * dl
    if d == 1:
        return coeff / dl * (mpmath.e1(-1j * w * r)
                             - mpmath.exp(z) * mpmath.e1(-1j * w * (r + dl))
                             - mpmath.log1p(dl / r))
    return coeff * (mpmath.exp(z) * mpmath.expint(2, -1j * w * (r + dl))
                    - 1) / (r + dl)


def test_log_regularized_far_tail_matches_mpmath():
    # the tail from the panel end R to the support top, for starts on both
    # sides of 6 delta: the partial fractions below, the expansion in
    # delta/r from kernels._logreg_far_terms above; the "-1" part alone
    # was 3.6e-8 off at c = 1e-7 before it was summed from the power-law
    # terms.  A cut-off form's tail starts at phase 4 pi, below its top
    import mpmath

    for d, top in itertools.product((1, 2), (math.inf, 2.0)):
        k = K.log_regularized(d, 0.1)
        cs = np.array([1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 3.0, 3.4, 9.0, 27.5,
                       1e3])
        if top < math.inf:
            k = K.cutoff(k, top)
            cs = np.array([1.5, 3.0, 3.4, 9.0, 27.5, 1e3])
        coeff = K._pieces(k)[0][3]
        r_osc = S._zones(k, cs)[1]
        assert np.any(r_osc < 0.6) and np.any(r_osc > 0.6)
        assert np.all(r_osc < top)
        got = S._tail_zone(k, 2.0 * math.pi * cs, r_osc, d - 1)
        with mpmath.workdps(40):
            dl = mpmath.mpf(0.1)
            for c, r, value in zip(cs, r_osc, got):
                w = 2 * mpmath.pi * mpmath.mpf(c)
                want = _logreg_tail_from(d, coeff, dl, w, mpmath.mpf(r))
                if top < math.inf:
                    want -= _logreg_tail_from(d, coeff, dl, w,
                                              mpmath.mpf(top))
                assert abs(value - complex(want)) <= 1e-15 * abs(want), \
                    (d, top, c)


def log_regularized_reference(kernel, c, power):
    """S(c) of a logreg piece coeff / (r (r + dl)^d) on (0, R), d = power + 1,
    from mpmath's exponential integrals, z = -iw dl, w = 2 pi |c|:

        d = 1: coeff / dl [-gamma - log z - e^z E1(z)],
        d = 2: coeff / dl [e^z E2(z) - 1],

    less, for R < inf, the same integral from R on: coeff / dl [E1(-iwR) -
    e^z E1(-iw(R + dl)) - log1p(dl / R)] and coeff [e^z E2(-iw(R + dl)) -
    1] / (R + dl).  Negative c take the conjugate.
    """
    import mpmath

    ((_, _, big_r, coeff, dl, dd),) = K._pieces(kernel)
    assert dd == power + 1
    with mpmath.workdps(30):
        w = 2 * mpmath.pi * abs(mpmath.mpf(c))
        dl = mpmath.mpf(dl)
        z = -1j * w * dl
        if dd == 1:
            value = (-mpmath.euler - mpmath.log(z)
                     - mpmath.exp(z) * mpmath.e1(z)) / dl
        else:
            value = (mpmath.exp(z) * mpmath.expint(2, z) - 1) / dl
        if big_r < math.inf:
            big_r = mpmath.mpf(big_r)
            far = -1j * w * (big_r + dl)
            if dd == 1:
                value -= (mpmath.e1(-1j * w * big_r)
                          - mpmath.exp(z) * mpmath.e1(far)
                          - mpmath.log1p(dl / big_r)) / dl
            else:
                value -= ((mpmath.exp(z) * mpmath.expint(2, far) - 1)
                          / (big_r + dl))
        value = complex(coeff * value)
    return value if c > 0.0 else value.conjugate()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("variant", ["plain", "cutoff", "rescaled"])
def test_log_regularized_symbol_matches_closed_form(variant, d):
    base = K.log_regularized(d, 0.1)
    k = {"plain": base, "cutoff": K.cutoff(base, 1.0),
         "rescaled": K.rescaled(base, 0.5)}[variant]
    dl = K._pieces(k)[0][4]
    # |c| >= 1/4, both sides of 1/(3 delta) where the tail starts at 6
    # delta, and frequencies far past the old 3e5-panel budget
    cs = np.concatenate([np.geomspace(0.25, 1e3, 33), [-7.7, 2e5, 1e12],
                         1.0 / (3.0 * dl) * np.array([1.0 - 1e-9, 1.0 + 1e-9])])
    got = S._half_line_symbol(k, cs, d - 1)
    want = np.array([log_regularized_reference(k, c, d - 1) for c in cs])
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_logreg_moments_match_hypergeometric():
    # int_0^1 s^m (1 + u s)^-dd ds = 2F1(dd, m + 1; m + 2; -u) / (m + 1),
    # on both sides of the forward/backward split and of u = 0.9, where the
    # primitive the Taylor zone took before cancels
    import mpmath

    us = np.concatenate([np.geomspace(1e-3, 10.0, 17), [0.899, 0.901, 1.0]])
    for dd in (1, 2):
        with mpmath.workdps(30):
            want = np.array([[float(mpmath.hyp2f1(dd, m + 1, m + 2, -u)
                                    / (m + 1)) for m in range(31)]
                             for u in us])
        # the windows of the first 32 Taylor orders in d = 1 and d = 2
        for lo, hi in ((0, 31), (1, 32)):
            got = K._logreg_moments(dd, us, lo, hi)[:, :31 - lo]
            assert np.all(np.abs(got - want[:, lo:]) <= 1e-13 * want[:, lo:])


def test_memo_returns_the_same_bits_without_evaluating(monkeypatch):
    k = K.log_regularized(1, 0.1)
    cs = np.array([0.3, -2.0, 0.0, 45.0])
    first = S._half_line_symbol(k, cs, 0)

    def evaluated(*args):
        raise AssertionError("batch evaluated again")

    monkeypatch.setattr(S, "_magnitude_symbol", evaluated)
    again = S._half_line_symbol(k, cs, 0)
    assert np.array_equal(again, first)
    # the same magnitudes with the other signs: conjugates, from the memo
    assert np.array_equal(S._half_line_symbol(k, -cs, 0), np.conj(first))
    # a returned array is the caller's: changing it changes no later call
    again[:] = 7.0
    assert np.array_equal(S._half_line_symbol(k, cs, 0), first)
    # another power or kernel is another batch
    for other in ((k, 1), (K.log_regularized(1, 0.2), 0)):
        with pytest.raises(AssertionError, match="evaluated again"):
            S._half_line_symbol(other[0], cs, other[1])


def test_memo_holds_at_most_a_block_of_frequencies(monkeypatch):
    monkeypatch.setattr(S, "BLOCK_ENTRIES", 64)
    k = K.constant_ball(1)
    batches = [np.linspace(0.1, 5.0, n) + i for i, n in
               enumerate((30, 20, 30, 65, 10))]
    for cs in batches:
        S._half_line_symbol(k, cs, 0)
        assert S._MEMO._held == sum(v.size
                                    for v in S._MEMO._batches.values()) <= 64
    # the 65-entry batch is never held, and the first went out for the third
    held = [np.frombuffer(key[2]).size for key in S._MEMO._batches]
    assert held == [20, 30, 10]


def test_oracle_frequencies_reach_every_zone():
    # a cut-off log_regularized kernel (support top 0.7) takes the zones
    cut = ORACLE_KERNELS["cutoff"](1)
    z1, r_osc, n_base = S._zones(cut, np.abs(ORACLE_CS[1:]))
    assert np.any(z1 >= 0.7)                  # Taylor only
    assert np.any((z1 < 0.7) & (r_osc == 0.7))  # panels to the support top
    assert np.any(r_osc < 0.7)                # far tail
    # the first 32 Taylor orders recur forward where z1 / delta >= 16^(1/31)
    logreg = K.log_regularized(1, 0.1)
    z1, _, _ = S._zones(logreg, np.abs(ORACLE_CS[1:]))
    split = 0.1 * 16.0 ** (1.0 / 31.0)
    assert np.any(z1 < split) and np.any(z1 > split)


def test_batch_larger_than_a_block_matches_small_batches():
    rng = np.random.default_rng(3)
    cs = np.concatenate([rng.uniform(-40.0, 40.0, 4500),
                         [0.0, 600.0, -1000.0]])
    # more entries than one engine block; for tabulated, whose panels
    # cover its support, 600 is a panel group of its own and 1000 is
    # integrated in more than one slice
    assert cs.size > S.BLOCK_ENTRIES // S._COLUMNS
    n_base = S._zones(ORACLE_KERNELS["tabulated"](1),
                      np.array([600.0, 1000.0]))[2]
    assert S._GROUP_PANELS < n_base[0] < 2 * S._GROUP_PANELS < n_base[1]
    # min_level's piece end at r = 0.104 has phase 2 at |c| = 3.06, so
    # its entries split between the series and the continued fraction
    for family in ("log_regularized", "fractional_vanishing", "tabulated",
                   "min_level"):
        k = ORACLE_KERNELS[family](1)
        whole = S._half_line_symbol(k, cs, 0)
        parts = np.concatenate([S._half_line_symbol(k, cs[i:i + 500], 0)
                                for i in range(0, cs.size, 500)])
        assert np.array_equal(whole, parts)
        alone = np.array([S._half_line_symbol(k, c, 0) for c in cs])
        assert np.array_equal(whole, alone)


@pytest.mark.parametrize("e", [1.0, 0.0, -0.5, -1.5, -2.0, -2.5, -12.0,
                               -22.5, -43.0])
def test_osc_tail_matches_incomplete_gamma(e):
    import mpmath

    # int_t^inf r^e e^{i w r} dr = (-i w)^{-e-1} Gamma(e + 1, -i w t); w is
    # a power of two, so the phase w t is exact in floating point
    mpmath.mp.dps = 40
    # _power_law_block takes T from phase 2 on, the far tail from 4 pi
    phases = np.array([2.0, 2.5, 3.0, math.pi, 4.0, 2.0 * math.pi,
                       4.0 * math.pi, 13.0, 40.0, 400.0, 1e3, 1e4])
    for w in (0.5, 2.0, 8.0):
        ts = phases / w
        got = S._osc_tail(np.full(ts.size, e), np.full(ts.size, w), ts)
        iw = mpmath.mpc(0.0, w)
        for t, value in zip(ts, got):
            want = complex((-iw) ** -(e + 1.0)
                           * mpmath.gammainc(e + 1.0, -iw * t))
            assert abs(value - want) <= 1e-13 * abs(want)


def test_panels_end_at_phase_4pi():
    cs = np.array([0.26, 0.9, 3.1, 27.5, 140.0, 900.0])
    end = S._TAIL_PHASE / (2.0 * math.pi * cs)
    # an unbounded support: quarter-period panels from phase pi/2 to 4 pi
    logreg = ORACLE_KERNELS["log_regularized"](1)
    assert np.all(S._zones(logreg, cs)[2] == 7)
    # a Taylor zone cut at r = 1 keeps its panels to phase 40
    low = np.array([0.02, 0.2])
    assert np.all(S._zones(logreg, low)[1] == 40.0 / (2.0 * math.pi * low))
    # log_regularized panels end at phase 4 pi, where the partial
    # fractions of its tail take over: at most 7 panels from |c| = 1/(3
    # delta) on, where the panels reached 6 delta before
    for k in (ORACLE_KERNELS["log_regularized"](1), ORACLE_KERNELS["cutoff"](1)):
        z1, r_osc, n_base = S._zones(k, cs)
        assert np.all(r_osc == np.minimum(K.support(k)[1], end))
        assert np.all(n_base[cs >= 1.0 / (3.0 * 0.1)] <= 7)


def test_half_line_scalar_input_is_a_batch_of_one():
    k = K.riesz_truncated(1, 0.5)
    one = S._half_line_symbol(k, 3.7, 0)
    assert one.shape == ()
    assert one == S._half_line_symbol(k, np.array([1.0, 3.7]), 0)[1]


def test_half_line_rejects_nonfinite_frequency():
    with pytest.raises(ValueError, match="finite"):
        S._half_line_symbol(K.constant_ball(), np.array([1.0, np.nan]), 0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            S._symbol_values(K.constant_ball(2), np.array([1.0, 0.0]),
                             np.array([[1.0, 2.0], [bad, 0.0]]))


def test_panel_budget_raises_symbol_error():
    # a tabulated kernel takes quarter-period panels over its support
    k = ORACLE_KERNELS["tabulated"](1)
    with pytest.raises(S.SymbolError, match="3e5 panels"):
        S._half_line_symbol(k, np.array([2.0, 1e5]), 0)
    assert issubclass(S.SymbolError, RuntimeError)
    # 2 pi |c| overflows: no panels are counted, and the closed form of a
    # power-law kernel would return NaN
    for kernel in (k, K.constant_ball(), K.fractional_vanishing(1, 0.1),
                   K.log_regularized(1, 0.1)):
        with pytest.raises(S.SymbolError, match="out of supported range"):
            S._half_line_symbol(kernel, np.array([2.0, -1e308]), 0)


def test_log_regularized_profile_overflow_raises_symbol_error():
    # the first panel starts at r = 1/(4|c|), where the profile ~ 4|c| /
    # delta^d; up to there every frequency has 7 panels and no budget
    for d in (1, 2):
        k = K.log_regularized(d, 0.1)
        assert np.all(np.isfinite(S._half_line_symbol(k, np.array([2e5, 1e300]),
                                                      d - 1)))
        with pytest.raises(S.SymbolError, match="profile overflows"):
            S._half_line_symbol(k, np.array([2.0, 1e307]), d - 1)


def test_batched_d2_matches_pointwise_values(monkeypatch):
    k = K.riesz_truncated(2, 0.5)
    nu = np.array([0.6, 0.8])
    pts = [np.array([0.7, -0.3]), np.array([0.0, 0.0]),
           np.array([-12.0, 30.0]), np.array([55.0, 4.0])]
    batch = S._symbol_values(k, nu, pts)
    for xi, row in zip(pts, batch):
        assert np.array_equal(row, S.symbol(k, nu, xi).value)
    assert np.all(batch[1] == 0.0)
    # tiny blocks: several engine calls and blocks per batch, same bits
    monkeypatch.setattr(S, "BLOCK_ENTRIES", 256)
    assert np.array_equal(S._symbol_values(k, nu, pts), batch)


# ---------------------------------------------------------------------------
# The folded d=2 angle rule against the half-circle rule and the Bessel
# identity for Im lambda.
# ---------------------------------------------------------------------------

# with nu = +-e1 these give, in the nu = e1 frame, xi on either axis and
# xi = (-x, 0): phi0 = 0, phi0 = +-pi/2 and sigma = -1
FOLD_DIRECTIONS = np.array([[1.0, 0.0], [0.0, 1.0],
                            [math.cos(2.0), math.sin(2.0)]])


@pytest.mark.parametrize("family", ["constant_ball", "riesz_truncated",
                                    "log_truncated", "tabulated", "rescaled",
                                    "cutoff", "min_level"])
def test_folded_rule_matches_half_circle_rule(family):
    import symbol_oracle

    k = ORACLE_KERNELS[family](2)
    # a tabulated or cut-off log kernel takes panels over its whole support
    # at every angle node, about 3 s a row at |xi| = 200 for the oracle
    mags = [1e-3, 0.5, 3.0, 5.0, 50.0]
    if family not in ("tabulated", "cutoff"):
        mags.append(200.0)
    xis = np.concatenate([m * FOLD_DIRECTIONS for m in mags])
    for nu in (np.array([1.0, 0.0]), np.array([-1.0, 0.0])):
        assert_rows_close(S._symbol_values(k, nu, xis),
                          symbol_oracle.half_circle_symbol(k, nu, xis),
                          1e-12)


def bessel_imaginary_length(kernel, xi_norm):
    """pi int_0^inf r w(r) J_1(2 pi |xi| r) dr, the length of Im lambda(xi)
    (the imaginary part of the half-plane integrand is even in z), by
    adaptive quadrature between the kernel breakpoints and the half periods
    of the phase."""
    from scipy import integrate, special

    lo, hi = K.support(kernel)
    edges = np.unique(np.concatenate([
        [lo, hi], K.breakpoints(kernel),
        np.arange(1, math.ceil(2.0 * xi_norm * hi)) / (2.0 * xi_norm)]))
    edges = edges[(lo <= edges) & (edges <= hi)]

    def integrand(r):
        return r * K.eval(kernel, r) * special.j1(2.0 * math.pi * xi_norm * r)

    return math.pi * math.fsum(
        integrate.quad(integrand, a, b, epsabs=1e-15, epsrel=1e-13)[0]
        for a, b in zip(edges[:-1], edges[1:]))


@pytest.mark.parametrize("kernel", [
    K.constant_ball(2), K.riesz_truncated(2, 0.5),
    ORACLE_KERNELS["tabulated"](2)], ids=lambda k: k.family)
def test_d2_imaginary_part_matches_bessel_integral(kernel):
    angles = np.array([0.0, 0.5 * math.pi, math.pi, 1.1, -2.2, 2.9])
    units = np.column_stack([np.cos(angles), np.sin(angles)])
    units[1:3] = [[0.0, 1.0], [-1.0, 0.0]]
    for xi_norm in (0.05, 0.5, 3.0, 7.5, 20.0, 50.0):
        want = bessel_imaginary_length(kernel, xi_norm) * units
        for nu in (np.array([1.0, 0.0]), np.array([-0.6, 0.8])):
            got = S._symbol_values(kernel, nu, xi_norm * units).imag
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("family", ["fractional_vanishing", "log_regularized"])
def test_d2_imaginary_part_turns_with_xi(family):
    # unbounded support: S is not analytic at c = 0, which the folded rule
    # puts on a panel end; the half-circle rule put it inside a panel and
    # its |Im lambda| varied by 4e-6 (fractional) and 5e-5 (log) with the
    # direction of xi
    k = ORACLE_KERNELS[family](2)
    angles = np.arange(36) * (2.0 * math.pi / 36.0)
    units = np.column_stack([np.cos(angles), np.sin(angles)])
    for xi_norm in (0.5, 3.0, 20.0, 70.0):
        im = S._symbol_values(k, np.array([1.0, 0.0]), xi_norm * units).imag
        length = np.hypot(im[:, 0], im[:, 1])
        assert np.ptp(length) <= 1e-7 * np.max(length)
        cross = im[:, 0] * units[:, 1] - im[:, 1] * units[:, 0]
        assert np.max(np.abs(cross)) <= 1e-15 * np.max(length)


@pytest.mark.parametrize("family", ["constant_ball", "riesz_truncated",
                                    "log_regularized", "rescaled"])
def test_batched_d2_hermitian_and_adjoint(family):
    k = ORACLE_KERNELS[family](2)
    rng = np.random.default_rng(17)
    pts = rng.uniform(-30.0, 30.0, size=(6, 2))
    nu = np.array([0.28, -0.96])
    plus = S._symbol_values(k, nu, pts)
    scale = np.max(np.abs(plus))
    mirrored = S._symbol_values(k, nu, -pts)
    assert np.max(np.abs(mirrored - np.conj(plus))) <= 1e-13 * scale
    flipped = S._symbol_values(k, -nu, pts)
    assert np.max(np.abs(flipped + np.conj(plus))) <= 1e-13 * scale


def test_batched_d1_grid_checks_match_pointwise():
    k = K.log_regularized(1, 0.1)
    grid = np.geomspace(0.01, 100.0, 30)
    report = S.check_linear_bound(k, -1, grid)
    for xi, lhs in zip(grid, report.lhs):
        assert lhs == float(np.linalg.norm(S.symbol(k, -1, xi).value))


# ---------------------------------------------------------------------------
# The three bounds rows of `hsnl bounds` that need the symbol on the signed
# grid, the cut-off kernel and eta, against point-by-point evaluation.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel,nu", [
    (K.fractional_vanishing(1, 0.1), -1),
    (K.riesz_truncated(2, 0.5), np.array([0.6, 0.8])),
], ids=["fractional_vanishing-d1", "riesz_truncated-d2"])
def test_moved_bounds_rows_match_pointwise(kernel, nu):
    grid = np.geomspace(0.01, 30.0, 7)
    unit = 1.0 if kernel.d == 1 else nu / np.linalg.norm(nu)
    points = [t * unit for t in grid]
    plus = [S.symbol(kernel, nu, xi).value for xi in points]

    defect = max(float(np.max(np.abs(S.symbol(kernel, nu, -xi).value
                                     - np.conj(lam))))
                 for xi, lam in zip(points, plus))
    tol = 1e-10 * max(1.0, max(float(np.max(np.abs(lam))) for lam in plus))
    rep = S.check_hermitian_symmetry(kernel, nu, grid)
    assert rep.margin == tol - defect and rep.passed
    assert rep.grid_span() == (grid[0], grid[-1])

    trimmed = K.cutoff(kernel, 0.5)
    worst = max(float(np.max(np.abs(lam - S.symbol(trimmed, nu, xi).value)))
                for xi, lam in zip(points, plus))
    rep = S.check_cutoff_perturbation(kernel, nu, grid, 0.5)
    assert rep.margin == 2.0 * K.tail_mass(kernel, 0.5) - worst
    assert rep.passed

    margin = min(S.eta_bound(kernel.d, 0.05, float(np.linalg.norm(xi)))
                 - float(np.max(np.abs(S.symbol_eta(0.05, nu, xi,
                                                    kernel.d))))
                 for xi in points)
    rep = S.check_eta_envelope(kernel.d, nu, 0.05, grid)
    assert rep.margin == margin and rep.passed


def test_symbol_values_check_the_array_shape():
    with pytest.raises(ValueError, match=r"\(n,\) array"):
        S._symbol_values(K.constant_ball(1), 1, np.ones((3, 1)))
    with pytest.raises(ValueError, match=r"\(n, 2\) array"):
        S._symbol_values(K.constant_ball(2), np.array([1.0, 0.0]),
                         np.ones(4))


# ---------------------------------------------------------------------------
# Identities of the symbol on the array entry point, over random batches.
# ---------------------------------------------------------------------------

# log_regularized has unbounded support, so its panel zone starts at
# z1 = 1 with quarter periods 1/(4|c|) much wider than 1 at small |c|; 16
# Gauss points then miss the origin singularity's pull, and at |c| = 0.01
# a symbol is off by 5e-5.  A d=2 symbol meets such |c| at angles near
# perpendicular to xi.
PANEL_DEFECT = pytest.mark.xfail(
    raises=AssertionError, reason="panel zone too coarse at small |c|")
# in d=2, fractional_vanishing's S(|xi| sin t) ~ |t|^0.8 has a cusp at the
# angle t = 0, where the angle panels of an unbounded support are graded
INVARIANT_FAMILIES = [
    "constant_ball", "riesz_truncated", "rescaled", "cutoff",
    "fractional_vanishing",
    pytest.param("log_regularized", marks=PANEL_DEFECT)]


def frequencies(bound):
    """0 or a magnitude in [1e-300, bound] of either sign.

    Below 1e-307 the engine returns the limit S(0) = 0, so the rescaling
    identity does not hold across that threshold; such magnitudes are
    checked by test_symbol_at_a_subnormal_frequency, not drawn here.
    """
    mag = st.floats(1e-300, bound)
    return st.just(0.0) | mag | mag.map(lambda x: -x)


def assert_rows_close(got, want, rtol):
    """Each row of got within rtol of the largest entry of want's row."""
    err = np.max(np.abs(got - want), axis=1)
    assert np.all(err <= rtol * np.max(np.abs(want), axis=1))


def check_identities(kernel, nu, xis, delta, rtol):
    """lambda(-xi) = conj lambda(xi), lambda^{-nu} = -conj lambda^{nu} and
    lambda_{w_delta}(xi) = lambda_w(delta xi) / delta, row by row."""
    both = S._symbol_values(kernel, nu, np.concatenate([xis, -xis]))
    plus, minus = both[:len(xis)], both[len(xis):]
    assert_rows_close(minus, np.conj(plus), rtol)
    assert_rows_close(S._symbol_values(kernel, -nu, xis), -np.conj(plus),
                      rtol)
    assert_rows_close(S._symbol_values(K.rescaled(kernel, delta), nu, xis),
                      S._symbol_values(kernel, nu, delta * xis) / delta,
                      rtol)


@pytest.mark.parametrize("family", INVARIANT_FAMILIES)
@settings(max_examples=30)
@example(xis=np.array([0.01, 3.0]), nu=1.0, delta=0.5)
@given(xis=hnp.arrays(float, st.integers(1, 6), elements=frequencies(1e3)),
       nu=st.sampled_from([1.0, -1.0]), delta=st.floats(0.25, 4.0))
def test_symbol_identities_d1(family, xis, nu, delta):
    check_identities(ORACLE_KERNELS[family](1), nu, xis, delta, 1e-13)


@pytest.mark.parametrize("family", INVARIANT_FAMILIES)
@settings(max_examples=10)
@example(xis=np.array([[0.0, 1.0]]), angle=0.0, delta=0.5)
@given(xis=hnp.arrays(float, (1, 2), elements=frequencies(70.0)),
       angle=st.floats(0.0, 2.0 * math.pi), delta=st.floats(0.25, 1.0))
def test_symbol_identities_d2(family, xis, angle, delta):
    nu = np.array([math.cos(angle), math.sin(angle)])
    check_identities(ORACLE_KERNELS[family](2), nu, xis, delta, 1e-10)


def test_symbol_at_a_subnormal_frequency():
    # below 1e-307 a frequency takes the limit S(0) = 0; just above, the
    # panel zone of an unbounded support still fits in a float
    cs = np.array([1e-307, 1.1125369292536007e-308, 1e-310, 5e-324])
    for family in ("fractional_vanishing", "log_regularized", "tabulated"):
        for sign in (1.0, -1.0):
            got = S._half_line_symbol(ORACLE_KERNELS[family](1), sign * cs, 0)
            assert np.all(np.isfinite(got)) and np.all(got[1:] == 0.0)
