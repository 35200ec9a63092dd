import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

import kernel_oracle as oracle
from hsnl import kernels as K


def test_constant_ball_moments():
    k = K.constant_ball()
    rep = K.moments(k)
    assert rep.m1 == pytest.approx(2.0, rel=1e-14)
    assert rep.m2 == 0.0
    assert rep.epsilon0 == 0.5
    # int_{|z|<=1} z^2 * 2 dz = 2 * 2/3
    assert rep.second_moment_ball[1.0] == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert rep.tail_mass[0.25] == pytest.approx(2.0 * 2.0 * 0.75, rel=1e-14)
    assert K.eval(k, 0.5) == 2.0
    assert K.eval(k, 1.5) == 0.0


def test_constant_ball_default_gives_first_moment_2d():
    for d in (1, 2, 3):
        k = K.constant_ball(d)
        assert K.partial_moments(k, 0.0, 1.0, 1) == pytest.approx(2.0 * d, rel=1e-14)
    assert K._p(K.constant_ball(2), "c") == pytest.approx(6.0 / math.pi, rel=1e-15)


def test_riesz_truncated_closed_moments():
    k = K.riesz_truncated(1, 0.5)
    assert K.partial_moments(k, 0.0, 1.0, 1) == pytest.approx(4.0, rel=1e-14)
    # 2 * int_{1/4}^1 r^{-3/2} dr = 2 * (4 - 2) = 4
    assert K.partial_moments(k, 0.25, 1.0, 0) == pytest.approx(4.0, rel=1e-14)
    assert K.partial_moments(k, 0.0, 1.0, 0) == math.inf
    assert K.is_singular(k)
    assert K.origin_exponent(k) == -1.5


@given(st.floats(min_value=0.05, max_value=0.95))
def test_riesz_first_moment_formula(s):
    # d=1: M1 = 2 int_0^1 r^{-s} dr = 2/(1-s)
    k = K.riesz_truncated(1, s)
    assert K.partial_moments(k, 0.0, 1.0, 1) == pytest.approx(2.0 / (1.0 - s),
                                                              rel=1e-13)


def test_fractional_vanishing_ball_moment_scales_like_r_delta():
    for d in (1, 2):
        k = K.fractional_vanishing(d, 0.1)
        for radius in (0.5, 1.0, 2.0):
            expect = 2.0 * d * radius ** 0.1
            assert K.partial_moments(k, 0.0, radius, 1) == pytest.approx(
                expect, rel=1e-13)
    assert K.partial_moments(K.fractional_vanishing(1, 0.1), 0.0, math.inf,
                             1) == math.inf


def test_fractional_normalization_limit_convention():
    # the delta->0 limit of the ball first moment is already 2d with the
    # default 1/omega_{d-1} factor, so normalizing changes nothing
    k = K.fractional_vanishing(2, 0.05)
    kn = K.normalize_first_moment(k)
    assert kn.c_norm == pytest.approx(k.c_norm, rel=1e-15)
    assert k.c_norm == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
    raw = K.fractional_vanishing(2, 0.05, normalize=False)
    rn = K.normalize_first_moment(raw)
    assert rn.c_norm == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)


def test_log_regularized_first_moment_oracle():
    # values from an independent high-precision evaluation of
    # (2d/omega_{d-1}) |log delta|^{-1} int r^{d-1+1} r^{-1} (r+delta)^{-d} dr
    cases = {
        (1, 0.2): 2.2265655051187566916,
        (1, 0.025): 2.0133875952833501479,
        (2, 0.2): 2.3820145617054740142,
        (2, 0.025): 2.9688823879059518409,
    }
    for (d, dl), expect in cases.items():
        k = K.log_regularized(d, dl)
        assert K.partial_moments(k, 0.0, 1.0, 1) == pytest.approx(expect,
                                                                  rel=1e-13)


def test_log_regularized_slow_convergence_toward_2d():
    # the ball-1 first moment approaches 2d only logarithmically in delta
    errs = [abs(K.partial_moments(K.log_regularized(1, dl), 0, 1, 1) - 2.0)
            for dl in (0.2, 0.1, 0.05, 0.025)]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] > 1e-3  # still far at delta = 0.025


def test_log_truncated_exactly_normalized():
    for d in (1, 2, 3):
        for dl in (0.2, 0.1, 0.05, 0.025):
            k = K.log_truncated(d, dl)
            assert K.partial_moments(k, 0.0, 1.0, 1) == pytest.approx(
                2.0 * d, rel=1e-13)
            assert K.tail_mass(k, 1.0) == 0.0
    assert K.support(K.log_truncated(1, 0.07)) == (0.07, 1.0)


def test_min_level_pointwise_and_integrals():
    base = K.riesz_truncated(1, 0.7)
    k = K.min_level(base, 5.0)
    rng = np.random.default_rng(7)
    rs = rng.uniform(0.01, 1.2, size=40)
    assert np.allclose(K.eval(k, rs), np.minimum(5.0, K.eval(base, rs)),
                       rtol=1e-14)
    # closed-form moment against adaptive quadrature of the min profile
    oracle, _ = quad(lambda r: r * min(5.0, r ** -1.7), 0.0, 1.0,
                     points=[(1.0 / 5.0) ** (1.0 / 1.7)])
    assert K.partial_moments(k, 0.0, 1.0, 1) == pytest.approx(2.0 * oracle,
                                                              rel=1e-11)


def test_min_level_keeps_base_tail():
    base = K.fractional_vanishing(1, 0.3)
    k = K.min_level(base, 10.0)
    # far from the origin the level never binds, so tails agree exactly
    assert K.tail_mass(k, 2.0) == pytest.approx(K.tail_mass(base, 2.0),
                                                rel=1e-14)
    assert K.tail_mass(k, 2.0) > 0.0


def test_rescaled_change_of_variables():
    base = K.riesz_truncated(1, 0.5)
    k = K.rescaled(base, 0.3)
    rs = np.array([0.01, 0.1, 0.25, 0.299])
    assert np.allclose(K.eval(k, rs), 0.3 ** -2 * K.eval(base, rs / 0.3),
                       rtol=1e-13)
    assert K.support(k) == (0.0, pytest.approx(0.3))


@given(st.floats(min_value=0.05, max_value=4.0))
def test_rescaling_preserves_full_first_moment(delta):
    base = K.constant_ball(1)
    k = K.rescaled(base, delta)
    full = K.partial_moments(k, 0.0, math.inf, 1)
    assert full == pytest.approx(2.0, rel=1e-12)


def test_cutoff_clips_tail():
    base = K.fractional_vanishing(1, 0.1)
    k = K.cutoff(base, 1.0)
    assert K.tail_mass(k, 1.0) == 0.0
    assert K.partial_moments(k, 0.0, 0.5, 1) == pytest.approx(
        K.partial_moments(base, 0.0, 0.5, 1), rel=1e-14)
    assert K.eval(k, 1.5) == 0.0


@pytest.mark.parametrize("radius", [0.1, 1e-9])
def test_cutoff_at_or_below_the_support_start_is_rejected(radius):
    # a cutoff there leaves no piece of the profile, and support() of such
    # a kernel ended in an IndexError
    with pytest.raises(ValueError, match="support start 0.1"):
        K.cutoff(K.log_truncated(1, 0.1), radius)
    assert K.support(K.cutoff(K.log_truncated(1, 0.1), 0.2)) == (0.1, 0.2)


def test_tabulated_log_linear_interpolation():
    radii = [0.5, 1.0, 2.0]
    values = [3.0 - math.log(r) for r in radii]
    k = K.tabulated(1, radii, values)
    rs = np.array([0.6, 1.3, 1.999])
    assert np.allclose(K.eval(k, rs), 3.0 - np.log(rs), rtol=1e-13)
    # zero outside the sampled range, including just inside the origin side
    assert K.eval(k, 0.49) == 0.0
    assert K.eval(k, 2.01) == 0.0
    exact = (4.0 * 2.0 - 2.0 * math.log(2.0)) - (2.0 - 0.5 * math.log(0.5))
    assert K.partial_moments(k, 0.0, math.inf, 0) == pytest.approx(
        2.0 * exact, rel=1e-13)


def test_tabulated_rejects_bad_samples():
    with pytest.raises(ValueError):
        K.tabulated(1, [1.0, 0.5], [1.0, 1.0])
    with pytest.raises(ValueError):
        K.tabulated(1, [-0.5, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        K.tabulated(1, [1.0], [1.0])


def test_tabulated_negative_values_flagged_by_validator():
    k = K.tabulated(1, [0.5, 1.0, 2.0], [1.0, -0.5, 0.2])
    report = K.validate_assumptions(k)
    assert report["nonnegative"] is False


@given(st.tuples(st.floats(min_value=0.0, max_value=3.0),
                 st.floats(min_value=0.0, max_value=3.0),
                 st.floats(min_value=0.0, max_value=3.0)))
def test_partial_moment_additivity(abc):
    a, b, c = sorted(abc)
    for k in (K.riesz_truncated(1, 0.5),
              K.fractional_vanishing(2, 0.1),
              K.log_regularized(1, 0.1),
              K.min_level(K.riesz_truncated(1, 0.3), 2.0)):
        for order in (0, 1):
            whole = K.partial_moments(k, a, c, order) if a < c else 0.0
            left = K.partial_moments(k, a, b, order) if a < b else 0.0
            right = K.partial_moments(k, b, c, order) if b < c else 0.0
            if math.isinf(whole):
                assert math.isinf(left) or math.isinf(right)
            else:
                assert whole == pytest.approx(left + right, rel=1e-12,
                                              abs=1e-300)


def test_radial_antideriv_matches_integrals():
    for k, q in ((K.riesz_truncated(1, 0.5), 1),
                 (K.riesz_truncated(1, 0.5), 0),
                 (K.log_regularized(1, 0.2), 1),
                 (K.tabulated(1, [0.5, 1.0, 2.0], [2.0, 1.0, 0.3]), 0),
                 (K.min_level(K.riesz_truncated(1, 0.6), 3.0), 0),
                 (K.fractional_vanishing(1, 0.1), 0)):
        H, h_inf = K.radial_antideriv(k, q)
        xs = np.array([0.05, 0.3, 0.7, 1.1, 1.9, 3.0])
        vals = H(xs)
        for i in range(len(xs) - 1):
            exact = oracle.radial_integral(k, xs[i], xs[i + 1], q)
            assert vals[i + 1] - vals[i] == pytest.approx(exact, rel=1e-11,
                                                          abs=1e-14)
        tail = oracle.radial_integral(k, xs[-1], math.inf, q)
        if math.isinf(tail):
            assert math.isinf(h_inf)
        else:
            assert h_inf - vals[-1] == pytest.approx(tail, rel=1e-11,
                                                     abs=1e-14)


def test_antideriv_divergent_at_origin():
    H, _ = K.radial_antideriv(K.riesz_truncated(1, 0.5), 0)
    assert H(np.array([0.0]))[0] == -math.inf
    Hr, _ = K.radial_antideriv(K.log_regularized(1, 0.2), 0)
    assert Hr(np.array([0.0]))[0] == -math.inf


def test_logreg_second_moment_against_quadrature():
    k = K.log_regularized(2, 0.2)
    coeff = (2.0 / math.pi) / abs(math.log(0.2))
    oracle, _ = quad(lambda r: coeff * r ** 2 * (r + 0.2) ** -2, 0.0, 1.0)
    assert K.second_moment_ball(k, 1.0) == pytest.approx(
        2.0 * math.pi * oracle, rel=1e-10)


def test_epsilon0_descends_past_empty_annuli():
    k = K.cutoff(K.constant_ball(), 0.3)
    assert K.moments(k).epsilon0 == 0.25


def test_normalize_without_limit_rule_raises():
    k = K.min_level(K.fractional_vanishing(1, 0.2), 3.0)
    assert K.partial_moments(k, 0.0, math.inf, 1) == math.inf
    with pytest.raises(K.AssumptionError):
        K.normalize_first_moment(k)


def test_normalize_is_idempotent():
    k = K.normalize_first_moment(K.riesz_truncated(1, 0.5))
    assert K.partial_moments(k, 0.0, math.inf, 1) == pytest.approx(2.0,
                                                                   rel=1e-13)
    k2 = K.normalize_first_moment(k)
    assert k2.c_norm == pytest.approx(k.c_norm, rel=1e-14)


def test_validator_reports():
    rep = K.validate_assumptions(K.riesz_truncated(1, 0.5))
    assert rep["m1_ok"] and rep["m2_ok"] and rep["nonnegative"]
    assert rep["monotone"] is True
    assert rep["delta_ladder"] is None
    rep2 = K.validate_assumptions(K.log_regularized(1, 0.2))
    assert set(rep2["delta_ladder"]) == {0.2, 0.1, 0.05, 0.025}
    m1s = [rep2["delta_ladder"][dl]["first_moment_ball1"]
           for dl in (0.2, 0.1, 0.05, 0.025)]
    assert all(m > 2.0 for m in m1s)
    rep3 = K.validate_assumptions(K.log_truncated(1, 0.1))
    assert rep3["monotone"] is None  # not a declared-monotone family


def test_eval_rejects_nonpositive_radius():
    k = K.constant_ball()
    with pytest.raises(ValueError):
        K.eval(k, 0.0)
    with pytest.raises(ValueError):
        K.eval(k, np.array([0.5, -1.0]))


def test_breakpoints_collect_structure():
    k = K.min_level(K.riesz_truncated(1, 0.5), 4.0)
    bps = K.breakpoints(k)
    rstar = (4.0) ** (-1.0 / 1.5)
    assert any(abs(b - rstar) < 1e-12 for b in bps)
    assert 1.0 in bps


INTEGRAL_KERNELS = [
    K.constant_ball(2),
    K.riesz_truncated(1, 0.5),
    K.fractional_vanishing(2, 0.2),
    K.log_regularized(1, 0.1),
    K.log_regularized(2, 0.2),
    K.log_regularized(3, 0.3),
    K.log_truncated(2, 0.05),
    K.tabulated(1, [0.1, 0.4, 1.2], [3.0, 1.0, 0.2]),
    K.min_level(K.riesz_truncated(2, 0.5), 5.0),
    K.rescaled(K.log_regularized(1, 0.2), 0.5),
    K.cutoff(K.fractional_vanishing(1, 0.3), 2.0),
]


@pytest.mark.parametrize("k", INTEGRAL_KERNELS, ids=repr)
def test_batched_radial_integrals_match_scalar(k):
    # against the scalar closed forms of the oracle
    # intervals inside, across and beyond the pieces, the 0.9 delta series
    # split of log_regularized, empty intervals and divergent ones
    ends = [0.0, 0.01, 0.05, 0.09, 0.1, 0.3, 0.95, 1.0, 2.5, math.inf]
    pairs = [(a, b) for a in ends for b in ends if a <= b and a < math.inf]
    a = np.array([p[0] for p in pairs])[:, None]
    b = np.array([p[1] for p in pairs])[:, None]
    qs = np.arange(0, 6)
    got = K._radial_integrals(k, a, b, qs)
    for i, (lo, hi) in enumerate(pairs):
        for j, q in enumerate(qs):
            want = oracle.radial_integral(k, lo, hi, int(q))
            if math.isinf(want):
                assert got[i, j] == math.inf
            else:
                assert got[i, j] == pytest.approx(want, rel=1e-13,
                                                  abs=1e-300)


def test_logreg_primitive_takes_an_exponent_per_entry():
    t = np.array([0.05, 0.3, 2.0, 0.05, 0.3, 2.0])
    m = np.array([-1, 0, 3, 7, 12, 2])
    for dd in (1, 2, 3):
        got = K._logreg_primitive(m, 0.2, dd, t)
        for ti, mi, gi in zip(t, m, got):
            want = oracle.logreg_primitive(int(mi), 0.2, dd, ti)
            assert gi == pytest.approx(want, rel=1e-14)


def test_log_regularized_tail_mass_matches_mpmath():
    # the m = -1 primitive -log1p(dl/t) / dl keeps its digits at large t,
    # where log(t / (t + dl)) / dl was 1.7e-13 off at R = 1e3 and 4.5e-10
    # off at R = 1e6
    import mpmath

    k = K.log_regularized(1, 0.1)
    coeff = K._pieces(k)[0][3]
    for radius in (1e3, 1e6):
        with mpmath.workdps(40):
            dl = mpmath.mpf(0.1)
            want = float(2 * coeff / dl * mpmath.log1p(dl / radius))
        assert abs(K.tail_mass(k, radius) - want) <= 1e-14 * want


def test_logreg_series_survives_a_subnormal_lower_end():
    # delta / a overflows for a subnormal a; the integral itself is finite
    k = K.log_regularized(1, 0.1)
    whole = K.radial_integral(k, 5e-324, 1.0, 0)
    parts = (K.radial_integral(k, 5e-324, 1e-100, 0)
             + K.radial_integral(k, 1e-100, 1.0, 0))
    assert math.isfinite(whole)
    assert whole == pytest.approx(parts, rel=1e-12)


@pytest.mark.parametrize("dd", [1, 2, 3])
def test_logreg_moments_of_one_or_two_orders_match_hypergeometric(dd):
    # int_0^1 s^m (1 + u s)^-dd ds = 2F1(dd, m + 1; m + 2; -u) / (m + 1);
    # narrow ranges take the backward series only where it converges
    import mpmath

    us = np.array([0.5, 2.0, 8.0, 15.0])
    for lo in (0, 1, 5):
        with mpmath.workdps(30):
            want = np.array([[float(mpmath.hyp2f1(dd, m + 1, m + 2, -u)
                                    / (m + 1)) for m in (lo, lo + 1)]
                             for u in us])
        for width in (1, 2):
            got = K._logreg_moments(dd, us, lo, lo + width - 1)
            assert np.all(np.abs(got - want[:, :width])
                          <= 1e-14 * want[:, :width])


@pytest.mark.parametrize("q", [-1, -2, 0.5])
def test_logreg_integrals_reject_orders_without_a_closed_form(q):
    # the primitive covers t^m (t + delta)^{-d} for integers m >= -1 only
    k = K.log_regularized(1, 0.1)
    with pytest.raises(ValueError):
        K.radial_integral(k, 0.5, 1.0, q)
    with pytest.raises(ValueError):
        K.radial_antideriv(k, q)


def test_piece_table_is_built_once_per_kernel():
    k = K.cutoff(K.rescaled(K.riesz_truncated(1, 0.5), 0.3), 0.2)
    table = K._pieces(k)
    assert isinstance(table, tuple)
    assert K._pieces(K.cutoff(K.rescaled(K.riesz_truncated(1, 0.5), 0.3),
                              0.2)) is table


# interval ends: anywhere in [0, 3], or exactly on a piece edge, the 0.9
# delta split of log_regularized's moments, the origin or infinity
ENDS = st.one_of(st.floats(min_value=0.0, max_value=3.0),
                 st.sampled_from([0.0, 0.09, 0.1, 0.4, 1.0, 1.2, 2.0,
                                  math.inf]))
KERNEL = st.sampled_from(INTEGRAL_KERNELS)
ORDER = st.integers(min_value=0, max_value=5)


def _close(got, want, scale=0.0, rel=1e-12):
    if math.isinf(want):
        return got == math.inf
    return abs(got - want) <= rel * (abs(want) + scale) + 1e-300


@given(KERNEL, st.tuples(ENDS, ENDS, ENDS), ORDER)
def test_radial_integral_is_additive_over_intervals(k, ends, q):
    a, b, c = sorted(ends)
    whole = K.radial_integral(k, a, c, q)
    left, right = K.radial_integral(k, a, b, q), K.radial_integral(k, b, c,
                                                                    q)
    if math.isinf(left) or math.isinf(right):
        assert whole == math.inf
    else:
        assert _close(whole, left + right, abs(left) + abs(right))


@given(KERNEL, st.tuples(ENDS, ENDS), ORDER,
       st.floats(min_value=0.05, max_value=20.0))
def test_radial_integral_rescales_with_the_horizon(k, ends, q, delta):
    # int_{delta a}^{delta b} r^q w_delta = delta^{q-d} int_a^b r^q w
    a, b = sorted(ends)
    scaled = K.radial_integral(K.rescaled(k, delta), delta * a, delta * b, q)
    want = K.radial_integral(k, a, b, q)
    if math.isinf(want):
        assert scaled == math.inf
    else:
        assert _close(scaled, delta ** (q - k.d) * want)


@given(KERNEL, st.tuples(st.floats(min_value=1e-3, max_value=3.0),
                         st.floats(min_value=1e-3, max_value=3.0)),
       st.integers(min_value=0, max_value=2))
def test_radial_antideriv_differences_match_the_oracle(k, ends, q):
    x, y = sorted(ends)
    H, _ = K.radial_antideriv(k, q)
    hx, hy = H(np.array([x, y]))
    # H is a sum of closed forms of size |H|, so the difference carries
    # their roundoff
    assert _close(hy - hx, oracle.radial_integral(k, x, y, q),
                  abs(hx) + abs(hy), rel=1e-11)


@pytest.mark.parametrize("k", [K.log_regularized(1, 0.1),
                               K.log_regularized(2, 0.2),
                               K.log_regularized(3, 0.3),
                               K.cutoff(K.log_regularized(2, 0.05), 0.5)],
                         ids=repr)
@pytest.mark.parametrize("q", [2, 3])
def test_radial_antideriv_keeps_its_digits_near_the_origin(k, q):
    # the binomial primitive of t^(q-1) (t + delta)^-d cancels near 0; H
    # takes the integral from 0 there instead
    xs = np.geomspace(1e-4, 0.06, 9)
    H, _ = K.radial_antideriv(k, q)
    hs = H(xs)
    for i in range(xs.size):
        for j in range(i + 1, xs.size):
            want = oracle.radial_integral(k, xs[i], xs[j], q)
            assert abs(hs[j] - hs[i] - want) <= 1e-13 * want


def test_radial_integral_rescales_on_a_short_interval_far_out():
    # a failing example of test_radial_integral_rescales_with_the_horizon
    # under 1000 derandomized draws; int_a^b is 3.558771896056909e-4
    k, q, delta = K.log_regularized(3, 0.3), 0, 3.0
    a, b = 2.9086881367278714, 3.0
    scaled = K.radial_integral(K.rescaled(k, delta), delta * a, delta * b, q)
    assert _close(scaled, delta ** (q - k.d) * K.radial_integral(k, a, b, q))


def _far_intervals():
    """(d, delta, q, a, b) from 6 delta to 1e4 delta out: b - a from 1e-8 a
    to 3 a, or b = inf where the tail converges (q < d)."""
    rng = np.random.default_rng(25)
    out = [(3, 0.8082854453592934, 0, 2331.139730300342, 2331.1404872856774)]
    for _ in range(139):
        d, q = int(rng.integers(1, 4)), int(rng.integers(0, 4))
        delta = rng.uniform(0.01, 0.9)
        a = delta * 10.0 ** rng.uniform(math.log10(6.0), 4.0)
        b = math.inf if q < d and rng.random() < 0.25 else \
            a * (1.0 + 10.0 ** rng.uniform(-8.0, math.log10(3.0)))
        out.append((d, delta, q, a, b))
    return out


def test_log_regularized_far_zone_matches_mpmath():
    # from 6 delta on the integrals take the expansion in delta/t, since
    # the primitive's partial fractions cancel by about (a/delta)^(d-1)
    # when b - a << a: by 1.0e-2 of the first interval's value
    import mpmath

    for d, delta, q, a, b in _far_intervals():
        k = K.log_regularized(d, delta)
        got = K.radial_integral(k, a, b, q)
        coeff = K._pieces(k)[0][3]
        with mpmath.workdps(30):
            dl = mpmath.mpf(delta)
            want = float(coeff * mpmath.quad(
                lambda t: t ** (q - 1) * (t + dl) ** -d,
                [mpmath.mpf(a), mpmath.mpf(b)]))
        assert abs(got - want) <= 1e-14 * want, (d, delta, q, a, b)


@given(KERNEL, ENDS, ENDS, ORDER, st.integers(min_value=0, max_value=2999))
def test_one_integral_equals_its_entry_in_a_batch(k, e0, e1, q, at):
    # the batch mixes orders, which take the log_regularized moments below
    # 0.9 delta in one call per order
    a, b = sorted((e0, e1))
    rng = np.random.default_rng(at)
    lo = rng.uniform(0.0, 0.2, 3000)
    lo[::7] = 0.0
    hi = lo + rng.uniform(0.0, 2.0, 3000)
    hi[::11] = math.inf
    qs = rng.integers(0, 6, 3000)
    lo[at], hi[at], qs[at] = a, b, q
    alone = K._radial_integrals(k, [a], [b], [q])[0]
    assert K._radial_integrals(k, lo, hi, qs)[at] == alone
    # a scalar q stays scalar, alone or for the whole batch
    assert (K._radial_integrals(k, lo, hi, q)[at]
            == K._radial_integrals(k, a, b, q) == K.radial_integral(k, a, b,
                                                                    q))
