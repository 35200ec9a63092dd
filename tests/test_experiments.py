import math

import numpy as np
import pytest

from hsnl import kernels as K
from hsnl import fem1d as F
from hsnl import experiments as E


def ball_family(d):
    return K.rescaled(K.constant_ball(), d)


def test_estimate_rate_recovers_exact_powers():
    params = np.array([0.4, 0.2, 0.1, 0.05])
    for order in (1.0, 2.0):
        errors = 3.7 * params ** order
        assert E.estimate_rate(errors, params) == pytest.approx(order,
                                                                abs=1e-12)


def test_estimate_rate_on_noisy_data():
    rng = np.random.default_rng(42)
    params = np.array([0.4, 0.2, 0.1, 0.05, 0.025])
    errors = 2.0 * params ** 2 * np.exp(rng.normal(0.0, 0.02, params.size))
    assert E.estimate_rate(errors, params) == pytest.approx(2.0, abs=0.05)


def test_estimate_rate_of_constant_errors_is_zero():
    assert E.estimate_rate([0.3, 0.3, 0.3], [0.4, 0.2, 0.1]) == pytest.approx(
        0.0, abs=1e-12)


def test_estimate_rate_needs_two_points():
    with pytest.raises(ValueError):
        E.estimate_rate([0.1], [0.5])


def test_rate_table_rejects_negative_errors():
    with pytest.raises(ValueError):
        E.RateTable(rows=((0.1, 0.1, -1.0),), row_orders=(), col_orders=())


def test_trend_classifier():
    assert E.classify_trend([4.0, 2.0, 1.0]) == "decreasing"
    assert E.classify_trend([1.0, 2.0, 4.0]) == "increasing"
    assert E.classify_trend([1.0, 1.001, 0.999]) == "flat"
    assert E.classify_trend([1.0, 2.0, 0.5]) == "flat"
    assert E.classify_trend([1.0]) == "flat"


def test_plateau_detector():
    assert E.plateau_reached([1.0, 0.5, 0.499])
    assert not E.plateau_reached([1.0, 0.5, 0.4])
    assert not E.plateau_reached([1.0])


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        E.SweepConfig(family=ball_family, params=(0.1, 0.2, 0.15),
                      hs=(0.125,))
    with pytest.raises(ValueError):
        E.SweepConfig(family=ball_family, params=(0.2,), hs=(0.0625, 0.125))
    with pytest.raises(ValueError):
        E.SweepConfig(family=ball_family, params=(0.2,), hs=(0.3,))
    with pytest.raises(ValueError):
        E.SweepConfig(family=ball_family, params=(0.2,), hs=(0.125,),
                      reference="fine_local_fem", reference_h=0.0625)
    with pytest.raises(ValueError):
        E.SweepConfig(family=None, params=(0.2,), hs=(0.125,))


def test_sweep_config_fills_in_reference_resolution():
    cfg = E.SweepConfig(family=ball_family, params=(0.2,), hs=(1 / 8, 1 / 16),
                        reference="fine_local_fem")
    assert cfg.reference_h == pytest.approx(1 / 64)


def test_local_sweep_diagonal_against_closed_form_reference():
    cfg = E.SweepConfig(family=ball_family, params=(0.2, 0.1, 0.05),
                        hs=(1 / 8, 1 / 16, 1 / 32))
    table = E.ac_local_sweep(cfg)
    assert len(table.rows) == 9
    assert all(r[2] >= 0.0 for r in table.rows)
    diag = [e for _, _, e in table.diagonal()]
    assert diag[0] > diag[1] > diag[2]
    # halving the horizon roughly halves the distance to the local limit
    assert table.diag_order == pytest.approx(1.0, abs=0.35)
    # orders were fitted for every parameter row and every h column
    assert [p for p, _ in table.row_orders] == [0.2, 0.1, 0.05]
    assert [h for h, _ in table.col_orders] == [1 / 8, 1 / 16, 1 / 32]


def test_local_sweep_rows_approach_a_plateau():
    # fixed horizon, h -> 0: the error settles at the model error; the
    # steps between successive h levels shrink monotonically
    cfg = E.SweepConfig(family=ball_family, params=(0.2,),
                        hs=(1 / 8, 1 / 16, 1 / 32, 1 / 64))
    errors = [r[2] for r in E.ac_local_sweep(cfg).rows]
    steps = [abs(b - a) for a, b in zip(errors, errors[1:])]
    assert steps[0] > steps[1] > steps[2]
    assert steps[2] < 0.6 * steps[1]


def test_fixed_horizon_errors_decrease_against_fine_reference():
    # at fixed kernel the scheme converges: errors against a fine solve
    # with the same kernel drop monotonically under refinement
    cfg = E.SweepConfig(family=ball_family, params=(0.2,),
                        hs=(1 / 8, 1 / 16, 1 / 32),
                        reference="fine_nonlocal_fem",
                        reference_kernel=ball_family(0.2),
                        reference_h=1 / 256)
    errors = [r[2] for r in E.ac_nonlocal_sweep(cfg).rows]
    assert errors[0] > errors[1] > errors[2]


def test_level_ladder_sweep_converges_to_the_singular_limit():
    base = K.riesz_truncated(1, 0.5)

    def fam(n):
        return base if math.isinf(n) else K.min_level(base, n)

    cfg = E.SweepConfig(family=fam, params=(4.0, 16.0, 64.0),
                        hs=(1 / 8, 1 / 16, 1 / 32),
                        reference="fine_nonlocal_fem",
                        reference_kernel=base, reference_h=1 / 128)
    table = E.ac_nonlocal_sweep(cfg)
    diag = [e for _, _, e in table.diagonal()]
    assert diag[0] > diag[1] > diag[2]
    assert E.classify_trend(diag) == "decreasing"


def test_unbounded_level_row_matches_direct_solve():
    # level = inf leaves the kernel untouched, so the sweep entry must
    # reproduce the plain discretization error for the limit kernel
    base = K.riesz_truncated(1, 0.5)

    def fam(n):
        return base if math.isinf(n) else K.min_level(base, n)

    cfg = E.SweepConfig(family=fam, params=(math.inf,), hs=(1 / 8,),
                        reference="fine_nonlocal_fem",
                        reference_kernel=base, reference_h=1 / 64)
    table = E.ac_nonlocal_sweep(cfg)

    mesh = F.Mesh1D(1.0, 8)
    u = F.p1_interpolant(mesh, F.solve_state(F.assemble(base, 1, 1.0, 1.0,
                                                        mesh)))
    fine = F.Mesh1D(1.0, 64)
    ref = F.p1_interpolant(fine, F.solve_state(F.assemble(base, 1, 1.0, 1.0,
                                                          fine)))
    direct = E._l2_error(u, ref, 1.0, 64)
    assert table.rows[0][2] == direct


def test_exponent_ladder_errors_shrink_toward_the_limit():
    def fam(s):
        return K.riesz_truncated(1, s)

    cfg = E.SweepConfig(family=fam, params=(0.3, 0.4, 0.45, 0.5),
                        hs=(1 / 16,), reference="fine_nonlocal_fem",
                        reference_kernel=fam(0.5), reference_h=1 / 64)
    errors = [r[2] for r in E.ac_nonlocal_sweep(cfg).rows]
    assert errors[0] > errors[1] > errors[2] > errors[3]
    assert errors[3] < 0.2 * errors[2]


def test_errors_are_insensitive_to_the_reference_resolution():
    kw = dict(family=ball_family, params=(0.2, 0.1), hs=(1 / 8, 1 / 16),
              reference="fine_local_fem")
    coarse = E.ac_local_sweep(E.SweepConfig(reference_h=1 / 64, **kw))
    fine = E.ac_local_sweep(E.SweepConfig(reference_h=1 / 128, **kw))
    for (_, _, a), (_, _, b) in zip(coarse.rows, fine.rows):
        assert abs(a - b) <= 0.05 * a


def test_closed_form_and_fem_references_agree():
    kw = dict(family=ball_family, params=(0.2, 0.1), hs=(1 / 8, 1 / 16))
    analytic = E.ac_local_sweep(E.SweepConfig(**kw))
    fem = E.ac_local_sweep(E.SweepConfig(reference="fine_local_fem",
                                         reference_h=1 / 128, **kw))
    for (_, _, a), (_, _, b) in zip(analytic.rows, fem.rows):
        assert abs(a - b) <= 0.05 * a


def test_sweep_is_deterministic():
    cfg = E.SweepConfig(family=ball_family, params=(0.2, 0.1),
                        hs=(1 / 8, 1 / 16))
    first = E.ac_local_sweep(cfg)
    second = E.ac_local_sweep(cfg)
    assert first.rows == second.rows
    assert first.row_orders == second.row_orders


def test_poincare_sweep_over_horizons():
    table = E.poincare_sweep(ball_family, (0.2, 0.1, 0.05), h=1 / 64)
    cps = [cp for _, _, cp in table.rows]
    assert cps[0] == pytest.approx(0.3616079138115814, rel=1e-9)
    assert cps[0] > cps[1] > cps[2] > 1.0 / math.pi
    assert max(cps) <= table.cap


def test_poincare_sweep_local_rows_approach_the_interval_constant():
    table = E.poincare_sweep(None, (1 / 8, 1 / 16, 1 / 32))
    assert [p for p, _, _ in table.rows] == [0.0, 0.0, 0.0]
    cps = [cp for _, _, cp in table.rows]
    errs = [abs(cp - 1.0 / math.pi) for cp in cps]
    assert errs[0] > errs[1] > errs[2]
    assert table.verdict


def test_poincare_sweep_requires_mesh_size_with_kernels():
    with pytest.raises(ValueError):
        E.poincare_sweep(ball_family, (0.2, 0.1))


def test_poincare_verdict_fails_above_cap():
    base = K.riesz_truncated(1, 0.5)
    table = E.poincare_sweep(lambda n: K.min_level(base, n), (4.0, 16.0),
                             h=1 / 32, cap=0.4)
    assert not table.verdict
    assert all(cp > 0.0 for _, _, cp in table.rows)
