import numpy as np
import pytest

import fem_oracle
from hsnl import _quad
from hsnl import fem1d as F
from hsnl import kernels as K
from hsnl import operators as O


def sorted_set_breaks(lo, hi, *candidate_lists):
    """Reference merge: a sorted Python set of the endpoints and of every
    candidate strictly inside (lo, hi)."""
    inside = {float(c) for cand in candidate_lists for c in cand
              if lo < c < hi}
    return np.array(sorted({float(lo), float(hi)} | inside))


def test_merge_breaks_matches_a_sorted_set():
    rng = np.random.default_rng(5)
    cands = (rng.uniform(-1.0, 2.0, 200), [0.0, 1.0, 0.5, 0.5, np.nan],
             np.array([]), (0.25, 1e-300, 1.0 - 1e-16))
    got = _quad.merge_breaks(0.0, 1.0, *cands)
    assert np.array_equal(got, sorted_set_breaks(0.0, 1.0, *cands))
    assert np.array_equal(_quad.merge_breaks(-2.0, 3.0), [-2.0, 3.0])


def roundoff_merged(breaks, gap):
    """The two ends, and each inner edge more than gap above the edge
    before it and more than gap below the last."""
    inner = [b for a, b in zip(breaks, breaks[1:-1])
             if b - a > gap and breaks[-1] - b > gap]
    return np.array([breaks[0], *inner, breaks[-1]])


# a horizon narrower than a cell, the ball, a singular profile, and a
# min_level kernel whose breakpoint 1/16 is a multiple of h, so node minus
# breakpoint meets other nodes up to roundoff and those edges are merged
X_BREAK_CASES = {
    "near_local": (K.rescaled(K.constant_ball(), 0.05), 8),
    "ball0.2": (K.rescaled(K.constant_ball(), 0.2), 16),
    "riesz": (K.riesz_truncated(1, 0.5), 13),
    "min_level": (K.min_level(K.riesz_truncated(1, 0.5), 64), 64),
}


@pytest.mark.parametrize("nu", [1, -1])
@pytest.mark.parametrize("name", list(X_BREAK_CASES))
def test_x_panels_match_sorted_set_breaks(name, nu):
    kern, n = X_BREAK_CASES[name]
    mesh = F.Mesh1D(1.0, n)
    top = K.support(kern)[1]
    lo, hi = (-top, mesh.length) if nu > 0 else (0.0, mesh.length + top)
    offsets = [0.0, top] + list(K.breakpoints(kern))
    cand = [node - nu * b for node in mesh.nodes for b in offsets]
    breaks = sorted_set_breaks(lo, hi, cand, mesh.nodes)
    want = _quad.panel_points(roundoff_merged(breaks, 1e-12 * mesh.h), 8)
    got = fem_oracle.x_panels(kern, nu, mesh)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("kern,t0,top", [
    (K.rescaled(K.constant_ball(), 0.3), 0.0, 0.3),
    (K.riesz_truncated(1, 0.5), 1e-4, 1.0),
    (K.min_level(K.riesz_truncated(1, 0.5), 64), 0.0, 1.0),
    (K.fractional_vanishing(1, 0.3), 0.0, 40.0),
], ids=["ball", "riesz", "min_level", "fractional_tail"])
def test_radial_nodes_match_sorted_set_breaks(monkeypatch, kern, t0, top):
    got = O._radial_nodes(kern, t0, top)
    monkeypatch.setattr(O, "merge_breaks", sorted_set_breaks)
    want = O._radial_nodes(kern, t0, top)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
