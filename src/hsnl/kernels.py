"""Radial kernel families for half-space nonlocal operators.

A kernel is a nonnegative radial weight w(z) = profile(|z|) on R^d.  Every
family must satisfy the standing integrability conditions: the first moment
near the origin M1 = int_{|z|<=1} |z| w dz lies in (0, inf) and the tail
mass M2 = int_{|z|>1} w dz is finite.

Families:

  constant_ball        c * chi_{|z|<=1}, default c = 2d(d+1)/omega_{d-1}
                       so the full first moment equals 2d
  riesz_truncated      |z|^{-d-s} chi_{|z|<=1},  s in (0,1)
  fractional_vanishing 2 d delta |z|^{delta-d-1} on all of R^d
  log_regularized      c |log delta|^{-1} |z|^{-1} (|z|+delta)^{-d}
  log_truncated        (2d/omega_{d-1}) |log delta|^{-1} |z|^{-d-1}
                       on delta < |z| < 1
  min_level            min{n, w_base} pointwise
  rescaled             delta^{-d-1} w_base(z/delta)
  cutoff               w_base * chi_{|z|<=R}
  tabulated            samples interpolated linearly in log r; the sampled
                       range defines the support (no extrapolation)

The radial profiles are piecewise analytic (powers, linear-in-log-r
segments, or the log_regularized shape).  Each piece kind has one
vectorized antiderivative of r^q * profile and one divergence rule, and
every moment integral (batched, memoized or as an antiderivative) is built
on them, never on quadrature.  Below 0.9 delta, where the log_regularized
primitive cancels, that piece takes the scaled moments of _logreg_moments
instead, as the symbol engine's Taylor zone does, and from 6 delta on its
expansion in delta/t (_logreg_far_terms), as the symbol engine's far tail
does.  tests/kernel_oracle.py keeps scalar closed forms to check them
against.  Divergent integrals are math.inf.

Kernels are immutable; every operation is a pure function of its inputs.
"""

import functools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from ._quad import BLOCK_ENTRIES

_DELTA_LADDER = (0.2, 0.1, 0.05, 0.025)
_MOMENT_RADII = (0.25, 0.5, 1.0, 2.0, 4.0)
_FAR_START = 6.0   # a logreg piece takes its expansion from 6 delta on
_FAR_TERMS = 40    # terms of that expansion


class AssumptionError(ValueError):
    """A kernel violates the standing integrability conditions."""


def surface_measure(d):
    """Surface measure of the unit sphere in R^d (2, 2 pi, 4 pi)."""
    if d == 1:
        return 2.0
    if d == 2:
        return 2.0 * math.pi
    if d == 3:
        return 4.0 * math.pi
    raise ValueError(f"dimension {d} not supported")


@dataclass(frozen=True)
class Kernel:
    family: str
    d: int
    params: tuple
    c_norm: float = 1.0
    base: "Kernel | None" = None

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        tail = f", c_norm={self.c_norm}" if self.c_norm != 1.0 else ""
        if self.base is not None:
            inner = f"{inner}, base={self.base!r}" if inner else f"base={self.base!r}"
        return f"Kernel({self.family}, d={self.d}{', ' if inner else ''}{inner}{tail})"


def _p(kernel, name):
    for k, v in kernel.params:
        if k == name:
            return v
    raise KeyError(name)


def _check_d(d):
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2, or 3, got {d}")


def constant_ball(d=1, c=None):
    """Constant kernel on the unit ball.

    The default constant 2d(d+1)/omega_{d-1} makes the full first moment
    exactly 2d (it reduces to the profile 2*chi_{r<=1} when d=1).
    """
    _check_d(d)
    if c is None:
        c = 2.0 * d * (d + 1) / surface_measure(d)
    if c <= 0:
        raise ValueError("constant_ball needs a positive constant")
    return Kernel("constant_ball", d, (("c", float(c)),))


def riesz_truncated(d, s):
    if not 0.0 < s < 1.0:
        raise ValueError("riesz exponent s must lie in (0, 1)")
    _check_d(d)
    if d + s == d:
        raise ValueError("riesz exponent s = %g is lost in d + s" % s)
    return Kernel("riesz_truncated", d, (("s", float(s)),))


def fractional_vanishing(d, delta, normalize=True):
    """Vanishing-horizon fractional kernel 2 d delta |z|^{delta-d-1}.

    With normalize=True the weight carries the factor 1/omega_{d-1}, which
    makes the delta->0 limit of int_{B_R} |z| w dz equal to 2d in every
    dimension; the raw form has limit 2d*omega_{d-1} instead.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    _check_d(d)
    cn = 1.0 / surface_measure(d) if normalize else 1.0
    return Kernel("fractional_vanishing", d, (("delta", float(delta)),), c_norm=cn)


def log_regularized(d, delta, normalize=True):
    """The borderline kernel |z|^{-1}(|z|+delta)^{-d}, log-normalized.

    The |log delta|^{-1} factor is always present; normalize=True adds the
    constant 2d/omega_{d-1} so the delta->0 first-moment limit over any
    fixed ball is 2d.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    _check_d(d)
    cn = 2.0 * d / surface_measure(d) if normalize else 1.0
    return Kernel("log_regularized", d, (("delta", float(delta)),), c_norm=cn)


def log_truncated(d, delta):
    """(2d/omega_{d-1}) |log delta|^{-1} |z|^{-d-1} on delta < |z| < 1.

    The stated constant already gives first moment exactly 2d for every
    delta, so no further normalization is applied.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    _check_d(d)
    # the profile peaks at |z| = delta, about delta^{-d-1}
    if delta ** (d + 1.0) < sys.float_info.min:
        raise ValueError("delta %g overflows the kernel profile" % delta)
    return Kernel("log_truncated", d, (("delta", float(delta)),))


def min_level(base, level):
    """Pointwise truncation min{level, w_base}, keeping the base tail."""
    if level <= 0:
        raise ValueError("level must be positive")
    return Kernel("min_level", base.d, (("level", float(level)),), base=base)


def rescaled(base, delta):
    """Horizon rescaling delta^{-d-1} w_base(z/delta)."""
    if delta <= 0:
        raise ValueError("rescaling delta must be positive")
    _delta_power(delta, -base.d - 1)    # the profile's scale must be a float
    return Kernel("rescaled", base.d, (("delta", float(delta)),), base=base)


def cutoff(base, radius):
    """Tail cutoff w_base * chi_{|z|<=radius}."""
    if radius <= 0:
        raise ValueError("cutoff radius must be positive")
    start = _pieces(base)[0][1]
    if radius <= start:
        raise ValueError("cutoff radius %g is at or below the support start "
                         "%g of its base" % (radius, start))
    return Kernel("cutoff", base.d, (("radius", float(radius)),), base=base)


def tabulated(d, radii, values):
    """Kernel from samples (r_i, w_i), linear in log r between samples.

    The sampled range is the support; the profile is never extrapolated
    beyond it and evaluates to zero outside.
    """
    _check_d(d)
    radii = tuple(float(r) for r in radii)
    values = tuple(float(v) for v in values)
    if len(radii) != len(values) or len(radii) < 2:
        raise ValueError("need at least two matching (radius, value) samples")
    if radii[0] <= 0 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be positive and strictly increasing")
    return Kernel("tabulated", d, (("radii", radii), ("values", values)))


# ---------------------------------------------------------------------------
# Piecewise-analytic radial decomposition.
#
# Each piece is a tuple (kind, a, b, *data) describing the profile on (a, b):
#   ("pow", a, b, coeff, p)          coeff * r^p
#   ("loglin", a, b, u, v)           u + v * log(r)
#   ("logreg", a, b, coeff, dl, dd)  coeff * r^{-1} (r + dl)^{-dd}
# The c_norm factor of the kernel (and of every wrapped base) is folded in.
# ---------------------------------------------------------------------------

def _scale_piece(piece, factor):
    # the coefficient, and for loglin pieces both u and v, take the factor
    kind, a, b, x, y = piece[:5]
    y = y * factor if kind == "loglin" else y
    return (kind, a, b, x * factor, y) + piece[5:]


def _min_level_pieces(pieces, n):
    out = []
    for piece in pieces:
        kind, a, b = piece[0], piece[1], piece[2]
        if kind != "pow":
            raise ValueError("min_level supports piecewise-power bases only")
        c, p = piece[3], piece[4]
        if p == 0:
            out.append(("pow", a, b, min(c, n), 0.0))
            continue
        rstar = (n / c) ** (1.0 / p)
        if p < 0:
            # decreasing: capped at n left of rstar
            lo, hi = min(max(rstar, a), b), b
            if a < lo:
                out.append(("pow", a, lo, n, 0.0))
            if lo < hi:
                out.append(("pow", lo, hi, c, p))
        else:
            lo, hi = a, min(max(rstar, a), b)
            if lo < hi:
                out.append(("pow", lo, hi, c, p))
            if hi < b:
                out.append(("pow", hi, b, n, 0.0))
    return out


@functools.lru_cache(maxsize=1024)
def _pieces(kernel):
    """The kernel's piece table as a tuple, built once per kernel."""
    return tuple(_build_pieces(kernel))


def _delta_power(delta, exponent):
    """delta ** exponent for a rescaled coefficient; ValueError if it
    overflows or underflows to 0."""
    try:
        power = delta ** exponent
    except OverflowError:
        power = math.inf
    if not 0.0 < power < math.inf:
        raise ValueError("rescaling delta %g %s the kernel coefficient"
                         % (delta, "overflows" if power else "underflows"))
    return power


def _build_pieces(kernel):
    fam = kernel.family
    d = kernel.d
    cn = kernel.c_norm
    if fam == "constant_ball":
        return [("pow", 0.0, 1.0, cn * _p(kernel, "c"), 0.0)]
    if fam == "riesz_truncated":
        return [("pow", 0.0, 1.0, cn, -d - _p(kernel, "s"))]
    if fam == "fractional_vanishing":
        dl = _p(kernel, "delta")
        return [("pow", 0.0, math.inf, cn * 2.0 * d * dl, dl - d - 1.0)]
    if fam == "log_regularized":
        dl = _p(kernel, "delta")
        return [("logreg", 0.0, math.inf, cn / abs(math.log(dl)), dl, d)]
    if fam == "log_truncated":
        dl = _p(kernel, "delta")
        coeff = cn * (2.0 * d / surface_measure(d)) / abs(math.log(dl))
        return [("pow", dl, 1.0, coeff, -d - 1.0)]
    if fam == "tabulated":
        radii = _p(kernel, "radii")
        values = _p(kernel, "values")
        out = []
        for (r0, w0), (r1, w1) in zip(zip(radii, values), zip(radii[1:], values[1:])):
            v = (w1 - w0) / (math.log(r1) - math.log(r0))
            u = w0 - v * math.log(r0)
            out.append(("loglin", r0, r1, cn * u, cn * v))
        return out
    if fam == "min_level":
        return [_scale_piece(q, cn) for q in
                _min_level_pieces(_pieces(kernel.base), _p(kernel, "level"))]
    if fam == "rescaled":
        dl = _p(kernel, "delta")
        out = []
        for piece in _pieces(kernel.base):
            kind, a, b = piece[0], dl * piece[1], dl * piece[2]
            if kind == "pow":
                c, p = piece[3], piece[4]
                out.append(("pow", a, b,
                            cn * c * _delta_power(dl, -kernel.d - 1 - p), p))
            elif kind == "loglin":
                u, v = piece[3], piece[4]
                s = _delta_power(dl, -kernel.d - 1)
                out.append(("loglin", a, b, cn * s * (u - v * math.log(dl)), cn * s * v))
            else:  # logreg keeps its shape with a shrunk delta
                c, d0, dd = piece[3], piece[4], piece[5]
                out.append(("logreg", a, b, cn * c, dl * d0, dd))
        return out
    if fam == "cutoff":
        radius = _p(kernel, "radius")
        out = []
        for piece in _pieces(kernel.base):
            a, b = piece[1], min(piece[2], radius)
            if a < b:
                out.append(_scale_piece((piece[0], a, b) + piece[3:], cn))
        return out
    raise ValueError(f"unknown family {fam}")


def support(kernel):
    """Radial support interval (lo, hi); hi may be math.inf."""
    ps = _pieces(kernel)
    return ps[0][1], ps[-1][2]


def breakpoints(kernel):
    """Interior radii where the profile changes its analytic form."""
    ps = _pieces(kernel)
    edges = {p[1] for p in ps} | {p[2] for p in ps}
    return sorted(e for e in edges if 0.0 < e < math.inf)


def origin_exponent(kernel):
    """p such that the profile behaves like r^p as r -> 0 inside the support."""
    piece = _pieces(kernel)[0]
    if piece[1] > 0:
        return 0.0
    if piece[0] == "pow":
        return piece[4]
    if piece[0] == "logreg":
        return -1.0
    return 0.0


def is_singular(kernel):
    """True when the profile is unbounded at the origin."""
    return _pieces(kernel)[0][1] == 0.0 and origin_exponent(kernel) < 0


def declared_monotone(kernel):
    """Whether the family guarantees a nonincreasing profile on (0, inf)."""
    fam = kernel.family
    if fam in ("constant_ball", "riesz_truncated", "fractional_vanishing",
               "log_regularized"):
        return True
    if fam in ("min_level", "rescaled", "cutoff"):
        return declared_monotone(kernel.base)
    if fam == "tabulated":
        values = _p(kernel, "values")
        return all(b <= a for a, b in zip(values, values[1:]))
    return False


def _eval_piece(piece, r):
    kind = piece[0]
    if kind == "pow":
        return piece[3] * r ** piece[4]
    if kind == "loglin":
        return piece[3] + piece[4] * np.log(r)
    c, dl, dd = piece[3], piece[4], piece[5]
    return c / r * (r + dl) ** (-float(dd))


def eval(kernel, r):
    """Radial profile value(s) at r > 0 (scalar or ndarray)."""
    arr = np.asarray(r, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("kernel profile is defined for r > 0 only")
    out = np.zeros_like(arr)
    for piece in _pieces(kernel):
        a, b = piece[1], piece[2]
        mask = (arr > a) & (arr <= b) if b < math.inf else (arr > a)
        if mask.all():
            out[...] = _eval_piece(piece, arr)
        elif mask.any():
            out[mask] = _eval_piece(piece, arr[mask])
    return float(out) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# Closed-form integrals int_a^b r^q * profile(r) dr, all built on one
# antiderivative (_primitive) and one divergence rule (_divergent_ends) per
# piece kind, and for logreg pieces on the moments (_logreg_moments) below
# 0.9 delta and the expansion in delta/t (_logreg_far_terms) from 6 delta.
# A scalar q stays a scalar, so t ** (p + q + 1) takes NumPy's
# scalar-exponent path in every caller that passes one.
# ---------------------------------------------------------------------------

def _primitive(piece, q, t):
    """Antiderivative of t^q * profile of one piece at t, elementwise."""
    kind = piece[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "pow":
            c, ep1 = piece[3], piece[4] + q + 1.0
            out = c * t ** ep1 / ep1
            at_log = ep1 == 0.0
            return np.where(at_log, c * np.log(t), out) \
                if np.count_nonzero(at_log) else out
        if kind == "loglin":
            u, v, qp1 = piece[3], piece[4], q + 1.0
            lt = np.log(t)
            s = t ** qp1 / qp1
            return np.where(qp1 == 0.0, u * lt + v * lt * lt / 2.0,
                            u * s + v * s * (lt - 1.0 / qp1))
        m = _logreg_order(q)    # a scalar q here
        if m >= 1:  # the integral from 0: the primitive cancels near 0
            return _logreg_integrals(piece, q, np.zeros(t.size),
                                     t.ravel()).reshape(t.shape)
        return piece[3] * _logreg_primitive(m, piece[4], piece[5], t)


def _divergent_ends(piece, q):
    """Whether int t^q * profile of the piece diverges at 0 and at inf.

    Where it converges, a pow primitive tends to 0 at 0 and at inf, and a
    logreg primitive at m <= 0 tends to 0 at inf.
    """
    if piece[0] == "logreg":
        m = _logreg_order(q)
        return m <= -1, m - piece[5] + 1 >= 0
    ep1 = piece[4] + q + 1.0 if piece[0] == "pow" else q + 1.0
    return ep1 <= 0.0, ep1 >= 0.0


def _logreg_order(q):
    """The integer m = q - 1 >= -1 of t^m (t + dl)^{-dd}; raises otherwise."""
    m = np.asarray(q, dtype=float) - 1.0
    if np.any((np.abs(m - np.round(m)) > 1e-12) | (m < -1.5)):
        raise ValueError("log_regularized integrals need integers q >= 0")
    return np.round(m).astype(int)


def _radial_integrals(kernel, a, b, q):
    """int_a^b r^q profile(r) dr elementwise over broadcast a, b and q.

    Each piece adds primitive(hi) - primitive(lo) where the interval meets
    it, in piece order; divergent entries are math.inf.  An entry's value
    does not depend on the rest of the batch.  Nothing is memoized.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    q = np.asarray(q, dtype=float)
    if q.ndim:
        a, b, q = np.broadcast_arrays(a, b, q)
    total = np.zeros(a.shape)
    diverged = np.zeros(a.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for piece in _pieces(kernel):
            lo, hi = np.maximum(a, piece[1]), np.minimum(b, piece[2])
            meets = lo < hi
            if not meets.any():
                continue
            lo, hi = lo[meets], hi[meets]
            qm = q[meets] if q.ndim else q
            at0, at_inf = _divergent_ends(piece, qm)
            diverged[meets] |= (lo == 0.0) & at0 | (hi == math.inf) & at_inf
            if piece[0] == "logreg":
                total[meets] += _logreg_integrals(piece, qm, lo, hi)
            else:
                total[meets] += (
                    np.where(hi < math.inf, _primitive(piece, qm, hi), 0.0)
                    - np.where(lo > 0.0, _primitive(piece, qm, lo), 0.0))
    total[diverged] = math.inf
    return total


@functools.lru_cache(maxsize=262144)
def radial_integral(kernel, a, b, q):
    """Closed-form int_a^b r^q profile(r) dr (math.inf when divergent).

    _radial_integrals on one interval, memoized: kernels are immutable and
    hashable, and moment scans hit the same integrals many times.
    """
    if a < 0 or b < a:
        raise ValueError("need 0 <= a <= b")
    if a == b:
        return 0.0
    return float(_radial_integrals(kernel, [a], [b], q)[0])


def _logreg_integrals(piece, q, a, b):
    """A logreg piece's integrals: for m >= 0 below 0.9 dl, where the
    primitive cancels, dl^-dd z^(m+1) I_m(z/dl) at both ends from one
    _logreg_moments call per order (so an entry's bits do not depend on its
    batch); from a >= 6 dl on the expansion in dl/t, where the primitive
    cancels when b - a << a; the primitive in between and for m = -1."""
    coeff, dl, dd = piece[3], piece[4], piece[5]
    m = np.broadcast_to(_logreg_order(q), a.shape)
    split = 0.9 * dl
    near = (m >= 0) & (a < split)
    out = np.zeros(a.shape)
    for order in np.unique(m[near]):
        idx = np.flatnonzero(near & (m == order))
        ends = np.concatenate([np.minimum(b[idx], split), a[idx]])
        scaled = ends ** (order + 1.0) * _logreg_moments(
            dd, ends / dl, order, order)[:, 0]
        out[idx] = coeff * dl ** float(-dd) * (scaled[:idx.size]
                                              - scaled[idx.size:])
    far = a >= _FAR_START * dl
    if far.any():
        # term j adds coeff_j int_a^b t^(p_j + q) dt, the gap at beta = p_j
        # + q + 1 = p_j + m + 2, and coeff_j a^beta = scaled_j a^(m + 1 -
        # dd).  All 40 terms: the mask's 1e-25 floor is absolute, and an
        # integral far out may itself be smaller
        af, mf = a[far], m[far]
        scaled, exps, _ = _logreg_far_terms(piece, af)
        gaps = _power_gap(exps + (mf + 2.0)[:, None], af[:, None],
                          b[far][:, None], af[:, None])
        out[far] = af ** (mf + 1.0 - dd) * (scaled * gaps).sum(axis=1)
    lo = np.where(near, np.maximum(a, split), a)
    closed = (lo < b) & ~far
    if closed.any():
        lo, hi, mc = lo[closed], b[closed], m[closed]
        b_val = np.where(hi == math.inf, 0.0,
                         _logreg_primitive(mc, dl, dd, hi))
        val = b_val - _logreg_primitive(mc, dl, dd, lo)
        out[closed] = out[closed] + coeff * val
    return out


@functools.lru_cache(maxsize=64)
def _logreg_far_table(coeff, dl, dd):
    """Coefficients coeff comb(dd + j - 1, j) (-dl)^j and exponents
    -1 - dd - j, j < 40, of a logreg piece's expansion in (dl/t)."""
    coeffs = np.array([coeff * math.comb(dd + j - 1, j) * (-dl) ** j
                       for j in range(_FAR_TERMS)])
    exps = -1.0 - dd - np.arange(float(_FAR_TERMS))
    coeffs.flags.writeable = exps.flags.writeable = False  # shared
    return coeffs, exps


def _logreg_far_terms(piece, a):
    """The terms coeff_j t^p_j of a logreg piece on t > a >= 6 dl, where a
    term is at most (dd + j)/(6 (j + 1)) of the one before: the (entries,
    40) scaled coefficients coeff_j a^-j (no under- or overflow at small
    dl), the exponents p_j, and the mask of the terms an entry takes: all
    j < 5, then j while the terms 5 .. j are at least 1e-25 at its start.
    """
    coeff, dl, dd = piece[3], piece[4], piece[5]
    at_one, exps = _logreg_far_table(coeff, 1.0, dd)    # coeff_j at dl = 1
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = at_one * (dl / a)[:, None] ** np.arange(float(_FAR_TERMS))
        big = np.abs(scaled[:, 5:]) * a[:, None] ** (-1.0 - dd) >= 1e-25
    live = np.ones(scaled.shape, dtype=bool)
    live[:, 5:] = np.logical_and.accumulate(big, axis=1)
    return scaled, exps, live


def _power_gap(beta, lo, hi, scale=1.0):
    """(hi^beta - lo^beta) / (beta scale^beta) elementwise, 0 < lo < hi <=
    inf: log(hi / lo) at beta = 0, -lo^beta / beta at hi = inf.

    The larger power is factored out, so expm1 takes |beta| log(lo / hi)
    <= 0 and beta near 0 has no pole; log(lo / hi) is log1p((lo - hi) /
    hi) where lo / hi >= 1/2, so a short interval far out keeps its digits.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = lo / hi
        log_ratio = np.where(ratio < 0.5, np.log(ratio),
                             np.log1p((lo - hi) / hi))
        size = np.abs(beta)
        gap = (-(np.where(beta > 0.0, hi, lo) / scale) ** beta
               * np.expm1(size * log_ratio) / size)
        return np.where(beta == 0.0, -log_ratio, gap)


def _logreg_primitive(m, dl, dd, t):
    """Antiderivative of t^m (t+dl)^{-dd} for integer m >= -1 (int or array).

    For m >= 0 it cancels catastrophically far inside (0, dl), where the
    integrals take the scaled moments instead.
    """
    t = np.asarray(t, dtype=float)
    shape = t.shape
    t = t.ravel()
    m = np.broadcast_to(np.asarray(m, dtype=int), shape).ravel()
    out = np.empty(t.shape)
    low = m < 0
    if low.any():
        # log(t/(t+dl)) / dl^dd + sum_{0<k<dd} 1 / (k dl^(dd-k) (t+dl)^k),
        # the log as -log1p(dl/t), which does not cancel at large t, and
        # as log t - log dl where dl/t overflows
        tl = t[low]
        log = -np.log1p(dl / tl)
        tiny = np.isinf(log)
        if tiny.any():
            log[tiny] = np.log(tl[tiny]) - math.log(dl)
        acc = log / dl ** dd
        for k in range(1, dd):
            acc = acc + 1.0 / (k * dl ** (dd - k) * (tl + dl) ** k)
        out[low] = acc
    high = ~low
    if high.any():
        th, mh = t[high], m[high]
        top = int(mh.max())
        binom = _logreg_binomials(top, dl)
        total = np.zeros(th.shape)
        # j runs in the order of the binomial sum; entries with m < j add 0
        for j in range(top + 1):
            e = j - dd + 1
            cj = binom[mh, j]
            if e == 0:
                total += cj * np.log(th + dl)
            else:
                total += cj * (th + dl) ** e / e
        out[high] = total
    return out.reshape(shape)


@functools.lru_cache(maxsize=64)
def _logreg_binomials(top, dl):
    """Table of comb(m, j) (-dl)^(m-j) for 0 <= j <= m <= top, else 0."""
    table = np.zeros((top + 1, top + 1))
    for m in range(top + 1):
        for j in range(m + 1):
            table[m, j] = math.comb(m, j) * (-dl) ** (m - j)
    table.flags.writeable = False  # shared by every caller of the cache
    return table


def _logreg_moments(dd, u, lo, hi):
    """int_0^1 s^m (1 + u s)^-dd ds for m = lo .. hi, one row per u >= 0.

    These are the partial moments int_0^z t^m (t + dl)^-dd dt scaled by
    dl^dd / z^(m+1), u = z / dl, so they lie in (0, 1/(m+1)] and neither
    overflow nor underflow; they are 2F1(dd, m+1; m+2; -u) / (m+1).  With
    I^j_m the moment of (1 + u s)^-j, I^0_m = 1/(m+1) and

        I^j_m = (I^{j-1}_{m-1} - I^j_{m-1}) / u,

    run forward from m = 0, where it shrinks the error of an order by 1/u
    a step.  For u below 16^(1/(hi-lo)), about 1.1 for 30 orders, and
    below 2 for any range, the recurrence runs backward instead,
    I^j_{m-1} = I^{j-1}_{m-1} - u I^j_m, which shrinks errors for u < 1
    and grows them by at most 16 in all (forward errors pile up near
    u = 1, to 1e-13 by order 30 at j = 2).  It starts at the order hi,
    where (1 + u s)^-j expanded about s = 1 gives the series
    (1+u)^-j / (hi+1) sum_n (j)_n / (hi+2)_n x^n, x = u / (1 + u) <= 2/3
    (DLMF 15.8.1 on 15.2.1), summed until a term is at most 1e-17 of its
    sum in every row.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty((u.size, hi - lo + 1))
    split = min(16.0 ** (1.0 / max(hi - lo, 1)), 2.0)
    fwd = np.flatnonzero(u >= split)
    if fwd.size:
        uf = u[fwd]
        # rows I^0_m .. I^dd_m, from I^j_0 = log1p(u)/u at j = 1 and
        # (1 - (1+u)^(1-j)) / ((j-1) u) above
        cur = np.empty((dd + 1, uf.size))
        cur[0] = 1.0
        cur[1] = np.log1p(uf) / uf
        for j in range(2, dd + 1):
            cur[j] = (1.0 - (1.0 + uf) ** (1.0 - j)) / ((j - 1.0) * uf)
        for m in range(hi + 1):
            if m >= lo:
                out[fwd, m - lo] = cur[dd]
            cur[1:] = (cur[:-1] - cur[1:]) / uf
            cur[0] = 1.0 / (m + 2.0)
    back = np.flatnonzero(u < split)
    if back.size:
        ub = u[back]
        x = ub / (1.0 + ub)
        levels = np.arange(1.0, dd + 1.0)[:, None]
        term = np.full((dd, ub.size), 1.0 / (hi + 1.0))
        total = term.copy()
        # term n = term n-1 * x * (j + n - 1) / (hi + n + 1), n < 200, in
        # blocks: cumulative products over the interleaved factors and
        # cumulative sums repeat the operations of a term-by-term loop
        width = max(2, min(64, BLOCK_ENTRIES // (dd * ub.size)))
        for n0 in range(1, 200, width):
            ns = np.arange(n0, min(n0 + width, 200))
            steps = np.empty((dd, ub.size, 2 * ns.size))
            steps[:, :, 0::2] = x[:, None]
            steps[:, :, 1::2] = ((levels + (ns - 1.0))
                                 / (hi + ns + 1.0))[:, None, :]
            terms = np.cumprod(np.concatenate([term[:, :, None], steps],
                                              axis=2), axis=2)[:, :, 2::2]
            sums = np.cumsum(np.concatenate([total[:, :, None], terms],
                                            axis=2), axis=2)[:, :, 1:]
            stop = np.flatnonzero(np.all(terms <= 1e-17 * sums, axis=(0, 1)))
            last = stop[0] if stop.size else -1
            term, total = terms[:, :, last], sums[:, :, last]
            if stop.size:
                break
        cur = total * (1.0 + ub) ** -levels    # rows I^1_hi .. I^dd_hi
        for m in range(hi, lo - 1, -1):
            out[back, m - lo] = cur[-1]
            if m > lo:
                below = 1.0 / m      # I^0_{m-1}, then I^1_{m-1}, ...
                for j in range(dd):
                    below = below - ub * cur[j]
                    cur[j] = below
    return out


def radial_antideriv(kernel, q):
    """Vectorized H with H(y) - H(x) = int_x^y r^q profile dr, plus H(inf).

    Returns (H, H_inf) where H maps an ndarray of radii to antiderivative
    values (up to an arbitrary global constant; only differences carry
    meaning) and H_inf is the value at infinity, or math.inf when the tail
    integral diverges.  H(0) is -inf when the integrand is not integrable
    at the origin.
    """
    pieces = _pieces(kernel)
    starts = np.array([p[1] for p in pieces])
    last_b = pieces[-1][2]

    def f_at(i, t):
        return float(_primitive(pieces[i], q, np.asarray(t, dtype=float)))

    # continuity constants; H vanishes at the lower edge, or at an interior
    # point of the first piece when the integral diverges at the origin
    anchor, b0 = pieces[0][1], pieces[0][2]
    if anchor == 0.0 and _divergent_ends(pieces[0], q)[0]:
        anchor = b0 if b0 < math.inf else 1.0
    consts = [-f_at(0, anchor)]
    for i in range(len(pieces) - 1):
        e = pieces[i][2]
        consts.append(consts[i] + f_at(i, e) - f_at(i + 1, e))
    if last_b < math.inf:
        h_inf = consts[-1] + f_at(len(pieces) - 1, last_b)
    else:  # a logreg primitive need not vanish at infinity
        h_inf = float(_radial_integrals(kernel, [anchor], [math.inf], q)[0])

    def H(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        idx = np.clip(np.searchsorted(starts, x, side="right") - 1,
                      0, len(pieces) - 1)
        for i, piece in enumerate(pieces):
            m = idx == i
            if np.any(m):
                out[m] = _primitive(piece, q, x[m]) + consts[i]
        if starts[0] > 0.0:
            out[x <= starts[0]] = 0.0
        if last_b < math.inf:
            out[x >= last_b] = h_inf
        return out

    return H, h_inf


# ---------------------------------------------------------------------------
# Moments and validation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentReport:
    m1: float
    m2: float
    second_moment_ball: dict
    tail_mass: dict
    epsilon0: float


def partial_moments(kernel, a, b, order):
    """int_{a<|z|<b} |z|^order w(z) dz; math.inf signals a divergent mass."""
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    if a < 0 or b <= a:
        if b == a:
            return 0.0
        raise ValueError("need 0 <= a < b")
    q = order + kernel.d - 1
    val = radial_integral(kernel, a, b, q)
    return val if math.isinf(val) else surface_measure(kernel.d) * val


def second_moment_ball(kernel, radius):
    """int_{|z|<=radius} |z|^2 w(z) dz."""
    val = radial_integral(kernel, 0.0, radius, kernel.d + 1)
    return val if math.isinf(val) else surface_measure(kernel.d) * val


def tail_mass(kernel, radius):
    """int_{|z|>radius} w(z) dz."""
    val = radial_integral(kernel, radius, math.inf, kernel.d - 1)
    return val if math.isinf(val) else surface_measure(kernel.d) * val


def _epsilon0(kernel):
    for k in range(1, 61):
        eps = 0.5 ** k
        mass = partial_moments(kernel, eps, 1.0, 0)
        if 0.0 < mass < math.inf:
            return eps
    raise AssumptionError("no dyadic radius with positive annulus mass")


def standing_moments(kernel):
    """(M1, M2), the standing-condition moments; raises AssumptionError
    when M1 is not in (0, inf) or M2 is infinite."""
    m1 = partial_moments(kernel, 0.0, 1.0, 1)
    m2 = tail_mass(kernel, 1.0)
    if not 0.0 < m1 < math.inf:
        raise AssumptionError(f"first moment M1 = {m1} is not in (0, inf)")
    if math.isinf(m2):
        raise AssumptionError("tail mass M2 is infinite")
    return m1, m2


def moments(kernel):
    """Standing-condition moments; raises AssumptionError when violated."""
    m1, m2 = standing_moments(kernel)
    second = {r: second_moment_ball(kernel, r) for r in _MOMENT_RADII}
    tails = {r: tail_mass(kernel, r) for r in _MOMENT_RADII}
    return MomentReport(m1=m1, m2=m2, second_moment_ball=second,
                        tail_mass=tails, epsilon0=_epsilon0(kernel))


def _delta_limit_first_moment(kernel):
    """lim_{delta->0} int_{B_R} |z| w_delta dz when the family defines one."""
    if kernel.family == "fractional_vanishing":
        return kernel.c_norm * 2.0 * kernel.d * surface_measure(kernel.d)
    if kernel.family == "log_regularized":
        return kernel.c_norm * surface_measure(kernel.d)
    return None


def normalize_first_moment(kernel):
    """Scale the kernel so its full first moment equals 2d.

    For the vanishing-horizon families the full first moment diverges at
    fixed delta; there the delta->0 limit of int_{B_R} |z| w_delta dz is
    normalized to 2d instead (the limit does not depend on R).
    """
    full = partial_moments(kernel, 0.0, math.inf, 1)
    if math.isinf(full):
        limit = _delta_limit_first_moment(kernel)
        if limit is None:
            raise AssumptionError("infinite first moment and no known "
                                  "delta->0 normalization for this family")
        scale = 2.0 * kernel.d / limit
    else:
        if full <= 0.0:
            raise AssumptionError("first moment must be positive")
        scale = 2.0 * kernel.d / full
    return replace(kernel, c_norm=kernel.c_norm * scale)


def _rebuild_with_delta(kernel, delta):
    if kernel.family in ("fractional_vanishing", "log_regularized",
                         "log_truncated", "rescaled"):
        return replace(kernel, params=(("delta", float(delta)),))
    return None


def validate_assumptions(kernel):
    """Report-only check of the standing conditions and delta-family limits.

    Returns a dict with entries:
      m1_ok, m2_ok     standing moment conditions
      nonnegative      profile >= 0 on a log-spaced sample
      monotone         nonincreasing sample check for families declared
                       monotone in d=1 (None when not applicable)
      delta_ladder     per-delta first moments over B_1 and tail masses
                       beyond 0.5, for families with a horizon parameter
    """
    report = {}
    m1 = partial_moments(kernel, 0.0, 1.0, 1)
    m2 = tail_mass(kernel, 1.0)
    report["m1"] = m1
    report["m2"] = m2
    report["m1_ok"] = bool(0.0 < m1 < math.inf)
    report["m2_ok"] = bool(m2 < math.inf)
    lo, hi = support(kernel)
    lo_s = 1e-8 if lo == 0.0 else lo * (1.0 + 1e-9)
    if lo == 0.0 and hi < lo_s:     # ends below 1e-8: its last two decades
        lo_s = max(0.01 * hi, math.ulp(0.0))
    hi_eff = min(hi, max(8.0, 100.0 * lo_s))
    rs = np.geomspace(lo_s, hi_eff, 200)
    with np.errstate(over="ignore"):
        vals = eval(kernel, rs)
    if not np.all(np.isfinite(vals)):
        raise ValueError("the kernel profile overflows at r = %.3g, inside "
                         "its support" % rs[~np.isfinite(vals)][-1])
    report["nonnegative"] = bool(np.all(vals >= -1e-14))
    if kernel.d == 1 and declared_monotone(kernel):
        inside = vals[(rs > lo) & (rs <= hi_eff)]
        report["monotone"] = bool(np.all(np.diff(inside) <= 1e-12 * np.maximum(1.0, inside[:-1])))
    else:
        report["monotone"] = None
    ladder = {}
    for dl in _DELTA_LADDER:
        k2 = _rebuild_with_delta(kernel, dl)
        if k2 is None:
            break
        ladder[dl] = {
            "first_moment_ball1": partial_moments(k2, 0.0, 1.0, 1),
            "tail_beyond_half": tail_mass(k2, 0.5),
            "second_moment_ball1": second_moment_ball(k2, 1.0),
        }
    report["delta_ladder"] = ladder or None
    return report
