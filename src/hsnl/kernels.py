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
on them, never on quadrature; tests/kernel_oracle.py keeps scalar closed
forms to check them against.  Divergent integrals are math.inf.

Kernels are immutable; every operation is a pure function of its inputs.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ._quad import BLOCK_ENTRIES

_DELTA_LADDER = (0.2, 0.1, 0.05, 0.025)
_MOMENT_RADII = (0.25, 0.5, 1.0, 2.0, 4.0)


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
    return Kernel("rescaled", base.d, (("delta", float(delta)),), base=base)


def cutoff(base, radius):
    """Tail cutoff w_base * chi_{|z|<=radius}."""
    if radius <= 0:
        raise ValueError("cutoff radius must be positive")
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
    overflows."""
    try:
        return delta ** exponent
    except OverflowError:
        raise ValueError("rescaling delta %g overflows the kernel "
                         "coefficient" % delta) from None


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
# piece kind.  A scalar q stays a scalar, so t ** (p + q + 1) takes NumPy's
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
        return piece[3] * _logreg_primitive(_logreg_order(q), piece[4],
                                            piece[5], t)


def _divergent_ends(piece, q):
    """Whether int t^q * profile of the piece diverges at 0 and at inf.

    Where it converges, the primitive tends to 0 at inf (and at 0 for pow).
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
    """A logreg piece's integrals: series below 0.9 dl, primitive above."""
    coeff, dl, dd = piece[3], piece[4], piece[5]
    m = np.broadcast_to(_logreg_order(q), a.shape)
    split = 0.9 * dl
    out = np.zeros(a.shape)
    series = np.flatnonzero(a < split)
    if series.size:
        ms, top = m[series], np.minimum(b[series], split)
        # every interval reaching past the split shares its head (0, split)
        head = (a[series] == 0.0) & (top == split) & (ms >= 0)
        for mk in np.unique(ms[head]):
            out[series[head & (ms == mk)]] = _logreg_head(int(mk), dl, dd)
        rest = series[~head]
        if rest.size:
            out[rest] = _logreg_series(ms[~head], dl, dd, a[rest], top[~head])
        out[series] *= coeff
    closed = np.maximum(a, split) < b
    if closed.any():
        lo, hi, mc = np.maximum(a[closed], split), b[closed], m[closed]
        b_val = np.where(hi == math.inf, 0.0,
                         _logreg_primitive(mc, dl, dd, hi))
        val = b_val - _logreg_primitive(mc, dl, dd, lo)
        out[closed] = out[closed] + coeff * val
    return out


@functools.lru_cache(maxsize=1024)
def _logreg_head(m, dl, dd):
    """int_0^{0.9 dl} t^m (t+dl)^{-dd} dt, shared by every long interval."""
    return float(_logreg_series(np.array([m]), dl, dd, np.zeros(1),
                                np.array([0.9 * dl]))[0])


_SERIES_TERMS = 600


def _logreg_series(m, dl, dd, a, b):
    """int_a^b t^m (t+dl)^{-dd} dt per entry, for b <= 0.9 dl.

    Term j of the expansion of (1 + t/dl)^{-dd} is
    dl^{-dd} c_j (b^e - a^e) / e with e = m + 1 + j (log(b/a) at e = 0).
    An entry stops after the first term past j = 3 below 1e-17 of its sum.
    Running entries take blocks of terms whose cumulative products and sums
    start from the carried powers and sum: the operations of a term-by-term
    loop, whatever the batch.
    """
    out = np.empty(m.shape)
    idx = np.arange(m.size)
    # c_{j+1} = c_j * (-(dd + j) / (j + 1)), as a running product
    j = np.arange(_SERIES_TERMS - 1)
    scaled = dl ** float(-dd) * np.cumprod(np.append(1.0, -(dd + j)
                                                     / (j + 1.0)))
    # b^e and a^e (0 when a = 0) at the next term, and their ratios
    pows = np.stack([b ** (m + 1.0), np.where(a > 0.0, a ** (m + 1.0), 0.0)])
    ratios = np.stack([b, a]) / dl
    ratio = b / a  # overflows when a is subnormal
    log_ba = np.where(np.isinf(ratio) & (a > 0.0), np.log(b) - np.log(a),
                      np.log(ratio))
    total = np.zeros(m.shape)
    width = min(128, max(4, BLOCK_ENTRIES // m.size))
    for j0 in range(0, _SERIES_TERMS, width):
        js = np.arange(j0, min(j0 + width, _SERIES_TERMS))
        steps = np.broadcast_to(ratios[:, :, None], (2, idx.size, js.size - 1))
        chain = np.cumprod(np.concatenate([pows[:, :, None], steps], axis=2),
                           axis=2)
        e = m[:, None] + 1 + js
        terms = np.where(e == 0, scaled[js] * log_ba[:, None],
                         scaled[js] * (chain[0] - chain[1]) / e)
        sums = np.cumsum(np.column_stack([total, terms]), axis=1)[:, 1:]
        stop = (np.abs(terms) <= 1e-17 * np.abs(sums)) & (js > 3)
        done = stop.any(axis=1)
        out[idx[done]] = sums[done, np.argmax(stop[done], axis=1)]
        keep = ~done
        if not keep.any():
            return out
        idx, m, log_ba = idx[keep], m[keep], log_ba[keep]
        total, ratios = sums[keep, -1], ratios[:, keep]
        pows = chain[:, keep, -1] * ratios
    out[idx] = total
    return out


def _logreg_primitive(m, dl, dd, t):
    """Antiderivative of t^m (t+dl)^{-dd} for integer m >= -1 (int or array).

    It cancels catastrophically far inside (0, dl), where the integrals
    take the series instead.
    """
    t = np.asarray(t, dtype=float)
    shape = t.shape
    t = t.ravel()
    m = np.broadcast_to(np.asarray(m, dtype=int), shape).ravel()
    out = np.empty(t.shape)
    low = m < 0
    if low.any():
        # log(t/(t+dl)) / dl^dd + sum_{0<k<dd} 1 / (k dl^(dd-k) (t+dl)^k),
        # the log as -log1p(dl/t), which does not cancel at large t
        tl = t[low]
        acc = -np.log1p(dl / tl) / dl ** dd
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
    elif _divergent_ends(pieces[-1], q)[1]:
        h_inf = math.inf
    else:
        h_inf = consts[-1] + 0.0  # the primitive vanishes at infinity

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
    hi_eff = min(hi, max(8.0, 100.0 * lo_s))
    rs = np.geomspace(lo_s, hi_eff, 200)
    vals = eval(kernel, rs)
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
