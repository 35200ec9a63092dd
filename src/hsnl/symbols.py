"""Fourier symbols of half-space nonlocal gradients, with bound checks.

The gradient with kernel w and half-space direction nu acts in Fourier
space as multiplication by

    lambda_w^nu(xi) = int_{z . nu >= 0} (z/|z|) w(z) (e^{2 pi i xi . z} - 1) dz,

a C^d-valued symbol.  This module evaluates it for d = 1, 2, evaluates the
related convolution symbol eta_tau, runs the numerical inequality checks
(linear upper bound, small- and large-frequency lower bounds, fractional
sandwich, compactness ratios, rescaling identity), tabulates the two
oscillatory limit integrals behind the fractional normalization, and builds
the orthonormal frame adapted to a direction.

Everything reduces to the half-line integral

    S(c) = int_0^inf r^p profile(r) (e^{2 pi i c r} - 1) dr.

For a kernel made only of power-law pieces (constant_ball,
riesz_truncated, fractional_vanishing, log_truncated and their
min_level, rescaled and cutoff forms) it is exact at every frequency.
With w = 2 pi |c|, a piece C r^q on (a, b), alpha = p + q + 1, is split
at t* = 2 / w, the phase 2: below t* it adds C r^alpha sum_{k>=1} (iwr)^k
/ (k! (k + alpha)) between its ends (DLMF 8.7.1, a log where k + alpha =
0), above it C [T(lo) - T(hi) - (hi^alpha - lo^alpha)/alpha], with T(t)
= int_t^inf r^(alpha-1) e^{iwr} dr a continued fraction of the
incomplete gamma function (DLMF 8.9.2).  Differences of powers are
kernels._power_gap, written with expm1, so alpha near 0 costs no digits.

Other kernels take three zones: a Taylor zone near the origin summed
against closed-form partial moments (this absorbs integrable
singularities), an oscillatory middle zone on panels no wider than a
quarter period with 16-point Gauss-Legendre, and a far tail from a phase
of 4 pi on, which is exact.  A log_regularized piece is a sum of shifted
power laws: its tail takes partial fractions, each term (r + s)^e adding
e^{-iws} T(t + s), where it starts below 6 delta, and further out the
expansion in delta/r that the kernel integrals take there
(kernels._logreg_far_terms).  Its Taylor moments come from a
recurrence in the order.  Tabulated pieces keep their panels over their
support.  Lower-bound constants are fitted infima over named grids, not
proved bounds.

A d=2 symbol integrates theta S(xi . theta) over the half circle of
directions theta with theta . nu >= 0.  The angle rule is folded about the
direction of xi: mirror images about it share c = xi . theta, and the
angles left over pair up as c and -c, where S(-c) = conj S(c), so every
magnitude |c| <= |xi| is sampled once (see _symbol_e1_2d).  For kernels
of unbounded support S has a cusp at c = 0, and the angle panels are
graded geometrically toward it.

The engine takes a whole array of frequencies c at once: a d=2 symbol is
one call over all its angle nodes, and a d=1 grid is one call over its
points.  Each entry gets its series or zones on its own, and each works
on arrays with a per-entry stopping rule, so an entry gets the same value
in any batch.  Work is blocked: a power-law kernel takes BLOCK_ENTRIES /
(32 pieces) entries at a time, at most 24 series terms and 2 continued-
fraction ends per piece and entry; the zones take BLOCK_ENTRIES / 64
entries at a time, the Taylor moments (32 terms) and the far-tail
continued fractions (both ends, up to 8 steps a pass) built for at most
BLOCK_ENTRIES / 64 rows, and Gauss nodes evaluated in groups of whole
frequencies with fewer than BLOCK_ENTRIES (65536) nodes; a frequency
with more is integrated alone, in slices of 65536 nodes from its first
panel.  These working arrays thus hold at most 65536 entries whatever
the batch size.  A frequency that needs more than 3e5 quarter-period
panels raises SymbolError before anything is built for its batch.  The
engine keeps its latest batches, at most 65536 frequencies in all (see
_Memo): a repeated batch costs a copy.
"""

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import kernels as _kern
from ._quad import BLOCK_ENTRIES, gauss_rule

_TWO_PI = 2.0 * math.pi
_GAUSS = 16            # Gauss points per quarter-period panel
_ANGLE_GAUSS = 33      # Gauss points per angle panel of a d=2 symbol
_GRADE_RATIO = 0.15    # ratio of the graded angle panels at c = 0
_GRADE_LAYERS = 12     # a graded end has _GRADE_LAYERS + 1 panels
_TAYLOR_TERMS = 79     # most Taylor terms a frequency may take
_COLUMNS = 32          # Taylor terms built per pass
# continued-fraction steps k0 <= k < k1 per pass, 128 in all
_CF_PASSES = [(1, 3), (3, 9)] + [(k, k + 8) for k in range(9, 129, 8)]
_TAIL_PHASE = 4.0 * math.pi  # panels end, the far tail starts (measured)
_SERIES_PHASE = 2.0    # a pow piece takes its series below, T above
# term k of a pow piece's series is taken above the phase _SERIES_CUTS[k-3],
# where 2 phase^(k-2) / k!, its size against term 2, passes 1e-17: at most
# 24 terms up to phase 2
_SERIES_CUTS = np.array([(math.factorial(k) * 5e-18) ** (1.0 / (k - 2))
                         for k in range(3, 27)])
_MIN_FREQ = 1e-307     # smaller |c| take the limit S(0) = 0
_MAX_PANELS = 300000   # quarter-period panels allowed per frequency
# panels per group of whole frequencies; a group holds fewer than twice
# this many, so its Gauss nodes fit in one block of BLOCK_ENTRIES
_GROUP_PANELS = BLOCK_ENTRIES // (2 * _GAUSS)


class SymbolError(RuntimeError):
    """A frequency needs more quadrature than the symbol engine allows."""


@dataclass(frozen=True)
class SymbolSample:
    xi: np.ndarray
    value: np.ndarray
    re_part: np.ndarray
    im_part: np.ndarray


@dataclass(frozen=True)
class BoundReport:
    """One check over a frequency grid.

    grid holds the frequencies, (n,) in d=1 and (n, 2) in d=2, or the
    scalar grid along nu they were built from; lhs and rhs hold the two
    sides of the checked relation, one entry per frequency.
    """

    name: str
    grid: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    margin: float
    passed: bool
    note: str = ""

    def grid_span(self):
        """Smallest and largest |xi| over the grid."""
        norms = _norms(self.grid)
        return norms.min(), norms.max()


@dataclass(frozen=True)
class OrthoBasis:
    mu: np.ndarray
    matrix: np.ndarray


# ---------------------------------------------------------------------------
# Half-line oscillatory integral S(c) = int r^p profile (e^{2 pi i c r}-1) dr,
# evaluated for a whole array of frequencies c at once.
# ---------------------------------------------------------------------------

def _half_line_symbol(kernel, c, power):
    """S(c) = int_0^inf r^power profile(r) (e^{2 pi i c r} - 1) dr per entry.

    c is an array of any shape (a scalar is a batch of one); the result is
    a complex array of that shape, conj(S(|c|)) where c < 0 and 0 where
    |c| < 1e-307, the limit at c = 0 (a longer period overflows the panel
    arithmetic).  A kernel made of pow pieces only takes the series and
    continued fractions of _power_law_block at every frequency; any other
    kernel takes the zones of _zones.  Each entry is computed on its own,
    so a frequency gets the same bits in any batch, and a batch whose |c|
    the memo holds is not computed again.  Raises SymbolError, before any
    quadrature array is built, when 2 pi |c| overflows, a frequency needs
    over 3e5 quarter-period panels or the profile overflows where its
    panels start.
    """
    c = np.asarray(c, dtype=float)
    if not np.all(np.isfinite(c)):
        raise ValueError("symbol frequencies must be finite")
    flat = c.ravel()
    mag = np.abs(flat)
    key = (kernel, power, mag.tobytes())
    out = _MEMO.get(key)
    if out is None:
        out = _magnitude_symbol(kernel, mag, power)
        _MEMO.put(key, out)
    # np.where builds a new array, so the memo's copy stays untouched
    return np.where(flat < 0.0, np.conj(out), out).reshape(c.shape)


class _Memo:
    """The latest engine batches by (kernel, power, |c| bytes), holding at
    most BLOCK_ENTRIES frequencies in all; the oldest batches go first.

    An entry's value does not depend on its batch, so a repeated batch
    (`bounds` asks for the same one four times) gets the same bits.
    """

    def __init__(self):
        self._batches = {}
        self._held = 0
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            return self._batches.get(key)

    def put(self, key, values):
        with self._lock:
            if key in self._batches or values.size > BLOCK_ENTRIES:
                return
            while self._held + values.size > BLOCK_ENTRIES:
                self._held -= self._batches.pop(next(iter(self._batches))).size
            self._batches[key] = values
            self._held += values.size

    def clear(self):
        with self._lock:
            self._batches.clear()
            self._held = 0


_MEMO = _Memo()


def _magnitude_symbol(kernel, mag, power):
    """S(|c|) per entry of the flat array mag of frequency magnitudes."""
    out = np.zeros(mag.size, dtype=complex)
    if mag.size and mag.max() > np.finfo(float).max / _TWO_PI:
        raise SymbolError("2 pi |c| overflows at frequency %.6g; frequency "
                          "out of supported range" % mag.max())
    live = np.flatnonzero(mag >= _MIN_FREQ)
    mag = mag[live]
    pieces = _kern._pieces(kernel)
    if all(piece[0] == "pow" for piece in pieces):
        step = BLOCK_ENTRIES // (_COLUMNS * len(pieces))
        for s in range(0, live.size, step):
            blk = slice(s, s + step)
            out[live[blk]] = _power_law_block(pieces, _TWO_PI * mag[blk],
                                              power)
        return out
    z1, r_osc, n_base = _zones(kernel, mag)
    if n_base.size and n_base.max() > _MAX_PANELS:
        worst = int(np.argmax(n_base))
        raise SymbolError(
            "oscillatory quadrature would need %.6g > 3e5 panels at "
            "frequency %.6g; frequency out of supported range"
            % (n_base[worst], mag[worst]))
    if z1.size:
        # the panels start at z1, where a logreg profile ~ 1/(r dl^dd) at
        # the largest frequencies meets the float range
        low = z1.min()
        with np.errstate(over="ignore"):
            peak = _kern.eval(kernel, low) * low ** power
        if not peak < np.finfo(float).max / 64.0:
            raise SymbolError(
                "kernel profile overflows at r = %.3g, frequency %.6g; "
                "frequency out of supported range" % (low, mag.max()))
    n_base = n_base.astype(np.int64)
    step = BLOCK_ENTRIES // (2 * _COLUMNS)
    for s in range(0, live.size, step):
        blk = slice(s, s + step)
        out[live[blk]] = _half_line_block(kernel, mag[blk], power, z1[blk],
                                          r_osc[blk], n_base[blk])
    return out


def _power_law_block(pieces, w, power):
    """S per entry for a kernel of pow pieces, w = 2 pi |c| > 0.

    A piece coeff r^p on (a, b) adds coeff int_a^b r^(alpha-1) (e^{iwr} -
    1) dr, alpha = p + power + 1, split at t* = 2 / w: below t* the series
    of _series_segment, above it T(lo) - T(hi) - (hi^alpha - lo^alpha) /
    alpha with T(t) = int_t^inf r^(alpha-1) e^{iwr} dr (T(inf) = 0), so
    no Gamma(alpha) at r = 0 is needed.  T(t*) is w^-alpha T_1(2), and
    the series from 0 to t* w^-alpha times its value at w = 1
    (_phase_two_terms); T at piece ends past t* comes from _osc_tail, one
    call per block.  Every family has p <= 0 and power <= 1, so alpha <= 2
    (the e <= 1 of _osc_tail), alpha > -1 on a piece from 0 and alpha < 0
    on a piece to infinity.
    """
    split = _SERIES_PHASE / w
    parts, exps, ws, ts = [], [], [], []
    for _, a, b, coeff, p in pieces:
        alpha = p + power + 1.0
        below = np.flatnonzero(b <= split)    # series only
        across = np.flatnonzero((a < split) & (split < b))
        above = np.flatnonzero(split <= a)    # continued fraction only
        parts.append((coeff, alpha, a, b, below, across, above))
        if b < math.inf:
            ends = np.concatenate([across, above])
            exps.append(np.full(ends.size, alpha - 1.0))
            ws.append(w[ends])
            ts.append(np.full(ends.size, b))
        exps.append(np.full(above.size, alpha - 1.0))
        ws.append(w[above])
        ts.append(np.full(above.size, a))
    tails = _osc_tail(np.concatenate(exps), np.concatenate(ws),
                      np.concatenate(ts))
    total = np.zeros(w.size, dtype=complex)
    pos = 0
    for coeff, alpha, a, b, below, across, above in parts:
        if below.size:
            total[below] += coeff * _series_segment(alpha, a, w[below],
                                                    np.full(below.size, b))
        at_b = np.zeros(across.size + above.size, dtype=complex)
        if b < math.inf:
            at_b = tails[pos:pos + at_b.size]
            pos += at_b.size
        if across.size:
            wa, lo = w[across], split[across]
            series, tail = _phase_two_terms(alpha)
            if a == 0.0:
                near = (series + tail) * wa ** -alpha
            else:
                near = (_series_segment(alpha, a, wa, lo)
                        + tail * wa ** -alpha)
            total[across] += coeff * (near - at_b[:across.size]
                                      - _kern._power_gap(alpha, lo, b))
        if above.size:
            at_a = tails[pos:pos + above.size]
            pos += above.size
            total[above] += coeff * (at_a - at_b[across.size:]
                                     - _kern._power_gap(alpha, a, b))
    return total


@functools.lru_cache(maxsize=64)
def _phase_two_terms(alpha):
    """The series of int_0^2 u^(alpha-1) (e^{iu} - 1) du and T_1(2) =
    int_2^inf u^(alpha-1) e^{iu} du, the two parts at w = 1 of a power law
    split at phase 2 (the series None where alpha <= -1)."""
    one, split = np.ones(1), np.full(1, _SERIES_PHASE)
    # the series from 0 converges for alpha > -1 only, as a piece from 0 has
    series = (_series_segment(alpha, 0.0, one, split)[0]
              if alpha > -1.0 else None)
    return series, _osc_tail(np.array([alpha - 1.0]), one, split)[0]


def _series_segment(alpha, a, w, hi):
    """int_a^hi r^(alpha-1) (e^{iwr} - 1) dr per entry, phase w hi <= 2.

    It is hi^alpha sum_{k>=1} x^k / k! E_k, x = i w hi, with E_k = (1 -
    (a/hi)^(k+alpha)) / (k+alpha) written with expm1, log(hi/a) where k +
    alpha = 0 and 1/(k+alpha) at a = 0 (alpha > -1 there); so a piece end
    near t* cancels nothing and alpha near 0 has no pole.  An entry takes
    the terms k <= n of _SERIES_CUTS for its own phase, summed in order,
    so it gets the same bits in any batch.
    """
    n = 2 + np.searchsorted(_SERIES_CUTS, w * hi)
    ks = np.arange(1.0, n.max() + 1.0)
    beta = ks + alpha
    if a == 0.0:
        weights = 1.0 / beta
    else:
        log_ratio = np.log(a / hi)[:, None]
        pole = beta == 0.0
        beta = np.where(pole, 1.0, beta)
        weights = np.where(pole, -log_ratio,
                           -np.expm1(beta * log_ratio) / beta)
    terms = np.cumprod(1j * (w * hi)[:, None] / ks, axis=1) * weights
    sums = np.cumsum(terms, axis=1)
    return hi ** alpha * sums[np.arange(hi.size), n - 1]


def _zones(kernel, c):
    """Taylor end z1, panel end r_osc and quarter-period panel count.

    The Taylor zone (0, z1] keeps the phase below pi/2.  The panel zone
    reaches a phase of 4 pi, or 40 radians where z1 = 1 falls short of a
    quarter period (other ends would move the error of those too coarse
    panels), and covers tabulated pieces, which have no closed-form tail.
    A log_regularized tail is exact from any start (_tail_zone), so its
    panels end at 4 pi too: at most 7 of them for |c| >= 1/4.
    Frequencies with z1 at the support top get no panels.
    """
    pieces = _kern._pieces(kernel)
    hi = pieces[-1][2]
    r_exp = max((p[2] for p in pieces if p[0] == "loglin"), default=-math.inf)
    quarter = 1.0 / (4.0 * c)
    z1 = np.minimum(min(hi, 1.0), quarter)
    phase = np.where(z1 < quarter, 40.0, _TAIL_PHASE)
    r_osc = np.minimum(hi, np.maximum(phase / (_TWO_PI * c),
                                      np.maximum(z1, r_exp)))
    # 4 pi is 7 quarter periods past z1; an ulp more must not add an 8th
    quarters = (r_osc - z1) / quarter * (1.0 - 1e-12)
    return z1, r_osc, np.where(z1 < hi, np.ceil(quarters), 0.0)


def _half_line_block(kernel, c, power, z1, r_osc, n_base):
    """S(c) in zones for positive c, at most BLOCK_ENTRIES / (2 _COLUMNS)
    of them.

    Every entry has a Taylor zone (z1 > 0); those with n_base = 0 skip the
    panels, and those with r_osc at the support top the far tail.
    """
    w = _TWO_PI * c
    total = _taylor_zone(kernel, w, z1, power)
    mid = np.flatnonzero(n_base > 0)
    if mid.size:
        total[mid] += _panel_zone(kernel, w[mid], z1[mid], r_osc[mid],
                                  n_base[mid], power)
    far = np.flatnonzero(r_osc < _kern.support(kernel)[1])
    if far.size:
        total[far] += _tail_zone(kernel, w[far], r_osc[far], power)
    return total


def _taylor_zone(kernel, w, z1, power):
    """sum_k (i w)^k / k! int_0^z1 r^{power+k} profile dr per entry.

    The phase is at most pi/2 on (0, z1], so the series decays fast; the
    closed-form partial moments absorb integrable singularities at 0.  A
    log_regularized kernel, one logreg piece from 0, takes its moments from
    the recurrence of _logreg_taylor_moments, as (i w z1)^k / k! times the
    moment over z1^k, which stays in range at any frequency.  An
    entry stops after the first term past k = 3 below 1e-17 (1 + |sum|).
    _COLUMNS orders are taken at a time for the entries still
    running; the running coefficient and sum lead each block's cumulative
    product and sum, so every entry sees the operations of the
    term-by-term loop.
    """
    out = np.empty(w.size, dtype=complex)
    idx = np.arange(w.size)
    piece = _kern._pieces(kernel)[0]
    logreg = piece[0] == "logreg"
    # a logreg kernel is that one piece from 0; its terms are taken as
    # (i w z1)^k / k! times the moment over z1^k
    iw = 1j * w * z1 if logreg else 1j * w
    coef = np.ones(w.size, dtype=complex)
    total = np.zeros(w.size, dtype=complex)
    for k0 in range(1, _TAYLOR_TERMS + 1, _COLUMNS):
        ks = np.arange(k0, min(k0 + _COLUMNS, _TAYLOR_TERMS + 1))
        if logreg:
            moments = _logreg_taylor_moments(piece, z1[idx], power, ks)
        else:
            moments = _kern._radial_integrals(kernel, 0.0, z1[idx][:, None],
                                              power + ks)
        coefs = np.cumprod(np.column_stack([coef, iw[:, None] / ks]),
                           axis=1)[:, 1:]
        terms = coefs * moments
        sums = np.cumsum(np.column_stack([total, terms]), axis=1)[:, 1:]
        stop = (np.abs(terms) <= 1e-17 * (1.0 + np.abs(sums))) & (ks > 3)
        done = stop.any(axis=1)
        out[idx[done]] = sums[done, np.argmax(stop[done], axis=1)]
        keep = ~done
        if not keep.any():
            return out
        idx, iw = idx[keep], iw[keep]
        coef, total = coefs[keep, -1], sums[keep, -1]
    out[idx] = total
    return out


def _logreg_taylor_moments(piece, z, power, ks):
    """int_0^z r^(power+k) profile dr / z^k of a logreg piece, k in ks.

    With m = power + k - 1 the integral is coeff z^(m+1) dl^-dd times the
    scaled moment of kernels._logreg_moments at u = z / dl, so the ratio is
    coeff u^power dl^(power-dd) times it: bounded at any z, where the
    moment and (i w)^k / k! apart would underflow and overflow.
    """
    coeff, dl, dd = piece[3], piece[4], piece[5]
    u = z / dl
    scaled = _kern._logreg_moments(dd, u, power + int(ks[0]) - 1,
                                   power + int(ks[-1]) - 1)
    return (coeff * dl ** float(power - dd)) * u[:, None] ** power * scaled


def _panel_zone(kernel, w, z1, r_osc, n_base, power):
    """16-point Gauss on quarter-period panels of (z1, r_osc) per entry.

    Each entry's panels are np.linspace(z1, r_osc, n_base + 1), split at
    the kernel breakpoints inside.  Entries are taken in groups of fewer
    than 2 * _GROUP_PANELS panels; an entry with more panels than that is
    a group of its own, integrated in slices from its first panel, so its
    sum does not depend on its neighbours.
    """
    bps = np.asarray(_kern.breakpoints(kernel), dtype=float)
    n_pan = n_base + (np.searchsorted(bps, r_osc, "left")
                      - np.searchsorted(bps, z1, "right"))
    starts = np.cumsum(n_pan) - n_pan
    big = n_pan > _GROUP_PANELS
    first = np.ones(w.size, dtype=bool)
    first[1:] = ((starts[1:] // _GROUP_PANELS != starts[:-1] // _GROUP_PANELS)
                 | big[1:] | big[:-1])
    heads = np.flatnonzero(first)
    acc = np.zeros(w.size, dtype=complex)
    for g0, g1 in zip(heads, np.append(heads[1:], w.size)):
        a, b, owner = _panels(z1[g0:g1], r_osc[g0:g1], n_base[g0:g1], bps)
        for s in range(0, a.size, 2 * _GROUP_PANELS):
            cut = slice(s, s + 2 * _GROUP_PANELS)
            acc[g0:g1] += _panel_sums(kernel, a[cut], b[cut], owner[cut],
                                      w[g0:g1], power)
    return acc


def _panels(z1, r_osc, n_base, bps):
    """Panel ends (a, b) and owning entry of every panel of a group."""
    counts = n_base + 1
    owner = np.repeat(np.arange(z1.size), counts)
    first = np.cumsum(counts) - counts
    step = (r_osc - z1) / n_base
    # the arithmetic of np.linspace(z1, r_osc, n_base + 1), entry by entry
    edges = (np.arange(owner.size) - first[owner]) * step[owner] + z1[owner]
    edges[first + n_base] = r_osc
    if bps.size:
        inner = (bps[None, :] > z1[:, None]) & (bps[None, :] < r_osc[:, None])
        if inner.any():
            rows, cols = np.nonzero(inner)
            owner = np.concatenate([owner, rows])
            edges = np.concatenate([edges, bps[cols]])
            order = np.lexsort((edges, owner))
            owner, edges = owner[order], edges[order]
            fresh = np.ones(owner.size, dtype=bool)
            fresh[1:] = (owner[1:] != owner[:-1]) | (edges[1:] != edges[:-1])
            owner, edges = owner[fresh], edges[fresh]
    same = owner[1:] == owner[:-1]
    return edges[:-1][same], edges[1:][same], owner[:-1][same]


def _panel_sums(kernel, a, b, owner, w, power):
    """Per-entry Gauss sums of r^power profile (e^{i w r} - 1) on panels."""
    nodes, weights = gauss_rule(_GAUSS)
    half = 0.5 * (b - a)
    x = 0.5 * (a + b)[:, None] + half[:, None] * nodes
    theta = w[owner][:, None] * x
    g = _kern.eval(kernel, x.ravel()).reshape(x.shape) * x ** power
    # e^{i theta} - 1 written to avoid cancellation for small theta; row
    # sums, unlike a BLAS mat-vec, give a row the same bits in any batch
    re = half * (g * (-2.0 * np.sin(0.5 * theta) ** 2) * weights).sum(axis=1)
    im = half * (g * np.sin(theta) * weights).sum(axis=1)
    sums = np.empty(w.size, dtype=complex)
    sums.real = np.bincount(owner, re, w.size)
    sums.imag = np.bincount(owner, im, w.size)
    return sums


def _tail_zone(kernel, w, lo, power):
    """int_lo^b r^power profile (e^{iwr} - 1) dr per entry, in closed form.

    Only a log_regularized kernel, one logreg piece on (0, b), has a tail
    (pow-only kernels take _power_law_block, and panels cover loglin
    pieces).  Starts below 6 delta take the partial fractions of
    _logreg_near_tail.  Further out each term coeff r^p of the piece's
    expansion in delta/r that an entry takes (kernels._logreg_far_terms)
    adds

        coeff [T(lo) - T(b) - (b^alpha - lo^alpha) / alpha],

    alpha = p + power + 1 = power - dd - j <= -1, T(t) = int_t^inf
    r^(alpha-1) e^{iwr} dr from _osc_tail (T(inf) = 0) and the gap from
    kernels._power_gap, both in units of lo^alpha and coeff_j lo^-j, as
    the kernel integrals take them, so that no power overflows at a tiny
    delta.  The terms of all entries go in blocks of rows, both ends of a
    block in one _osc_tail call, and are added to each entry in term order.
    """
    piece = _kern._pieces(kernel)[0]
    b = piece[2]
    total = np.zeros(w.size, dtype=complex)
    near = lo < _kern._FAR_START * piece[4]
    if near.any():
        total[near] += _logreg_near_tail(piece, w[near], lo[near], power)
    far = np.flatnonzero(~near)
    scaled, exps, live = _kern._logreg_far_terms(piece, lo[far])
    rows, j = np.nonzero(live)
    owner, start = far[rows], lo[far][rows]
    e = exps[j] + power
    val = np.empty(owner.size, dtype=complex)
    step = BLOCK_ENTRIES // (2 * _COLUMNS)
    for s in range(0, owner.size, step):
        cut = slice(s, s + step)
        n = owner[cut].size
        ends = [start[cut]] + ([np.full(n, b)] if b < math.inf else [])
        tails = _osc_tail(np.tile(e[cut], len(ends)),
                          np.tile(w[owner[cut]], len(ends)),
                          np.concatenate(ends),
                          np.tile(start[cut], len(ends)))
        val[cut] = tails[:n] - tails[n:] if b < math.inf else tails
    gap = _kern._power_gap(e + 1.0, start, b, start)
    # coeff_j lo^alpha = (coeff_j lo^-j) lo^(power - dd)
    np.add.at(total, owner, scaled[rows, j] * (val - gap)
              * start ** float(power - piece[5]))
    return total


def _logreg_near_tail(piece, w, a, power):
    """int_a^b r^power profile (e^{iwr} - 1) dr of a logreg piece on (0, b).

    Partial fractions write r^m (r + dl)^-dd, m = power - 1, as terms f
    (r + s)^e with s = 0 or dl, whose oscillatory parts are f e^{-iws}
    [T(a + s) - T(b + s)], T(t) = int_t^inf r^e e^{iwr} dr from _osc_tail
    (T(inf) = 0); the "-1" part of them all is the primitive P of
    kernels._logreg_primitive, -log1p(dl/t) / dl at m = -1, so it adds P(a)
    - P(b).  The terms cancel by up to (a + dl) / dl, so this serves starts
    a below 6 dl; further out the expansion in dl/r of _tail_zone does.
    Takes m <= 0, as the symbols of d = 1 and 2 have.  All ends of all
    fractions go to one _osc_tail call.
    """
    coeff, b, dl, dd = piece[3], piece[2], piece[4], piece[5]
    m = power - 1
    if m < 0:   # 1/(r (r+dl)^dd) = dl^-dd / r - sum_k dl^(k-1-dd) (r+dl)^-k
        fractions = [(dl ** -float(dd), 0.0, -1.0)] + [
            (-dl ** float(k - 1 - dd), dl, -float(k)) for k in range(1, dd + 1)]
    else:       # r^m = ((r + dl) - dl)^m, binomially, as P has it
        fractions = [(f, dl, float(j - dd)) for j, f
                     in enumerate(_kern._logreg_binomials(m, dl)[m])]
    n, shifts = w.size, [s for _, s, _ in fractions]
    ts = [a + s for s in shifts]
    if b < math.inf:
        ts += [np.full(n, b + s) for s in shifts]
    exps = [e for _, _, e in fractions] * (len(ts) // len(fractions))
    tails = _osc_tail(np.repeat(exps, n), np.tile(w, len(ts)),
                      np.concatenate(ts)).reshape(-1, len(fractions), n)
    total = np.zeros(n, dtype=complex)
    for (f, s, _), osc in zip(fractions, tails[0] - tails[1]
                              if b < math.inf else tails[0]):
        total += f * (np.exp(-1j * w * s) * osc if s else osc)
    total += _kern._logreg_primitive(m, dl, dd, a)
    if b < math.inf:
        total -= _kern._logreg_primitive(m, dl, dd, np.full(w.size, b))
    return coeff * total


def _osc_tail(e, w, t, scale=1.0):
    """int_t^inf r^e e^{i w r} dr / scale^(e+1) per entry, for e <= 1 and
    w t > 0.

    It is e^{iwt} t^a F with a = e + 1, x = -iwt and F = e^x x^-a
    Gamma(a, x), the even part of Legendre's continued fraction (DLMF
    8.9.2) 1/(x+1-a-) 1(1-a)/(x+3-a-) 2(2-a)/(x+5-a-) ..., summed by
    modified Lentz (Thompson & Barnett, J. Comput. Phys. 64, 1986).  It
    converges at any phase, in about 25 steps from 4 pi.  Past k = 1 the
    partial numerators k (a - k) are <= 0, so D^-1 and C stay in the lower
    half-plane and never vanish.  An entry stops at its first step with
    |D C - 1| <= 2.2e-16; the steps of _CF_PASSES are taken a pass at a
    time for the entries still running (the first pass is short, as the
    fraction of an integer a >= 1 ends at step a), and one still running
    after 128 steps keeps its last value.
    """
    a = e + 1.0
    base = -1j * w * t + (1.0 - a)
    d = 1.0 / base
    h, c = d, np.full(w.size, complex(math.inf))  # Lentz's C_0 = inf
    out = np.empty(w.size, dtype=complex)
    idx = np.arange(w.size)
    for k0, k1 in _CF_PASSES:
        ks = np.arange(k0, k1)[:, None]
        num = ks * (a - ks)
        den = base + 2.0 * ks
        ratios = np.empty(num.shape, dtype=complex)
        for k in range(k1 - k0):
            d = 1.0 / (num[k] * d + den[k])
            c = den[k] + num[k] / c
            ratios[k] = d * c
        hs = np.cumprod(np.vstack([h, ratios]), axis=0)[1:]
        stop = np.abs(ratios - 1.0) <= 2.2e-16
        done = stop.any(axis=0)
        out[idx[done]] = hs[np.argmax(stop[:, done], axis=0),
                            np.flatnonzero(done)]
        keep = ~done
        idx, a, base = idx[keep], a[keep], base[keep]
        d, c, h = d[keep], c[keep], hs[-1, keep]
        if not idx.size:
            break
    out[idx] = h
    return np.exp(1j * w * t) * (t / scale) ** (e + 1.0) * out


# ---------------------------------------------------------------------------
# The symbol itself.
# ---------------------------------------------------------------------------

def _nu_sign(nu):
    arr = np.atleast_1d(np.asarray(nu, dtype=float))
    if arr.size != 1 or abs(abs(arr[0]) - 1.0) > 1e-12:
        raise ValueError("d=1 direction must be +1 or -1")
    return 1.0 if arr[0] > 0 else -1.0


def _nu_unit2(nu):
    arr = np.asarray(nu, dtype=float).reshape(-1)
    if arr.size != 2:
        raise ValueError("d=2 direction must be a 2-vector")
    n = math.hypot(arr[0], arr[1])
    if n < 1e-12:
        raise ValueError("direction must be nonzero")
    return arr / n


def _rotation_to(nu_unit):
    return np.array([[nu_unit[0], -nu_unit[1]], [nu_unit[1], nu_unit[0]]])


def _symbol_e1_2d(kernel, xis):
    """Symbols for nu = e1 at the rows of xis, an (n, 2) array.

    The half-plane integral over the angles theta in [-pi/2, pi/2] of
    theta S(xi . theta) is folded.  With sigma the sign of xi_1 (+1 at 0),
    u = sigma xi/|xi| = (cos phi0, sin phi0), phi0 in [-pi/2, pi/2], and
    beta = pi/2 - |phi0|, reflecting theta about phi0 keeps c = xi . theta,
    and reflecting it about phi0 -/+ pi/2 flips the sign of c, where
    S(-c) = conj S(c).  So the symbol is exactly

        2 u int_0^beta cos t S(sigma |xi| cos t) dt
        + 2 int_0^|phi0| [cos t Re S(sigma |xi| sin t) e_m
                          + i sin t Im S(sigma |xi| sin t) u] dt

    with e_m = sgn(phi0) (u_2, -u_1): each magnitude |c| is sampled once,
    Im lambda is parallel to xi, and c = 0 is a panel end.  Each interval
    gets 33-point Gauss panels, ceil(length / (pi/2) * ceil(|xi|/4)) of
    them; for a kernel of unbounded support, whose S has a cusp at c = 0,
    the panel at each interval's smallest |c| is graded (_folded_sums).
    All nodes of a run of rows go to the engine in one call; a run
    closes once it holds BLOCK_ENTRIES nodes, so a single row is always
    one call, and every row's nodes and sums are its own arithmetic.  A
    row that needs over 3e5 panels per quadrant raises SymbolError.
    """
    xis = np.asarray(xis, dtype=float).reshape(-1, 2)
    out = np.zeros(xis.shape, dtype=complex)
    norm = np.hypot(xis[:, 0], xis[:, 1])
    live = np.flatnonzero(norm > 0.0)
    if not live.size:
        return out
    half_pi = 0.5 * math.pi
    sigma = np.where(xis[live, 0] >= 0.0, 1.0, -1.0)
    u = sigma[:, None] * xis[live] / norm[live, None]
    phi0 = np.arctan2(u[:, 1], u[:, 0])
    lengths = np.column_stack([half_pi - np.abs(phi0), np.abs(phi0)])
    per_quadrant = np.maximum(1.0, np.ceil(norm[live] / 4.0))
    if per_quadrant.max() > _MAX_PANELS:
        raise SymbolError("angle quadrature would need %.6g > 3e5 panels "
                          "per quadrant at frequency %.6g; frequency out of "
                          "supported range"
                          % (per_quadrant.max(), norm[live].max()))
    counts = np.ceil(lengths / half_pi
                     * per_quadrant[:, None]).astype(np.int64)
    e_m = np.sign(phi0)[:, None] * np.column_stack([u[:, 1], -u[:, 0]])
    scale = sigma * norm[live]
    # S(c) of an unbounded support has a cusp at c = 0
    graded = _kern.support(kernel)[1] == math.inf
    nodes = _ANGLE_GAUSS * (counts.sum(axis=1) + graded * _GRADE_LAYERS
                            * np.count_nonzero(counts, axis=1))
    start, held = 0, 0
    for i, n in enumerate(nodes):
        held += n
        if held >= BLOCK_ENTRIES or i == live.size - 1:
            run = slice(start, i + 1)
            along, across = _folded_sums(kernel, scale[run], lengths[run],
                                         counts[run], graded)
            out[live[run]] = (u[run] * along[:, None]
                              + e_m[run] * across[:, None])
            start, held = i + 1, 0
    return out


def _folded_sums(kernel, scale, lengths, counts, graded):
    """The two integrals of the folded rule for a run of rows.

    Row r has the interval [0, lengths[r, 0]] with c = scale[r] cos t and
    [0, lengths[r, 1]] with c = scale[r] sin t, cut into counts[r] equal
    panels.  Where graded, the panel at the end nearest c = 0 (the last of
    a cos interval, the first of a sin interval) is cut geometrically
    toward that end, _GRADE_LAYERS + 1 panels with ratio _GRADE_RATIO, so
    the cusp of S at c = 0 costs no digits.  Returns per row the
    coefficient of u (complex) and that of e_m (real), the fold's factor 2
    included.
    """
    x, wg = gauss_rule(_ANGLE_GAUSS)
    pieces = counts.ravel()
    # panel k of an interval is [k step, (k + 1) step]
    owner = np.repeat(np.arange(pieces.size), pieces)
    k = np.arange(owner.size) - (np.cumsum(pieces) - pieces)[owner]
    step = lengths.ravel()[owner] / pieces[owner]
    half = 0.5 * step
    centre = (k + 0.5) * step
    if graded:
        # the first panel of a sin interval, the last of a cos one, cut at
        # the fractions _GRADE_RATIO^j of its width from its c = 0 end
        cusp = np.where(owner % 2 == 1, k == 0, k == pieces[owner] - 1)
        cuts = np.append(0.0, _GRADE_RATIO ** np.arange(_GRADE_LAYERS, -1, -1))
        lo, hi = cuts[:-1], cuts[1:]
        cos = owner[cusp][:, None] % 2 == 0
        lo, hi = np.where(cos, 1.0 - hi, lo), np.where(cos, 1.0 - lo, hi)
        start = (k[cusp] * step[cusp])[:, None]
        width = step[cusp][:, None]
        owner = np.concatenate([owner[~cusp],
                                np.repeat(owner[cusp], _GRADE_LAYERS + 1)])
        centre = np.concatenate([centre[~cusp],
                                 (start + 0.5 * width * (lo + hi)).ravel()])
        half = np.concatenate([half[~cusp], (0.5 * width * (hi - lo)).ravel()])
    t = centre[:, None] + half[:, None] * x
    wt = (half[:, None] * wg).ravel()
    cos_t, sin_t = np.cos(t).ravel(), np.sin(t).ravel()
    owner = np.repeat(owner, _ANGLE_GAUSS)
    row, folded = owner // 2, owner % 2 == 1
    s = _half_line_symbol(kernel, scale[row] * np.where(folded, sin_t, cos_t),
                          1)
    along = np.where(folded, 1j * (wt * sin_t * s.imag), (wt * cos_t) * s)
    across = np.where(folded, (wt * cos_t) * s.real, 0.0)
    m = len(scale)
    return (2.0 * (np.bincount(row, along.real, m)
                   + 1j * np.bincount(row, along.imag, m)),
            2.0 * np.bincount(row, across, m))


def _symbol_values(kernel, nu, xis):
    """Symbols at an array of frequencies as an (n, d) complex array.

    xis is (n,) in d=1 and (n, 2) in d=2; the whole array is one batch of
    the half-line engine.
    """
    xis = np.asarray(xis, dtype=float)
    d = kernel.d
    if d == 1:
        sign = _nu_sign(nu)
        if xis.ndim != 1:
            raise ValueError("d=1 frequencies must be an (n,) array")
        s = _half_line_symbol(kernel, xis, 0)
        return (s if sign > 0.0 else -np.conj(s))[:, None]
    if d == 2:
        u0, u1 = _nu_unit2(nu)
        if xis.ndim != 2 or xis.shape[1] != 2:
            raise ValueError("d=2 frequencies must be an (n, 2) array")
        if not np.all(np.isfinite(xis)):
            raise ValueError("symbol frequencies must be finite")
        x0, x1 = xis.T
        # rotate nu to e1 and back, written out so that every row gets
        # the same arithmetic whatever the batch size
        loc = _symbol_e1_2d(kernel, np.column_stack([u0 * x0 + u1 * x1,
                                                     u0 * x1 - u1 * x0]))
        return np.column_stack([u0 * loc[:, 0] - u1 * loc[:, 1],
                                u1 * loc[:, 0] + u0 * loc[:, 1]])
    raise ValueError("symbols are implemented for d in {1, 2}")


def _one_row(d, xi):
    """One frequency as a batch of one: (1,) in d=1, (1, d) otherwise."""
    return np.reshape(np.asarray(xi, dtype=float), (1, -1) if d > 1 else 1)


def symbol(kernel, nu, xi):
    """Fourier symbol lambda_w^nu(xi) as a SymbolSample."""
    _kern.standing_moments(kernel)
    value = _symbol_values(kernel, nu, _one_row(kernel.d, xi))[0]
    return SymbolSample(xi=np.atleast_1d(np.asarray(xi, dtype=float)),
                        value=value,
                        re_part=value.real.copy(), im_part=value.imag.copy())


def symbol_eta(tau, nu, xi, d):
    """Convolution symbol eta_tau(xi) over the unit half-ball.

    eta_tau(xi) = int_{H_nu, |z|<=1} (z/|z|) (e^{-2 pi i tau xi . z} - 1) dz,
    which is the gradient symbol of the unit-profile ball kernel evaluated
    at -tau*xi.  In d=1 this collapses to the closed form
    (e^{-2 pi i tau xi} - 1)/(-2 pi i tau xi) - 1.
    """
    return _eta_values(tau, nu, _one_row(d, xi), d)[0]


def _eta_values(tau, nu, xis, d):
    """symbol_eta at an array of frequencies, one engine batch."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    unit = _kern.constant_ball(d, c=1.0)
    return _symbol_values(unit, nu, -tau * np.asarray(xis, dtype=float))


def eta_bound(d, tau, xi_norm):
    """The envelope V_d * min(sqrt(2) pi tau |xi|, 1), for arrays too."""
    half_ball = {1: 1.0, 2: math.pi / 2.0, 3: 2.0 * math.pi / 3.0}[d]
    return 2.0 * half_ball * np.minimum(
        math.sqrt(2.0) * math.pi * tau * xi_norm, 1.0)


# ---------------------------------------------------------------------------
# Bound checks: fitted constants over named grids.
# ---------------------------------------------------------------------------

def _along(d, nu, ts):
    """The scalars ts as frequencies: t (d=1) or t nu/|nu| (d=2)."""
    ts = np.asarray(ts, dtype=float)
    return ts if d == 1 else ts[:, None] * _nu_unit2(nu)


def _norms(values):
    """np.linalg.norm of each row of an (n,) or (n, d) array, to the bit:
    dot products of the real parts, plus those of the imaginary parts."""
    rows = np.asarray(values).reshape(len(values), 1, -1)
    with np.errstate(over="ignore"):
        squares = (rows.real @ rows.real.transpose(0, 2, 1)).ravel()
        if np.iscomplexobj(rows):
            squares = squares + (rows.imag
                                 @ rows.imag.transpose(0, 2, 1)).ravel()
    if np.isinf(squares).any():
        raise SymbolError("a squared norm overflows; frequency out of "
                          "supported range")
    return np.sqrt(squares)


def _report(name, grid, lhs, rhs, slack, note=""):
    """lhs <= rhs + slack at every frequency; the margin is min(rhs - lhs)."""
    margin = float(np.min(rhs - lhs))
    return BoundReport(name=name, grid=grid, lhs=lhs, rhs=rhs, margin=margin,
                       passed=margin >= -slack, note=note)


def check_linear_bound(kernel, nu, xi_grid):
    """|lambda(xi)| <= 2 sqrt(2) pi M1 |xi| + sqrt(2) M2 over the grid.

    For integrable kernels the flat bound |lambda| <= 2 ||w||_L1 is checked
    as well and the reported margin is the tighter of the two.
    """
    m1 = _kern.partial_moments(kernel, 0.0, 1.0, 1)
    m2 = _kern.tail_mass(kernel, 1.0)
    mass = _kern.partial_moments(kernel, 0.0, math.inf, 0)
    xis = _along(kernel.d, nu, xi_grid)
    lhs = _norms(_symbol_values(kernel, nu, xis))
    rhs = (2.0 * math.sqrt(2.0) * math.pi * m1 * _norms(xis)
           + math.sqrt(2.0) * m2)
    if not math.isinf(mass):
        rhs = np.minimum(rhs, 2.0 * mass)
    return _report("linear_upper_bound", xis, lhs, rhs, 1e-8,
                   f"M1={m1:.6g} M2={m2:.6g}")


def check_lower_bound_small_xi(kernel, nu):
    """Fitted C1 with |lambda(xi)| >= C1 |xi| on |xi| = 2^-k, k = 0..20.

    Kernels with infinite full first moment are tail-cut at radius 1 first;
    the small-frequency behavior only depends on the near-origin part up to
    the bounded tail contribution.
    """
    note = ""
    work = kernel
    if math.isinf(_kern.partial_moments(kernel, 0.0, math.inf, 1)):
        work = _kern.cutoff(kernel, 1.0)
        note = "tail cut at radius 1 (infinite full first moment); "
    ts = np.ldexp(1.0, -np.arange(21))
    lhs = _norms(_symbol_values(work, nu, _along(kernel.d, nu, ts)))
    c1 = float(np.min(lhs / ts))
    return BoundReport(name="lower_bound_small_xi", grid=ts, lhs=lhs,
                       rhs=c1 * ts, margin=c1, passed=c1 > 0.0,
                       note=note + f"C1={c1:.8g} N1=1")


def check_lower_bound_large_xi(kernel, nu, N=1.0, eps=None):
    """inf of |Re lambda(xi)| / int_{|z| > N eps/|xi|} w dz, |xi| in [N, 1e3 N].

    The comparison quantity is the kernel mass outside the shrinking ball of
    radius N*eps/|xi|.  For d=1 the hypothesis behind the bound is a
    nonincreasing profile; kernels without that property (the truncated-log
    family) are scanned all the same but the report is marked as making no
    pass/fail claim.
    """
    if eps is None:
        eps = _kern.moments(kernel).epsilon0
    note = f"N={N:g} eps={eps:g}"
    claim = kernel.d != 1 or _kern.declared_monotone(kernel)
    if not claim:
        note += "; profile not nonincreasing: report only, no pass/fail claim"
    ts = np.geomspace(N, 1e3 * N, 25)
    lhs = _norms(_symbol_values(kernel, nu, _along(kernel.d, nu, ts)).real)
    # partial_moments(kernel, N eps / t, inf, 0) for every t at once
    rhs = _kern.surface_measure(kernel.d) * _kern._radial_integrals(
        kernel, N * eps / ts, math.inf, kernel.d - 1)
    ratios = np.divide(lhs, rhs, out=np.full(ts.shape, math.inf),
                       where=rhs > 0.0)
    fitted = float(np.min(ratios))
    passed = (fitted > 0.0) if claim else True
    return BoundReport(name="lower_bound_large_xi", grid=ts, lhs=lhs, rhs=rhs,
                       margin=fitted, passed=passed,
                       note=note + f"; fitted C={fitted:.8g}")


def check_hermitian_symmetry(kernel, nu, xi_grid):
    """|lambda(-xi) - conj lambda(xi)| <= 1e-10 max(1, |lambda|) per entry."""
    _kern.standing_moments(kernel)
    xis = _along(kernel.d, nu, xi_grid)
    plus = _symbol_values(kernel, nu, xis)
    lhs = np.max(np.abs(_symbol_values(kernel, nu, -xis) - np.conj(plus)),
                 axis=1)
    tol = 1e-10 * max(1.0, float(np.max(np.abs(plus))))
    return _report("hermitian_symmetry", np.asarray(xi_grid), lhs,
                   np.full(lhs.shape, tol), 0.0)


def check_cutoff_perturbation(kernel, nu, xi_grid, radius):
    """Cutting w at radius moves each entry of lambda by <= 2 tail_mass."""
    bound = 2.0 * _kern.tail_mass(kernel, radius)
    trimmed = _kern.cutoff(kernel, radius)
    _kern.standing_moments(trimmed)
    xis = _along(kernel.d, nu, xi_grid)
    lhs = np.max(np.abs(_symbol_values(kernel, nu, xis)
                        - _symbol_values(trimmed, nu, xis)), axis=1)
    return _report("cutoff_perturbation", np.asarray(xi_grid), lhs,
                   np.full(lhs.shape, bound), 1e-10)


def check_eta_envelope(d, nu, tau, xi_grid):
    """Each entry of eta_tau(xi) stays below eta_bound(d, tau, |xi|)."""
    xis = _along(d, nu, xi_grid)
    lhs = np.max(np.abs(_eta_values(tau, nu, xis, d)), axis=1)
    return _report("eta_envelope", np.asarray(xi_grid), lhs,
                   eta_bound(d, tau, _norms(xis)), 1e-10)


def check_fractional_sandwich(delta, d, xi_grid):
    """c <= |lambda(xi)| / |xi|^{1-delta} <= C for the raw fractional kernel."""
    kernel = _kern.fractional_vanishing(d, delta, normalize=False)
    nu = 1.0 if d == 1 else np.array([1.0, 0.0])
    xis = _along(d, nu, xi_grid)
    ratios = (_norms(_symbol_values(kernel, nu, xis))
              / _norms(xis) ** (1.0 - delta))
    lo, hi = float(np.min(ratios)), float(np.max(ratios))
    return BoundReport(name="fractional_sandwich", grid=xis, lhs=ratios,
                       rhs=[lo, hi], margin=lo, passed=lo > 0.0,
                       note=f"c={lo:.8g} C={hi:.8g} spread={hi / lo:.8g}")


def compactness_ratio_scan(kernel_family, param_list, tau_list, xi_grid):
    """sup over the grid of |eta_tau(xi)| / |lambda_{w^c}(xi)| per (param, tau).

    kernel_family maps a parameter to a Kernel; kernels with positive tail
    mass are cut at radius 1 before the symbol in the denominator is taken.
    Rows are emitted in (param, tau) order; a vanishing denominator at a
    nonzero frequency records an infinite ratio and fails the row.
    """
    rows = []
    for param in param_list:
        kernel = kernel_family(param)
        work = kernel
        if _kern.tail_mass(kernel, 1.0) > 0.0:
            work = _kern.cutoff(kernel, 1.0)
        d = kernel.d
        nu = 1.0 if d == 1 else np.array([1.0, 0.0])
        xis = _along(d, nu, xi_grid)
        if np.any(np.all(xis.reshape(len(xis), -1) == 0.0, axis=1)):
            raise ValueError("xi = 0 is excluded from the ratio scan")
        lam_mags = _norms(_symbol_values(work, nu, xis))
        for tau in tau_list:
            eta_mags = _norms(_eta_values(tau, nu, xis, d))
            ratios = np.divide(eta_mags, lam_mags,
                               out=np.full(lam_mags.shape, math.inf),
                               where=lam_mags > 0.0)
            sup = max(0.0, float(np.max(ratios)))
            rows.append({"param": param, "tau": tau, "sup_ratio": sup,
                         "passed": math.isfinite(sup)})
    return rows


def scaling_identity_check(base_kernel, delta_list, xi_grid):
    """lambda_{w_delta}(xi) = delta^{-1} lambda_w(delta xi) to 1e-6 relative.

    lhs and rhs hold |lambda_{w_delta}(xi)| and |lambda_w(delta xi)|/delta,
    one row per delta.
    """
    d = base_kernel.d
    nu = 1.0 if d == 1 else np.array([1.0, 0.0])
    xis = _along(d, nu, xi_grid)
    lhs, rhs = [], []
    worst = 0.0
    for delta in delta_list:
        left = _symbol_values(_kern.rescaled(base_kernel, delta), nu, xis)
        right = _symbol_values(base_kernel, nu, xis * delta) / delta
        lhs.append(_norms(left))
        rhs.append(_norms(right))
        scale = np.maximum(np.maximum(lhs[-1], rhs[-1]), 1e-300)
        worst = max(worst, float(np.max(_norms(left - right) / scale)))
    return BoundReport(name="scaling_identity", grid=xis, lhs=np.array(lhs),
                       rhs=np.array(rhs), margin=worst, passed=worst <= 1e-6,
                       note=f"max relative deviation {worst:.3g}")


def appendix_limit_table(delta_list):
    """The two oscillatory integrals behind the fractional normalization.

    Per delta: int_0^inf delta z^{delta-2}(cos 2 pi z - 1) dz and
    int_0^inf delta z^{delta-2} sin(2 pi z) dz, plus the variants with the
    upper limit at 1.  As delta -> 0 the sine integral tends to 2 pi and
    the cosine integral to 0.
    """
    rows = []
    for delta in delta_list:
        raw = _kern.fractional_vanishing(1, delta, normalize=False)
        _kern.standing_moments(raw)
        lam = _half_line_symbol(raw, 1.0, 0)
        lam1 = _half_line_symbol(_kern.cutoff(raw, 1.0), 1.0, 0)
        rows.append({
            "delta": delta,
            "cos_integral": lam.real / 2.0,
            "sin_integral": lam.imag / 2.0,
            "cos_upto1": lam1.real / 2.0,
            "sin_upto1": lam1.imag / 2.0,
        })
    return rows


# ---------------------------------------------------------------------------
# Orthonormal frame adapted to a direction.
# ---------------------------------------------------------------------------

def ortho_basis(mu):
    """Orthonormal basis (v_1, ..., v_{d-1}, mu) built by dimension recursion.

    Requires mu_1 > 0.  Each step extends the frame of the normalized
    prefix (mu_1, ..., mu_m) by one coordinate; with s_m the prefix norm
    and t = mu_{m+1}/s_{m+1}, the new non-axis vector is
    (|t| * prefix/s_m, -sgn(t) * s_m/s_{m+1}) with sgn(0) taken as +1.
    The first components of the v_k come out as
    mu_1 |mu_{k+1}| / (s_k s_{k+1}), all nonnegative.
    """
    mu = np.asarray(mu, dtype=float).reshape(-1)
    d = mu.size
    if d < 2:
        raise ValueError("need dimension >= 2")
    n = float(np.linalg.norm(mu))
    if n == 0.0:
        raise ValueError("mu must be nonzero")
    mu = mu / n
    if mu[0] <= 0.0:
        raise ValueError("construction requires mu_1 > 0")
    s = np.sqrt(np.cumsum(mu ** 2))
    basis = np.array([[1.0]])  # frame of R^1 for the first prefix
    for m in range(1, d):
        t = mu[m] / s[m]
        sg = 1.0 if mu[m] >= 0.0 else -1.0
        root = s[m - 1] / s[m]
        prev_vs = basis[:, :-1]
        prev_u = basis[:, -1]
        new = np.zeros((m + 1, m + 1))
        new[:m, :m - 1] = prev_vs
        new[:m, m - 1] = abs(t) * prev_u
        new[m, m - 1] = -sg * root
        new[:m, m] = root * prev_u
        new[m, m] = t
        basis = new
    return OrthoBasis(mu=mu, matrix=basis)
