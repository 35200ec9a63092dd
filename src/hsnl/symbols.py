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

    S(c) = int_0^inf r^p profile(r) (e^{2 pi i c r} - 1) dr

which is computed in three zones: a Taylor zone near the origin summed
against closed-form partial moments (this absorbs integrable
singularities), an oscillatory middle zone on panels no wider than a
quarter period with 16-point Gauss-Legendre, and an analytic far tail via
the integration-by-parts asymptotic series, entered only once the phase
exceeds 40 radians so the series converges below roundoff.  Lower-bound
constants are fitted infima over named grids, not proved bounds.

The engine takes a whole array of frequencies c at once: a d=2 symbol is
one call over all its angle nodes, and a d=1 grid is one call over its
points.  Each zone works on arrays with a per-entry stopping rule, so an
entry gets the same value in any batch.  Work is blocked: the Taylor
moments and the far-tail series are built at most 32 terms at a time for
at most BLOCK_ENTRIES / 32 rows, and Gauss nodes are evaluated in groups
of whole frequencies with fewer than BLOCK_ENTRIES (65536) nodes; a
frequency with more is integrated alone, in slices of 65536 nodes from
its first panel.  These working arrays thus hold at most 65536 entries
whatever the batch size.  A frequency that needs more than 3e5
quarter-period panels raises SymbolError before anything is built for
its batch.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels as _kern
from ._quad import BLOCK_ENTRIES, gauss_rule, panel_points

_TWO_PI = 2.0 * math.pi
_GAUSS = 16            # Gauss points per quarter-period panel
_TAYLOR_TERMS = 79     # most Taylor terms a frequency may take
_COLUMNS = 32          # series terms built per pass (Taylor, far tail)
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
    a complex array of that shape, 0 where c = 0 and conj(S(|c|)) where
    c < 0.  Every entry is computed on its own, so a frequency gets the
    same bits whatever batch it is in.  Raises SymbolError, before any
    quadrature array is built, when a frequency needs more than 3e5
    quarter-period panels.
    """
    c = np.asarray(c, dtype=float)
    if not np.all(np.isfinite(c)):
        raise ValueError("symbol frequencies must be finite")
    flat = c.ravel()
    out = np.zeros(flat.size, dtype=complex)
    nz = np.flatnonzero(flat)
    if nz.size:
        mag = np.abs(flat[nz])
        z1, r_osc, n_base = _zones(kernel, mag)
        worst = int(np.argmax(n_base))
        if n_base[worst] > _MAX_PANELS:
            raise SymbolError(
                "oscillatory quadrature would need %.6g > 3e5 panels at "
                "frequency %.6g; frequency out of supported range"
                % (n_base[worst], mag[worst]))
        n_base = n_base.astype(np.int64)
        step = BLOCK_ENTRIES // _COLUMNS
        for s in range(0, nz.size, step):
            blk = slice(s, s + step)
            out[nz[blk]] = _half_line_block(kernel, mag[blk], power,
                                            z1[blk], r_osc[blk],
                                            n_base[blk])
    out = np.where(flat < 0.0, np.conj(out), out)
    return out.reshape(c.shape)


def _zones(kernel, c):
    """Taylor end z1, panel end r_osc and quarter-period panel count.

    The Taylor zone (0, z1] keeps the phase below pi/2.  The panel zone
    must cover tabulated pieces entirely and log_regularized pieces out to
    several delta, so the far-tail expansion converges; it always reaches
    a phase of 40 radians.  Frequencies with z1 at the support top get no
    panels.
    """
    pieces = _kern._pieces(kernel)
    hi = pieces[-1][2]
    r_exp = -math.inf
    for piece in pieces:
        if piece[0] == "logreg":
            r_exp = max(r_exp, min(hi, 6.0 * piece[4]))
        elif piece[0] == "loglin":
            r_exp = max(r_exp, piece[2])
    # periods of subnormal frequencies overflow to inf; the support top or
    # 1 clips them
    with np.errstate(over="ignore"):
        quarter = 1.0 / (4.0 * c)
        z1 = np.minimum(min(hi, 1.0), quarter)
        r_osc = np.minimum(hi, np.maximum(np.maximum(2.0 * z1,
                                                     40.0 / (_TWO_PI * c)),
                                          np.maximum(z1, r_exp)))
    return z1, r_osc, np.where(z1 < hi, np.ceil((r_osc - z1) / quarter), 0.0)


def _half_line_block(kernel, c, power, z1, r_osc, n_base):
    """S(c) for positive c, at most BLOCK_ENTRIES / _COLUMNS of them."""
    w = _TWO_PI * c
    total = _taylor_zone(kernel, w, z1, power)
    hi = _kern.support(kernel)[1]
    live = np.flatnonzero(z1 < hi)
    if live.size:
        total[live] += _panel_zone(kernel, w[live], z1[live], r_osc[live],
                                   n_base[live], power)
        tail = live[r_osc[live] < hi]
        if tail.size:
            total[tail] = _tail_zone(kernel, w[tail], r_osc[tail], power,
                                     total[tail])
    return total


def _taylor_zone(kernel, w, z1, power):
    """sum_k (i w)^k / k! int_0^z1 r^{power+k} profile dr per entry.

    The phase is at most pi/2 on (0, z1], so the series decays fast; the
    closed-form partial moments absorb integrable singularities at 0.  An
    entry stops after the first term past k = 3 below 1e-17 (1 + |sum|).
    _COLUMNS orders are taken at a time for the entries still
    running; the running coefficient and sum lead each block's cumulative
    product and sum, so every entry sees the operations of the
    term-by-term loop.
    """
    out = np.empty(w.size, dtype=complex)
    idx = np.arange(w.size)
    iw = 1j * w
    coef = np.ones(w.size, dtype=complex)
    total = np.zeros(w.size, dtype=complex)
    for k0 in range(1, _TAYLOR_TERMS + 1, _COLUMNS):
        ks = np.arange(k0, min(k0 + _COLUMNS, _TAYLOR_TERMS + 1))
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
    # e^{i theta} - 1 written to avoid cancellation for small theta
    re = half * ((g * (-2.0 * np.sin(0.5 * theta) ** 2)) @ weights)
    im = half * ((g * np.sin(theta)) @ weights)
    sums = np.empty(w.size, dtype=complex)
    sums.real = np.bincount(owner, re, w.size)
    sums.imag = np.bincount(owner, im, w.size)
    return sums


def _tail_zone(kernel, w, r_osc, power, total):
    """Add the far tail (r_osc, hi) to total, per entry.

    The "-1" part of the integrand has a closed form; the oscillatory part
    is summed per power term with the asymptotic series, the terms of all
    entries together in blocks of rows, and added to each entry in term
    order.
    """
    hi = _kern.support(kernel)[1]
    total = total - _kern._radial_integrals(kernel, r_osc, hi, power)
    terms = _tail_power_terms(_kern._pieces(kernel), r_osc)
    if not terms:
        return total
    owner = np.concatenate([np.flatnonzero(t[4]) for t in terms])
    sizes = [int(np.count_nonzero(t[4])) for t in terms]
    coeff = np.repeat([t[0] for t in terms], sizes)
    e = np.repeat([t[1] + power for t in terms], sizes)
    a = np.concatenate([t[2][t[4]] for t in terms])
    b = np.repeat([t[3] for t in terms], sizes)
    val = np.empty(owner.size, dtype=complex)
    rows = BLOCK_ENTRIES // _COLUMNS
    for start in range(0, owner.size, rows):
        cut = slice(start, start + rows)
        ws = w[owner[cut]]
        val[cut] = _osc_tail(e[cut], ws, a[cut])
        finite = np.flatnonzero(b[cut] < math.inf)
        if finite.size:
            val[start + finite] -= _osc_tail(e[cut][finite], ws[finite],
                                             b[cut][finite])
    np.add.at(total, owner, coeff * val)
    return total


def _tail_power_terms(pieces, lo_cut):
    """Power-law terms (coeff, p, a, b, live) of the profile on r > lo_cut.

    lo_cut is an array; a is the per-entry start max(piece start, lo_cut)
    and live marks the entries a term applies to.  log_regularized pieces
    are expanded binomially in (delta/r), which the caller guarantees is
    <= 1/6 on the region, and each entry drops the expansion once a term
    past j = 4 falls below 1e-25 at its own start; loglin pieces never
    reach here because the panel zone is extended over their support.
    """
    out = []
    for piece in pieces:
        a, b = np.maximum(piece[1], lo_cut), piece[2]
        live = a < b
        if not live.any():
            continue
        kind = piece[0]
        if kind == "pow":
            out.append((piece[3], piece[4], a, b, live))
        elif kind == "logreg":
            coeff, dl, dd = piece[3], piece[4], piece[5]
            for j in range(40):
                cj = coeff * math.comb(dd + j - 1, j) * (-dl) ** j
                if j > 4:
                    live = live & ~(abs(cj) * a ** (-1.0 - dd - j) < 1e-25)
                    if not live.any():
                        break
                out.append((cj, -1.0 - dd - j, a, b, live))
        else:
            raise ValueError("unexpected piece kind in far tail")
    return out


def _osc_tail(e, w, t):
    """int_t^inf r^e e^{i w r} dr per entry by the integration-by-parts series.

    Valid once w*t is large (callers guarantee w*t >= 40); successive terms
    shrink by |e - k|/(w t), so the series reaches roundoff before the
    asymptotic divergence kicks in.  An entry stops at the first term that
    does not shrink (not added) or that falls below 1e-17 of its sum.
    Terms are built as cumulative products of the ratios (k - e)/(i w t)
    for the entries still running, 8 in the first pass, which ends most
    entries, and _COLUMNS in each later one.
    """
    iwt = 1j * w * t
    term = -t ** e * np.exp(iwt) / (1j * w)
    total, prev = term, np.abs(term)
    out = np.empty(w.size, dtype=complex)
    idx = np.arange(w.size)
    for k0, k1 in ((0, 8), (8, 40), (40, 72), (72, 104), (104, 120)):
        ks = np.arange(k0, k1)
        terms = np.cumprod(np.column_stack(
            [term, (ks - e[:, None]) / iwt[:, None]]), axis=1)[:, 1:]
        mags = np.abs(terms)
        sums = np.cumsum(np.column_stack([total, terms]), axis=1)
        grew = mags >= np.column_stack([prev, mags[:, :-1]])
        small = mags <= 1e-17 * np.maximum(np.abs(sums[:, 1:]), 1e-300)
        stop = grew | small
        done = np.flatnonzero(stop.any(axis=1))
        first = np.argmax(stop[done], axis=1)
        # a term that grew is left out: the sum before it is the result
        out[idx[done]] = sums[done, first + ~grew[done, first]]
        keep = ~stop.any(axis=1)
        if not keep.any():
            return out
        idx, e, iwt = idx[keep], e[keep], iwt[keep]
        term, prev, total = terms[keep, -1], mags[keep, -1], sums[keep, -1]
    out[idx] = total
    return out


# ---------------------------------------------------------------------------
# The symbol itself.
# ---------------------------------------------------------------------------

def _check_standing(kernel):
    m1 = _kern.partial_moments(kernel, 0.0, 1.0, 1)
    m2 = _kern.tail_mass(kernel, 1.0)
    if not 0.0 < m1 < math.inf:
        raise _kern.AssumptionError("first moment not in (0, inf)")
    if math.isinf(m2):
        raise _kern.AssumptionError("tail mass not summable")


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


@functools.lru_cache(maxsize=64)
def _angle_rule(per_quadrant):
    """33-point Gauss rule on [-pi/2, pi/2], per_quadrant panels a side."""
    half_pi = 0.5 * math.pi
    grid = np.concatenate([np.linspace(-half_pi, 0.0, per_quadrant + 1)[:-1],
                           np.linspace(0.0, half_pi, per_quadrant + 1)])
    th, wt = panel_points(grid, 33)
    rule = (np.cos(th), np.sin(th), wt)
    for arr in rule:
        arr.flags.writeable = False  # shared by every caller of the cache
    return rule


def _symbol_e1_2d(kernel, xis):
    """Symbols for nu = e1 at the rows of xis, an (n, 2) array.

    The half-plane integral is an angular Gauss rule (per_quadrant panels
    per quarter turn, growing with |xi|) over the half-line symbols along
    each direction.  All angle nodes of a run of rows go to the engine in
    one call; a run closes once it holds BLOCK_ENTRIES nodes, so a single
    row is always one call.
    """
    xis = np.asarray(xis, dtype=float).reshape(-1, 2)
    out = np.zeros(xis.shape, dtype=complex)
    run, nodes = [], 0
    for i, xi in enumerate(xis):
        xin = math.hypot(xi[0], xi[1])
        if xin == 0.0:
            continue
        run.append((i, _angle_rule(max(1, int(math.ceil(xin / 4.0))))))
        nodes += run[-1][1][2].size
        if nodes >= BLOCK_ENTRIES:
            _angle_sums(kernel, xis, run, out)
            run, nodes = [], 0
    if run:
        _angle_sums(kernel, xis, run, out)
    return out


def _angle_sums(kernel, xis, run, out):
    """Fill out[i] with the angular rule over S(xi . theta) for (i, rule)."""
    rows = np.concatenate([np.full(rule[2].size, i) for i, rule in run])
    cos_t, sin_t, wt = (np.concatenate([rule[k] for _, rule in run])
                        for k in range(3))
    c = xis[rows, 0] * cos_t + xis[rows, 1] * sin_t
    ws = wt * _half_line_symbol(kernel, c, 1)
    for comp, trig in enumerate((cos_t, sin_t)):
        part = trig * ws
        out[:, comp].real += np.bincount(rows, part.real, len(xis))
        out[:, comp].imag += np.bincount(rows, part.imag, len(xis))


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
    _check_standing(kernel)
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
    squares = (rows.real @ rows.real.transpose(0, 2, 1)).ravel()
    if np.iscomplexobj(rows):
        squares = squares + (rows.imag @ rows.imag.transpose(0, 2, 1)).ravel()
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
    _check_standing(kernel)
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
    _check_standing(trimmed)
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
