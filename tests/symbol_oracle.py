"""Scalar half-line symbol and the half-circle d=2 angle rule, kept as
oracles for the batched engine and the folded angle rule.

The first is the one-frequency-at-a-time evaluation of

    S(c) = int_0^inf r^power profile(r) (e^{2 pi i c r} - 1) dr

that `hsnl.symbols._half_line_symbol` replaced: the same three zones
(Taylor, quarter-period panels, far tail) with Python scalars and the
scalar closed forms of `kernel_oracle` for every moment.  Its panels
still run to a phase of 40 radians and its far tail is still the
integration-by-parts series, so it checks the engine's continued-fraction
tail from phase 4 pi independently.
"""

import cmath
import math

import numpy as np

import kernel_oracle
from hsnl import kernels as _kern
from hsnl import symbols as _sym
from hsnl._quad import panel_points

_TWO_PI = 2.0 * math.pi


def osc_tail(e, w, t):
    """int_t^inf r^e e^{i w r} dr by the integration-by-parts series."""
    iw = 1j * w
    term = -t ** e * cmath.exp(iw * t) / iw
    total = term
    prev = abs(term)
    for k in range(120):
        term = term * (k - e) / (iw * t)
        mag = abs(term)
        if mag >= prev:
            break
        total += term
        prev = mag
        if mag <= 1e-17 * max(abs(total), 1e-300):
            break
    return total


def tail_power_terms(pieces, lo_cut):
    """Power-law terms (coeff, p, a, b) of the profile on r > lo_cut."""
    out = []
    for piece in pieces:
        a, b = max(piece[1], lo_cut), piece[2]
        if a >= b:
            continue
        kind = piece[0]
        if kind == "pow":
            out.append((piece[3], piece[4], a, b))
        elif kind == "logreg":
            coeff, dl, dd = piece[3], piece[4], piece[5]
            for j in range(40):
                cj = coeff * math.comb(dd + j - 1, j) * (-dl) ** j
                if j > 4 and abs(cj) * a ** (-1.0 - dd - j) < 1e-25:
                    break
                out.append((cj, -1.0 - dd - j, a, b))
        else:
            raise ValueError("unexpected piece kind in far tail")
    return out


def half_line_symbol(kernel, c, power):
    """S(c) for one frequency c."""
    if c == 0.0:
        return 0.0 + 0.0j
    if c < 0.0:
        return np.conj(half_line_symbol(kernel, -c, power))
    lo, hi = _kern.support(kernel)
    w = _TWO_PI * c
    z1 = min(hi, 1.0, 1.0 / (4.0 * c))

    total = 0.0 + 0.0j
    coef = 1.0 + 0.0j
    iw = 1j * w
    for k in range(1, 80):
        coef *= iw / k
        mk = kernel_oracle.radial_integral(kernel, 0.0, z1, power + k)
        term = coef * mk
        total += term
        if abs(term) <= 1e-17 * (1.0 + abs(total)) and k > 3:
            break

    if z1 >= hi:
        return complex(total)

    pieces = _kern._pieces(kernel)
    r_exp = z1
    for piece in pieces:
        if piece[0] == "logreg":
            r_exp = max(r_exp, min(hi, 6.0 * piece[4]))
        elif piece[0] == "loglin":
            r_exp = max(r_exp, piece[2])
    r_osc = min(hi, max(2.0 * z1, 40.0 / w, r_exp))

    if r_osc > z1:
        quarter = 1.0 / (4.0 * c)
        n_base = int(math.ceil((r_osc - z1) / quarter))
        if n_base > 300000:
            raise RuntimeError("oscillatory quadrature would need more than "
                               "3e5 panels; frequency out of supported range")
        grid = np.linspace(z1, r_osc, n_base + 1)
        inner = [bp for bp in _kern.breakpoints(kernel) if z1 < bp < r_osc]
        if inner:
            grid = np.unique(np.concatenate([grid, np.array(inner)]))
        x, wt = panel_points(grid, 16)
        prof = _kern.eval(kernel, x)
        theta = w * x
        vals = prof * x ** power * (-2.0 * np.sin(0.5 * theta) ** 2
                                    + 1j * np.sin(theta))
        total += complex(np.sum(wt * vals))

    if hi > r_osc:
        neg = kernel_oracle.radial_integral(kernel, r_osc, hi, power)
        total -= neg
        for coeff, p, a, b in tail_power_terms(pieces, r_osc):
            e = p + power
            val = osc_tail(e, w, a)
            if b < math.inf:
                val -= osc_tail(e, w, b)
            total += coeff * val
    return complex(total)


def half_circle_symbol(kernel, nu, xis):
    """d=2 symbols at the rows of xis by the half-circle angle rule.

    This is the rule that `hsnl.symbols._symbol_e1_2d` folded: in the frame
    that turns nu to e1, a 33-point Gauss rule over theta in [-pi/2, pi/2]
    with ceil(|xi|/4) panels per quarter turn, applied to theta S(xi . theta)
    with S from the batched engine, so that only the angle rule differs.
    """
    u0, u1 = np.asarray(nu, dtype=float) / math.hypot(*nu)
    out = np.zeros((len(xis), 2), dtype=complex)
    half_pi = 0.5 * math.pi
    for k, (x0, x1) in enumerate(np.asarray(xis, dtype=float)):
        xi = np.array([u0 * x0 + u1 * x1, u0 * x1 - u1 * x0])
        norm = math.hypot(xi[0], xi[1])
        if norm == 0.0:
            continue
        per_quadrant = max(1, int(math.ceil(norm / 4.0)))
        grid = np.concatenate([
            np.linspace(-half_pi, 0.0, per_quadrant + 1)[:-1],
            np.linspace(0.0, half_pi, per_quadrant + 1)])
        th, wt = panel_points(grid, 33)
        ws = wt * _sym._half_line_symbol(kernel, xi[0] * np.cos(th)
                                         + xi[1] * np.sin(th), 1)
        loc = np.array([np.sum(np.cos(th) * ws), np.sum(np.sin(th) * ws)])
        out[k] = [u0 * loc[0] - u1 * loc[1], u1 * loc[0] + u0 * loc[1]]
    return out
