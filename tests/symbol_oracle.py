"""Scalar half-line symbol, kept as the oracle for the batched engine.

This is the one-frequency-at-a-time evaluation of

    S(c) = int_0^inf r^power profile(r) (e^{2 pi i c r} - 1) dr

that `hsnl.symbols._half_line_symbol` replaced: the same three zones
(Taylor, quarter-period panels, integration-by-parts tail) with Python
scalars and the scalar closed forms of `kernel_oracle` for every moment.
"""

import cmath
import math

import numpy as np

import kernel_oracle
from hsnl import kernels as _kern
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
