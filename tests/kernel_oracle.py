"""Scalar closed-form radial integrals, kept as the oracle for `kernels`.

These are the one-interval-at-a-time closed forms of int_a^b r^q profile dr
that `hsnl.kernels` replaced with one vectorized primitive per piece kind:
Python scalars and `math` throughout, the logreg series below 0.9 delta
summed term by term, and divergence decided piece by piece.
"""

import math

from hsnl import kernels as _kern


def int_pow(c, p, q, a, b):
    e = p + q
    if (a == 0.0 and e + 1.0 <= 0.0) or (b == math.inf and e + 1.0 >= 0.0):
        return math.copysign(math.inf, c) if c else 0.0

    def primitive(t):  # antiderivative of c * t^e
        return c * math.log(t) if e == -1 else c * t ** (e + 1) / (e + 1)
    return ((primitive(b) if b < math.inf else 0.0)
            - (primitive(a) if a > 0.0 else 0.0))


def int_loglin(u, v, q, a, b):
    if q == -1.0:
        lb, la = math.log(b), math.log(a)
        return u * (lb - la) + v * (lb * lb - la * la) / 2.0

    def primitive(t):  # antiderivative of t^q (u + v log t)
        s = t ** (q + 1.0) / (q + 1.0)
        return u * s + v * s * (math.log(t) - 1.0 / (q + 1.0))
    return primitive(b) - primitive(a)


def logreg_primitive(m, dl, dd, t):
    """Antiderivative of t^m (t+dl)^{-dd} for integer m >= -1, t > 0."""
    if m >= 0:
        total = 0.0
        for j in range(m + 1):
            cj = math.comb(m, j) * (-dl) ** (m - j)
            e = j - dd + 1
            if e == 0:
                total += cj * math.log(t + dl)
            else:
                total += cj * (t + dl) ** e / e
        return total
    if dd == 1:
        return math.log(t / (t + dl)) / dl
    if dd == 2:
        return math.log(t / (t + dl)) / dl ** 2 + 1.0 / (dl * (t + dl))
    if dd == 3:
        return (math.log(t / (t + dl)) / dl ** 3 + 1.0 / (dl ** 2 * (t + dl))
                + 1.0 / (2.0 * dl * (t + dl) ** 2))
    raise ValueError("log_regularized antiderivative needs d in {1,2,3}")


def logreg_series_int(m, dl, dd, a, b):
    """int_a^b t^m (t+dl)^{-dd} dt for b well below dl, via a series in t/dl."""
    pref = dl ** float(-dd)
    coeff = 1.0
    pb = b ** (m + 1.0)
    pa = a ** (m + 1.0) if a > 0.0 else 0.0
    total = 0.0
    for j in range(600):
        e = m + 1 + j
        if e == 0:
            term = pref * coeff * math.log(b / a)
        else:
            term = pref * coeff * (pb - pa) / e
        total += term
        if j > 3 and abs(term) <= 1e-17 * abs(total):
            break
        coeff *= -(dd + j) / (j + 1.0)
        pb *= b / dl
        pa *= a / dl
    return total


def int_logreg(coeff, dl, dd, q, a, b):
    m = q - 1
    if abs(m - round(m)) > 1e-12:
        raise ValueError("log_regularized integrals need integer exponents")
    m = int(round(m))
    if (a == 0.0 and m <= -1) or (b == math.inf and m - dd + 1 >= 0):
        return math.inf
    split = 0.9 * dl
    if a < split < b:
        return (int_logreg(coeff, dl, dd, q, a, split)
                + int_logreg(coeff, dl, dd, q, split, b))
    if b <= split:
        return coeff * logreg_series_int(m, dl, dd, a, b)
    b_val = 0.0 if b == math.inf else logreg_primitive(m, dl, dd, b)
    return coeff * (b_val - logreg_primitive(m, dl, dd, a))


def radial_integral(kernel, a, b, q):
    """int_a^b r^q * profile(r) dr piece by piece (math.inf when divergent)."""
    if a < 0 or b < a:
        raise ValueError("need 0 <= a <= b")
    total = 0.0
    for piece in _kern._pieces(kernel):
        lo, hi = max(a, piece[1]), min(b, piece[2])
        if lo >= hi:
            continue
        if piece[0] == "pow":
            val = int_pow(piece[3], piece[4], q, lo, hi)
        elif piece[0] == "loglin":
            val = int_loglin(piece[3], piece[4], q, lo, hi)
        else:
            val = int_logreg(piece[3], piece[4], piece[5], q, lo, hi)
        if math.isinf(val):
            return math.inf
        total += val
    return total
