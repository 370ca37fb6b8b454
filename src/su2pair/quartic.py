"""Closed-form quartic solver: Ferrari's factorization over a Cardano cubic.

Operates in complex arithmetic throughout so real polynomials with complex
root pairs and near-double roots are handled uniformly, then polishes every
root with a few Newton steps on the original polynomial.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import InvariantViolation

_NEWTON_STEPS = 5


def _depressed_cubic_roots(p: complex, q: complex) -> list[complex]:
    """All roots of t^3 + p t + q = 0 via Cardano in complex arithmetic."""
    if p == 0 and q == 0:
        return [0j, 0j, 0j]
    disc = cmath.sqrt((q / 2) ** 2 + (p / 3) ** 3)
    # Pick the cube-root argument with the larger magnitude: keeps u away
    # from zero so v = -p/(3u) is well conditioned.
    u3 = -q / 2 + disc
    alt = -q / 2 - disc
    if abs(alt) > abs(u3):
        u3 = alt
    u = u3 ** (1.0 / 3.0)
    v = 0j if u == 0 else -p / (3 * u)
    w = complex(-0.5, 0.5 * np.sqrt(3.0))  # primitive cube root of unity
    return [u + v, u * w + v * w.conjugate(), u * w.conjugate() + v * w]


def _quadratic_roots(b: complex, c: complex) -> tuple[complex, complex]:
    """Stable roots of y^2 + b y + c = 0."""
    sq = cmath.sqrt(b * b - 4 * c)
    if (b.conjugate() * sq).real >= 0.0:
        t = -(b + sq) / 2
    else:
        t = -(b - sq) / 2
    if t == 0:
        return 0j, -b
    return t, c / t


def _polish(root: complex, coeffs: np.ndarray, dcoeffs: np.ndarray) -> complex:
    best = root
    best_val = abs(np.polyval(coeffs, root))
    x = root
    for _ in range(_NEWTON_STEPS):
        d = np.polyval(dcoeffs, x)
        if d == 0:
            break
        x = x - np.polyval(coeffs, x) / d
        val = abs(np.polyval(coeffs, x))
        if val < best_val:
            best, best_val = x, val
    return best


def solve_quartic(c4: float, c3: float, c2: float, c1: float, c0: float) -> np.ndarray:
    """Roots of c4 x^4 + c3 x^3 + c2 x^2 + c1 x + c0 = 0.

    Returns four complex roots sorted by descending real part, ties broken
    by descending imaginary part.  Raises ValueError when c4 = 0, and
    InvariantViolation when a root is not finite, as when dividing by a tiny
    c4 overflows the monic coefficients.
    """
    if c4 == 0:
        raise ValueError("leading coefficient is zero: not a quartic")
    b, c, d, e = (complex(v) / c4 for v in (c3, c2, c1, c0))

    # Depress with x = y - b/4.
    shift = b / 4
    p = c - 3 * b * b / 8
    q = d - b * c / 2 + b * b * b / 8
    r = e - b * d / 4 + b * b * c / 16 - 3 * b**4 / 256

    scale = max(abs(p), abs(q), abs(r), 1.0)
    if abs(q) <= 1e-14 * scale:
        # Biquadratic: y^4 + p y^2 + r = 0.
        z1, z2 = _quadratic_roots(p, r)
        ys = [cmath.sqrt(z1), -cmath.sqrt(z1), cmath.sqrt(z2), -cmath.sqrt(z2)]
    else:
        # Ferrari: pick z from the resolvent z^3 + p z^2 + (p^2/4 - r) z - q^2/8 = 0,
        # then y^4+py^2+qy+r = (y^2+sy+u)(y^2-sy+w) with s = sqrt(2z).
        rp = -p * p / 12 - r
        rq = 2 * p**3 / 27 - p * (p * p / 4 - r) / 3 - q * q / 8
        zs = [t - p / 3 for t in _depressed_cubic_roots(rp, rq)]
        z = max(zs, key=abs)
        s = cmath.sqrt(2 * z)
        t = q / (2 * s)
        u = p / 2 + z - t
        w = p / 2 + z + t
        y1, y2 = _quadratic_roots(s, u)
        y3, y4 = _quadratic_roots(-s, w)
        ys = [y1, y2, y3, y4]

    coeffs = np.array([1.0, b, c, d, e], dtype=complex)
    dcoeffs = np.array([4.0, 3 * b, 2 * c, d], dtype=complex)
    with np.errstate(all="ignore"):
        roots = [_polish(y - shift, coeffs, dcoeffs) for y in ys]
    if not all(cmath.isfinite(z) for z in roots):
        listed = ", ".join(str(complex(z)) for z in roots)
        raise InvariantViolation(f"quartic roots are not finite: {listed}")
    roots.sort(key=lambda z: (-z.real, -z.imag))
    return np.array(roots, dtype=complex)
