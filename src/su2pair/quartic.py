"""Closed-form quartic solver over batch axes: Ferrari's factorization in
real arithmetic.

The monic quartic is depressed, split into two real quadratics through the
largest real root of its resolvent cubic, and every root is then polished
by a fixed number of Newton steps on the original polynomial.  Every step
is elementwise real arithmetic on broadcast arrays, so one call solves any
number of quartics and every batch item gets the bits of the single call.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolation

_NEWTON_STEPS = 5


def _resolvent_root(p, q, r):
    """Largest real root of z^3 + p z^2 + (p^2/4 - r) z - q^2/8 = 0.

    The cubic is -q^2/8 <= 0 at z = 0, so that root is at least 0.
    """
    # Depressed with z = t - p/3: t^3 + pp t + qq = 0.
    pp = -p * p / 12 - r
    qq = 2 * p * p * p / 27 - p * (p * p / 4 - r) / 3 - q * q / 8
    disc = qq * qq / 4 + pp * pp * pp / 27
    # One real root (Cardano), from the cube root of larger magnitude.
    u = np.cbrt(-qq / 2 - np.copysign(np.sqrt(np.maximum(disc, 0.0)), qq))
    cardano = u + np.where(u == 0, 0.0, -pp / (3 * u))
    # Three real roots (trigonometric form): the largest.
    m = 2 * np.sqrt(-pp / 3)
    trig = m * np.cos(np.arccos(np.clip(3 * qq / (pp * m), -1.0, 1.0)) / 3)
    # Where the discriminant rounds above zero at a double root, Cardano
    # returns the simple root, which may lie below it.  Any root z >= 0
    # still factors the quartic into real quadratics, and a negative one
    # comes only with a double root at 0 (as for (x^2 + 1)^2), so the
    # clamp at 0 takes the largest root there too.
    return np.maximum(np.where(disc >= 0, cardano, trig) - p / 3, 0.0)


def _quadratic(b, c):
    """Roots of y^2 + b y + c = 0 as an array (re/im, 2, ...); real roots
    in the stable form y1 = -(b + sign(b) sqrt(disc)) / 2, y2 = c / y1."""
    disc = b * b - 4 * c
    root = np.sqrt(np.abs(disc))
    big = -(b + np.copysign(root, b)) / 2
    real = disc >= 0
    return np.array([np.where(real, [big, np.where(big == 0, 0.0, c / big)], -b / 2),
                     np.where(real, 0.0, [root / 2, -root / 2])])


def _horner(coeffs, xr, xi):
    """Real and imaginary parts of the polynomial ``coeffs`` (leading first)
    at xr + i xi."""
    ar, ai = coeffs[0] * xr + coeffs[1], coeffs[0] * xi
    for k in coeffs[2:]:
        ar, ai = ar * xr - ai * xi + k, ar * xi + ai * xr
    return ar, ai


def solve_quartic(c4, c3, c2, c1, c0) -> np.ndarray:
    """Roots of c4 x^4 + c3 x^3 + c2 x^2 + c1 x + c0 = 0.

    The coefficients are scalars or arrays that broadcast to a batch shape
    (...); the result has shape (..., 4), complex, each item's roots sorted
    by descending real part, ties broken by descending imaginary part.  A
    batch item is bitwise the single call on its coefficients, so
    ``solve_quartic(*secular_coefficients(derive_arrays(a, b, w)))`` gives
    every set's spectrum (less upsilon) in one call.  Raises ValueError
    for a bool, string, complex or None coefficient, which numpy would read
    as a number, not as a real one, or as NaN, and when any c4 = 0;
    InvariantViolation when a root is not finite, as when dividing by a
    tiny c4 overflows the monic coefficients.

    Near-degenerate roots lose accuracy as in any closed-form quartic
    (Kopp, IJMPC 19, 523 (2008)): roots a relative gap g apart err by about
    eps / g^2, and by up to ~5e-6 where three roots meet.
    """
    for name, value in zip(("c4", "c3", "c2", "c1", "c0"), (c4, c3, c2, c1, c0)):
        if value is None or np.asarray(value).dtype.kind in "bcSU":
            raise ValueError(f"{name} must be a real number or array, not {value!r}")
    c4 = np.asarray(c4, float)
    if np.any(c4 == 0):
        raise ValueError("leading coefficient is zero: not a quartic")
    with np.errstate(all="ignore"):
        b, c, d, e = np.broadcast_arrays(*(np.asarray(v, float) / c4 for v in (c3, c2, c1, c0)))
        # Depress with x = y - b/4.
        p = c - 3 * b * b / 8
        q = d - b * c / 2 + b * b * b / 8
        r = e - b * d / 4 + b * b * c / 16 - 3 * b * b * b * b / 256
        # y^4 + p y^2 + q y + r = (y^2 + s y + u)(y^2 - s y + w) with
        # s = sqrt(2z), u, w = p/2 + z -+ t and t^2 = (p/2 + z)^2 - r.
        z = _resolvent_root(p, q, r)
        s = np.sqrt(2 * z)
        t = np.copysign(np.sqrt(np.maximum((p / 2 + z) * (p / 2 + z) - r, 0.0)), q)
        xr, xi = np.moveaxis(np.concatenate(
            [_quadratic(s, p / 2 + z - t), _quadratic(-s, p / 2 + z + t)], axis=1), 1, -1)
        xr = xr - b[..., None] / 4
        # Newton steps on the monic quartic, keeping each root's best iterate.
        coeffs = [1.0] + [v[..., None] for v in (b, c, d, e)]
        slope = [4.0, 3 * coeffs[1], 2 * coeffs[2], coeffs[3]]
        f = _horner(coeffs, xr, xi)
        best = [xr, xi, np.hypot(*f)]
        for _ in range(_NEWTON_STEPS):
            # x - f / f' = x - f conj(f') / |f'|^2, with f' first divided by
            # |f'| so that nothing overflows; f' = 0 gives NaN, never kept.
            gr, gi = _horner(slope, xr, xi)
            h = np.hypot(gr, gi)
            gr, gi = gr / h, gi / h
            xr, xi = xr - (f[0] * gr + f[1] * gi) / h, xi - (f[1] * gr - f[0] * gi) / h
            f = _horner(coeffs, xr, xi)
            val = np.hypot(*f)
            better = val < best[2]
            best = [np.where(better, new, old) for new, old in zip((xr, xi, val), best)]
    order = np.lexsort((-best[1], -best[0]), axis=-1)
    roots = np.stack([np.take_along_axis(x, order, -1) for x in best[:2]], -1).view(complex)[..., 0]
    bad = ~np.isfinite(roots).all(-1)
    if bad.any():
        listed = ", ".join(str(complex(z)) for z in roots[bad].ravel())
        raise InvariantViolation(f"quartic roots are not finite: {listed}")
    return roots
