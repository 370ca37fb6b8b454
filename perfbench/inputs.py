"""Seeded workload inputs, generated with the benchmark's own numpy code.

Nothing here calls ``su2pair.sampling``, so a change to the package's
sampler cannot change a workload.  Coefficient sets are real 4x4 arrays in
the layout described in ``reference``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from reference import Graphene, compose

# The eight equal shares of solve-mix, in generation order.
SOLVE_SHARES = (
    "dyadic",
    "alpha",  # canonical constrained, alpha branch
    "beta",  # canonical constrained, beta branch
    "both",  # canonical constrained, both branches
    "rotated",  # constrained set in a random local frame
    "diag-zero",  # diagonal omega with one zero entry: quartic route
    "diag-full",  # diagonal omega with det != 0: quartic rejected, oracle
    "general",
)
CLOSED_FORM_SHARES = ("dyadic", "alpha", "beta", "both", "rotated")
DIAGONAL_SHARES = ("diag-zero", "diag-full")

# One thermal_report case each; "canonical" also runs on the positive branch.
THERMAL_CASES = ("dyadic", "canonical", "rotated", "general")


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent stream per purpose, so one workload's draws never shift another's."""
    tag = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "little")
    return np.random.default_rng([int(seed), tag])


def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def coefficient_set(rng, kind: str) -> np.ndarray:
    """One coefficient array of the given kind, spectral radius in [1, 2]."""
    coef = np.zeros((4, 4))
    coef[0, 0] = 0.3 * rng.normal()
    if kind == "dyadic":
        # H = (a0 I + a.sigma) (x) (b0 I + b.sigma)
        a0, b0 = rng.normal(size=2)
        a, b = rng.normal(size=3), rng.normal(size=3)
        coef[0, 0], coef[1:, 0], coef[0, 1:] = a0 * b0, b0 * a, a0 * b
        coef[1:, 1:] = np.outer(a, b)
    elif kind in ("alpha", "canonical", "rotated"):
        coef[3, 0] = rng.normal()
        coef[0, 1:] = rng.normal(size=3)
        coef[1:3, 1:] = rng.normal(size=(2, 3))
        if kind == "rotated":
            r1, r2 = _rotation(rng), _rotation(rng)
            coef[1:, 0] = r1 @ coef[1:, 0]
            coef[0, 1:] = r2 @ coef[0, 1:]
            coef[1:, 1:] = r1 @ coef[1:, 1:] @ r2.T
    elif kind == "beta":
        coef[1:, 0] = rng.normal(size=3)
        coef[0, 3] = rng.normal()
        coef[1:, 1:3] = rng.normal(size=(3, 2))
    elif kind == "both":
        coef[3, 0], coef[0, 3] = rng.normal(size=2)
        coef[1:3, 1:3] = rng.normal(size=(2, 2))
    elif kind in ("diag-zero", "diag-full"):
        coef[1:, 0], coef[0, 1:] = rng.normal(size=3), rng.normal(size=3)
        diag = rng.normal(size=3)
        if kind == "diag-zero":
            diag[rng.integers(3)] = 0.0
        coef[1:, 1:] = np.diag(diag)
    elif kind == "general":
        coef[1:, :] = rng.normal(size=(3, 4))
        coef[0, 1:] = rng.normal(size=3)
    else:
        raise ValueError(f"unknown set kind {kind!r}")
    radius = float(np.max(np.abs(np.linalg.eigvalsh(compose(coef)))))
    return coef * (rng.uniform(1.0, 2.0) / radius)


def solve_mix(seed: int, count: int = 2000) -> tuple[np.ndarray, list[str]]:
    """``count`` sets in eight equal shares, in a seeded shuffled order."""
    rng = rng_for(seed, "solve-mix")
    kinds = [SOLVE_SHARES[k * len(SOLVE_SHARES) // count] for k in range(count)]
    coefs = np.array([coefficient_set(rng, kind) for kind in kinds])
    order = rng.permutation(count)
    return coefs[order], [kinds[i] for i in order]


def thermal_sets(seed: int) -> dict[str, np.ndarray]:
    rng = rng_for(seed, "thermal-sweeps")
    return {kind: coefficient_set(rng, kind) for kind in THERMAL_CASES}


def graphene_params(seed: int, stream: str, **fixed) -> Graphene:
    """Figure parameters t = t3 = tperp = 1 with t3 and tperp jittered by <= 2%."""
    rng = rng_for(seed, stream)
    t3, tperp = 1.0 + 0.02 * rng.uniform(-1.0, 1.0, size=2)
    return Graphene(t3=float(t3), tperp=float(tperp), **fixed)


def coefficient_json(coef: np.ndarray) -> str:
    """The CLI's coefficient-set input format; repr floats round-trip exactly."""
    return json.dumps(
        {
            "upsilon": float(coef[0, 0]),
            "alpha": [float(x) for x in coef[1:, 0]],
            "beta": [float(x) for x in coef[0, 1:]],
            "omega": [[float(x) for x in row] for row in coef[1:, 1:]],
        }
    )


def digest(*parts) -> str:
    """SHA-256 over arrays (by bytes) and anything else (by repr)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]
