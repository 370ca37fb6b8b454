"""Seeded random generators for fuzzing and verification.

All randomness flows through numpy's default PCG64 bit generator so a seed
fully determines every suite; the algorithm name is recorded in verification
reports.
"""

from __future__ import annotations

import math

import numpy as np

from ._invariants import even_spectrum
from .hamiltonian import CoefficientSet, derive, rotate_set
from .solver import separable_spectrum

RNG_ALGORITHM = "numpy-PCG64"

# Smallest admissible spacing between eigenvalues when a generator promises a
# non-degenerate spectrum (absolute, generators draw O(1) coefficients).
MIN_GAP = 5e-2

_MAX_DRAWS = 1000


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def random_coefficient_set(rng: np.random.Generator) -> CoefficientSet:
    return CoefficientSet(
        rng.normal(), rng.normal(size=3), rng.normal(size=3), rng.normal(size=(3, 3))
    )


def random_diagonal_zero_set(rng: np.random.Generator) -> CoefficientSet:
    """Generic local vectors with a diagonal omega that has one zero entry."""
    omega = np.diag(rng.normal(size=3))
    k = int(rng.integers(3))
    omega[k, k] = 0.0
    return CoefficientSet(rng.normal(), rng.normal(size=3), rng.normal(size=3), omega)


def _spectrum_gap(values: np.ndarray) -> float:
    flat = np.sort(np.asarray(values).ravel())
    return float(np.min(np.diff(flat)))


def random_separable_factors(rng: np.random.Generator):
    """Single-qubit factors ((a0, a), (b0, b)) of a product Hamiltonian
    (a0 + a.sigma) (x) (b0 + b.sigma) with a non-degenerate joint spectrum,
    a0 and b0 floats and a and b arrays of shape (3,)."""
    for _ in range(_MAX_DRAWS):
        factors = (rng.normal(), rng.normal(size=3)), (rng.normal(), rng.normal(size=3))
        (a0, a), (b0, b) = factors
        a_norm, b_norm = math.sqrt(a @ a), math.sqrt(b @ b)
        values = separable_spectrum(a0, a_norm, b0, b_norm)
        if _spectrum_gap(values) >= MIN_GAP and min(a_norm, b_norm) >= MIN_GAP:
            return factors
    raise RuntimeError("failed to draw a non-degenerate separable pair")


def dyadic_set_from_factors(f1, f2) -> CoefficientSet:
    """Coefficients of H1 (x) H2 of the factors f1 = (a0, a) and f2 = (b0, b)
    of :func:`random_separable_factors`: upsilon = a0 b0, alpha = b0 a,
    beta = a0 b, omega the outer product of the factor vectors."""
    (a0, a), (b0, b) = f1, f2
    return CoefficientSet(a0 * b0, b0 * a, a0 * b, np.outer(a, b))


def random_dyadic_set(rng: np.random.Generator) -> CoefficientSet:
    return dyadic_set_from_factors(*random_separable_factors(rng))


def random_entangled_canonical(rng: np.random.Generator, branch: str = "alpha") -> CoefficientSet:
    """A canonical constraint-satisfying set with a non-degenerate spectrum.

    ``branch='alpha'`` puts the constrained vector alpha on axis 3 with a
    block omega and generic beta; ``'beta'`` mirrors; ``'both'`` aligns both
    local vectors with axis 3 so both contractions vanish.
    """
    for _ in range(_MAX_DRAWS):
        blk = rng.normal(size=(2, 2))
        blk = 0.5 * (blk + blk.T)
        omega = np.zeros((3, 3))
        omega[:2, :2] = blk
        ups = rng.normal()
        if branch == "alpha":
            alpha = np.array([0.0, 0.0, abs(rng.normal())])
            beta = rng.normal(size=3)
        elif branch == "beta":
            alpha = rng.normal(size=3)
            beta = np.array([0.0, 0.0, abs(rng.normal())])
        elif branch == "both":
            alpha = np.array([0.0, 0.0, abs(rng.normal())])
            beta = np.array([0.0, 0.0, rng.normal()])
        else:
            raise ValueError(f"unknown branch {branch!r}")
        c = CoefficientSet(ups, alpha, beta, omega)
        sq, e1, e2 = even_spectrum(derive(c))
        if min(sq, e1, e2 - e1) >= MIN_GAP:
            return c
    raise RuntimeError("failed to draw a non-degenerate entangled set")


def random_rotated_constrained(rng: np.random.Generator) -> tuple[CoefficientSet, CoefficientSet]:
    """(canonical set, same set conjugated by random local rotations)."""
    c = random_entangled_canonical(rng, "alpha")
    return c, rotate_set(c, random_rotation(rng), random_rotation(rng))


def random_commuting_thermal_set(rng: np.random.Generator) -> CoefficientSet:
    """Constrained set whose local part commutes with its interaction part.

    alpha = beta = 0 with a block omega: the Gibbs state then commutes with
    its spin flip and the closed-form thermal concurrence is exact.
    """
    blk = rng.normal(size=(2, 2))
    blk = 0.5 * (blk + blk.T)
    omega = np.zeros((3, 3))
    omega[:2, :2] = blk
    return CoefficientSet(rng.normal(), np.zeros(3), np.zeros(3), omega)
