"""Closed-form entanglement quantities for pure two-qubit eigenstates.

For a pure state the concurrence is sqrt(1 - A^2) with A the Bloch modulus
of either marginal; this module provides that route from the state matrix,
the coefficient-level closed forms for eigenstate Bloch vectors and
concurrence, and flags for the degenerate denominators where the closed
forms collapse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConcurrenceDomainError, DegenerateBranchError, DensityMatrixError
from .hamiltonian import (
    DEFAULT_TOL,
    DEGENERACY_RTOL,
    CoefficientSet,
    DerivedCoefficients,
    derive,
    even_spectrum,
    frame_reduce,
)
from .pauli import pauli_word

# Radicands above this are round-off and clamp to zero; anything lower is a
# genuine domain violation and raises.
RADICAND_FLOOR = -1e-10

# Purity gate admitting closed-form states with accumulated round-off.
PURITY_TOL = 1e-6

# Below this relative size a constrained vector is treated as vanishing and
# the branch formula (which divides by its squared norm) is bypassed.
VECTOR_FLOOR = 1e-6


@dataclass(frozen=True)
class BlochPair:
    """Bloch vectors of the two single-qubit marginals."""

    a_bloch: np.ndarray
    b_bloch: np.ndarray

    def __post_init__(self):
        for name in ("a_bloch", "b_bloch"):
            v = np.asarray(getattr(self, name), dtype=float).reshape(3)
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @property
    def a_modulus(self) -> float:
        return float(np.linalg.norm(self.a_bloch))

    @property
    def b_modulus(self) -> float:
        return float(np.linalg.norm(self.b_bloch))


def bloch_vectors(rho: np.ndarray) -> BlochPair:
    """Single-qubit Pauli expectations A_i = Tr[rho (sigma_i x I)], B_j likewise."""
    rho = np.asarray(rho, dtype=complex)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 1e-9:
        raise DensityMatrixError(f"state trace {tr} is not 1")
    a = np.array(
        [np.einsum("ab,ba->", rho, pauli_word(i, 0)).real for i in (1, 2, 3)]
    )
    b = np.array(
        [np.einsum("ab,ba->", rho, pauli_word(0, j)).real for j in (1, 2, 3)]
    )
    return BlochPair(a, b)


def _branch_scales(d: DerivedCoefficients, n: int) -> tuple[float, float]:
    """(sqrt_theta_phi, E_n) with degeneracy guards; needs a constrained set."""
    sq, e1, e2 = even_spectrum(d)
    if sq <= DEGENERACY_RTOL * (1.0 + d.v_quad):
        raise DegenerateBranchError("theta_phi is numerically degenerate")
    # E_n^2 is compared before the square root rounds it.
    if d.v_quad + (-1) ** n * sq <= (DEGENERACY_RTOL * (1.0 + np.sqrt(d.v_quad))) ** 2:
        raise DegenerateBranchError(f"E_{n} is numerically degenerate")
    return sq, (e1, e2)[n - 1]


def eigenstate_bloch_closed_form(
    c: CoefficientSet, m: int, n: int, tol: float = DEFAULT_TOL
) -> BlochPair:
    """Bloch vectors of the (m, n) eigenstate from the coefficients alone.

    Valid for constraint-satisfying sets with a non-degenerate spectrum;
    raises DegenerateBranchError when a denominator collapses.
    """
    _check_mn(m, n)
    d = derive(c, tol)
    sq, en = _branch_scales(d, n)
    sm, sn = (-1.0) ** m, (-1.0) ** n
    a = sn * d.a_vec / sq + sm * c.alpha / en + sm * sn * (
        d.w_mat @ c.beta + c.omega @ d.b_vec
    ) / (sq * en)
    b = sn * d.b_vec / sq + sm * c.beta / en + sm * sn * (
        d.w_mat.T @ c.alpha + c.omega.T @ d.a_vec
    ) / (sq * en)
    return BlochPair(a, b)


def pure_concurrence(rho: np.ndarray) -> float:
    """Concurrence sqrt(1 - A^2) of a pure two-qubit state."""
    rho = np.asarray(rho, dtype=complex)
    purity = float(np.einsum("ab,ba->", rho, rho).real)
    if abs(purity - 1.0) > PURITY_TOL:
        raise DensityMatrixError(f"state purity {purity} is not 1: mixed input")
    pair = bloch_vectors(rho)
    return _concurrence_from_radicand(1.0 - pair.a_modulus**2)


def _concurrence_from_radicand(radicand: float) -> float:
    """sqrt of a concurrence radicand, with round-off negatives clamped to zero."""
    if radicand < RADICAND_FLOOR:
        raise ConcurrenceDomainError(
            f"concurrence radicand {radicand:.3e} below round-off floor"
        )
    return float(np.sqrt(np.clip(radicand, 0.0, 1.0)))


def block_form_defect(c: CoefficientSet) -> float:
    """Relative size of the third row and column of omega."""
    om = np.asarray(c.omega)
    om_norm = float(np.linalg.norm(om))
    if om_norm == 0.0:
        return 0.0
    return float(
        max(np.linalg.norm(om[2, :]), np.linalg.norm(om[:, 2])) / om_norm
    )


def eigenstate_concurrence_closed_form(
    c: CoefficientSet, m: int, n: int, tol: float = DEFAULT_TOL
) -> float:
    """Concurrence of the (m, n) eigenstate from the coefficients alone.

    Uses the constraint-resolved radical

        C^2 = Phi/Tp - |v|^2/E_n^2 * [1 + 2 (-1)^n inner / sqrt(Tp)]^2

    where v is the constrained vector and, on the alpha branch,
    inner = beta^2 - (alpha.beta) det(omega_B) / alpha^2 (mirrored on the
    beta branch).  det(omega_B) is a block-frame quantity, so sets whose
    omega is not in block form are first reduced by local rotations, under
    which the concurrence is invariant.  When the constrained vector is too
    small for the branch division the exact Bloch-modulus route is used
    instead; both agree to round-off wherever both apply.
    """
    _check_mn(m, n)
    if block_form_defect(c) > tol:
        c, _, _ = frame_reduce(c, tol)
    d = derive(c, tol)
    sq, en = _branch_scales(d, n)
    sn = (-1.0) ** n
    scale = c.scale() + np.finfo(float).tiny

    al_sq = float(c.alpha @ c.alpha)
    be_sq = float(c.beta @ c.beta)
    dot = float(c.alpha @ c.beta)
    # v is the constrained vector, u the other one.
    if d.alpha_null and al_sq >= (VECTOR_FLOOR * scale) ** 2:
        v_sq, u_sq = al_sq, be_sq
    elif d.beta_null and be_sq >= (VECTOR_FLOOR * scale) ** 2:
        v_sq, u_sq = be_sq, al_sq
    else:
        pair = eigenstate_bloch_closed_form(c, m, n, tol)
        return _concurrence_from_radicand(1.0 - pair.a_modulus**2)
    inner = u_sq - dot * d.det_omega_b / v_sq
    radicand = d.phi / d.theta_phi - v_sq / en**2 * (1.0 + 2.0 * sn * inner / sq) ** 2
    return _concurrence_from_radicand(radicand)


def _check_mn(m: int, n: int):
    if m not in (1, 2) or n not in (1, 2):
        raise ValueError(f"branch indices must be 1 or 2, got ({m}, {n})")
