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

from ._invariants import _ht2_parts, _stack_last
from .errors import ConcurrenceDomainError, DegenerateBranchError, DensityMatrixError
from .hamiltonian import (
    _TINY,
    DEFAULT_TOL,
    DEGENERACY_RTOL,
    CoefficientSet,
    DerivedCoefficients,
    _dot,
    _matvec,
    _where,
    derive,
    derive_arrays,
    even_spectrum,
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


# Per-point outcome of the closed-form concurrence: 0 a value, otherwise the
# cause of its failure.
CLOSED_FORM = 0
DEGENERATE_THETA_PHI = 1
DEGENERATE_E_N = 2
RADICAND_DOMAIN = 3


def _branch_scales(d: DerivedCoefficients, n: int):
    """(sqrt_theta_phi, E_n, cause) over the batch of ``d``; needs constrained sets.

    ``cause`` is 0, DEGENERATE_THETA_PHI or DEGENERATE_E_N.
    """
    sq, e1, e2 = even_spectrum(d)
    # E_n^2 is compared before the square root rounds it.
    bound = DEGENERACY_RTOL * (1.0 + np.sqrt(d.v_quad))
    cause = _where(
        sq <= DEGENERACY_RTOL * (1.0 + d.v_quad),
        DEGENERATE_THETA_PHI,
        _where(d.v_quad + (-1) ** n * sq <= bound * bound, DEGENERATE_E_N, CLOSED_FORM),
    )
    return sq, (e1, e2)[n - 1], cause


def _raise_for(cause: int, n: int, radicand: float = 0.0):
    """Raise the error of one point's failure cause (0: nothing to raise)."""
    if cause == DEGENERATE_THETA_PHI:
        raise DegenerateBranchError("theta_phi is numerically degenerate")
    if cause == DEGENERATE_E_N:
        raise DegenerateBranchError(f"E_{n} is numerically degenerate")
    if cause == RADICAND_DOMAIN:
        raise ConcurrenceDomainError(
            f"concurrence radicand {radicand:.3e} below round-off floor"
        )


def bloch_closed_form_arrays(alpha, beta, omega, d: DerivedCoefficients, m: int, n: int):
    """Bloch vectors (a, b) of the (m, n) eigenstates of a batch, with the cause array.

    ``d`` is :func:`derive_arrays` of the batch; items whose cause is not 0
    have a degenerate denominator and meaningless vectors.  The Pauli
    components of Ht^2 (single-qubit a_vec and b_vec, two-qubit w_mat) come
    from the derive kernel's own straight-line helper, on one set's
    components as Python floats, as :func:`derive` takes them.
    """
    sq, en, cause = _branch_scales(d, n)
    if alpha.ndim == beta.ndim == 1 and omega.ndim == 2:
        parts, pack = (alpha.tolist(), beta.tolist(), omega.tolist()), np.array
    else:
        parts, pack = (np.moveaxis(alpha, -1, 0), np.moveaxis(beta, -1, 0),
                       np.moveaxis(omega, (-2, -1), (0, 1))), _stack_last
    alpha_omega, omega_beta, w_rows = _ht2_parts(*parts)
    a_vec, b_vec = pack([2.0 * x for x in omega_beta]), pack([2.0 * x for x in alpha_omega])
    w_mat = pack(w_rows)
    sm, sn = (-1.0) ** m, (-1.0) ** n
    sq, en = np.asarray(sq)[..., None], np.asarray(en)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sn * a_vec / sq + sm * alpha / en + sm * sn * (
            _matvec(w_mat, beta) + _matvec(omega, b_vec)
        ) / (sq * en)
        b = sn * b_vec / sq + sm * beta / en + sm * sn * (
            _matvec(w_mat.swapaxes(-1, -2), alpha) + _matvec(omega.swapaxes(-1, -2), a_vec)
        ) / (sq * en)
    return a, b, cause


def eigenstate_bloch_closed_form(
    c: CoefficientSet, m: int, n: int, tol: float = DEFAULT_TOL
) -> BlochPair:
    """Bloch vectors of the (m, n) eigenstate from the coefficients alone.

    Valid for constraint-satisfying sets with a non-degenerate spectrum;
    raises DegenerateBranchError when a denominator collapses.
    """
    _check_mn(m, n)
    d = derive(c, tol)
    a, b, cause = bloch_closed_form_arrays(c.alpha, c.beta, c.omega, d, m, n)
    _raise_for(cause, n)
    return BlochPair(a, b)


def pure_concurrence(rho: np.ndarray) -> float:
    """Concurrence sqrt(1 - A^2) of a pure two-qubit state."""
    rho = np.asarray(rho, dtype=complex)
    purity = float(np.einsum("ab,ba->", rho, rho).real)
    if abs(purity - 1.0) > PURITY_TOL:
        raise DensityMatrixError(f"state purity {purity} is not 1: mixed input")
    pair = bloch_vectors(rho)
    return _concurrence_from_radicand(1.0 - pair.a_modulus**2)


def _root_of_radicand(radicand):
    """sqrt of concurrence radicands with round-off negatives clamped to zero,
    and where each radicand is below the round-off floor."""
    return np.sqrt(np.minimum(np.maximum(radicand, 0.0), 1.0)), radicand < RADICAND_FLOOR


def _concurrence_from_radicand(radicand: float) -> float:
    """sqrt of one concurrence radicand; raises below the round-off floor."""
    value, domain_error = _root_of_radicand(radicand)
    if domain_error:
        _raise_for(RADICAND_DOMAIN, 0, radicand)
    return float(value)


def concurrence_closed_form_arrays(upsilon, alpha, beta, omega, m: int, n: int,
                                   tol: float = DEFAULT_TOL):
    """(concurrence, cause, radicand) of the (m, n) eigenstates of a batch.

    Uses the constraint-resolved radical

        C^2 = Phi/Tp - |v|^2/E_n^2 * [1 + 2 (-1)^n inner / sqrt(Tp)]^2

    where v is the constrained vector and, on the alpha branch,
    inner = beta^2 - (alpha.beta) det(omega_B) / alpha^2 (mirrored on the
    beta branch), with omega_B the 2x2 block of omega in the frame where its
    third row and column vanish.  The product (alpha.beta) det(omega_B) is
    beta^T adj(omega) alpha in every frame (``beta_adj_alpha`` of
    :func:`derive_arrays`), so the sets may come in any local frame.  Where
    the constrained vector is too small for the branch division the exact
    Bloch-modulus route is used instead; both agree to round-off wherever
    both apply.  Items whose ``cause`` is not 0 (a degenerate branch, or a
    radicand below the round-off floor) read 0.  Raises ConstraintError if
    any item meets neither constraint.
    """
    alpha, beta, omega = (np.ascontiguousarray(x, dtype=float) for x in (alpha, beta, omega))
    return _concurrence_from_derived(
        derive_arrays(alpha, beta, omega, tol), upsilon, _dot(alpha, alpha), _dot(beta, beta),
        m, n, lambda: (alpha, beta, omega),
    )


def _concurrence_from_derived(d: DerivedCoefficients, upsilon, al_sq, be_sq, m: int, n: int,
                              arrays):
    """:func:`concurrence_closed_form_arrays` on the derived record ``d`` of
    a batch.

    ``al_sq`` and ``be_sq`` are |alpha|^2 and |beta|^2 with the bits of
    ``_dot``, which the radical reads; ``arrays`` returns the batch's
    (alpha, beta, omega) and is called only where the Bloch-modulus route
    runs.  The floor below which a constrained vector counts as vanishing is
    relative to the coefficient scale sqrt(upsilon^2 + al_sq + be_sq +
    ``omega_sq``).
    """
    _check_mn(m, n)
    sq, en, cause = _branch_scales(d, n)
    sn = (-1.0) ** n
    floor = VECTOR_FLOOR * (np.sqrt(upsilon * upsilon + al_sq + be_sq + d.omega_sq) + _TINY)
    # v is the constrained vector, u the other one.
    on_alpha = d.alpha_null & (al_sq >= floor * floor)
    on_beta = d.beta_null & (be_sq >= floor * floor)
    v_sq = _where(on_alpha, al_sq, be_sq)
    u_sq = _where(on_alpha, be_sq, al_sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = u_sq - d.beta_adj_alpha / v_sq
        lift = 1.0 + 2.0 * sn * inner / sq
        radicand = d.phi / d.theta_phi - v_sq / (en * en) * (lift * lift)
    bloch = ~(on_alpha | on_beta)
    if bloch.any():
        a, _, _ = bloch_closed_form_arrays(*arrays(), d, m, n)
        a_mod = np.sqrt(_dot(a, a))
        radicand = _where(bloch, 1.0 - a_mod * a_mod, radicand)
    value, domain_error = _root_of_radicand(radicand)
    cause = _where((cause == CLOSED_FORM) & domain_error, RADICAND_DOMAIN, cause)
    return _where(cause == CLOSED_FORM, value, 0.0), cause, radicand


def eigenstate_concurrence_closed_form(
    c: CoefficientSet, m: int, n: int, tol: float = DEFAULT_TOL
) -> float:
    """Concurrence of the (m, n) eigenstate from the coefficients alone.

    :func:`concurrence_closed_form_arrays` on one set, in the frame it is
    given in.  Raises DegenerateBranchError or ConcurrenceDomainError where
    that function reports a cause, and ConstraintError as it does.
    """
    value, cause, radicand = concurrence_closed_form_arrays(
        c.upsilon, c.alpha, c.beta, c.omega, m, n, tol
    )
    _raise_for(cause, n, radicand)
    return float(value)


def _check_mn(m: int, n: int):
    if m not in (1, 2) or n not in (1, 2):
        raise ValueError(f"branch indices must be 1 or 2, got ({m}, {n})")
