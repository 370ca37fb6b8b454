"""Closed-form entanglement quantities for pure two-qubit eigenstates.

For a pure state the concurrence is sqrt(1 - A^2) with A the Bloch modulus
of either marginal; this module provides that route from the state matrix,
the coefficient-level closed forms for eigenstate Bloch vectors and
concurrence (one radical for every constrained set, a vanishing
constrained vector included), and flags for the degenerate denominators
where the closed forms collapse.
"""

from __future__ import annotations

import numpy as np

# Module imports: the grids' concurrence reads derived records and
# components alone, and executes no hamiltonian or oracle.
from . import hamiltonian, oracle
from ._invariants import (
    DerivedCoefficients,
    _check_mn,
    _cofactors,
    _degenerate_branch,
    _derive_kernel,
    _ht2_parts,
    _record,
    _where,
    even_spectrum,
)
from .errors import ConcurrenceDomainError, DegenerateBranchError, DensityMatrixError

# Radicands above this are round-off and clamp to zero; anything lower is a
# genuine domain violation and raises.
RADICAND_FLOOR = -1e-10

# Purity gate admitting closed-form states with accumulated round-off.
PURITY_TOL = 1e-6


@_record
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
    """Single-qubit Pauli expectations A_i = Tr[rho (sigma_i x I)], B_j likewise:
    4 alpha and 4 beta of :func:`~su2pair.hamiltonian.fano_decompose`.
    Raises as :func:`~su2pair.oracle.require_density` does for a ``rho``
    that is not a 4x4 Hermitian matrix of trace 1."""
    c = hamiltonian.fano_decompose(oracle.require_density(rho))
    return BlochPair(4.0 * c.alpha, 4.0 * c.beta)


# Per-point outcome of the closed-form concurrence: 0 a value, otherwise the
# cause of its failure.
CLOSED_FORM = 0
DEGENERATE_THETA_PHI = 1
DEGENERATE_E_N = 2
RADICAND_DOMAIN = 3


def _branch_scales(d: DerivedCoefficients, n: int):
    """(sqrt_theta_phi, E_n, cause) over the batch of ``d``; needs constrained sets.

    ``cause`` is 0, DEGENERATE_THETA_PHI or DEGENERATE_E_N, by
    :func:`~su2pair._invariants._degenerate_branch`.
    """
    sq, e1, e2 = even_spectrum(d)
    theta_phi, e_n = _degenerate_branch(d, sq, n)
    cause = _where(theta_phi, DEGENERATE_THETA_PHI, _where(e_n, DEGENERATE_E_N, CLOSED_FORM))
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


def eigenstate_bloch_closed_form(c: hamiltonian.CoefficientSet, m: int, n: int) -> BlochPair:
    """Bloch vectors of the (m, n) eigenstate from the coefficients alone.

    Valid for constraint-satisfying sets with a non-degenerate spectrum;
    raises DegenerateBranchError when a denominator collapses.  The Pauli
    components of Ht^2 (single-qubit a_vec and b_vec, two-qubit w_mat) come
    from the derive kernel's own straight-line helper, on the set's
    components as Python floats, as :func:`~su2pair.hamiltonian.derive`
    takes them.  Raises ValueError for labels that
    :func:`~su2pair._invariants._check_mn` refuses.
    """
    _check_mn(m, n)
    sq, en, cause = _branch_scales(hamiltonian.derive(c), n)
    _raise_for(cause, n)
    alpha, beta, omega = c.alpha, c.beta, c.omega
    alpha_omega, omega_beta, w_rows = _ht2_parts(alpha.tolist(), beta.tolist(), omega.tolist())
    a_vec, b_vec, w_mat = 2.0 * np.array(omega_beta), 2.0 * np.array(alpha_omega), np.array(w_rows)
    sm, sn = (-1.0) ** m, (-1.0) ** n
    a = sn * a_vec / sq + sm * alpha / en + sm * sn * (w_mat @ beta + omega @ b_vec) / (sq * en)
    b = sn * b_vec / sq + sm * beta / en + sm * sn * (w_mat.T @ alpha + omega.T @ a_vec) / (sq * en)
    return BlochPair(a, b)


def pure_concurrence(rho: np.ndarray) -> float:
    """Concurrence sqrt(1 - A^2) of a pure two-qubit state.  Raises as
    :func:`~su2pair.oracle.require_density` does, before its purity is
    taken, and DensityMatrixError for a state that is not pure."""
    rho = oracle.require_density(rho)
    purity = float(np.einsum("ab,ba->", rho, rho).real)
    if abs(purity - 1.0) > PURITY_TOL:
        raise DensityMatrixError(f"state purity {purity} is not 1: mixed input")
    radicand = 1.0 - bloch_vectors(rho).a_modulus**2
    value, domain_error = _root_of_radicand(radicand)
    if domain_error:
        _raise_for(RADICAND_DOMAIN, 0, radicand)
    return float(value)


def _root_of_radicand(radicand):
    """sqrt of concurrence radicands with round-off negatives clamped to zero,
    and where each radicand is below the round-off floor."""
    return np.sqrt(np.minimum(np.maximum(radicand, 0.0), 1.0)), radicand < RADICAND_FLOOR


def concurrence_closed_form_arrays(alpha, beta, omega, m: int, n: int):
    """(concurrence, cause, radicand) of the (m, n) eigenstates of a batch.

    Uses the constraint-resolved radical, with v the constrained vector
    (alpha on the alpha branch) and u the other one,

        C^2 = Phi/Tp - [|v|^2 A^2 - 4 (-1)^n A X / sqrt(Tp) + 4 Y^2 / Tp] / E_n^2,
        A = 1 + 2 (-1)^n |u|^2 / sqrt(Tp),

    where X = beta^T adj(omega) alpha (``beta_adj_alpha`` of
    :func:`~su2pair.hamiltonian.derive_arrays`) and Y^2 is
    |adj(omega)^T beta|^2 on the alpha branch, |adj(omega) alpha|^2 on the
    beta branch.  On the constraint Y^2 = X^2 / |v|^2, so the bracket is
    |v|^2 [1 + 2 (-1)^n (|u|^2 - X / |v|^2) / sqrt(Tp)]^2 expanded, without
    its division by |v|^2: one formula holds down to v = 0.  Every term is
    invariant under local rotations, so the sets may come in any local
    frame.  Items whose ``cause`` is not 0 (a degenerate branch, or a
    radicand below the round-off floor) read 0.  The value depends on n
    alone: the eigenstates (1, n) and (2, n) share their concurrence, and m
    only names the eigenstate.  Raises ConstraintError if any item meets
    neither constraint, and ValueError for labels that
    :func:`~su2pair._invariants._check_mn` refuses.
    """
    a, b, w = hamiltonian._batch_components(alpha, beta, omega)
    return _concurrence_from_derived(_derive_kernel(a, b, w, np.sqrt), a, b, w, m, n)


def _concurrence_from_derived(d: DerivedCoefficients, a, b, w, m: int, n: int):
    """:func:`concurrence_closed_form_arrays` on the derived record ``d`` of
    a batch and its components (a, b, w), in the form ``_derive_kernel``
    takes them, structural zeros included, or of one set as Python floats.
    One set's Python floats would raise on a degenerate branch's zero
    denominator, so its cause returns first, with a NaN radicand."""
    _check_mn(m, n)
    sq, en, cause = _branch_scales(d, n)
    if type(d.v_quad) is float and cause != CLOSED_FORM:
        return 0.0, cause, np.nan
    sn = (-1.0) ** n
    on_alpha = d.alpha_null
    # adj(omega)^T beta = C beta and adj(omega) alpha = C^T alpha, with C
    # the cofactor matrix.  Y is cubic in the coefficients, so it is scaled
    # by 1/sqrt(Tp) before it is squared: every intermediate stays at most
    # quartic, as in the derive kernel.
    rows = _cofactors(w)
    c_beta = [c1 * b[0] + c2 * b[1] + c3 * b[2] for c1, c2, c3 in rows]
    c_alpha = [a[0] * c1 + a[1] * c2 + a[2] * c3 for c1, c2, c3 in zip(*rows)]
    v_sq = _where(on_alpha, d.alpha_sq, d.beta_sq)
    u_sq = _where(on_alpha, d.beta_sq, d.alpha_sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        y_sq_over_tp = _norm_sq([_where(on_alpha, yb, ya) / sq for yb, ya in zip(c_beta, c_alpha)])
        lift = 1.0 + 2.0 * sn * u_sq / sq
        bracket = (v_sq * lift * lift - 4.0 * sn * lift * d.beta_adj_alpha / sq
                   + 4.0 * y_sq_over_tp)
        radicand = d.phi / d.theta_phi - bracket / (en * en)
    value, domain_error = _root_of_radicand(radicand)
    cause = _where((cause == CLOSED_FORM) & domain_error, RADICAND_DOMAIN, cause)
    return _where(cause == CLOSED_FORM, value, 0.0), cause, radicand


def _norm_sq(v):
    """|v|^2 of a vector given as three components."""
    return v[0] * v[0] + v[1] * v[1] + v[2] * v[2]


def eigenstate_concurrence_closed_form(c: hamiltonian.CoefficientSet, m: int, n: int) -> float:
    """Concurrence of the (m, n) eigenstate from the coefficients alone.

    :func:`concurrence_closed_form_arrays` on one set, in the frame it is
    given in, run on :func:`~su2pair.hamiltonian.derive` and the set's
    components as Python floats: the same arithmetic, so the same bits.
    Raises DegenerateBranchError or ConcurrenceDomainError where that
    function reports a cause, and ConstraintError and ValueError as it does.
    """
    value, cause, radicand = _concurrence_from_derived(
        hamiltonian.derive(c), *hamiltonian._float_components(c), m, n
    )
    _raise_for(cause, n, radicand)
    return float(value)
