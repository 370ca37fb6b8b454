"""Eigensystem construction for every solvable case.

Separable product Hamiltonians factor into two single-qubit problems; sets
satisfying one of the contraction constraints admit an even quartic spectrum
and a polynomial eigenprojector ansatz; everything else falls back to the
numerical oracle.  The secular quartic of rank-one-reducible sets is
available through :func:`secular_coefficients`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import CaseReductionError, FactorizationError
from .hamiltonian import (
    DEFAULT_TOL,
    DEGENERACY_RTOL,
    CaseKind,
    CoefficientSet,
    DerivedCoefficients,
    _dyadic_residuals,
    classify,
    derive,
    even_spectrum,
    fano_compose,
)
from .oracle import eig_hermitian
from .pauli import _SIGMA, pauli


class SolveMethod(enum.Enum):
    SEPARABLE_CLOSED_FORM = "separable-closed-form"
    ENTANGLED_CLOSED_FORM = "entangled-closed-form"
    ORACLE_NUMERIC = "oracle-numeric"


@dataclass(frozen=True)
class Su2Factor:
    """A single-qubit Hamiltonian a0 * I + a . sigma."""

    a0: float
    vec: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vec, dtype=float).reshape(3)
        vec.setflags(write=False)
        object.__setattr__(self, "a0", float(self.a0))
        object.__setattr__(self, "vec", vec)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def matrix(self) -> np.ndarray:
        m = self.a0 * np.eye(2, dtype=complex)
        for i in range(3):
            m += self.vec[i] * pauli(i + 1)
        return m


_MN = ((1, 1), (1, 2), (2, 1), (2, 2))
# (-1)^m for m = 1, 2.
_SIGNS = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class Eigensystem:
    """Four eigenvalues and density-matrix eigenprojectors, indexed (m, n).

    ``values[m-1, n-1]`` is the eigenvalue and ``states[m-1, n-1]`` the 4x4
    projector.  On non-degenerate inputs the states are pure, mutually
    orthogonal, and resolve the identity; degenerate eigenspaces are flagged
    and represented by the eigenspace projector split evenly over its labels.
    """

    values: np.ndarray
    states: np.ndarray
    method: SolveMethod
    degenerate: bool = False

    def eigenvalue(self, m: int, n: int) -> float:
        return float(self.values[m - 1, n - 1])

    def state(self, m: int, n: int) -> np.ndarray:
        return self.states[m - 1, n - 1]

    def items(self):
        for m, n in _MN:
            yield (m, n), self.eigenvalue(m, n), self.state(m, n)

    def sorted_values(self) -> np.ndarray:
        return np.sort(self.values.ravel())

    def residuals(self, h: np.ndarray) -> dict[str, float]:
        """Max-norm defects of the eigensystem contracts against ``h``."""
        h = np.asarray(h, dtype=complex)
        scale = 1.0 + float(np.max(np.abs(h)))
        completeness = np.max(np.abs(sum(s for _, _, s in self.items()) - np.eye(4)))
        trace = max(abs(np.trace(s).real - 1.0) for _, _, s in self.items())
        eig = max(
            float(np.max(np.abs(h @ s - e * s))) / (1.0 + abs(e))
            for _, e, s in self.items()
        )
        commute = max(
            float(np.max(np.abs(h @ s - s @ h))) / scale for _, _, s in self.items()
        )
        return {
            "completeness": float(completeness),
            "trace": float(trace),
            "eigen": eig,
            "commutator": commute,
        }


def _build(values, states, method, degenerate=False) -> Eigensystem:
    v = np.asarray(values, dtype=float).reshape(2, 2)
    s = np.asarray(states, dtype=complex).reshape(2, 2, 4, 4)
    v.setflags(write=False)
    s.setflags(write=False)
    return Eigensystem(v, s, method, degenerate)


# --- separable case -----------------------------------------------------------


def factor_dyadic(
    c: CoefficientSet, tol: float = DEFAULT_TOL
) -> tuple[Su2Factor, Su2Factor]:
    """Factor a product-form set into its single-qubit Hamiltonians.

    Raises FactorizationError exactly when :func:`su2pair.classify` at the
    same ``tol`` does not label the set separable-dyadic.  The
    reciprocal-scaling gauge is fixed by |a| = |b| = sqrt(s1) and the sign
    by making the largest-magnitude component of the left factor vector
    positive.
    """
    residuals, leading = _dyadic_residuals(c, tol)
    if residuals["rank1"] > tol or residuals["factor_consistency"] > tol:
        raise FactorizationError(
            "not a product set: rank-one residual "
            f"{residuals['rank1']:.3e}, factor consistency "
            f"{residuals['factor_consistency']:.3e}"
        )
    return _factors(c, leading)


def _factors(c: CoefficientSet, leading) -> tuple[Su2Factor, Su2Factor]:
    """The factors of a product set from the leading singular triple of omega
    (None for omega = 0), in the gauge of :func:`factor_dyadic`."""
    if leading is None:
        # omega = 0: the factor of the shorter local vector is scalar.
        if np.linalg.norm(c.alpha) <= np.linalg.norm(c.beta):
            return Su2Factor(1.0, np.zeros(3)), Su2Factor(c.upsilon, c.beta)
        return Su2Factor(c.upsilon, c.alpha), Su2Factor(1.0, np.zeros(3))

    s1, u, v = leading
    lead = np.argmax(np.abs(u))
    if u[lead] < 0:
        u, v = -u, -v
    root = np.sqrt(s1)
    a0 = float(c.beta @ v) / root
    b0 = float(c.alpha @ u) / root
    return Su2Factor(a0, root * u), Su2Factor(b0, root * v)


def separable_spectrum(a0: float, a: float, b0: float, b: float) -> np.ndarray:
    """Product spectrum (a0 + (-1)^m a)(b0 + (-1)^n b), indexed [m-1, n-1]."""
    return np.outer([a0 - a, a0 + a], [b0 - b, b0 + b])


def solve_separable(f1: Su2Factor, f2: Su2Factor) -> Eigensystem:
    """Eigensystem of the product Hamiltonian H1 (x) H2.

    Eigenvalues are (a0 + (-1)^m a)(b0 + (-1)^n b); the states are products
    of the single-qubit Bloch projectors.  A zero-norm factor vector is a
    degenerate factor: its projectors are built from the +3 axis and the
    result is flagged.
    """
    degenerate = False
    norms, axes = [], []
    for f in (f1, f2):
        a = f.norm
        if a <= 1e-14 * (1.0 + abs(f.a0)):
            degenerate = True
            axes.append(np.array([0.0, 0.0, 1.0]))
            a = 0.0
        else:
            axes.append(f.vec / a)
        norms.append(a)

    values = separable_spectrum(f1.a0, norms[0], f2.a0, norms[1])
    # Bloch projectors (I + (-1)^s axis.sigma) / 2 of both factors, indexed
    # [factor, s - 1], and their Kronecker products [m - 1, n - 1].
    axes = np.array(axes)
    axis_ops = sum(axes[:, i, None, None] * _SIGMA[i + 1] for i in range(3))
    proj = 0.5 * (_SIGMA[0] + _SIGNS[:, None, None] * axis_ops[:, None])
    pa, pb = proj[0], proj[1]
    states = pa[:, None, :, None, :, None] * pb[None, :, None, :, None, :]
    return _build(values, states, SolveMethod.SEPARABLE_CLOSED_FORM, degenerate)


# --- constrained entangled case -----------------------------------------------


def solve_entangled(c: CoefficientSet, tol: float = DEFAULT_TOL) -> Eigensystem:
    """Closed-form eigensystem of a constraint-satisfying set.

    Eigenvalues are upsilon + (-1)^m E_n with E_n = sqrt(V + (-1)^n sqrt(Tp));
    the states come from the polynomial ansatz

        rho_mn = 1/4 [I + (-1)^m Ht / E_n] [I + (-1)^n (Ht^2 - V I) / sqrt(Tp)].

    When sqrt(Tp) or E_1 is numerically degenerate the ansatz collapses, so
    the states (and values) come from the oracle instead, labelled by the
    closed-form energy pattern, and the result is flagged.
    """
    return _solve_entangled(c, derive(c, tol))


def _solve_entangled(c: CoefficientSet, d: DerivedCoefficients) -> Eigensystem:
    """:func:`solve_entangled` with ``d`` = :func:`derive` of ``c``."""
    sq, e1, e2 = even_spectrum(d)
    h = fano_compose(c)
    gap_floor = DEGENERACY_RTOL * (1.0 + math.sqrt(d.v_quad))
    if sq <= DEGENERACY_RTOL * (1.0 + d.v_quad) or e1 <= gap_floor or e2 - e1 <= gap_floor:
        return _oracle_eigensystem(h, ascending_labels=((1, 2), (1, 1), (2, 1), (2, 2)))

    eye = np.eye(4)
    ht = h - c.upsilon * eye
    o_op = ht @ ht - d.v_quad * eye
    en = np.array([e1, e2])
    values = c.upsilon + _SIGNS[:, None] * en
    # [m - 1, n - 1] stacks of (I + (-1)^m Ht / E_n) / 4 and, over n,
    # I + (-1)^n O / sqrt(Tp).
    left = 0.25 * (eye + _SIGNS[:, None, None, None] * ht / en[:, None, None])
    right = eye + _SIGNS[:, None, None] * o_op / sq
    return _build(values, left @ right, SolveMethod.ENTANGLED_CLOSED_FORM)


# --- quartic / oracle routes ----------------------------------------------------


def secular_coefficients(
    d: DerivedCoefficients, tol: float = DEFAULT_TOL
) -> tuple[float, float, float, float, float]:
    """Coefficients (1, 0, -2V, -8s, V^2 - Theta) of the secular quartic.

    Valid when the rank-one reduction holds, i.e. omega is singular; the
    cubic invariant of the shifted spectrum is -8(s - det omega), so an
    omega whose ``singular_residual`` exceeds ``tol`` falsifies the linear
    coefficient and is an error.
    """
    if d.singular_residual > tol:
        raise CaseReductionError(
            f"det(omega) = {d.det_omega:.3e} (residual {d.singular_residual:.3e}) "
            "invalidates the rank-one reduction"
        )
    return (1.0, 0.0, -2.0 * d.v_quad, -8.0 * d.s_cubic, d.v_quad**2 - d.theta)


def _cluster(values: list[float]) -> list[list[int]]:
    scale = 1.0 + max(abs(v) for v in values)
    groups: list[list[int]] = [[0]]
    for i in range(1, len(values)):
        if abs(values[i] - values[groups[-1][-1]]) <= DEGENERACY_RTOL * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _oracle_eigensystem(h: np.ndarray, ascending_labels=None) -> Eigensystem:
    """Numerical eigensystem with degenerate eigenspaces split per label.

    ``ascending_labels`` maps the ascending spectrum to (m, n) labels; the
    default is descending energy with m as the slower index.
    """
    dec = eig_hermitian(h)
    desc = dec.eigenvalues.tolist()
    if ascending_labels is None:
        labels_desc = list(_MN)
    else:
        labels_desc = list(reversed(ascending_labels))

    # Every v_k v_k^dag at once, k descending; a cluster of levels shares
    # its eigenspace projector split evenly.
    vt = dec.eigenvectors.T
    states = vt[:, :, None] * vt.conj()[:, None, :]
    degenerate = False
    for group in _cluster(desc):
        if len(group) > 1:
            degenerate = True
            proj = sum(states[k] for k in group) / len(group)
            val = float(np.mean(dec.eigenvalues[group]))
            for k in group:
                states[k] = proj
                desc[k] = val
    order = [labels_desc.index(mn) for mn in _MN]
    return _build(np.array(desc)[order], states[order], SolveMethod.ORACLE_NUMERIC, degenerate)


def solve(c: CoefficientSet, tol: float = DEFAULT_TOL) -> Eigensystem:
    """Solve a coefficient set along the route its :func:`classify` label names.

    Product-form sets take the separable closed form and constrained sets
    the entangled closed form, in whatever local frame they are given: the
    ansatz is covariant under local rotations.  Everything else,
    diagonal-omega sets included, is solved numerically.  The routes take
    omega's singular triple and the derived coefficients from the label, so
    a set is derived and decomposed once.
    """
    label = classify(c, tol)
    if label.kind is CaseKind.SEPARABLE_DYADIC:
        return solve_separable(*_factors(c, label.leading))
    if label.kind is CaseKind.ENTANGLED_CONSTRAINED:
        return _solve_entangled(c, label.derived)
    return _oracle_eigensystem(fano_compose(c))
