"""Eigensystem construction for every solvable case.

Separable product Hamiltonians factor into two single-qubit problems; sets
satisfying one of the contraction constraints admit an even quartic spectrum
and a polynomial eigenprojector ansatz; everything else falls back to the
numerical oracle.  The secular quartic of every set, whose roots plus
upsilon are its spectrum, is available through :func:`secular_coefficients`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._invariants import DEGENERACY_RTOL, _check_mn, _degenerate_branch, _record, even_spectrum
from .errors import FactorizationError
from .hamiltonian import (
    CaseKind,
    CoefficientSet,
    DerivedCoefficients,
    _decide,
    _dyadic_residuals,
    _factor_parts,
    derive,
    fano_compose,
)
from .pauli import require_hermitian


class SolveMethod(enum.Enum):
    SEPARABLE_CLOSED_FORM = "separable-closed-form"
    ENTANGLED_CLOSED_FORM = "entangled-closed-form"
    ORACLE_NUMERIC = "oracle-numeric"


@_record
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
        return math.sqrt(self.vec @ self.vec)


_MN = ((1, 1), (1, 2), (2, 1), (2, 2))
# Complex, so that subtracting multiples of it from a complex matrix casts
# nothing; the products and differences keep the bits of the real identity's.
_I4 = np.eye(4, dtype=complex)
# The entangled ansatz's operator basis with its first operator, I, in
# place; each solve fills a copy.
_ANSATZ_BASIS = np.zeros((4, 4, 4), dtype=complex)
_ANSATZ_BASIS[0] = _I4


@dataclass(init=False, repr=False, eq=False)
@_record
class Eigensystem:
    """Four eigenvalues and density-matrix eigenprojectors, indexed (m, n).

    ``values[m-1, n-1]`` is the eigenvalue and ``states[m-1, n-1]`` the 4x4
    projector; :meth:`eigenvalue` and :meth:`state` read them, and raise
    ValueError for labels that :func:`~su2pair._invariants._check_mn`
    refuses.  On non-degenerate inputs the states are pure, mutually
    orthogonal, and resolve the identity; degenerate eigenspaces are flagged
    and represented by the eigenspace projector split evenly over its labels.
    """

    values: np.ndarray
    states: np.ndarray
    method: SolveMethod
    degenerate: bool = False

    def eigenvalue(self, m: int, n: int) -> float:
        _check_mn(m, n)
        return float(self.values[m - 1, n - 1])

    def state(self, m: int, n: int) -> np.ndarray:
        _check_mn(m, n)
        return self.states[m - 1, n - 1]

    def items(self):
        """((m, n), eigenvalue, state) for the four labels, in the order of _MN."""
        return zip(_MN, self.values.ravel().tolist(), self.states.reshape(4, 4, 4))

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
    """The read-only Eigensystem of fresh (2, 2) values and (2, 2, 4, 4) states."""
    values.setflags(write=False)
    states.setflags(write=False)
    es = object.__new__(Eigensystem)
    es.__dict__.update(values=values, states=states, method=method, degenerate=degenerate)
    return es


# --- separable case -----------------------------------------------------------


def factor_dyadic(c: CoefficientSet) -> tuple[Su2Factor, Su2Factor]:
    """Factor a product-form set into its single-qubit Hamiltonians.

    Raises FactorizationError exactly when :func:`su2pair.classify` does
    not label the set separable-dyadic, whose route decision it shares.
    The reciprocal-scaling gauge is fixed by |a| = |b| = sqrt(s1) and the
    sign by making the largest-magnitude component of the left factor
    vector positive.
    """
    kind, _, d, leading, residuals = _decide(c)
    if kind is not CaseKind.SEPARABLE_DYADIC:
        if residuals is None:
            residuals, _ = _dyadic_residuals(c, d)
        raise FactorizationError(
            "not a product set: rank-one residual "
            f"{residuals['rank1']:.3e}, factor consistency "
            f"{residuals['factor_consistency']:.3e}"
        )
    a0, a_vec, b0, b_vec = _factor_parts(c, leading)
    return Su2Factor(a0, a_vec), Su2Factor(b0, b_vec)


def separable_spectrum(a0: float, a: float, b0: float, b: float) -> np.ndarray:
    """Product spectrum (a0 + (-1)^m a)(b0 + (-1)^n b), indexed [m-1, n-1]."""
    a_lo, a_hi, b_lo, b_hi = a0 - a, a0 + a, b0 - b, b0 + b
    return np.array([[a_lo * b_lo, a_lo * b_hi], [a_hi * b_lo, a_hi * b_hi]])


def _bloch_projectors(n: list[float]) -> list:
    """(I + (-1)^s n.sigma) / 2 for s = 1, 2 of a unit 3-vector n, as one
    flat list of the entries in C order over (s, row, column)."""
    n1, n2, n3 = n
    lo, hi = complex(n1, -n2) / 2.0, complex(n1, n2) / 2.0
    up, down = (1.0 + n3) / 2.0, (1.0 - n3) / 2.0
    return [down, -lo, -hi, up, up, lo, hi, down]


def solve_separable(f1: Su2Factor, f2: Su2Factor) -> Eigensystem:
    """Eigensystem of the product Hamiltonian H1 (x) H2.

    Eigenvalues are (a0 + (-1)^m a)(b0 + (-1)^n b); the states are products
    of the single-qubit Bloch projectors.  A zero-norm factor vector is a
    degenerate factor: its projectors are built from the +3 axis and the
    result is flagged.
    """
    return _solve_product(f1.a0, f1.vec, f2.a0, f2.vec)


def _solve_product(a0: float, a_vec: np.ndarray, b0: float, b_vec: np.ndarray) -> Eigensystem:
    """:func:`solve_separable` of the factors a0 + a.sigma and b0 + b.sigma."""
    degenerate = False
    norms, proj = [], []
    for f0, vec in ((a0, a_vec), (b0, b_vec)):
        a = math.sqrt(vec @ vec)
        if a <= 1e-14 * (1.0 + abs(f0)):
            degenerate = True
            proj += _bloch_projectors([0.0, 0.0, 1.0])
            a = 0.0
        else:
            proj += _bloch_projectors([x / a for x in vec.tolist()])
        norms.append(a)

    values = separable_spectrum(a0, norms[0], b0, norms[1])
    # Bloch projectors of both factors, indexed [factor, s - 1], from one
    # flat list (a nested one costs numpy twice as much to read), and their
    # Kronecker products [m - 1, n - 1].
    pa, pb = np.array(proj, dtype=complex).reshape(2, 2, 2, 2)
    states = (pa[:, None, :, None, :, None] * pb[None, :, None, :, None, :]).reshape(2, 2, 4, 4)
    return _build(values, states, SolveMethod.SEPARABLE_CLOSED_FORM, degenerate)


# --- constrained entangled case -----------------------------------------------


def solve_entangled(c: CoefficientSet) -> Eigensystem:
    """Closed-form eigensystem of a constraint-satisfying set.

    Eigenvalues are upsilon + (-1)^m E_n with E_n = sqrt(V + (-1)^n sqrt(Tp));
    the states come from the polynomial ansatz

        rho_mn = 1/4 [I + (-1)^m Ht / E_n] [I + (-1)^n (Ht^2 - V I) / sqrt(Tp)].

    When sqrt(Tp) or E_1 is numerically degenerate by the rule that also
    refuses the closed-form concurrence, the ansatz collapses, so the states
    (and values) come from the oracle instead, labelled by the closed-form
    energy pattern, and the result is flagged when the oracle's levels merge.
    That fallback checks the composed matrix as :func:`solve` does, by
    :func:`_oracle_input`.
    """
    return _solve_entangled(c, derive(c))


def _solve_entangled(c: CoefficientSet, d: DerivedCoefficients) -> Eigensystem:
    """:func:`solve_entangled` with ``d`` = :func:`derive` of ``c``."""
    sq, e1, e2 = even_spectrum(d)
    h = fano_compose(c)
    # Branch 1 is refused whenever branch 2 is, so it decides for both.
    if any(_degenerate_branch(d, sq, 1)):
        return _oracle_eigensystem(
            _oracle_input(h, d), ascending_labels=((1, 2), (1, 1), (2, 1), (2, 2))
        )

    ups = c.upsilon
    # The ansatz expanded over the basis I, Ht, O = Ht^2 - V I and Ht O,
    # built in place: row (m, n) of ``coef`` holds 1/4 (1, (-1)^m / E_n,
    # (-1)^n / sqrt(Tp), (-1)^(m+n) / (E_n sqrt(Tp))), rows in the order of
    # _MN.  ``coef`` is complex because the product with the basis is.
    basis = _ANSATZ_BASIS.copy()
    ht = np.subtract(h, ups * _I4, out=basis[1])
    o_op = np.subtract(ht @ ht, d.v_quad * _I4, out=basis[2])
    np.matmul(ht, o_op, out=basis[3])
    values = np.array([[ups - e1, ups - e2], [ups + e1, ups + e2]])
    h1, h2, g = 0.25 / e1, 0.25 / e2, 0.25 / sq
    coef = np.array(
        [0.25, -h1, -g, h1 / sq, 0.25, -h2, g, -h2 / sq,
         0.25, h1, -g, -h1 / sq, 0.25, h2, g, h2 / sq],
        dtype=complex,
    ).reshape(4, 4)
    states = (coef @ basis.reshape(4, 16)).reshape(2, 2, 4, 4)
    return _build(values, states, SolveMethod.ENTANGLED_CLOSED_FORM)


# --- quartic / oracle routes ----------------------------------------------------


def secular_coefficients(d: DerivedCoefficients) -> tuple[float, float, float, float, float]:
    """Coefficients (1, 0, -2V, -8(s - det omega), V^2 - Theta) of the secular
    quartic, whose roots plus upsilon are the spectrum of any set.

    Newton's identities on the traceless part Ht give them from its power
    sums Tr Ht^2 = 4V, Tr Ht^3 = 24(s - det omega) and Tr Ht^4 = 4(V^2 + Theta).
    The fields of a :func:`~su2pair.hamiltonian.derive_arrays` record
    broadcast, so it gives every item's coefficients, each with the bits of
    the single-set call.  Near-degenerate roots lose accuracy as in any
    closed-form quartic: roots a relative gap g apart err by about eps / g^2,
    and by up to ~5e-6, about eps^(1/3), where three roots meet.
    """
    return (1.0, 0.0, -2.0 * d.v_quad, -8.0 * (d.s_cubic - d.det_omega),
            d.v_quad * d.v_quad - d.theta)


def _cluster(values: list[float], floor: float) -> list[list[int]]:
    """Runs of consecutive values at most ``floor`` apart."""
    groups: list[list[int]] = [[0]]
    for i in range(1, len(values)):
        if abs(values[i] - values[groups[-1][-1]]) <= floor:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _oracle_input(h: np.ndarray, d: DerivedCoefficients) -> np.ndarray:
    """``h`` = :func:`fano_compose` of a set with derived coefficients ``d``,
    checked by :func:`~su2pair.pauli.require_hermitian` only where it may
    not be Hermitian.

    A finite v_quad bounds alpha, beta and omega by sqrt(max double), and
    three such terms added to a finite upsilon stay below where rounding
    overflows, so every entry of h is finite and h is exactly Hermitian.
    Only an infinite v_quad leaves a composition that may overflow, which
    raises NonHermitianError.
    """
    return h if math.isfinite(d.v_quad) else require_hermitian(h, "eig_hermitian input")


def _oracle_eigensystem(h: np.ndarray, ascending_labels=None) -> Eigensystem:
    """Numerical eigensystem with degenerate eigenspaces split per label.

    ``h`` must be Hermitian with finite entries, as :func:`_oracle_input`
    returns it.
    ``ascending_labels`` maps the ascending spectrum to (m, n) labels; the
    default is descending energy with m as the slower index.
    """
    # The oracle's Hermitian eigendecomposition, read descending through
    # views instead of the copies a SpectralDecomposition keeps.
    w, v = np.linalg.eigh(h)
    w = w[::-1]
    desc = w.tolist()

    # Every v_k v_k^dag at once, k descending; a cluster of levels shares
    # its eigenspace projector split evenly.  Levels are clustered only when
    # some gap is within the degeneracy tolerance.
    vt = v.T[::-1]
    states = vt[:, :, None] * vt.conj()[:, None, :]
    w0, w1, w2, w3 = desc
    floor = DEGENERACY_RTOL * (1.0 + max(abs(w0), abs(w3)))
    degenerate = w0 - w1 <= floor or w1 - w2 <= floor or w2 - w3 <= floor
    if degenerate:
        for group in _cluster(desc, floor):
            if len(group) > 1:
                proj = sum(states[k] for k in group) / len(group)
                val = float(np.mean(w[group]))
                for k in group:
                    states[k] = proj
                    desc[k] = val
    if ascending_labels is not None:
        labels_desc = list(reversed(ascending_labels))
        order = [labels_desc.index(mn) for mn in _MN]
        desc, states = [desc[k] for k in order], states[order]
    return _build(
        np.array(desc).reshape(2, 2), states.reshape(2, 2, 4, 4),
        SolveMethod.ORACLE_NUMERIC, degenerate,
    )


def solve(c: CoefficientSet) -> Eigensystem:
    """Solve a coefficient set along the route its :func:`classify` label names.

    Product-form sets take the separable closed form and constrained sets
    the entangled closed form, in whatever local frame they are given: the
    ansatz is covariant under local rotations.  Every general set, one
    with diagonal omega included, is solved numerically.  The route comes
    from :func:`_decide` with the derived coefficients, and omega's singular
    triple where the product test needed it, so a set is derived once and
    decomposed at most once.  Raises NonHermitianError where the composed
    matrix overflows.
    """
    kind, _, d, leading, _ = _decide(c)
    if kind is CaseKind.SEPARABLE_DYADIC:
        return _solve_product(*_factor_parts(c, leading))
    if kind is CaseKind.ENTANGLED_CONSTRAINED:
        return _solve_entangled(c, d)
    return _oracle_eigensystem(_oracle_input(fano_compose(c), d))
