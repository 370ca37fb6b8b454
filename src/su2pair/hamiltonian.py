"""Coefficient sets of two-qubit Hamiltonians and their derived quantities.

A Hamiltonian on C^2 (x) C^2 is parameterized as

    H = upsilon * I4 + sum_i alpha_i sigma_i (x) I
                     + sum_j beta_j  I (x) sigma_j
                     + sum_ij omega_ij sigma_i (x) sigma_j

with real ``upsilon``, ``alpha``, ``beta`` and ``omega``.  This module houses
the parameterization itself (`CoefficientSet`), the Pauli-basis decomposition
and recomposition, :func:`derive` and :func:`derive_arrays` over the kernel of
:mod:`su2pair._invariants`, the solvable-case classifier and local frame
rotations.  Every closed form works in the frame a set is given in: the
derived quantities it reads are invariant under local rotations.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from ._invariants import (_TINY, DEFAULT_TOL, DerivedCoefficients, _derive_kernel, _ratio, _real,
                          _record)
from .errors import NonHermitianError
from .pauli import _WORDS, require_hermitian


@_record
class CoefficientSet:
    """Real Pauli-basis coefficients (upsilon, alpha, beta, omega) of a 4x4 Hermitian.

    Instances are immutable.  ``packed`` is one read-only float64 vector of
    the 16 coefficients in :func:`fano_compose`'s order, upsilon, alpha,
    beta, then omega row by row, and ``alpha``, ``beta`` and ``omega`` are
    read-only views of it; ``upsilon`` is its first entry as a Python
    float.  upsilon must be a real number, and alpha, beta and omega must
    hold real numbers (:func:`_real_array`); finiteness is checked once, on
    the packed vector.  Two sets are equal when their packed vectors are,
    and equal sets hash alike (0.0 and -0.0 included), so sets can key a
    dict.
    """

    upsilon: float
    alpha: np.ndarray
    beta: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        upsilon = _real("upsilon", self.upsilon)
        if not math.isfinite(upsilon):
            raise ValueError("upsilon must be finite")
        packed = np.empty(16)
        packed[0] = upsilon
        packed[1:4] = _real_array("alpha", self.alpha).reshape((3,))
        packed[4:7] = _real_array("beta", self.beta).reshape((3,))
        packed[7:].reshape(3, 3)[...] = _real_array("omega", self.omega).reshape((3, 3))
        if not np.isfinite(packed).all():
            raise ValueError("coefficients must be finite")
        # Views of a read-only array are read-only and cannot be made writeable.
        packed.setflags(write=False)
        self.__dict__.update(
            upsilon=upsilon,
            alpha=packed[1:4],
            beta=packed[4:7],
            omega=packed[7:].reshape(3, 3),
            packed=packed,
        )

    def __eq__(self, other):
        if not isinstance(other, CoefficientSet):
            return NotImplemented
        return np.array_equal(self.packed, other.packed)

    def __hash__(self):
        return hash(tuple(self.packed.tolist()))

    def scale(self) -> float:
        """Euclidean norm of all coefficients, the natural size of the set; never overflows."""
        return math.hypot(*self.packed.tolist())


def _real_array(name: str, value) -> np.ndarray:
    """The coefficients ``value`` as an integer or float array: an array of
    such a dtype as it is, else a sequence (nested to any depth) whose
    entries are real numbers by :func:`~su2pair._invariants._real`, as
    floats.  A bool among them, which numpy would read as 0 or 1, a string,
    a complex number or None raises ValueError naming ``name``."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return value
    for entry in np.asarray(value, dtype=object).flat:
        _real(f"each {name} entry", entry)
    return np.asarray(value, dtype=float)


def _compose_table() -> tuple[np.ndarray, np.ndarray]:
    """Gather table of :func:`fano_compose`.

    Every entry of a 4x4 Pauli word is 0, +-1 or +-i, and each entry of the
    4x4 matrix is nonzero in exactly four words.  ``index[k, r, s]`` is the
    position in (upsilon, alpha, beta, omega row by row) of the k-th of those
    words and ``phase[k, r, s]`` its entry, k in the order upsilon, then
    alpha_i, beta_i, omega_i1, omega_i2, omega_i3 for i = 1, 2, 3.
    """
    words = [(0, 0)]
    for i in (1, 2, 3):
        words += [(i, 0), (0, i), (i, 1), (i, 2), (i, 3)]
    i, j = np.transpose(words)
    # position[i, j]: where the coefficient of sigma_i (x) sigma_j sits.
    position = np.array([[0, 4, 5, 6], [1, 7, 8, 9], [2, 10, 11, 12], [3, 13, 14, 15]])
    table = _WORDS[i, j]
    # Nonzero words of each entry, in loop order: C order over (r, s, word).
    r, s, w = np.nonzero(table.transpose(1, 2, 0))
    index = position[i, j][w].reshape(4, 4, 4).transpose(2, 0, 1)
    phase = table[w, r, s].reshape(4, 4, 4).transpose(2, 0, 1)
    return np.ascontiguousarray(index), np.ascontiguousarray(phase)


_COMPOSE_INDEX, _COMPOSE_PHASE = _compose_table()


def fano_compose(c: CoefficientSet) -> np.ndarray:
    """Assemble the 4x4 Hermitian matrix from its Pauli-basis coefficients.

    One gather from the set's packed vector: each entry sums its four
    signed coefficients in the order upsilon, then alpha_i, beta_i,
    omega_i1..omega_i3 per i, the order in which adding the scaled Pauli
    words one at a time would accumulate them.  Entries (r, s) and (s, r)
    sum conjugate phases in that one order, so wherever every entry is
    finite the result is exactly Hermitian: its Hermiticity defect is 0.
    """
    # A reduction over the leading axis adds its slices one by one, in order.
    return (c.packed[_COMPOSE_INDEX] * _COMPOSE_PHASE).sum(axis=0)


def fano_decompose(h: np.ndarray) -> CoefficientSet:
    """Project a Hermitian 4x4 matrix onto the Pauli basis.

    All sixteen coefficients Tr[h sigma_i (x) sigma_j] / 4 come from one
    contraction.  Raises ValueError for an array that is not 4x4, and
    NonHermitianError for non-Hermitian input; the coefficients of a
    Hermitian matrix are real, and any residual imaginary part beyond
    round-off is rejected rather than silently discarded.
    """
    if np.shape(h) != (4, 4):
        raise ValueError(f"fano_decompose input must be 4x4, not of shape {np.shape(h)}")
    return _pauli_projection(require_hermitian(h, "fano_decompose input"))


def _pauli_projection(h: np.ndarray) -> CoefficientSet:
    """:func:`fano_decompose` of a 4x4 complex array already checked to be
    Hermitian; raises NonHermitianError as it does for an imaginary part
    beyond round-off."""
    scale = 1.0 + float(np.max(np.abs(h)))
    coef = np.einsum("ab,ijba->ij", h, _WORDS) / 4.0
    for (i, j), im in np.ndenumerate(coef.imag):
        if abs(im) > 1e-12 * scale:
            raise NonHermitianError(f"Pauli coefficient ({i},{j}) has imaginary part {im:.3e}")
    coef = coef.real
    return CoefficientSet(coef[0, 0], coef[1:, 0], coef[0, 1:], coef[1:, 1:])


def derive_arrays(alpha, beta, omega) -> DerivedCoefficients:
    """Every derived quantity of a batch: alpha (..., 3), beta (..., 3), omega (..., 3, 3).

    The constraint gates ``alpha_null`` (alpha . omega = 0) and ``beta_null``
    (omega . beta = 0) are decided from relative residuals, each together
    with ``singular_residual``, at ``DEFAULT_TOL``; they select which
    quadratic-form terms enter ``theta_phi``.  Residuals and gates are
    invariant under local rotations, so the gates hold in any frame.
    det omega comes from one Householder reflection, not an LU
    factorization.  Each item's fields are bitwise those of :func:`derive` on that set, in any
    memory order: the kernel works elementwise on component views.  An entry
    that a :class:`CoefficientSet` refuses, None or NaN among them, raises
    ValueError naming its field.
    """
    return _derive_kernel(*_batch_components(alpha, beta, omega), np.sqrt)


def _batch_components(alpha, beta, omega):
    """A batch's components in the form ``_derive_kernel`` takes: views of
    alpha, beta and omega with the component axes first.  Each is checked
    by the rule of :class:`CoefficientSet`, :func:`_real_array` and then
    finiteness, and refused with ValueError naming it."""
    parts = []
    for name, value in (("alpha", alpha), ("beta", beta), ("omega", omega)):
        part = np.asarray(_real_array(name, value), dtype=float)
        if not np.isfinite(part).all():
            raise ValueError(f"{name} must be finite")
        parts.append(part)
    al, be, om = parts
    return np.moveaxis(al, -1, 0), np.moveaxis(be, -1, 0), np.moveaxis(om, (-2, -1), (0, 1))


def _float_components(c: CoefficientSet):
    """One set's components in the form ``_derive_kernel`` takes, as Python
    floats from one ``tolist()`` of its packed vector: alpha, beta and the
    rows of omega."""
    _, a1, a2, a3, b1, b2, b3, w11, w12, w13, w21, w22, w23, w31, w32, w33 = c.packed.tolist()
    return (a1, a2, a3), (b1, b2, b3), ((w11, w12, w13), (w21, w22, w23), (w31, w32, w33))


def derive(c: CoefficientSet) -> DerivedCoefficients:
    """:func:`derive_arrays` on one set, with Python floats and bools as scalars.

    The same kernel runs on the set's components as Python floats.
    """
    return _derive_kernel(*_float_components(c), math.sqrt)


class CaseKind(enum.Enum):
    SEPARABLE_DYADIC = "separable-dyadic"
    ENTANGLED_CONSTRAINED = "entangled-constrained"
    GENERAL = "general"


class Branch(enum.Enum):
    ALPHA_NULL = "alpha-null"
    BETA_NULL = "beta-null"
    BOTH = "both"


@_record
class Classification:
    """The case of a coefficient set and the residuals that decided it."""

    kind: CaseKind
    branch: Branch | None = None
    residuals: dict[str, float] = {}

    def __str__(self):
        if self.branch is None:
            return self.kind.value
        return f"{self.kind.value}({self.branch.value})"


def _off_axis(x: list[float], u: list[float]) -> tuple[float, float]:
    """(x.u, |x - (x.u) u|) of two 3-vectors given as floats."""
    x1, x2, x3 = x
    u1, u2, u3 = u
    xu = x1 * u1 + x2 * u2 + x3 * u3
    r1, r2, r3 = x1 - xu * u1, x2 - xu * u2, x3 - xu * u3
    return xu, math.sqrt(r1 * r1 + r2 * r2 + r3 * r3)


def _dyadic_residuals(
    c: CoefficientSet, d: DerivedCoefficients
) -> tuple[dict[str, float], tuple[float, np.ndarray, np.ndarray] | None]:
    """Residuals of the product-form factorization H = H1 (x) H2.

    A set factorizes iff omega has rank <= 1 and (with omega = s1 u v^T)
    alpha is parallel to u, beta to v, and upsilon * s1 = (alpha.u)(beta.v).
    The factor consistency is the largest defect of the factors built from
    (s1, u, v) against the scale: the parts of alpha and beta off u and v,
    and |upsilon - (alpha.u)(beta.v) / s1|.  For omega = 0 (s1 at most
    ``DEFAULT_TOL`` times the non-scalar scale sqrt(|alpha|^2 + |beta|^2 + |omega|^2))
    one factor must be scalar, i.e. alpha = 0 or beta = 0.  The norms come
    from ``d`` = :func:`derive` of ``c``.  Returns the residuals and the
    leading singular triple (s1, u, v) of omega, None for omega = 0.
    """
    sc = c.scale() + _TINY
    u_mat, svals, vt = np.linalg.svd(c.omega)
    s1, s2, _ = svals.tolist()
    out = {"rank1": s2 / (s1 + _TINY)}
    if s1 <= DEFAULT_TOL * math.hypot(*c.packed[1:].tolist()):
        # omega = 0: consistent iff one local factor is proportional to I.
        out["factor_consistency"] = math.sqrt(min(d.alpha_sq, d.beta_sq)) / sc
        return out, None
    u, v = u_mat[:, 0], vt[0]
    au, alpha_off = _off_axis(c.alpha.tolist(), u.tolist())
    bv, beta_off = _off_axis(c.beta.tolist(), v.tolist())
    upsilon_defect = abs(c.upsilon * s1 - au * bv) / s1
    out["factor_consistency"] = max(alpha_off, beta_off, upsilon_defect) / sc
    return out, (s1, u, v)


def _factor_parts(c: CoefficientSet, leading):
    """(a0, a, b0, b) of the factors a0 + a.sigma and b0 + b.sigma of a
    product set, from omega's leading singular triple of
    :func:`_dyadic_residuals` (None for omega = 0), the vectors of shape
    (3,): the one product factorization, which solve and the thermal sweep
    read.  The reciprocal-scaling gauge is fixed by |a| = |b| = sqrt(s1),
    and the sign by making the largest-magnitude component of a positive."""
    if leading is None:
        # omega = 0: the factor of the shorter local vector is scalar.
        if np.linalg.norm(c.alpha) <= np.linalg.norm(c.beta):
            return 1.0, np.zeros(3), c.upsilon, c.beta
        return c.upsilon, c.alpha, 1.0, np.zeros(3)

    s1, u, v = leading
    u_abs = np.abs(u).tolist()
    if u[u_abs.index(max(u_abs))] < 0:
        u, v = -u, -v
    root = math.sqrt(s1)
    return float(c.beta @ v) / root, root * u, float(c.alpha @ u) / root, root * v


# The rank-one screen of `_decide`.  Over the singular values s1 >= s2 >= s3
# of omega, |adj omega|_F^2 = s1^2 s2^2 + s1^2 s3^2 + s2^2 s3^2 <= 3 s1^2 s2^2
# and s1 <= |omega|_F, so |adj omega|_F > sqrt(3) DEFAULT_TOL |omega|_F^2
# gives s2/s1 > DEFAULT_TOL: omega is not rank one and the set is not a product.  The
# slack covers round-off: each computed cofactor is off by at most
# 2 eps (|ab| + |cd|), so |adj omega|_F by about 2 eps |omega|_F^2, and
# LAPACK's s2/s1 by a few eps (a backward-stable SVD); 32 eps covers both
# with room (seeded rounded rank-one omega need 0.7 eps).  Errors relative to
# DEFAULT_TOL need no slack: the bound is loose by sqrt(3/2) at least.  Below the
# floor, |adj omega|_F^2 holds subnormal terms, whose absolute round-off can
# double it; inf and NaN fail the test, so all of these take the SVD.
_ADJ_SLACK = 32.0 * float(np.finfo(float).eps)
_ADJ_FLOOR = math.sqrt(2.0**52 * _TINY)
_SCREEN = math.sqrt(3.0) * DEFAULT_TOL + _ADJ_SLACK


def _decide(c: CoefficientSet):
    """The route of a set: ``(kind, branch, derived, leading, dyadic)``.

    ``kind`` is separable-dyadic, entangled-constrained (with ``branch``
    naming the gates that hold) or general, which stands for every set
    without a closed form, diagonal omega included.
    ``derived`` is :func:`derive` of the set.  ``dyadic`` and ``leading``
    are the residuals and singular triple of :func:`_dyadic_residuals`, or
    None when the adjugate of omega already shows it is not rank one, which
    spares the SVD.
    """
    d = derive(c)
    dyadic = leading = None
    screen = max(_SCREEN * d.omega_sq, _ADJ_FLOOR)
    if not screen < d.adj_norm < math.inf:
        dyadic, leading = _dyadic_residuals(c, d)
        if dyadic["rank1"] <= DEFAULT_TOL and dyadic["factor_consistency"] <= DEFAULT_TOL:
            return CaseKind.SEPARABLE_DYADIC, None, d, leading, dyadic
    if d.alpha_null or d.beta_null:
        if d.alpha_null and d.beta_null:
            branch = Branch.BOTH
        elif d.alpha_null:
            branch = Branch.ALPHA_NULL
        else:
            branch = Branch.BETA_NULL
        return CaseKind.ENTANGLED_CONSTRAINED, branch, d, leading, dyadic
    return CaseKind.GENERAL, None, d, leading, dyadic


def classify(c: CoefficientSet) -> Classification:
    """Assign the coefficient set to one of the solvable cases.

    Precedence: separable-dyadic, then entangled-constrained, then the
    general catch-all.  A set is entangled-constrained exactly when a
    constraint gate of :func:`derive` holds, in whatever local frame it is
    given; the branch names the gates that hold.  The label is the route
    :func:`_decide` picks; the residuals report every test, the
    product-form ones included.

    All residuals are relative, and every test compares them with
    ``DEFAULT_TOL``, so labels are invariant under a global rescaling of
    the set.
    """
    kind, branch, d, _, residuals = _decide(c)
    if residuals is None:
        residuals, _ = _dyadic_residuals(c, d)
    om_norm = math.sqrt(d.omega_sq)
    al_norm, be_norm = math.sqrt(d.alpha_sq), math.sqrt(d.beta_sq)
    residuals.update(
        {
            "alpha_constraint": _ratio(d.alpha_residual, om_norm * al_norm),
            "beta_constraint": _ratio(d.beta_residual, om_norm * be_norm),
            "det_omega": d.singular_residual,
            "s_cubic": _ratio(abs(d.s_cubic), om_norm * al_norm * be_norm),
        }
    )
    return Classification(kind, branch, residuals)


# --- local rotations ------------------------------------------------------------


def rotate_set(c: CoefficientSet, r1: np.ndarray, r2: np.ndarray) -> CoefficientSet:
    """Apply local frame rotations: alpha -> R1 a, beta -> R2 b, omega -> R1 w R2^T."""
    return CoefficientSet(
        c.upsilon, r1 @ c.alpha, r2 @ c.beta, r1 @ c.omega @ r2.T
    )
