"""The derived invariants of coefficient sets, as one straight-line kernel.

:class:`DerivedCoefficients` holds the quadratic and quartic invariants of
a coefficient set.  :func:`_derive_kernel` computes every field from the
components of alpha, beta and omega with IEEE + - * / sqrt alone, for one
set on Python floats or for a batch on arrays;
:func:`su2pair.hamiltonian.derive` and
:func:`su2pair.hamiltonian.derive_arrays` are its public callers.  The
kernel fills a record's instance dict in one update.  :func:`_ht2_parts`
forms the Pauli components of Ht^2 beyond v_quad, from which the kernel
takes phi, theta, s_cubic and the constraint residuals, and the
eigenstate Bloch vectors of :mod:`su2pair.entanglement` take their
closed form.  :func:`_cofactors` forms the cofactors of omega, from which
the kernel takes adj_norm and beta_adj_alpha, and the closed-form
concurrence of :mod:`su2pair.entanglement` the vectors adj(omega)^T beta
and adj(omega) alpha.

A batch whose structure makes some components exact zeros in every item
(the graphene grids: alpha_1, alpha_2 and the third row and column of
omega) may pass them to :func:`_derive_components`, and to the
concurrence radical, as the structural zero ``_ZERO``.  Its products are
itself and a sum returns the other operand, so the unchanged kernel and
helpers skip every array pass over a term that vanishes by construction
(118 ufunc calls for the kernel on a 4096-point lattice chunk, not 274).
Dropping ``x + 0`` can change only the sign of a zero, and dropping
``0 * x`` agrees with IEEE wherever x is finite, so the caller passes it
only where every intermediate is.  No record field holds it.

:func:`even_spectrum` and :func:`_degenerate_branch` read a record alone,
beside the package's tolerances.  :func:`_record` is the decorator that
makes the package's immutable records, in place of a frozen dataclass and
its generated code.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

from .errors import ConstraintError

_TINY = float(np.finfo(float).tiny)

# The package's relative thresholds, one table (README "Tolerances"):
# DEFAULT_TOL      constraint residuals and case detection (the derive
#                  gates here, classify, factor_dyadic)
# DEGENERACY_RTOL  degenerate spectra (_degenerate_branch): sqrt(Tp) at most
#                  this times 1 + V, or E_n at most this times 1 + sqrt(V),
#                  sends the closed-form states to the oracle (n = 1) and
#                  makes the closed-form concurrence of branch n raise;
#                  oracle eigenvalues within this times 1 + max|e| merge
# COMMUTATOR_RTOL  the thermal-concurrence closed form is provably exact when
#                  the Frobenius norm of the spin-flip commutator, which no
#                  local rotation changes, is at most this times
#                  V = |alpha|^2 + |beta|^2 + |omega|^2
# 1e-14            degenerate separable factors, a fixed floor with no name
#                  in solver._solve_product: a factor vector of norm at most
#                  this times 1 + |f0| (f0 the factor's scalar part) takes
#                  the +3 axis for its projectors and flags the result
DEFAULT_TOL = 1e-9
DEGENERACY_RTOL = 1e-8
COMMUTATOR_RTOL = 1e-12


def _record(cls):
    """Make ``cls`` an immutable record of its annotated fields, as a frozen
    dataclass would, but from closures alone: no method is generated as
    source and compiled, which is most of a dataclass's cost at import.

    ``__init__`` takes the fields in order, by position or keyword, with the
    class attributes as defaults (a dict default is copied for each
    instance), stores them in the instance dict and then calls
    ``__post_init__`` where the class has one; ``inspect.signature`` reads
    the fields.  Assigning or deleting an attribute raises
    :class:`dataclasses.FrozenInstanceError`, a subclass of AttributeError.
    ``==`` compares the fields of two records of the same class as tuples,
    ``hash`` hashes that tuple, and ``repr`` reads ``Name(field=value,
    ...)``.  A method the class defines itself is kept.  Stacked under
    ``dataclass(init=False, repr=False, eq=False)``, which generates no
    method, the class is a dataclass too.
    """
    names = tuple(cls.__annotations__)
    size = len(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    cls.__signature__ = signature = inspect.Signature([
        inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                          default=defaults.get(name, inspect.Parameter.empty),
                          annotation=cls.__annotations__[name])
        for name in names
    ])

    def fresh(default):
        return default.copy() if isinstance(default, dict) else default

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != size:
            # Signature.bind raises the TypeError a call with these arguments would.
            given = signature.bind(*args, **kwargs).arguments
            args = [given[name] if name in given else fresh(defaults[name]) for name in names]
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            post_init(self)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def values(record):
        return tuple(map(record.__dict__.__getitem__, names))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{cls.__qualname__}({fields})"

    for method in (__init__, __setattr__, __delattr__, __eq__, __hash__, __repr__):
        if method.__name__ not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
            setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


@dataclass(init=False, repr=False, eq=False)
@_record
class DerivedCoefficients:
    """Quadratic and quartic invariants of a coefficient set.

    ``v_quad`` is 1/4 Tr[Ht^2] for the traceless part Ht, the sum of the
    squared norms ``alpha_sq`` = |alpha|^2, ``beta_sq`` = |beta|^2 and
    ``omega_sq`` = |omega|_F^2.  With a and b the single-qubit Pauli
    components of Ht^2 and W its two-qubit component (:func:`_ht2_parts`),
    ``theta`` is 1/4 Tr[(Ht^2 - v_quad I)^2], evaluated exactly through the
    Pauli components as |a|^2 + |b|^2 + phi, and ``phi`` is
    Tr[W W^T].  ``theta_phi`` is the constraint-gated variant used
    by the even-spectrum closed forms.  ``det_omega`` comes from one
    Householder reflection of omega, ``adj_norm`` is |adj omega|_F and
    ``beta_adj_alpha`` is beta^T adj(omega) alpha, both from the cofactors,
    and ``singular_residual`` is |det omega| / (|omega| |adj omega|), the one
    measure of how far omega is from singular; 0 when adj omega vanishes.
    On a constrained set, with omega_B the 2x2 block of omega in the local
    frame that clears its third row and column, |det omega_B| = ``adj_norm``
    and (alpha.beta) det omega_B = ``beta_adj_alpha`` in every frame.

    From :func:`~su2pair.hamiltonian.derive` the scalar fields are Python
    floats and bools; from :func:`~su2pair.hamiltonian.derive_arrays` every
    field carries the batch's leading axes, and on a single set its scalars
    are numpy scalars.  Both run the same straight-line kernel, so their bits
    agree.  Records from the kernel skip ``__init__`` and fill their
    instance dict with exactly the fields, in field order.
    """

    v_quad: float
    theta: float
    phi: float
    theta_phi: float
    s_cubic: float
    beta_adj_alpha: float
    det_omega: float
    adj_norm: float
    singular_residual: float
    alpha_null: bool
    beta_null: bool
    alpha_residual: float
    beta_residual: float
    alpha_sq: float
    beta_sq: float
    omega_sq: float


class _StructuralZero:
    """An exact zero that a batch's structure guarantees in every item, such
    as a lattice-layer set's alpha_1 and the third row and column of its
    omega: its products and quotients are itself, a sum returns the other
    operand and a difference its negation, so the kernel's terms in it cost
    no array pass.  It stands for +0 or -0 alike, and where a term it drops
    would be 0 * inf the kernel reads 0, not NaN; callers pass it only
    where every intermediate is finite.  ``<=`` and ``float`` read it as
    0.0.  Ndarray operators defer to it, and no ufunc takes it.
    """

    __slots__ = ()
    __array_ufunc__ = None

    def __mul__(self, other):
        return self

    __rmul__ = __truediv__ = __mul__

    def __add__(self, other):
        return other

    __radd__ = __rsub__ = __add__

    def __sub__(self, other):
        return -other

    def __neg__(self):
        return self

    __abs__ = __neg__

    def __float__(self):
        return 0.0

    def __le__(self, other):
        return 0.0 <= other

    def __repr__(self):
        return "_ZERO"


_ZERO = _StructuralZero()


def _where(cond, x, y):
    """np.where that keeps a single set's scalars scalar.  On a batch the
    structural zero stays one where the other branch is zero too, and reads
    as 0.0 otherwise."""
    if isinstance(cond, np.ndarray):
        if x is _ZERO or y is _ZERO:
            x, y = (0.0 if v is _ZERO else v for v in (x, y))
            if type(x) is float and type(y) is float and x == y == 0.0:
                return _ZERO
        return np.where(cond, x, y)
    return x if cond else y


def _ht2_parts(a, b, w):
    """alpha.omega, omega.beta and the rows of W, from the components that
    :func:`_derive_kernel` takes: the Pauli components of Ht^2 beyond v_quad
    are a = 2 omega.beta, b = 2 alpha.omega (exact scalings) and W."""
    a1, a2, a3 = a
    b1, b2, b3 = b
    (w11, w12, w13), (w21, w22, w23), (w31, w32, w33) = w
    # p = Tr[omega]^2 - Tr[omega^2] from the diagonal of omega^2, and
    # W = 2 (alpha beta^T - (omega^2)^T + tau omega^T) - p I entry by entry,
    # with (omega^2)_ji = sum_k omega_jk omega_ki.
    tau = w11 + w22 + w33
    o11 = w11 * w11 + w12 * w21 + w13 * w31
    o22 = w21 * w12 + w22 * w22 + w23 * w32
    o33 = w31 * w13 + w32 * w23 + w33 * w33
    p = tau * tau - (o11 + o22 + o33)
    w_rows = [
        [2.0 * ((a1 * b1 - o11) + tau * w11) - p,
         2.0 * ((a1 * b2 - (w21 * w11 + w22 * w21 + w23 * w31)) + tau * w21),
         2.0 * ((a1 * b3 - (w31 * w11 + w32 * w21 + w33 * w31)) + tau * w31)],
        [2.0 * ((a2 * b1 - (w11 * w12 + w12 * w22 + w13 * w32)) + tau * w12),
         2.0 * ((a2 * b2 - o22) + tau * w22) - p,
         2.0 * ((a2 * b3 - (w31 * w12 + w32 * w22 + w33 * w32)) + tau * w32)],
        [2.0 * ((a3 * b1 - (w11 * w13 + w12 * w23 + w13 * w33)) + tau * w13),
         2.0 * ((a3 * b2 - (w21 * w13 + w22 * w23 + w23 * w33)) + tau * w23),
         2.0 * ((a3 * b3 - o33) + tau * w33) - p],
    ]
    alpha_omega = [a1 * w11 + a2 * w21 + a3 * w31,
                   a1 * w12 + a2 * w22 + a3 * w32,
                   a1 * w13 + a2 * w23 + a3 * w33]
    omega_beta = [w11 * b1 + w12 * b2 + w13 * b3,
                  w21 * b1 + w22 * b2 + w23 * b3,
                  w31 * b1 + w32 * b2 + w33 * b3]
    return alpha_omega, omega_beta, w_rows


def _cofactors(w):
    """The rows of the cofactor matrix C of omega, adj omega = C^T, from the
    rows of omega as :func:`_derive_kernel` takes them."""
    (w11, w12, w13), (w21, w22, w23), (w31, w32, w33) = w
    return [[w22 * w33 - w23 * w32, w23 * w31 - w21 * w33, w21 * w32 - w22 * w31],
            [w32 * w13 - w33 * w12, w33 * w11 - w31 * w13, w31 * w12 - w32 * w11],
            [w12 * w23 - w13 * w22, w13 * w21 - w11 * w23, w11 * w22 - w12 * w21]]


def _derive_kernel(a, b, w, sqrt) -> DerivedCoefficients:
    """Every field of :class:`DerivedCoefficients` as straight-line arithmetic.

    ``a`` and ``b`` hold the three components of alpha and beta, ``w`` the
    three rows of omega.  The components are Python floats for one set
    (``sqrt`` = math.sqrt) or arrays over the batch axes (np.sqrt).  A
    batch may give the components that are the same for every item as
    Python floats, which broadcast, and through :func:`_derive_components`
    its structural zeros as ``_ZERO``.  Each field is the same sequence of
    IEEE + - * / sqrt and exact selections in every case, so batch items and
    single sets carry the same bits whatever the memory layout or the BLAS
    build, and a field that no batch component reaches stays a scalar.
    The constraint gates are decided here, at ``DEFAULT_TOL``.
    """
    a1, a2, a3 = a
    b1, b2, b3 = b
    (w11, w12, w13), (w21, w22, w23), (w31, w32, w33) = w

    al_sq = a1 * a1 + a2 * a2 + a3 * a3
    be_sq = b1 * b1 + b2 * b2 + b3 * b3
    om_sq = (w11 * w11 + w12 * w12 + w13 * w13 + w21 * w21 + w22 * w22
             + w23 * w23 + w31 * w31 + w32 * w32 + w33 * w33)
    om_norm = sqrt(om_sq)

    # |det omega| / |adj omega| = (1/s1^2 + 1/s2^2 + 1/s3^2)^(-1/2) over the
    # singular values, between s3/sqrt(3) and s3, so the residual measures
    # the smallest singular value against |omega|.  A vanishing adjugate
    # (rank <= 1) is singular whatever det's round-off.  det omega is taken
    # after the Householder reflection that maps the first column x onto
    # -sign(x_1) |x| e_1, as sign(x_1) |x| det B of the 2x2 block B left
    # below it.  That is backward stable, so the residual's error is a few
    # eps; a cofactor expansion errs by eps |omega|^3, as much as det itself
    # on a rounded rank-one omega.  The cofactors give |adj omega| and
    # beta^T adj(omega) alpha = sum_ij alpha_i C_ij beta_j.
    nx = sqrt(w11 * w11 + w21 * w21 + w31 * w31)
    sx = _where(w11 < 0.0, -1.0, 1.0)
    v1 = w11 + sx * nx
    vv = v1 * v1 + w21 * w21 + w31 * w31
    vv = _where(vv > 0.0, vv, math.inf)
    f2 = 2.0 * (v1 * w12 + w21 * w22 + w31 * w32) / vv
    f3 = 2.0 * (v1 * w13 + w21 * w23 + w31 * w33) / vv
    det_omega = sx * nx * (
        (w22 - f2 * w21) * (w33 - f3 * w31) - (w23 - f3 * w21) * (w32 - f2 * w31)
    )
    del nx, sx, v1, vv, f2, f3
    (c11, c12, c13), (c21, c22, c23), (c31, c32, c33) = _cofactors(w)
    adj_sq = (c11 * c11 + c12 * c12 + c13 * c13 + c21 * c21 + c22 * c22
              + c23 * c23 + c31 * c31 + c32 * c32 + c33 * c33)
    beta_adj_alpha = (a1 * (c11 * b1 + c12 * b2 + c13 * b3)
                      + a2 * (c21 * b1 + c22 * b2 + c23 * b3)
                      + a3 * (c31 * b1 + c32 * b2 + c33 * b3))
    del c11, c12, c13, c21, c22, c23, c31, c32, c33
    adj_norm = sqrt(adj_sq)
    den = om_norm * adj_norm
    singular_residual = abs(det_omega) / _where(den > 0.0, den, math.inf)
    del adj_sq, den

    # phi = |W|_F^2, and the contractions alpha.omega and omega.beta: the
    # constraint residuals, and half of Ht^2's b and a (scaling by 4 is exact).
    (ra1, ra2, ra3), (rb1, rb2, rb3), w_rows = _ht2_parts(a, b, w)
    (m11, m12, m13), (m21, m22, m23), (m31, m32, m33) = w_rows
    phi = (m11 * m11 + m12 * m12 + m13 * m13 + m21 * m21 + m22 * m22
           + m23 * m23 + m31 * m31 + m32 * m32 + m33 * m33)
    ra = ra1 * ra1 + ra2 * ra2 + ra3 * ra3
    rb = rb1 * rb1 + rb2 * rb2 + rb3 * rb3
    s_cubic = ra1 * b1 + ra2 * b2 + ra3 * b3
    del ra1, ra2, ra3, rb1, rb2, rb3
    aa, bb = 4.0 * rb, 4.0 * ra
    theta = (aa + bb) + phi

    # A vanishing constrained vector leaves the secular quartic's linear
    # term -8(s - det omega), so omega must be singular as well; for a
    # non-negligible vector that follows from the contraction itself.
    singular = singular_residual <= DEFAULT_TOL
    alpha_residual, beta_residual = sqrt(ra), sqrt(rb)
    alpha_null = (alpha_residual <= DEFAULT_TOL * (om_norm * sqrt(al_sq) + _TINY)) & singular
    beta_null = (beta_residual <= DEFAULT_TOL * (om_norm * sqrt(be_sq) + _TINY)) & singular

    # |b|^2 = 4 alpha.omega.omega^T.alpha enters when omega.beta = 0,
    # |a|^2 = 4 beta.omega^T.omega.beta when alpha.omega = 0; on the
    # overlap both terms vanish identically.
    theta_phi = phi + _where(beta_null, bb, 0.0) + _where(alpha_null, aa, 0.0)

    # One instance-dict update, without __init__'s argument binding.
    d = object.__new__(DerivedCoefficients)
    d.__dict__.update(
        v_quad=al_sq + be_sq + om_sq,
        theta=theta,
        phi=phi,
        theta_phi=theta_phi,
        s_cubic=s_cubic,
        beta_adj_alpha=beta_adj_alpha,
        det_omega=det_omega,
        adj_norm=adj_norm,
        singular_residual=singular_residual,
        alpha_null=alpha_null,
        beta_null=beta_null,
        alpha_residual=alpha_residual,
        beta_residual=beta_residual,
        alpha_sq=al_sq,
        beta_sq=be_sq,
        omega_sq=om_sq,
    )
    return d


def _sqrt_batch(x):
    """np.sqrt that passes the structural zero through."""
    return x if x is _ZERO else np.sqrt(x)


def _derive_components(a, b, w) -> DerivedCoefficients:
    """:func:`_derive_kernel` on a batch's components, any of which may be the
    structural zero ``_ZERO``; a field the kernel leaves as ``_ZERO`` reads
    0.0 in the record, so no record field holds it."""
    d = _derive_kernel(a, b, w, _sqrt_batch)
    state = d.__dict__
    for name, value in state.items():
        if value is _ZERO:
            state[name] = 0.0
    return d


def even_spectrum(d: DerivedCoefficients):
    """(sqrt(Tp), E1, E2) of constrained sets, E_n = sqrt(V + (-1)^n sqrt(Tp)).

    The spectrum is upsilon +- E1, upsilon +- E2.  Works on the scalar or the
    batched fields of ``d`` alike; raises ConstraintError unless every item
    meets alpha.omega = 0 or omega.beta = 0 within ``DEFAULT_TOL``.
    """
    # One set's fields are scalars, for which math's functions cost a tenth
    # of numpy's ufunc calls; both are correctly rounded, so the bits agree.
    if isinstance(d.v_quad, float):
        sqrt, maximum, constrained = math.sqrt, max, d.alpha_null or d.beta_null
    else:
        sqrt, maximum = np.sqrt, np.maximum
        constrained = np.logical_or(d.alpha_null, d.beta_null).all()
    if not constrained:
        raise ConstraintError(_unconstrained_message(d))
    sq = sqrt(maximum(d.theta_phi, 0.0))
    e1 = sqrt(maximum(d.v_quad - sq, 0.0))
    e2 = sqrt(d.v_quad + sq)
    return sq, e1, e2


def _degenerate_branch(d: DerivedCoefficients, sq, n: int):
    """(sqrt(Tp) degenerate, E_n degenerate) of branch n, the one rule that
    refuses the even closed forms, for ``sq`` = sqrt(Tp) of
    :func:`even_spectrum`.

    sqrt(Tp) is degenerate at most ``DEGENERACY_RTOL`` (1 + V), and E_n
    when E_n^2 = V + (-1)^n sqrt(Tp), compared before the square root
    rounds it, is at most (``DEGENERACY_RTOL`` (1 + sqrt(V)))^2.  Since
    E1 <= E2, branch 1 is refused whenever branch 2 is.  Python bools for
    one set's Python floats, boolean arrays for a batch.
    """
    sqrt = math.sqrt if isinstance(d.v_quad, float) else np.sqrt
    bound = DEGENERACY_RTOL * (1.0 + sqrt(d.v_quad))
    return sq <= DEGENERACY_RTOL * (1.0 + d.v_quad), d.v_quad + (-1) ** n * sq <= bound * bound


def _unconstrained_message(d: DerivedCoefficients) -> str:
    """The error of :func:`even_spectrum`, with classify's relative residuals
    of the first set of ``d`` that meets neither constraint."""
    k = int(np.argmin(np.logical_or(d.alpha_null, d.beta_null)))
    # A field that no batch component reaches is one scalar for every item.
    pick = lambda x: np.ravel(x)[k].item() if np.ndim(x) else float(x)
    om_norm = math.sqrt(pick(d.omega_sq))
    res_a = _ratio(pick(d.alpha_residual), om_norm * math.sqrt(pick(d.alpha_sq)))
    res_b = _ratio(pick(d.beta_residual), om_norm * math.sqrt(pick(d.beta_sq)))
    return (
        "neither alpha.omega = 0 nor omega.beta = 0 holds within tolerance: "
        f"alpha.omega residual {res_a:.3e}, omega.beta residual {res_b:.3e}, "
        f"det_omega residual {pick(d.singular_residual):.3e}"
    )


def _ratio(num: float, den: float) -> float:
    """num/den with the convention 0/0 = 0 (a vanishing scale has no defect)."""
    return float(num / den) if den > 0.0 else 0.0
