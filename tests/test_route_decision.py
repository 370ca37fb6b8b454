"""The route decision against an always-SVD reference, near its rank-one screen.

`hamiltonian._decide` decomposes omega only when |adj omega|_F does not rule
out rank one.  Every draw here sits near that screen or the product test
behind it, and the decision, `classify` and `solve` must equal, bit for bit,
a reference that runs `_dyadic_residuals` (and so the SVD) on every set.
"""

import math
from dataclasses import fields

import numpy as np

from su2pair._invariants import _ratio
from su2pair.hamiltonian import (
    DEFAULT_TOL,
    Branch,
    CaseKind,
    CoefficientSet,
    _decide,
    _dyadic_residuals,
    _factor_parts,
    classify,
    derive,
    fano_compose,
)
from su2pair.sampling import random_rotation
from su2pair.solver import _oracle_eigensystem, _solve_entangled, _solve_product, solve

# s2/s1 of the drawn omega, in units of DEFAULT_TOL.
RATIOS = (0.1, 1.0, math.sqrt(3.0), 10.0)


def _reference(c: CoefficientSet):
    """(kind, branch, residuals, leading) of classify with the SVD on every set."""
    d = derive(c)
    residuals, leading = _dyadic_residuals(c, d)
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
    branch = None
    if residuals["rank1"] <= DEFAULT_TOL and residuals["factor_consistency"] <= DEFAULT_TOL:
        kind = CaseKind.SEPARABLE_DYADIC
    elif d.alpha_null or d.beta_null:
        kind = CaseKind.ENTANGLED_CONSTRAINED
        if d.alpha_null and d.beta_null:
            branch = Branch.BOTH
        else:
            branch = Branch.ALPHA_NULL if d.alpha_null else Branch.BETA_NULL
    else:
        kind = CaseKind.GENERAL
    return kind, branch, residuals, leading


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


# Every field of DerivedCoefficients, in field order.
_DERIVED_FIELDS = (
    "v_quad", "theta", "phi", "theta_phi", "s_cubic", "beta_adj_alpha", "det_omega",
    "adj_norm", "singular_residual", "alpha_null", "beta_null", "alpha_residual",
    "beta_residual", "alpha_sq", "beta_sq", "omega_sq",
)


def _derived_bits(d) -> list[bytes]:
    assert _DERIVED_FIELDS == tuple(f.name for f in fields(d))
    return [_bits(getattr(d, name)) for name in _DERIVED_FIELDS]


def _same_leading(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return all(_bits(g) == _bits(w) for g, w in zip(got, want))


def _outcome(fn, *args):
    """An eigensystem's bits, or the type of the error it raised."""
    try:
        es = fn(*args)
    except Exception as exc:  # the reference must raise the same
        return type(exc)
    return es.values.tobytes(), es.states.tobytes(), es.method, es.degenerate


def _reference_solve(c: CoefficientSet, kind: CaseKind, leading):
    """Each route run on the reference's label and singular triple."""
    if kind is CaseKind.SEPARABLE_DYADIC:
        return _solve_product(*_factor_parts(c, leading))
    if kind is CaseKind.ENTANGLED_CONSTRAINED:
        return _solve_entangled(c, derive(c))
    return _oracle_eigensystem(fano_compose(c))


def _check(c: CoefficientSet) -> bool:
    """Assert the decision, classify and solve equal the reference; returns
    whether the decision decomposed omega."""
    kind, branch, residuals, leading = _reference(c)
    got_kind, got_branch, d, got_leading, dyadic = _decide(c)
    assert (got_kind, got_branch) == (kind, branch), c
    assert _derived_bits(d) == _derived_bits(derive(c))
    if dyadic is not None:
        assert [_bits(v) for v in dyadic.values()] == [
            _bits(residuals[k]) for k in dyadic
        ], c
        assert _same_leading(got_leading, leading), c

    label = classify(c)
    assert (label.kind, label.branch) == (kind, branch), c
    assert list(label.residuals) == list(residuals)
    assert [_bits(v) for v in label.residuals.values()] == [
        _bits(v) for v in residuals.values()
    ], c

    want = _outcome(_reference_solve, c, kind, leading)
    assert _outcome(solve, c) == want, c
    return dyadic is not None


def _omega(rng, s1: float, r: float, third: float) -> np.ndarray:
    """s1 U diag(1, r, third r) V^T with U, V random rotations."""
    return s1 * (random_rotation(rng) * [1.0, r, third * r]) @ random_rotation(rng).T


def _product_terms(rng, omega: np.ndarray):
    """upsilon, alpha, beta making omega's leading singular triple a product."""
    u_mat, svals, vt = np.linalg.svd(omega)
    a, b = rng.normal(size=2)
    return a * b / svals[0], a * u_mat[:, 0], b * vt[0]


def _ratio_draws(rng):
    """omega with s2/s1 at each of RATIOS times DEFAULT_TOL, s3 = s2, 0 or
    between; product terms, none at all, or random local terms."""
    for f in RATIOS:
        for third in (1.0, 0.0, rng.uniform()):
            om = _omega(rng, 10.0 ** rng.uniform(-3, 3), f * DEFAULT_TOL, third)
            yield CoefficientSet(*_product_terms(rng, om), om)
            yield CoefficientSet(0.0, np.zeros(3), np.zeros(3), om)
            yield CoefficientSet(rng.normal(), rng.normal(size=3), rng.normal(size=3), om)


def _special_draws(rng):
    # Exact products with a large upsilon: (a0 + a.sigma) (x) (b0 + b.sigma).
    a0, b0 = 100.0 * rng.uniform(0.5, 2.0, size=2)
    a, b = 1e-2 * rng.normal(size=3), 1e-2 * rng.normal(size=3)
    yield CoefficientSet(a0 * b0, b0 * a, a0 * b, np.outer(a, b))
    yield CoefficientSet(1e4, (1, 0, 0), (1, 0, 0), 1e-4 * np.outer((1, 0, 0), (1, 0, 0)))
    # omega = 0, with one local vector zero (a product) or neither.
    yield CoefficientSet(rng.normal(), np.zeros(3), rng.normal(size=3), np.zeros((3, 3)))
    yield CoefficientSet(rng.normal(), rng.normal(size=3), rng.normal(size=3), np.zeros((3, 3)))
    # s1 near DEFAULT_TOL sqrt(V), the zero-omega shortcut of the product test.
    al, be = rng.normal(size=3), np.zeros(3)
    for f in (0.5, 1.0, 2.0):
        s1 = f * DEFAULT_TOL * math.sqrt(al @ al)
        for r in (0.0, 0.5):
            yield CoefficientSet(0.0, al, be, _omega(rng, s1, r, 1.0))
    # Near 1e+-160 (1e+160: |omega|^2 overflows), and 1e+-100, where
    # |adj omega|^2 overflows or underflows but |omega|^2 does not.
    om = _omega(rng, 1.0, 0.0, 0.0)
    product = CoefficientSet(*_product_terms(rng, om), om)
    general = CoefficientSet(rng.normal(), rng.normal(size=3), rng.normal(size=3), _omega(rng, 1.0, 0.5, 1.0))
    for scale in (1e160, 1e-160, 1e100, 1e-100):
        for c in (product, general):
            yield CoefficientSet(
                scale * c.upsilon, scale * c.alpha, scale * c.beta, scale * c.omega
            )
    # Underflow: omega = diag(s1, r s1, r s1) with r = DEFAULT_TOL and s1 such that
    # each nonzero cofactor squared, (r s1^2)^2, is 2.6e-324 to 3.3e-324 and
    # rounds up to the smallest subnormal, 4.9e-324: that inflates
    # |adj omega|_F by up to 1.4, past the sqrt(3/2) margin of the bound.
    for _ in range(8):
        s1 = math.sqrt(math.sqrt(3.0) * 1e-162 * rng.uniform(0.93, 1.04) / DEFAULT_TOL)
        s2 = DEFAULT_TOL * s1 * (1.0 - 2.0**-30)
        yield CoefficientSet(0.0, np.zeros(3), np.zeros(3), np.diag([s1, s2, s2]))


def test_decision_classify_and_solve_equal_the_always_svd_reference():
    rng = np.random.default_rng(2718)
    svd_side = screened = 0
    for _ in range(25):
        for c in _ratio_draws(rng):
            if _check(c):
                svd_side += 1
            else:
                screened += 1
    for _ in range(3):
        for c in _special_draws(rng):
            _check(c)
    # Both sides of the screen were reached near its bound.
    assert svd_side > 0 and screened > 0


def test_sets_at_the_product_test_boundary():
    """omega whose computed s2/s1 is within about 1e-6 of DEFAULT_TOL, on
    either side, so the set is a product by a hair or misses by one, and
    rounded rank-one omega, whose s2/s1 is a few eps: the round-off in
    |adj omega|_F and in the SVD must not let the screen take any product
    from the SVD."""
    rng = np.random.default_rng(31)
    products = others = 0
    for k in range(300):
        # omega with s2/s1 at DEFAULT_TOL (1 + 1e-6 u); rounded rank-one
        # omega and omega with s2/s1 a few eps; integer outer products with
        # entries of 2^-50 added.
        scale = 10.0 ** rng.uniform(-3, 3)
        edge = _omega(rng, scale, DEFAULT_TOL * (1.0 + 1e-6 * rng.uniform(-1, 1)), k % 2)
        rounded = _omega(rng, scale, (k % 3) * 2.0**-52, k % 2)
        nudged = np.outer(rng.integers(-3, 4, 3), rng.integers(-3, 4, 3))
        nudged = nudged + 2.0**-50 * rng.integers(-1, 2, (3, 3))
        for om in (edge, rounded, nudged):
            c = CoefficientSet(0.0, np.zeros(3), np.zeros(3), om)
            decomposed = _check(c)
            if _dyadic_residuals(c, derive(c))[0]["rank1"] <= DEFAULT_TOL:
                products += 1
                assert decomposed, om
            else:
                others += 1
    assert products > 500 and others > 100


def test_screen_spares_the_svd_only_where_omega_cannot_be_rank_one():
    """A full-rank omega skips the SVD; omega = 0, a rank-one omega and an
    |adj omega|_F that underflows (1e-100) or overflows (1e100, 1e160) do not."""
    rng = np.random.default_rng(5)
    full = CoefficientSet(0.0, np.zeros(3), np.zeros(3), _omega(rng, 1.0, 0.5, 1.0))
    assert _decide(full)[4] is None
    zero = CoefficientSet(1.0, (1, 0, 0), (0, 0, 0), np.zeros((3, 3)))
    rank_one = CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.outer((1, 2, 3), (3, 1, 2)))
    for c in (zero, rank_one):
        assert _decide(c)[4] is not None
    for scale in (1e-100, 1e100, 1e160):
        c = CoefficientSet(0.0, np.zeros(3), np.zeros(3), scale * full.omega)
        assert _decide(c)[4] is not None, scale

