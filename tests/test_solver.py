import numpy as np
import pytest

from su2pair import _invariants, hamiltonian, solver
from su2pair.entanglement import eigenstate_concurrence_closed_form
from su2pair.errors import (
    ConstraintError,
    FactorizationError,
    InvariantViolation,
    NonHermitianError,
)
from su2pair.hamiltonian import (
    DEFAULT_TOL,
    CaseKind,
    CoefficientSet,
    classify,
    derive,
    derive_arrays,
    fano_compose,
    rotate_set,
)
from su2pair._invariants import even_spectrum
from su2pair.oracle import eig_hermitian
from su2pair.pauli import pauli
from su2pair.quartic import solve_quartic
from su2pair.sampling import (
    dyadic_set_from_factors,
    random_coefficient_set,
    random_dyadic_set,
    random_entangled_canonical,
    random_rotation,
    random_separable_factors,
)
from su2pair.solver import (
    Eigensystem,
    SolveMethod,
    Su2Factor,
    _oracle_eigensystem,
    factor_dyadic,
    secular_coefficients,
    solve,
    solve_entangled,
    solve_separable,
)
from su2pair.verify import _match_oracle

from references import product_matrix, scaled

ENTANGLED_EXAMPLE = CoefficientSet(0.0, (0, 0, 1), (0, 0, 0), np.diag([1.0, 1.0, 0.0]))


def assert_eigensystem_contracts(es: Eigensystem, h: np.ndarray):
    res = es.residuals(h)
    assert res["completeness"] <= 1e-9
    assert res["trace"] <= 1e-10
    assert res["eigen"] <= 1e-8
    assert res["commutator"] <= 1e-9


def oracle_sorted(h):
    return np.sort(eig_hermitian(h).eigenvalues)


class TestSecularCoefficients:
    def test_zero_set(self):
        d = derive(CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.zeros((3, 3))))
        coeffs = secular_coefficients(d)
        assert coeffs == (1.0, 0.0, 0.0, 0.0, 0.0)
        assert np.max(np.abs(solve_quartic(*coeffs))) <= 1e-12

    def test_diagonal_dyadic_example(self):
        """kron(I + s3, 2I + s3) = diag(6,2,0,0); shifted roots {4,0,-2,-2}."""
        c = dyadic_set_from_factors(Su2Factor(1, (0, 0, 1)), Su2Factor(2, (0, 0, 1)))
        roots = solve_quartic(*secular_coefficients(derive(c)))
        assert np.allclose(np.sort(roots.real), [-2, -2, 0, 4], atol=1e-8)
        assert np.allclose(np.sort(roots.real) + c.upsilon, [0, 0, 2, 6], atol=1e-8)

    def test_exchange_operator(self):
        """sum_i s_i (x) s_i has det(omega) = 1 and the uneven spectrum
        {1, 1, 1, -3}: its quartic is (x - 1)^3 (x + 3)."""
        d = derive(CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.eye(3)))
        coeffs = secular_coefficients(d)
        assert coeffs == (1.0, 0.0, -6.0, 8.0, -3.0)
        # A triple root is resolved to about eps^(1/3) at worst.
        roots = np.sort(solve_quartic(*coeffs).real)
        assert np.max(np.abs(roots - [-3, 1, 1, 1])) <= 1e-5

    def test_roots_are_the_spectrum_of_every_set(self):
        """The quartic's roots plus upsilon are the spectrum of generic sets
        at scales 10^-3 .. 10^3, full-rank omega included."""
        rng = np.random.default_rng(2008)
        worst = 0.0
        for _ in range(1000):
            c = scaled(10.0 ** rng.uniform(-3, 3), random_coefficient_set(rng))
            want = np.linalg.eigvalsh(fano_compose(c))
            roots = solve_quartic(*secular_coefficients(derive(c)))
            err = np.max(np.abs(np.sort(roots.real) + c.upsilon - want))
            worst = max(worst, err / (1 + np.max(np.abs(want))))
        assert worst <= 1e-12

    def test_batch_items_equal_single_sets(self, rng):
        sets = [scaled(10.0 ** k, random_coefficient_set(rng)) for k in range(-3, 4)]
        sets.append(CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.eye(3)))
        batch = secular_coefficients(derive_arrays(
            [c.alpha for c in sets], [c.beta for c in sets], [c.omega for c in sets]
        ))
        for i, c in enumerate(sets):
            item = np.array([np.broadcast_to(x, (len(sets),))[i] for x in batch])
            assert item.tobytes() == np.array(secular_coefficients(derive(c))).tobytes()

    def test_rank_two_diagonal_with_fields_is_exact(self, rng):
        """det(omega) = 0 keeps the quartic exact even at rank two."""
        for _ in range(50):
            om = np.diag([rng.normal(), rng.normal(), 0.0])
            c = CoefficientSet(rng.normal(), rng.normal(size=3), rng.normal(size=3), om)
            roots = solve_quartic(*secular_coefficients(derive(c)))
            want = oracle_sorted(fano_compose(c)) - c.upsilon
            assert np.max(np.abs(np.sort(roots.real) - want)) <= 1e-8 * (
                1 + np.max(np.abs(want))
            )


class TestFactorDyadic:
    def test_diagonal_example(self):
        c = dyadic_set_from_factors(Su2Factor(2, (0, 0, 1)), Su2Factor(3, (0, 0, 1)))
        f1, f2 = factor_dyadic(c)
        assert np.max(np.abs(product_matrix(f1, f2) - fano_compose(c))) <= 1e-10

    def test_generic_round_trip(self):
        a, b = np.array([1.0, 2.0, 0.0]), np.array([0.0, 1.0, 1.0])
        a0, b0 = 0.7, -1.2
        c = CoefficientSet(a0 * b0, b0 * a, a0 * b, np.outer(a, b))
        f1, f2 = factor_dyadic(c)
        assert np.max(np.abs(product_matrix(f1, f2) - fano_compose(c))) <= 1e-10

    def test_gauge_convention(self, rng):
        for _ in range(20):
            c = random_dyadic_set(rng)
            f1, f2 = factor_dyadic(c)
            assert np.isclose(f1.norm, f2.norm)
            lead = np.argmax(np.abs(f1.vec))
            assert f1.vec[lead] > 0

    def test_rank_two_rejected(self):
        c = CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.diag([1.0, 2.0, 0.0]))
        with pytest.raises(FactorizationError):
            factor_dyadic(c)

    def test_zero_omega_scalar_factor(self):
        c = CoefficientSet(0.5, (0, 0, 0), (1.0, 0.0, 2.0), np.zeros((3, 3)))
        f1, f2 = factor_dyadic(c)
        assert np.max(np.abs(product_matrix(f1, f2) - fano_compose(c))) <= 1e-12

    def test_zero_omega_two_vectors_rejected(self):
        c = CoefficientSet(0.0, (1, 0, 0), (0, 1, 0), np.zeros((3, 3)))
        with pytest.raises(FactorizationError):
            factor_dyadic(c)

    def test_small_omega_beside_a_large_upsilon(self):
        """(100 + 0.01 s1) (x) (100 + 0.01 s1): omega is 1e-8 of the scale but
        all of the non-scalar part, so the set is a product."""
        c = CoefficientSet(1e4, (1, 0, 0), (1, 0, 0), 1e-4 * np.outer((1, 0, 0), (1, 0, 0)))
        assert classify(c).kind is CaseKind.SEPARABLE_DYADIC
        f1, f2 = factor_dyadic(c)
        h = fano_compose(c)
        assert np.max(np.abs(product_matrix(f1, f2) - h)) <= 1e-12 * np.max(np.abs(h))

    def test_upsilon_defect_is_measured_against_s1(self):
        """omega = 1e-12 e1 e1^T beside alpha = beta = 1e-5 e1 would need
        upsilon = (alpha.u)(beta.v) / s1 = 100, not 1: not a product."""
        c = CoefficientSet(1.0, (1e-5, 0, 0), (1e-5, 0, 0), 1e-12 * np.outer((1, 0, 0), (1, 0, 0)))
        assert classify(c).kind is not CaseKind.SEPARABLE_DYADIC
        with pytest.raises(FactorizationError):
            factor_dyadic(c)
        got = np.sort(solve(c).values.ravel())
        assert np.max(np.abs(got - oracle_sorted(fano_compose(c)))) <= 1e-14


def _separable_decision_sets(rng):
    """Product sets, product sets perturbed by 1e-15 to 1e-4, omega = 0
    sets and generic sets."""
    sets = [
        # Exactly separable, with omega below 1e-6 of the scale but not of
        # the non-scalar part: a product.
        CoefficientSet(1e4, (1, 0, 0), (1, 0, 0), 1e-4 * np.outer((1, 0, 0), (1, 0, 0))),
        # Rank one and aligned, but the factors would need upsilon = 100.
        CoefficientSet(1.0, (1e-5, 0, 0), (1e-5, 0, 0), 1e-12 * np.outer((1, 0, 0), (1, 0, 0))),
        # The first set with upsilon raised by 1e-2 of the scale: not a
        # product, though |upsilon s1 - (alpha.u)(beta.v)| is 1e-10 scale^2.
        CoefficientSet(1e4 + 100, (1, 0, 0), (1, 0, 0), 1e-4 * np.outer((1, 0, 0), (1, 0, 0))),
        CoefficientSet(0.5, (0, 0, 0), (1.0, 0.0, 2.0), np.zeros((3, 3))),
        CoefficientSet(0.0, (1, 0, 0), (0, 1, 0), np.zeros((3, 3))),
        CoefficientSet(0.0, (1e-11, 0, 0), (0, 1, 0), np.zeros((3, 3))),
    ]
    for eps in 10.0 ** np.arange(-15, -3):
        c = random_dyadic_set(rng)
        sets += [
            c,
            CoefficientSet(c.upsilon, c.alpha, c.beta, c.omega + eps * rng.normal(size=(3, 3))),
            CoefficientSet(c.upsilon, c.alpha + eps * rng.normal(size=3), c.beta, c.omega),
            CoefficientSet(c.upsilon + eps, c.alpha, c.beta, c.omega),
            CoefficientSet(c.upsilon, eps * rng.normal(size=3), c.beta, eps * c.omega),
            random_coefficient_set(rng),
        ]
    return sets


def _scaled(c: CoefficientSet, lam: float) -> CoefficientSet:
    return CoefficientSet(lam * c.upsilon, lam * c.alpha, lam * c.beta, lam * c.omega)


# Powers of two, so every scaled set is the unit-scale set exactly.
SCALES = [1.0, 2.0**-40, 2.0**40]
SCALE_IDS = ["unit", "2^-40", "2^40"]


class TestSeparableDecision:
    @pytest.mark.parametrize("scale", SCALES, ids=SCALE_IDS)
    def test_factor_dyadic_raises_exactly_off_the_separable_label(self, scale, rng):
        """The one fixed tolerance is relative: the label, and whether
        factor_dyadic raises, are the same at every exact rescaling."""
        for unit in _separable_decision_sets(rng):
            c = _scaled(unit, scale)
            separable = classify(c).kind is CaseKind.SEPARABLE_DYADIC
            assert separable == (classify(unit).kind is CaseKind.SEPARABLE_DYADIC), unit
            try:
                f1, f2 = factor_dyadic(c)
            except FactorizationError:
                assert not separable
            else:
                assert separable
                h = fano_compose(c)
                err = np.max(np.abs(product_matrix(f1, f2) - h))
                assert err <= 10 * DEFAULT_TOL * (1 + np.max(np.abs(h)))


def _near_singular_sets():
    """omega with singular values (1, eps, eps) or (1, 1e-3, eps) and a
    vanishing alpha, beta or both, in the canonical and a rotated frame."""
    rng = np.random.default_rng(11)
    r1, r2 = random_rotation(rng), random_rotation(rng)
    vec = np.array([0.3, -0.7, 0.5])
    for eps in (1e-5, 3e-5):
        for s2 in (eps, 1e-3):
            for zero in ("alpha", "beta", "both"):
                al = np.zeros(3) if zero in ("alpha", "both") else vec
                be = np.zeros(3) if zero in ("beta", "both") else vec
                c = CoefficientSet(0.2, al, be, np.diag([1.0, s2, eps]))
                yield c
                yield rotate_set(c, r1, r2)


class TestNearSingularOmega:
    """The constraint gate measures the smallest singular value of omega
    against |omega|: a cubic test |det omega| <= tol |omega|^3 admits the
    (1, eps, eps) sets, whose even spectrum is off by about eps."""

    @pytest.mark.parametrize("c", list(_near_singular_sets()))
    def test_spectrum_and_solve(self, c):
        h = fano_compose(c)
        e = np.linalg.eigvalsh(h)
        try:
            _, e1, e2 = even_spectrum(derive(c))
        except ConstraintError:
            pass
        else:
            even = c.upsilon + np.array([-e2, -e1, e1, e2])
            assert np.max(np.abs(even - e)) <= 1e-9 * (1 + np.max(np.abs(e)))
        es = solve(c)
        val_dev, proj_dev = _match_oracle(es, h)
        assert val_dev <= 1e-13
        if not es.degenerate:
            assert proj_dev <= 1e-13


class TestSolveSeparable:
    def test_diagonal_case(self):
        es = solve_separable(Su2Factor(1, (0, 0, 1)), Su2Factor(2, (0, 0, 1)))
        assert not es.degenerate
        assert np.allclose(np.sort(es.values.ravel()), [0, 0, 2, 6])
        # computational-basis projectors: m (n) = 2 is the +axis local state
        for (m, n), _, s in es.items():
            idx = 2 * (m == 1) + (n == 1)
            want = np.zeros((4, 4))
            want[idx, idx] = 1.0
            assert np.allclose(s, want, atol=1e-12)

    def test_xx_case(self):
        es = solve_separable(Su2Factor(0, (1, 0, 0)), Su2Factor(0, (1, 0, 0)))
        assert sorted(es.values.ravel()) == [-1, -1, 1, 1]
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        want = np.kron(np.outer(minus, minus), np.outer(minus, minus))
        assert np.allclose(es.state(1, 1), want, atol=1e-12)
        assert_eigensystem_contracts(es, np.kron(pauli(1), pauli(1)))

    def test_fully_degenerate_factor(self):
        es = solve_separable(Su2Factor(1, (0, 0, 0)), Su2Factor(1, (0, 0, 0)))
        assert es.degenerate
        assert np.allclose(es.values, 1.0)
        assert np.allclose(sum(s for _, _, s in es.items()), np.eye(4))

    def test_product_past_the_square_root_of_the_double_range(self):
        """1e155 s1 (x) s1: V = |omega|^2 overflows, but the omega = 0 test
        compares s1 with the hypot of alpha, beta and omega, so the product
        keeps its eigenvalues +-1e155 (it read four zeros)."""
        c = CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.diag([1e155, 0.0, 0.0]))
        es = solve(c)
        assert es.method is SolveMethod.SEPARABLE_CLOSED_FORM
        assert np.allclose(es.sorted_values(), [-1e155, -1e155, 1e155, 1e155], rtol=1e-15, atol=0)

    def test_label_convention(self, rng):
        """epsilon_mn = (a0 + (-1)^m a)(b0 + (-1)^n b) exactly."""
        for _ in range(20):
            f1, f2 = random_separable_factors(rng)
            es = solve_separable(f1, f2)
            for m in (1, 2):
                for n in (1, 2):
                    want = (f1.a0 + (-1) ** m * f1.norm) * (f2.a0 + (-1) ** n * f2.norm)
                    assert np.isclose(es.eigenvalue(m, n), want)

    def test_contracts_fuzz(self, rng):
        for _ in range(100):
            f1, f2 = random_separable_factors(rng)
            es = solve_separable(f1, f2)
            h = product_matrix(f1, f2)
            assert_eigensystem_contracts(es, h)
            assert np.max(np.abs(np.sort(es.values.ravel()) - oracle_sorted(h))) <= 1e-9 * (
                1 + np.max(np.abs(es.values))
            )


class TestSolveEntangled:
    def test_reference_example(self):
        es = solve_entangled(ENTANGLED_EXAMPLE)
        assert es.method is SolveMethod.ENTANGLED_CLOSED_FORM
        r5 = np.sqrt(5)
        assert np.allclose(np.sort(es.values.ravel()), [-r5, -1, 1, r5])
        h = fano_compose(ENTANGLED_EXAMPLE)
        assert_eigensystem_contracts(es, h)
        for _, _, s in es.items():
            purity = np.einsum("ab,ba->", s, s).real
            assert abs(purity - 1) <= 1e-8

    def test_two_sided_example(self):
        c = CoefficientSet(0.0, (0, 0, 1), (0, 0, 2), np.diag([1.0, 1.0, 0.0]))
        es = solve_entangled(c)
        r5 = np.sqrt(5)
        assert np.allclose(np.sort(es.values.ravel()), [-3, -r5, r5, 3], atol=1e-10)
        assert_eigensystem_contracts(es, fano_compose(c))

    def test_label_pattern(self, rng):
        """epsilon_mn = upsilon + (-1)^m E_n with E_2 >= E_1."""
        for _ in range(20):
            c = random_entangled_canonical(rng, "alpha")
            es = solve_entangled(c)
            assert es.eigenvalue(2, 2) >= es.eigenvalue(2, 1) >= es.eigenvalue(1, 1)
            assert es.eigenvalue(1, 1) >= es.eigenvalue(1, 2)
            assert np.isclose(
                es.eigenvalue(2, 2) + es.eigenvalue(1, 2), 2 * c.upsilon, atol=1e-9
            )

    def test_orthonormality_appendix_suite(self, rng):
        """Tr[rho_mn rho_pq] = delta_mp delta_nq over 500 random sets."""
        for k in range(500):
            branch = ("alpha", "beta", "both")[k % 3]
            c = random_entangled_canonical(rng, branch)
            es = solve_entangled(c)
            states = [s for _, _, s in es.items()]
            for i, si in enumerate(states):
                assert abs(np.trace(si).real - 1) <= 1e-10
                for j, sj in enumerate(states):
                    want = 1.0 if i == j else 0.0
                    got = np.einsum("ab,ba->", si, sj).real
                    assert abs(got - want) <= 1e-8

    def test_oracle_match_fuzz(self, rng):
        for _ in range(200):
            c = random_entangled_canonical(rng, "alpha")
            es = solve_entangled(c)
            h = fano_compose(c)
            assert_eigensystem_contracts(es, h)
            assert np.max(
                np.abs(np.sort(es.values.ravel()) - oracle_sorted(h))
            ) <= 1e-9 * (1 + np.max(np.abs(es.values)))

    def test_degenerate_theta_phi_falls_back(self):
        c = CoefficientSet(0.0, (0, 0, 1), (0, 0, 0), np.diag([1.0, 0.0, 0.0]))
        es = solve_entangled(c)
        assert es.method is SolveMethod.ORACLE_NUMERIC
        assert es.degenerate
        r2 = np.sqrt(2)
        assert np.allclose(np.sort(es.values.ravel()), [-r2, -r2, r2, r2])
        assert np.allclose(sum(s for _, _, s in es.items()), np.eye(4), atol=1e-9)

    def test_degenerate_e1_falls_back(self):
        c = CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.diag([1.0, 1.0, 0.0]))
        es = solve_entangled(c)
        assert es.degenerate
        assert np.allclose(np.sort(es.values.ravel()), [-2, 0, 0, 2])

    def test_near_degenerate_pair_takes_the_closed_form(self):
        """omega = diag(10, 5.2e-8, 0) has sqrt(Tp) = 1.04e-6, above its
        degeneracy bound 1.01e-6, so the closed-form concurrence exists and
        solve keeps the two level pairs 1.04e-7 apart instead of
        merging them in the oracle."""
        c = CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.diag([10.0, 5.2e-8, 0.0]))
        assert eigenstate_concurrence_closed_form(c, 2, 1) == 1.0
        es = solve(c)
        assert (es.method, es.degenerate) == (SolveMethod.ENTANGLED_CLOSED_FORM, False)
        assert np.allclose(es.values, [[-10 + 5.2e-8, -10 - 5.2e-8], [10 - 5.2e-8, 10 + 5.2e-8]],
                           rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0])
    def test_solve_refuses_exactly_where_the_concurrence_does(self, scale):
        """One degeneracy rule: solve takes the entangled closed form exactly
        where the closed-form concurrence of branch n = 1 raises nothing, on
        either m.  omega = diag(s, eps, 0) has sqrt(Tp) = 2 s eps, so eps is
        drawn within 5% of DEGENERACY_RTOL (1 + s^2) / (2 s), where sqrt(Tp)
        meets its bound, and both sides of it are reached."""
        rng = np.random.default_rng(int(10 * scale))
        threshold = _invariants.DEGENERACY_RTOL * (1.0 + scale * scale) / (2.0 * scale)
        routes = set()
        for eps in threshold * (1.0 + rng.uniform(-0.05, 0.05, 60)):
            c = CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.diag([scale, eps, 0.0]))
            closed = solve(c).method is SolveMethod.ENTANGLED_CLOSED_FORM
            for m in (1, 2):
                try:
                    eigenstate_concurrence_closed_form(c, m, 1)
                except InvariantViolation:
                    assert not closed, (eps, m)
                else:
                    assert closed, (eps, m)
            routes.add(closed)
        assert routes == {False, True}

    def test_unconstrained_rejected(self):
        c = CoefficientSet(0.3, (1, 2, 3), (3, 1, 2), np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(ConstraintError):
            solve_entangled(c)


class TestSolveDispatch:
    def test_method_tags(self, rng):
        assert solve(random_dyadic_set(rng)).method is SolveMethod.SEPARABLE_CLOSED_FORM
        assert (
            solve(random_entangled_canonical(rng, "alpha")).method
            is SolveMethod.ENTANGLED_CLOSED_FORM
        )
        # Diagonal omega keeps its label but takes the dense route.
        diag = CoefficientSet(0.3, (1, 2, 3), (3, 1, 2), np.diag([1.0, 2.0, 0.0]))
        assert solve(diag).method is SolveMethod.ORACLE_NUMERIC
        assert solve(random_coefficient_set(rng)).method is SolveMethod.ORACLE_NUMERIC

    def test_zero_set(self):
        es = solve(CoefficientSet(0.7, (0, 0, 0), (0, 0, 0), np.zeros((3, 3))))
        assert np.allclose(es.values, 0.7)

    def test_general_oracle_match(self, rng):
        for _ in range(100):
            c = random_coefficient_set(rng)
            es = solve(c)
            h = fano_compose(c)
            assert np.max(
                np.abs(np.sort(es.values.ravel()) - oracle_sorted(h))
            ) <= 1e-9 * (1 + np.max(np.abs(es.values)))
            assert_eigensystem_contracts(es, h)

    def test_full_rank_diagonal_falls_back_to_oracle(self):
        """Exchange operator: label diagonal, but det != 0 forces the oracle."""
        c = CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.eye(3))
        es = solve(c)
        assert es.method is SolveMethod.ORACLE_NUMERIC
        assert np.allclose(np.sort(es.values.ravel()), [-3, 1, 1, 1])
        assert es.degenerate

    def test_rotated_constrained_uses_closed_form(self, rng):
        for _ in range(30):
            c = random_entangled_canonical(rng, "alpha")
            rot = rotate_set(c, random_rotation(rng), random_rotation(rng))
            es = solve(rot)
            assert es.method is SolveMethod.ENTANGLED_CLOSED_FORM
            assert_eigensystem_contracts(es, fano_compose(rot))
            want = np.sort(solve_entangled(c).values.ravel())
            assert np.max(np.abs(np.sort(es.values.ravel()) - want)) <= 1e-9 * (
                1 + np.max(np.abs(want))
            )

    def test_oracle_guard_runs_exactly_where_v_quad_is_not_finite(self, rng, monkeypatch):
        """The oracle route skips require_hermitian on fano_compose's matrix
        where the derived v_quad is finite: every entry is then finite and
        the matrix exactly Hermitian.  Past that the guard still runs: a
        composition that overflows raises NonHermitianError, and a finite
        one (a general set at 1e200) is solved."""
        calls, require_hermitian = [], solver.require_hermitian

        def counted(h, what="matrix"):
            calls.append(what)
            return require_hermitian(h, what)

        monkeypatch.setattr(solver, "require_hermitian", counted)
        for _ in range(20):
            c = random_coefficient_set(rng)
            assert solve(c).method is SolveMethod.ORACLE_NUMERIC
        assert calls == []

        # alpha_3 = beta_3 = 1e308 and omega = 1e308 I: the diagonal entries
        # sum three of them.  (upsilon = alpha_3 = 1e308 is a product set.)
        overflow = CoefficientSet(0.0, (0, 0, 1e308), (0, 0, 1e308), 1e308 * np.eye(3))
        assert classify(overflow).kind is CaseKind.GENERAL
        with np.errstate(over="ignore"), pytest.raises(NonHermitianError, match="non-finite"):
            solve(overflow)
        assert calls == ["eig_hermitian input"]

        x = 1e200 * rng.normal(size=(4, 4))
        large = CoefficientSet(x[0, 0], x[1:, 0], x[0, 1:], x[1:, 1:])
        assert classify(large).kind is CaseKind.GENERAL and derive(large).v_quad == np.inf
        es = solve(large)
        assert calls == ["eig_hermitian input"] * 2
        assert es.method is SolveMethod.ORACLE_NUMERIC
        assert np.isfinite(es.values).all() and np.isfinite(es.states).all()
        want = np.sort(np.linalg.eigvalsh(fano_compose(large)))
        assert np.max(np.abs(np.sort(es.values.ravel()) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_degenerate_fallback_checks_hermiticity_as_solve_does(self, monkeypatch):
        """solve_entangled's oracle fallback composes a set with finite
        v_quad, which is exactly Hermitian, so it skips require_hermitian
        and keeps the bits of the checked matrix's eigensystem."""
        calls, require_hermitian = [], solver.require_hermitian

        def counted(h, what="matrix"):
            calls.append(what)
            return require_hermitian(h, what)

        monkeypatch.setattr(solver, "require_hermitian", counted)
        labels = ((1, 2), (1, 1), (2, 1), (2, 2))
        # Degenerate sqrt(Tp), and degenerate E1.
        for alpha, omega in (((0, 0, 1), [1.0, 0.0, 0.0]), ((0, 0, 0), [1.0, 1.0, 0.0])):
            c = CoefficientSet(0.0, alpha, (0, 0, 0), np.diag(omega))
            es = solve_entangled(c)
            assert calls == [] and es.method is SolveMethod.ORACLE_NUMERIC
            want = solver._oracle_eigensystem(require_hermitian(fano_compose(c)), labels)
            assert es.values.tobytes() == want.values.tobytes()
            assert es.states.tobytes() == want.states.tobytes()
            assert es.degenerate is want.degenerate

    def test_oracle_degenerate_projectors(self):
        h_coeffs = CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.eye(3))
        es = solve(h_coeffs)
        # triplet eigenspace split evenly: three labels share P/3, trace 1 each
        states = [s for _, _, s in es.items()]
        assert all(abs(np.trace(s).real - 1.0) <= 1e-10 for s in states)
        assert np.allclose(sum(states), np.eye(4), atol=1e-10)


def _route_sets():
    """Sets for every route of solve: product sets (omega = 0 among them),
    constrained sets on each branch, canonical and rotated, a constrained
    set whose closed form declines to the oracle, and general sets,
    diagonal omega among them."""
    rng = np.random.default_rng(29)
    sets = [
        CoefficientSet(0.5, (0, 0, 0), (1.0, 0.0, 2.0), np.zeros((3, 3))),
        CoefficientSet(1e4, (1, 0, 0), (1, 0, 0), 1e-4 * np.outer((1, 0, 0), (1, 0, 0))),
        ENTANGLED_EXAMPLE,
        CoefficientSet(0.0, (0, 0, 1), (0, 0, 0), np.diag([1.0, 0.0, 0.0])),
        CoefficientSet(0.3, (1, 2, 3), (3, 1, 2), np.diag([1.0, 2.0, 3.0])),
        CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.eye(3)),
    ]
    for _ in range(10):
        sets.append(random_dyadic_set(rng))
        for branch in ("alpha", "beta", "both"):
            c = random_entangled_canonical(rng, branch)
            sets += [c, rotate_set(c, random_rotation(rng), random_rotation(rng))]
        sets.append(random_coefficient_set(rng))
    return sets


def _assert_same_eigensystem(got: Eigensystem, want: Eigensystem):
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.states, want.states)
    assert (got.method, got.degenerate) == (want.method, want.degenerate)


class TestSolveOnePass:
    def test_route_sets_reach_every_route(self):
        sets = _route_sets()
        labels = {classify(c).kind for c in sets}
        methods = {(es.method, es.degenerate) for es in map(solve, sets)}
        assert labels == set(CaseKind)
        assert methods >= {
            (SolveMethod.SEPARABLE_CLOSED_FORM, False),
            (SolveMethod.ENTANGLED_CLOSED_FORM, False),
            (SolveMethod.ORACLE_NUMERIC, True),
            (SolveMethod.ORACLE_NUMERIC, False),
        }

    @pytest.mark.parametrize("scale", SCALES, ids=SCALE_IDS)
    def test_solve_equals_the_public_routes_bitwise(self, scale):
        for unit in _route_sets():
            c = _scaled(unit, scale)
            kind = classify(c).kind
            assert kind is classify(unit).kind, unit
            if kind is CaseKind.SEPARABLE_DYADIC:
                want = solve_separable(*factor_dyadic(c))
            elif kind is CaseKind.ENTANGLED_CONSTRAINED:
                want = solve_entangled(c)
            else:
                want = _oracle_eigensystem(fano_compose(c))
            _assert_same_eigensystem(solve(c), want)

    def test_one_derive_and_one_svd_per_solve(self, monkeypatch):
        """derive and derive_arrays both run the one derive kernel; it is
        counted.  Only a set whose omega may be rank one, a candidate for the
        product form, has its omega decomposed."""
        sets = _route_sets()
        candidates = [np.linalg.matrix_rank(c.omega) <= 1 for c in sets]
        assert 0 < sum(candidates) < len(sets)
        calls = {"derive": 0, "svd": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            hamiltonian, "_derive_kernel", counted("derive", hamiltonian._derive_kernel)
        )
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        for c, candidate in zip(sets, candidates):
            calls.update(derive=0, svd=0)
            solve(c)
            assert calls == {"derive": 1, "svd": int(candidate)}, c
