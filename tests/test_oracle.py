import re

import numpy as np
import pytest

from su2pair.errors import DensityMatrixError, NonHermitianError
from su2pair.oracle import EIG_RTOL, eig_hermitian, wootters_concurrence
from su2pair.pauli import pauli_word

from references import (
    partial_trace,
    random_hermitian,
    random_mixed_density,
    random_pure_density,
    random_unitary,
    reconstruct,
    spin_flip,
    von_neumann_entropy,
)

BELL = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0


class TestEig:
    def test_diagonal(self):
        dec = eig_hermitian(np.diag([4.0, 3.0, 2.0, 1.0]))
        assert np.allclose(dec.eigenvalues, [4, 3, 2, 1])
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(4))

    def test_xx_word(self):
        dec = eig_hermitian(pauli_word(1, 1))
        assert np.allclose(dec.eigenvalues, [1, 1, -1, -1])

    def test_reconstruction_and_orthonormality(self, rng):
        for _ in range(1000):
            m = random_hermitian(rng, scale=float(rng.uniform(0.1, 5.0)))
            dec = eig_hermitian(m)
            bound = EIG_RTOL * (1 + np.max(np.abs(m)))
            assert np.max(np.abs(reconstruct(dec) - m)) <= bound
            v = dec.eigenvectors
            assert np.max(np.abs(v.conj().T @ v - np.eye(4))) <= EIG_RTOL
            assert np.all(np.diff(dec.eigenvalues) <= 1e-14)

    def test_deterministic(self, rng):
        m = random_hermitian(rng)
        a = eig_hermitian(m)
        b = eig_hermitian(m.copy())
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_rejects_non_hermitian(self, rng):
        with pytest.raises(NonHermitianError):
            eig_hermitian(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))

    @pytest.mark.parametrize("shape", [(2, 3), (4, 4, 2), (3,), (0, 0)])
    def test_refuses_what_is_no_square_matrix_by_its_shape(self, shape):
        """pauli.require_hermitian checks the shape before any arithmetic,
        so numpy's broadcast or linear-algebra errors do not leak."""
        with pytest.raises(ValueError, match=re.escape(f"square 2-D array, not of shape {shape}")):
            eig_hermitian(np.ones(shape))


# (T, C) of the golden general set's Gibbs states, C to 20 digits.
GENERAL_GIBBS_CONCURRENCE = (
    ("0.1", "0.60510924502289662178"),
    ("0.11937766417144366", "0.60510924502288921409"),
    ("0.14251026703029984", "0.60510924502159240999"),
    ("0.17012542798525895", "0.60510924492387280544"),
    ("0.2030917620904736", "0.60510924129985924347"),
    ("0.24244620170823286", "0.60510916733172298113"),
    ("0.2894266124716751", "0.60510825495504856885"),
    ("0.345510729459222", "0.60510089785880667232"),
    ("0.41246263829013524", "0.60505945976210796976"),
    ("0.49238826317067397", "0.60488705662086317571"),
    ("0.5878016072274913", "0.60433143330289218842"),
    ("0.701703828670383", "0.60288591834335539021"),
    ("0.837677640068292", "0.59973403121235893491"),
    ("1.0", "0.59376548740478839426"),
    ("1.1937766417144369", "0.58362826618710442201"),
    ("1.4251026703029983", "0.56779719568467558596"),
    ("1.7012542798525891", "0.54467907968877365862"),
    ("2.0309176209047357", "0.51264433158645669795"),
    ("2.424462017082328", "0.46991420635261313163"),
    ("2.894266124716751", "0.41485429650121770877"),
    ("3.4551072945922194", "0.34712959454386713639"),
    ("4.124626382901352", "0.26868959491663581183"),
    ("4.92388263170674", "0.18350701993326895186"),
    ("5.878016072274914", "0.096440241216686642649"),
    ("7.017038286703828", "0.012042925900454082655"),
)


class TestWootters:
    def test_bell_state(self):
        assert np.isclose(wootters_concurrence(BELL), 1.0)

    def test_product_states(self, rng):
        for _ in range(20):
            rho = np.kron(random_pure_density(rng, 2), random_pure_density(rng, 2))
            assert wootters_concurrence(rho) <= 1e-7

    def test_maximally_mixed(self):
        assert wootters_concurrence(np.eye(4) / 4) == 0.0

    def test_local_unitary_invariance(self, rng):
        for _ in range(50):
            rho = random_mixed_density(rng)
            u = np.kron(random_unitary(rng), random_unitary(rng))
            a = wootters_concurrence(rho)
            b = wootters_concurrence(u @ rho @ u.conj().T)
            assert abs(a - b) <= 1e-9

    def test_lambdas_are_roots_of_the_eigenvalues_of_rho_times_its_spin_flip(self, rng):
        """The singular-value form against the definition, on full-rank
        states whose lambdas are all well away from zero."""
        for _ in range(50):
            rho = 0.5 * random_mixed_density(rng) + 0.125 * np.eye(4)
            lam = np.sqrt(np.sort(np.linalg.eigvals(rho @ spin_flip(rho)).real)[::-1])
            ref = max(lam[0] - lam[1] - lam[2] - lam[3], 0.0)
            assert abs(wootters_concurrence(rho) - ref) <= 1e-12

    def test_golden_general_gibbs_states_against_50_digit_values(self):
        """The Gibbs states of the golden general set (tests/test_golden.py)
        at the 25 lowest temperatures of its 40-step sweep from T = 0.1,
        against 50-digit concurrences (mpmath, the eigenvalues of rho rho~ at
        50 digits; the table of CHANGES.md).  Square roots of the eigenvalues
        of sqrt(rho) rho~ sqrt(rho) erred by up to 1.2e-8 here."""
        from su2pair.hamiltonian import CoefficientSet
        from su2pair.thermo import thermal_state

        general = CoefficientSet(
            0.3, (1, 2, 3), (3, 1, 2), [[1, 0.5, 0], [0.2, 2, 0.1], [0, 0.4, 3]]
        )
        for t, ref in GENERAL_GIBBS_CONCURRENCE:
            got = wootters_concurrence(thermal_state(general, float(t)))
            assert abs(got - float(ref)) <= 1e-14, (t, got, ref)

    def test_rejects_invalid_density(self):
        with pytest.raises(DensityMatrixError):
            wootters_concurrence(np.eye(4))  # trace 4
        with pytest.raises(DensityMatrixError):
            wootters_concurrence(np.diag([1.5, -0.5, 0.0, 0.0]))

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_density_must_be_4x4(self, n):
        message = f"expected a 4x4 density matrix, not of shape {(n, n)}"
        with pytest.raises(DensityMatrixError, match=f"^{re.escape(message)}$"):
            wootters_concurrence(np.eye(n) / n)

    @pytest.mark.parametrize("shape", [(4, 4, 2), (2, 3), (16,)])
    def test_density_of_no_square_shape_is_refused_first(self, shape):
        """Refused before the Hermiticity check, which cannot subtract the
        transpose of a non-square array."""
        message = f"expected a 4x4 density matrix, not of shape {shape}"
        with pytest.raises(DensityMatrixError, match=f"^{re.escape(message)}$"):
            wootters_concurrence(np.ones(shape) / 4)

    @pytest.mark.parametrize("excess, accepted", [(5e-11, True), (2e-10, False)])
    def test_trace_within_the_fixed_1e_10_of_one(self, excess, accepted):
        rho = np.diag([0.25 + excess, 0.25, 0.25, 0.25])
        if accepted:
            assert wootters_concurrence(rho) == 0.0
        else:
            with pytest.raises(DensityMatrixError, match="trace .* is not 1"):
                wootters_concurrence(rho)

    @pytest.mark.parametrize("negative, accepted", [(5e-11, True), (2e-10, False)])
    def test_no_eigenvalue_below_the_fixed_minus_1e_10(self, negative, accepted):
        rho = np.diag([0.5 + negative, 0.5, 0.0, -negative])
        if accepted:
            assert wootters_concurrence(rho) == 0.0
        else:
            with pytest.raises(DensityMatrixError, match="negative eigenvalue -2.000e-10"):
                wootters_concurrence(rho)

    def test_one_decomposition_validates_and_gives_the_lambdas(self, rng, monkeypatch):
        """Each call makes exactly one LAPACK decomposition, accepted states
        and states refused for a negative eigenvalue alike."""
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        for rho in (random_mixed_density(rng), random_pure_density(rng), np.eye(4) / 4):
            calls.clear()
            wootters_concurrence(rho)
            assert calls == ["eigh"]
        calls.clear()
        with pytest.raises(DensityMatrixError, match="negative eigenvalue"):
            wootters_concurrence(np.diag([0.5 + 2e-10, 0.5, 0.0, -2e-10]))
        assert calls == ["eigh"]


class TestVonNeumann:
    def test_binary_entropy_relation(self, rng):
        """For pure two-qubit states: S = h((1 + sqrt(1-C^2))/2)."""
        for _ in range(20):
            rho = random_pure_density(rng)
            c = wootters_concurrence(rho)
            p = (1 + np.sqrt(max(1 - c * c, 0.0))) / 2
            h = 0.0
            for q in (p, 1 - p):
                if q > 0:
                    h -= q * np.log2(q)
            s = von_neumann_entropy(partial_trace(rho, 1))
            assert abs(s - h) <= 1e-7
