"""The references of references.py, checked on their own."""

from fractions import Fraction

import numpy as np
import pytest

from su2pair.errors import DensityMatrixError
from su2pair.hamiltonian import CoefficientSet
from su2pair.pauli import pauli_word
from su2pair.sampling import random_coefficient_set

from references import (
    mat_func,
    partial_trace,
    pow10_pair,
    random_hermitian,
    random_mixed_density,
    spin_flip,
    traceless,
    von_neumann_entropy,
)

BELL = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0


def test_partial_trace_product_states(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b /= np.trace(b)
    assert np.allclose(partial_trace(np.kron(a, b), 1), a)
    a2 = a / np.trace(a)
    assert np.allclose(partial_trace(np.kron(a2, b), 2), b)


def test_partial_trace_bell_state():
    """Both marginals of a Bell state are maximally mixed."""
    psi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    assert np.allclose(partial_trace(rho, 1), np.eye(2) / 2)
    assert np.allclose(partial_trace(rho, 2), np.eye(2) / 2)


def test_partial_trace_linear_and_trace_preserving(rng):
    for _ in range(50):
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lam = complex(rng.normal(), rng.normal())
        for keep in (1, 2):
            assert np.allclose(
                partial_trace(x + lam * y, keep),
                partial_trace(x, keep) + lam * partial_trace(y, keep),
            )
            assert np.isclose(np.trace(partial_trace(x, keep)), np.trace(x))


def test_partial_trace_bad_keep():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), 3)


class TestMatFunc:
    def test_exp_zero(self):
        assert np.allclose(mat_func(np.zeros((4, 4)), "exp"), np.eye(4))

    def test_sqrt_diagonal(self):
        assert np.allclose(
            mat_func(np.diag([4.0, 1.0, 0.0, 9.0]), "sqrt"), np.diag([2.0, 1.0, 0.0, 3.0])
        )

    def test_exp_inverse_pairs(self, rng):
        for _ in range(50):
            a = random_hermitian(rng, scale=2.0)
            if np.max(np.abs(np.linalg.eigvalsh(a))) > 10:
                continue
            prod = mat_func(a, "exp") @ mat_func(-a, "exp")
            assert np.max(np.abs(prod - np.eye(4))) <= 1e-10 * np.exp(10)

    def test_sqrt_squares_back(self, rng):
        for _ in range(50):
            rho = random_mixed_density(rng)
            s = mat_func(rho, "sqrt")
            assert np.max(np.abs(s @ s - rho)) <= 1e-10

    def test_sqrt_rejects_negative(self):
        with pytest.raises(DensityMatrixError):
            mat_func(np.diag([1.0, 1.0, 1.0, -0.5]), "sqrt")

    def test_unknown_function(self):
        with pytest.raises(ValueError):
            mat_func(np.eye(4), "sin")

    def test_xlogx_on_projector(self):
        # x log x vanishes on 0/1 spectra
        assert np.allclose(mat_func(BELL, "xlogx"), np.zeros((4, 4)), atol=1e-12)


def test_spin_flip_is_involution(rng):
    rho = random_mixed_density(rng)
    assert np.allclose(spin_flip(spin_flip(rho)), rho)


class TestVonNeumann:
    def test_maximally_mixed_qubit(self):
        assert np.isclose(von_neumann_entropy(np.eye(2) / 2), 1.0)

    def test_pure_qubit(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0


class TestTraceless:
    def test_scalar_set(self):
        c = CoefficientSet(5.0, (0, 0, 0), (0, 0, 0), np.zeros((3, 3)))
        assert np.allclose(traceless(c), np.zeros((4, 4)))

    def test_already_traceless(self):
        c = CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.diag([0.0, 0.0, 1.0]))
        assert np.allclose(traceless(c), pauli_word(3, 3))

    def test_trace_vanishes(self, rng):
        for _ in range(20):
            c = random_coefficient_set(rng)
            assert abs(np.trace(traceless(c))) <= 1e-12 * (1 + c.scale())


def test_pow10_pair_rounds_ten_to_the_q_and_its_remainder():
    for q in range(-234, 267):
        hi, lo = pow10_pair(q)
        exact = Fraction(10) ** q
        assert (hi, lo) == (float(exact), float(exact - Fraction(hi)))
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact / 2**106
