import numpy as np
import pytest

from su2pair.errors import NonHermitianError
from su2pair.pauli import _WORDS, pauli, pauli_word, require_hermitian

EPS_IJK = np.zeros((3, 3, 3))
for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS_IJK[i, j, k] = 1.0
    EPS_IJK[j, i, k] = -1.0


def test_pauli_identity_and_squares():
    assert np.array_equal(pauli(0), np.eye(2))
    for i in (1, 2, 3):
        assert np.allclose(pauli(i) @ pauli(i), np.eye(2))


def test_pauli_product_algebra():
    """sigma_i sigma_j = delta_ij I + i eps_ijk sigma_k, to machine precision."""
    for i in range(1, 4):
        for j in range(1, 4):
            product = pauli(i) @ pauli(j)
            expected = (i == j) * np.eye(2, dtype=complex)
            for k in range(1, 4):
                expected = expected + 1j * EPS_IJK[i - 1, j - 1, k - 1] * pauli(k)
            assert np.max(np.abs(product - expected)) <= 1e-15


def test_pauli_xy_gives_iz():
    assert np.allclose(pauli(1) @ pauli(2), 1j * pauli(3))


def test_pauli_index_error():
    """Anything but an integer in 0..3 is refused with the package's own
    message: a bool is not read as a numpy mask, nor a float as an index."""
    with pytest.raises(IndexError):
        pauli(4)
    with pytest.raises(IndexError):
        pauli_word(1, 5)
    for bad in (True, False, np.True_, 2.0, np.float64(1.0), "1", None):
        with pytest.raises(IndexError, match=r"^pauli index must be an integer in 0\.\.3"):
            pauli(bad)
        with pytest.raises(IndexError, match=r"^pauli word indices must be integers in 0\.\.3"):
            pauli_word(bad, 2)
        with pytest.raises(IndexError, match=r"^pauli word indices must be integers in 0\.\.3"):
            pauli_word(1, bad)
    assert np.array_equal(pauli(np.int64(2)), pauli(2))
    assert np.array_equal(pauli_word(np.int64(1), np.uint8(3)), pauli_word(1, 3))


def test_words_are_the_kronecker_products_bit_for_bit():
    """The broadcast table holds np.kron's bits, the signs of its zeros
    included, and stays read-only."""
    kron = np.array([[np.kron(pauli(i), pauli(j)) for j in range(4)] for i in range(4)])
    assert _WORDS.dtype == kron.dtype and _WORDS.shape == kron.shape == (4, 4, 4, 4)
    assert _WORDS.tobytes() == kron.tobytes()
    assert not _WORDS.flags.writeable


def test_pauli_word_identity_and_diagonal():
    assert np.array_equal(pauli_word(0, 0), np.eye(4))
    assert np.allclose(pauli_word(3, 0), np.diag([1, 1, -1, -1]))


def test_pauli_word_antidiagonal_xx():
    expected = np.zeros((4, 4))
    expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
    assert np.allclose(pauli_word(1, 1), expected)


def test_require_hermitian_rejects(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    with pytest.raises(NonHermitianError):
        require_hermitian(m + 10 * np.eye(4) * 1j)
    h = m + m.conj().T
    assert np.array_equal(require_hermitian(h), h)
