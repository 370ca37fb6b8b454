"""Fixed-size complex matrix algebra: the Pauli basis and Hermiticity checks.

Everything in the package lives in 2x2 and 4x4 complex matrices together with
real 3-vectors and 3x3 real matrices; there is deliberately no general N-d
machinery here.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonHermitianError

# Hermiticity is checked as max|M - M^dag| <= HERMITIAN_RTOL * (1 + max|M|).
# Fixed, not configurable: every matrix handled here is analytically Hermitian.
HERMITIAN_RTOL = 1e-12

_SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
_SIGMA.setflags(write=False)

# 4x4 Pauli words sigma_i (x) sigma_j, indexed [i, j], i,j in 0..3: every
# Kronecker product in one broadcast multiply, the bits of np.kron's.
_WORDS = (_SIGMA[:, None, :, None, :, None] * _SIGMA[None, :, None, :, None, :]).reshape(4, 4, 4, 4)
_WORDS.setflags(write=False)


def _is_index(i) -> bool:
    """Whether ``i`` is an int or numpy integer in 0..3.  A bool is not:
    True == 1, but numpy would read it as a mask."""
    return isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i <= 3


def pauli(i: int) -> np.ndarray:
    """Return sigma_i for i in 0..3, with sigma_0 the 2x2 identity.

    The returned array is read-only; copy before mutating.
    """
    if not _is_index(i):
        raise IndexError(f"pauli index must be an integer in 0..3, got {i!r}")
    return _SIGMA[i]


def pauli_word(i: int, j: int) -> np.ndarray:
    """Return sigma_i (x) sigma_j as a read-only 4x4 matrix."""
    if not (_is_index(i) and _is_index(j)):
        raise IndexError(f"pauli word indices must be integers in 0..3, got ({i!r}, {j!r})")
    return _WORDS[i, j]


def require_hermitian(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Validate Hermiticity and return the input as a complex array.

    Raises ValueError, before any arithmetic, for input that is not a
    non-empty square 2-D array."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValueError(f"{what} must be a non-empty square 2-D array, not of shape {m.shape}")
    # max|M| is inf or nan exactly when some entry is not finite.
    size = float(np.abs(m).max())
    if not math.isfinite(size):
        raise NonHermitianError(f"{what} contains non-finite entries")
    defect = float(np.abs(m - m.conj().T).max())
    bound = HERMITIAN_RTOL * (1.0 + size)
    if defect > bound:
        raise NonHermitianError(
            f"{what} is not Hermitian: defect {defect:.3e} exceeds {bound:.3e}"
        )
    return m
