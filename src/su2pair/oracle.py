"""Brute-force numerical ground truth for 4x4 Hermitian problems.

Everything the closed forms claim is cross-checked against this module:
a dense Hermitian eigendecomposition and the Wootters concurrence
evaluated from its definition, validated on the one decomposition that
gives its lambdas.
"""

from __future__ import annotations

import numpy as np

from ._invariants import _record
from .errors import DensityMatrixError
from .pauli import pauli_word, require_hermitian

# Reconstruction / orthonormality bound for the eigendecomposition.
EIG_RTOL = 1e-11


@_record
class SpectralDecomposition:
    """Eigenvalues in descending order with matching orthonormal eigenvectors.

    ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]``; reconstruction
    satisfies max|M - V diag(w) V^dag| <= EIG_RTOL * (1 + max|M|).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def projector(self, k: int) -> np.ndarray:
        v = self.eigenvectors[:, k]
        return np.outer(v, v.conj())


def eig_hermitian(m: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Deterministic for a fixed input; validates Hermiticity first.
    """
    m = require_hermitian(m, "eig_hermitian input")
    w, v = np.linalg.eigh(m)
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    w.setflags(write=False)
    v.setflags(write=False)
    return SpectralDecomposition(w, v)


def wootters_concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence from its definition.

    The lambda_i are the square roots of the descending eigenvalues of
    rho (sy (x) sy) rho* (sy (x) sy), rho times its spin flip.  With
    rho = V diag(p) V^dag they are the singular values of
    diag(p)^1/2 V^T (sy (x) sy) V diag(p)^1/2 (Wootters, PRL 80, 2245
    (1998)), taken so, with round-off negatives of p clamped to zero: no
    matrix square root, whose near-zero eigenvalues would keep only half
    their digits.  Returns max(l1 - l2 - l3 - l4, 0), clipped to [0, 1].
    Raises DensityMatrixError unless rho is Hermitian and 4x4, with trace
    within 1e-10 of 1 and no eigenvalue of that decomposition below -1e-10.
    """
    if np.shape(rho) != (4, 4):
        raise DensityMatrixError("expected a 4x4 density matrix")
    rho = require_hermitian(rho, "density matrix")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > 1e-10:
        raise DensityMatrixError(f"density matrix trace {tr} is not 1")
    p, v = np.linalg.eigh(rho)
    if float(p[0]) < -1e-10:
        raise DensityMatrixError(f"density matrix has negative eigenvalue {p[0]:.3e}")
    root = np.sqrt(np.clip(p, 0.0, None))
    return float(concurrence_from_weights(root, v.T @ pauli_word(2, 2) @ v))


def concurrence_from_weights(root: np.ndarray, m: np.ndarray) -> np.ndarray:
    """max(l1 - l2 - l3 - l4, 0), clipped to [0, 1], with the lambdas the
    singular values of diag(root) m diag(root).  ``root`` (..., 4) holds the
    square roots of the eigenvalues of density matrices that share one
    eigenbasis V, and ``m`` = V^T (sy (x) sy) V.  One stacked SVD; no
    validation: see :func:`wootters_concurrence`.
    """
    lam = np.linalg.svd(root[..., :, None] * m * root[..., None, :], compute_uv=False)
    return np.clip(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0, 1.0)
