"""Independent references and draws that the tests check the package against.

None of these is package API.  Each is a plain form of something the
package computes another way (a dense matrix, a trace, a sum over levels),
or a random draw that only the tests need.  The test modules import them
from here; ``test_references.py`` checks the references themselves.
"""

import cmath
import math

import numpy as np

from su2pair.errors import DensityMatrixError
from su2pair.graphene import GrapheneParams
from su2pair.hamiltonian import CoefficientSet, fano_compose
from su2pair.oracle import SpectralDecomposition, eig_hermitian
from su2pair.pauli import pauli, pauli_word
from su2pair.solver import Eigensystem, Su2Factor

# --- random draws ------------------------------------------------------------------


def random_hermitian(rng: np.random.Generator, dim: int = 4, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_pure_density(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_mixed_density(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def scaled(s: float, c: CoefficientSet) -> CoefficientSet:
    """The set s * c: every coefficient multiplied by s.  ``s`` comes first,
    so a scale drawn in the call is drawn before a set drawn there."""
    return CoefficientSet(s * c.upsilon, s * c.alpha, s * c.beta, s * c.omega)


# --- matrices and states ---------------------------------------------------------


def partial_trace(rho: np.ndarray, keep: int) -> np.ndarray:
    """Trace out one qubit of a 4x4 operator, keeping subsystem ``keep`` (1 or 2).

    Defined for any 4x4 input; preserves the total trace and maps
    np.kron(a, b) to a*Tr[b] (keep=1) or b*Tr[a] (keep=2).
    """
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    if keep == 1:
        return np.einsum("ikjk->ij", r)
    if keep == 2:
        return np.einsum("kikj->ij", r)
    raise ValueError(f"keep must be 1 or 2, got {keep}")


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """The transformation (sy (x) sy) rho* (sy (x) sy) of one state or a stack."""
    yy = pauli_word(2, 2)
    return yy @ np.asarray(rho, dtype=complex).conj() @ yy


def reconstruct(dec: SpectralDecomposition) -> np.ndarray:
    """V diag(w) V^dag of an eigendecomposition."""
    v = dec.eigenvectors
    return (v * dec.eigenvalues) @ v.conj().T


def product_matrix(f1: Su2Factor, f2: Su2Factor) -> np.ndarray:
    """H1 (x) H2 of two single-qubit factors, each a0 I + a . sigma."""
    def factor(f):
        return f.a0 * np.eye(2, dtype=complex) + sum(f.vec[i] * pauli(i + 1) for i in range(3))

    return np.kron(factor(f1), factor(f2))


def mat_func(m: np.ndarray, func: str) -> np.ndarray:
    """Apply exp, sqrt, or x*log(x) on the spectrum of a Hermitian matrix.

    For ``sqrt`` and ``xlogx`` the spectrum must be nonnegative up to
    round-off: eigenvalues above -1e-12 * (1 + max|w|) are clamped to zero,
    anything lower is an error.  ``exp`` factors out the largest eigenvalue
    so intermediate terms cannot overflow.
    """
    dec = eig_hermitian(m)
    w = dec.eigenvalues.copy()
    if func == "exp":
        top = float(w[0])
        f = np.exp(w - top)
        out = (dec.eigenvectors * f) @ dec.eigenvectors.conj().T
        return out * np.exp(top)
    floor = -1e-12 * (1.0 + float(np.max(np.abs(w))))
    if func in ("sqrt", "xlogx"):
        if float(w[-1]) < floor:
            raise DensityMatrixError(
                f"matrix has negative eigenvalue {w[-1]:.3e} beyond round-off"
            )
        w = np.clip(w, 0.0, None)
        if func == "sqrt":
            f = np.sqrt(w)
        else:
            f = np.where(w > 0.0, w * np.log(np.where(w > 0.0, w, 1.0)), 0.0)
        return (dec.eigenvectors * f) @ dec.eigenvectors.conj().T
    raise ValueError(f"unknown matrix function {func!r}")


def von_neumann_entropy(rho2: np.ndarray) -> float:
    """Base-2 von Neumann entropy of a single-qubit density matrix."""
    w = np.clip(np.linalg.eigvalsh(rho2), 0.0, None)
    return float(-sum(p * np.log2(p) for p in w if p > 0.0))


# --- coefficient sets --------------------------------------------------------------


def traceless(c: CoefficientSet) -> np.ndarray:
    """The traceless part of the composed Hamiltonian."""
    return fano_compose(c) - c.upsilon * np.eye(4, dtype=complex)


def case01_theta(c: CoefficientSet) -> float:
    """The rank-one-reduction form 4(a.w.w^T.a + b.w^T.w.b + a^2 b^2).

    Equals ``DerivedCoefficients.theta`` exactly when omega is dyadic; a
    cross-check of that reduction.
    """
    al, be, om = c.alpha, c.beta, c.omega
    return 4.0 * float(
        al @ om @ om.T @ al + be @ om.T @ om @ be + (al @ al) * (be @ be)
    )


def coefficient_set_to_dict(c: CoefficientSet) -> dict:
    """The JSON object that ``coefficient_set_from_dict`` reads."""
    return {
        "upsilon": c.upsilon,
        "alpha": [float(v) for v in c.alpha],
        "beta": [float(v) for v in c.beta],
        "omega": [[float(v) for v in row] for row in c.omega],
    }


def structure_factor(p: GrapheneParams, kx: float, ky: float) -> complex:
    """G = 2 e^{-i kx lam/2} cos(sqrt(3) ky lam/2) + e^{-i kx lam}, the sum of
    the nearest-neighbor phase factors, written out on Python complex
    numbers; its zeros are the Dirac points."""
    lam = p.lattice
    half = 2.0 * cmath.exp(-1j * kx * lam / 2.0) * math.cos(math.sqrt(3.0) * ky * lam / 2.0)
    return half + cmath.exp(-1j * kx * lam)


def build_ab_hamiltonian(p: GrapheneParams, kx: float, ky: float) -> np.ndarray:
    """The tight-binding matrix in the {A1, B1, A2, B2} basis with mass and
    bias, built on :func:`structure_factor`, not the package's."""
    g = structure_factor(p, kx, ky)
    t, t3, tp = p.t, p.t3, p.tperp
    h = np.array(
        [
            [0.0, -t * g, 0.0, -t3 * np.conj(g)],
            [-t * np.conj(g), 0.0, tp, 0.0],
            [0.0, tp, 0.0, -t * g],
            [-t3 * g, 0.0, -t * np.conj(g), 0.0],
        ],
        dtype=complex,
    )
    h += np.diag([p.m, -p.m, p.m, -p.m]).astype(complex)
    half = p.bias / 2.0
    h += np.diag([half, half, -half, -half]).astype(complex)
    return h


# --- thermal and polynomial --------------------------------------------------------


def log_partition_numeric(c: CoefficientSet, t):
    """log Tr[exp(-H/t)] from the dense spectrum, for any set, at a
    temperature or an array of them: logaddexp over the levels."""
    w = eig_hermitian(fano_compose(c)).eigenvalues
    t = np.asarray(t, dtype=float)
    return np.logaddexp.reduce(-w.reshape((4,) + (1,) * t.ndim) / t, axis=0)


def thermal_state_from_eigensystem(es: Eigensystem, t: float) -> np.ndarray:
    """Gibbs state assembled as sum_mn rho_mn exp(-e_mn/t) / Z."""
    items = list(es.items())
    e = np.array([e for _, e, _ in items])
    boltz = np.exp(-(e - e.min()) / t)
    return sum(w * s for w, (_, _, s) in zip(boltz, items)) / boltz.sum()


def quartic_residuals(
    roots: np.ndarray, c4: float, c3: float, c2: float, c1: float, c0: float
) -> float:
    """Sum of |p(root)| over the given roots."""
    coeffs = np.array([c4, c3, c2, c1, c0], dtype=complex)
    return float(sum(abs(np.polyval(coeffs, z)) for z in roots))


# --- number formatting -------------------------------------------------------------


def pow10_pair(q: int) -> tuple[float, float]:
    """10^q as hi + lo: hi rounded to a double, lo the rounded remainder,
    from Python integers; the rows of ``serialization._POW10``."""
    if q >= 0:
        n = 10**q
        hi = float(n)
        return hi, float(n - int(hi))
    d = 10**-q
    hi = 1 / d
    num, den = hi.as_integer_ratio()
    return hi, (den - num * d) / (den * d)
