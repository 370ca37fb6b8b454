"""Independent dense reference for every output the workloads produce.

The benchmark builds each 4x4 matrix itself, by Pauli composition of a
coefficient array or from the bilayer tight-binding formula, and solves
stacks of them with ``np.linalg.eigh``.  Nothing here imports su2pair, so a
defect in the package cannot hide in its own reference.

A coefficient set is a real 4x4 array ``coef`` with ``coef[0, 0]`` = upsilon,
``coef[1:, 0]`` = alpha, ``coef[0, 1:]`` = beta and ``coef[1:, 1:]`` = omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerances of the package's own test suite.
TOL_ENERGY = 1e-9  # eigenvalues, Z and purity, relative
TOL_PROJECTOR = 1e-8  # projector entries, absolute
TOL_CONCURRENCE = 1e-7  # concurrence, absolute
# State checks (projectors, concurrence) are skipped where the reference
# spectrum has a relative gap below this: the states are not defined there.
MIN_GAP = 1e-6
# Spin-flip commutator below which the thermal-concurrence closed form is exact.
COMMUTATOR_RTOL = 1e-12

_SIGMA = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)
# WORDS[i, j] = sigma_i (x) sigma_j
WORDS = np.einsum("iab,jcd->ijacbd", _SIGMA, _SIGMA).reshape(4, 4, 4, 4)
_YY = WORDS[2, 2]


def compose(coef: np.ndarray) -> np.ndarray:
    """Hermitian matrices sum_ij coef[..., i, j] sigma_i (x) sigma_j."""
    return np.einsum("...ij,ijab->...ab", np.asarray(coef, dtype=float), WORDS)


def decompose(h: np.ndarray) -> np.ndarray:
    """Real Pauli coefficients of Hermitian matrices, the inverse of compose."""
    return np.einsum("...ab,ijba->...ij", h, WORDS).real / 4.0


def relative_gap(w: np.ndarray) -> np.ndarray:
    """Smallest spacing of ascending spectra, relative to 1 + spectral radius."""
    return np.min(np.diff(w, axis=-1), axis=-1) / (1.0 + np.max(np.abs(w), axis=-1))


# --- bilayer graphene ------------------------------------------------------------


@dataclass(frozen=True)
class Graphene:
    t: float = 1.0
    t3: float = 1.0
    tperp: float = 1.0
    m: float = 0.0
    bias: float = 0.0
    lattice: float = 1.0

    def argv(self) -> list[str]:
        return [
            "--t", repr(self.t), "--t3", repr(self.t3), "--tperp", repr(self.tperp),
            "--m", repr(self.m), "--bias", repr(self.bias), "--lattice", repr(self.lattice),
        ]

    def structure_factor(self, kx, ky):
        lam = self.lattice
        return 2.0 * np.exp(-0.5j * kx * lam) * np.cos(0.5 * math.sqrt(3.0) * ky * lam) + np.exp(
            -1j * kx * lam
        )

    def hamiltonian(self, kx, ky) -> np.ndarray:
        """Tight-binding matrices in the {A1, B1, A2, B2} basis, one per k."""
        g = np.atleast_1d(self.structure_factor(np.asarray(kx), np.asarray(ky)))
        h = np.zeros(g.shape + (4, 4), dtype=complex)
        h[:, 0, 1] = h[:, 2, 3] = -self.t * g
        h[:, 1, 0] = h[:, 3, 2] = -self.t * g.conj()
        h[:, 0, 3] = -self.t3 * g.conj()
        h[:, 3, 0] = -self.t3 * g
        h[:, 1, 2] = h[:, 2, 1] = self.tperp
        diag = self.m * np.array([1, -1, 1, -1]) + 0.5 * self.bias * np.array([1, 1, -1, -1])
        h[:, range(4), range(4)] += diag
        return h

    def k_grid(self, samples: int, hex_mask: bool) -> tuple[np.ndarray, np.ndarray]:
        """Row-major (kx outer) grid over |kx|, |ky| <= 4 pi / (3 lattice)."""
        lim = 4.0 * math.pi / (3.0 * self.lattice)
        axis = np.linspace(-lim, lim, samples)
        kx, ky = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
        if hex_mask:
            # Wigner-Seitz cell of the structure factor's period lattice.
            b1 = 2.0 * math.pi / self.lattice * np.array([1.0, 1.0 / math.sqrt(3.0)])
            b2 = 2.0 * math.pi / self.lattice * np.array([1.0, -1.0 / math.sqrt(3.0)])
            shells = np.array([b1, -b1, b2, -b2, b1 - b2, b2 - b1])
            proj = 2.0 * (np.outer(kx, shells[:, 0]) + np.outer(ky, shells[:, 1]))
            keep = np.all(proj <= np.sum(shells**2, axis=1) * (1.0 + 1e-12), axis=1)
            kx, ky = kx[keep], ky[keep]
        return kx, ky

    def dirac_point(self) -> tuple[float, float]:
        return 0.0, 4.0 * math.pi / (3.0 * math.sqrt(3.0) * self.lattice)


def pure_concurrence(psi: np.ndarray) -> np.ndarray:
    """2 |psi_00 psi_11 - psi_01 psi_10| of normalized state vectors (..., 4)."""
    return 2.0 * np.abs(psi[..., 0] * psi[..., 3] - psi[..., 1] * psi[..., 2])


# --- thermal ensembles ---------------------------------------------------------------


def temperatures(tmin: float, tmax: float, steps: int) -> np.ndarray:
    """Log-spaced temperatures with both endpoints exact."""
    temps = np.exp(np.linspace(math.log(tmin), math.log(tmax), steps))
    temps[0], temps[-1] = tmin, tmax
    return temps


def log_partition(w: np.ndarray, temps: np.ndarray) -> np.ndarray:
    x = -w[None, :] / temps[:, None]
    top = np.max(x, axis=1)
    return top + np.log(np.sum(np.exp(x - top[:, None]), axis=1))


def wootters(sqrt_rho: np.ndarray) -> np.ndarray:
    """Concurrence from its definition, given the square roots of the states.

    The lambda_i of the definition, square roots of the eigenvalues of
    rho (YY rho* YY), are the singular values of sqrt(rho) YY sqrt(rho)* YY;
    the SVD keeps the small ones accurate where a square root would not.
    """
    lam = np.linalg.svd(sqrt_rho @ _YY @ sqrt_rho.conj() @ _YY, compute_uv=False)
    return np.clip(lam[..., 0] - np.sum(lam[..., 1:], axis=-1), 0.0, 1.0)


def spin_flip_commutes(coef: np.ndarray) -> bool:
    """Whether H(alpha, beta, omega) commutes with H(-alpha, -beta, omega)."""
    flipped = coef.copy()
    flipped[1:, 0] *= -1.0
    flipped[0, 1:] *= -1.0
    h, hf = compose(coef), compose(flipped)
    scale = float(np.sqrt(np.sum(coef**2)))
    return float(np.max(np.abs(h @ hf - hf @ h))) <= COMMUTATOR_RTOL * (1.0 + scale**2)


def thermal_closed_form(w: np.ndarray, omega: np.ndarray, temps: np.ndarray) -> np.ndarray:
    """Closed-form Gibbs-state concurrence of a constrained set.

    C = max{sinh(x+/T) - cosh(x-/T), 0} / [cosh(E2/T) + cosh(E1/T)], with the
    even spectrum upsilon +- E1, upsilon +- E2 taken from the dense spectrum
    ``w`` and x+- = s1 +- s2 from the singular values of omega (the third one
    vanishes under the contraction constraint), so no frame reduction is needed.
    """
    dev = np.sort(np.abs(w - np.mean(w)))
    e1, e2 = 0.5 * (dev[0] + dev[1]), 0.5 * (dev[2] + dev[3])
    s = np.linalg.svd(omega, compute_uv=False)
    xp, xm = (s[0] + s[1]) / temps, abs(s[0] - s[1]) / temps
    y1, y2 = e1 / temps, e2 / temps
    num = (np.exp(xp - y2) * -np.expm1(-2 * xp) - np.exp(xm - y2) * (1 + np.exp(-2 * xm))) / 2
    den = (1 + np.exp(-2 * y2) + np.exp(y1 - y2) + np.exp(-y1 - y2)) / 2
    return np.maximum(num, 0.0) / den


@dataclass(frozen=True)
class ThermalReference:
    """Per-temperature Z, purity, concurrence and flag of one coefficient set."""

    log_z: np.ndarray
    purity: np.ndarray
    concurrence: np.ndarray
    flag: int


def thermal_reference(coef: np.ndarray, case: str, temps: np.ndarray, positive: bool = False):
    """Reference sweep rows; ``case`` is how the set was generated.

    Dyadic sets have separable Gibbs states (flag 0); constrained sets take
    the closed form, exact (flag 0) when the spin flip commutes and
    outside its provable regime (flag 1) otherwise; general sets take the
    definition route (flag 2).  ``positive`` restricts the ensemble to the
    two upper levels upsilon + E_n.
    """
    w, v = np.linalg.eigh(compose(coef))
    levels = w[2:] if positive else w
    log_z = log_partition(levels, temps)
    purity = np.exp(log_partition(levels, temps / 2.0) - 2.0 * log_z)
    if case == "general":
        flag = 2
    elif case == "dyadic" or spin_flip_commutes(coef):
        flag = 0
    else:
        flag = 1
    if flag == 1:
        conc = thermal_closed_form(w, coef[1:, 1:], temps)
    else:
        x = -w[None, :] / temps[:, None]
        p = np.exp(x - np.max(x, axis=1, keepdims=True))
        p /= np.sum(p, axis=1, keepdims=True)
        conc = wootters(np.einsum("ik,tk,jk->tij", v, np.sqrt(p), v.conj()))
    return ThermalReference(log_z, purity, conc, flag)


# --- outcome tally ---------------------------------------------------------------------


class Tally:
    """Attempted, failed and skipped items with the worst deviations seen.

    ``max_dev_energy`` covers spectral quantities (eigenvalues, band
    energies, Z, purity) as relative deviations; ``max_dev_state`` covers
    state quantities (projectors, concurrence) as absolute deviations.
    """

    def __init__(self):
        self.attempted = self.failed = self.skipped = 0
        self.max_dev_energy = self.max_dev_state = 0.0

    def add(self, ok: np.ndarray, dev_energy=None, dev_state=None, skipped: int = 0):
        ok = np.asarray(ok, dtype=bool)
        self.attempted += int(ok.size)
        self.failed += int(ok.size - np.count_nonzero(ok))
        self.skipped += int(skipped)
        self.max_dev_energy = max(self.max_dev_energy, _worst(dev_energy))
        self.max_dev_state = max(self.max_dev_state, _worst(dev_state))

    def merge(self, other: "Tally"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.skipped += other.skipped
        self.max_dev_energy = max(self.max_dev_energy, other.max_dev_energy)
        self.max_dev_state = max(self.max_dev_state, other.max_dev_state)


def _worst(dev) -> float:
    if dev is None:
        return 0.0
    dev = np.asarray(dev, dtype=float)
    if dev.size == 0:
        return 0.0
    return float(np.max(np.where(np.isnan(dev), np.inf, dev)))
