"""Thermal ensembles: partition functions, purity, thermal states and concurrence.

Boltzmann's constant is 1 throughout; temperatures share the energy unit of
the Hamiltonian.  Every cosh/sinh/exp combination is evaluated after
factoring out the dominant exponent, so the purity limits remain computable
at temperatures many orders of magnitude away from the spectral scale.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .entanglement import block_form_defect
from .hamiltonian import (
    COMMUTATOR_RTOL,
    DEFAULT_TOL,
    CaseKind,
    CoefficientSet,
    classify,
    derive,
    even_spectrum,
    fano_compose,
    frame_reduce,
)
from .oracle import eig_hermitian, wootters_concurrence
from .pauli import max_abs
from .solver import Eigensystem, Su2Factor, factor_dyadic


class EnsembleBranch(enum.Enum):
    FULL = "full"
    POSITIVE_ONLY = "positive-only"


def _check_temperature(t: float) -> float:
    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"temperature must be positive and finite, got {t}")
    return t


def partition_from_log(logz: float) -> float:
    """Z = exp(log Z), or inf where Z exceeds the largest double."""
    try:
        return math.exp(logz)
    except OverflowError:
        return math.inf


def _logsumexp(vals) -> float:
    top = max(vals)
    if not math.isfinite(top):
        return top
    return top + math.log(sum(math.exp(v - top) for v in vals))


# --- separable ensemble ---------------------------------------------------------


def log_partition_separable(f1: Su2Factor, f2: Su2Factor, t: float) -> float:
    """log Tr[exp(-H1 (x) H2 / t)] from the hyperbolic product form.

    Z = 4 exp(-a0 b0 / t) [prod_p cosh(m_p/t) - prod_p sinh(m_p/t)] with
    m_1 = a b, m_2 = a0 b, m_3 = a b0.  The product difference is expanded
    in e^{-2|m_p/t|} so there is no cancellation and no overflow.
    """
    t = _check_temperature(t)
    a0, a = f1.a0, f1.norm
    b0, b = f2.a0, f2.norm
    x = [a * b / t, a0 * b / t, a * b0 / t]
    base = -a0 * b0 / t
    ax = [abs(v) for v in x]
    l1, l2, l3 = (-2.0 * v for v in ax)
    sign = math.prod(1 if v > 0 else (-1 if v < 0 else 0) for v in x)
    if sign > 0:
        tail = _logsumexp([l1, l2, l3, l1 + l2 + l3])
    elif sign < 0:
        tail = _logsumexp([0.0, l1 + l2, l1 + l3, l2 + l3])
    else:
        tail = sum(math.log1p(math.exp(v)) for v in (l1, l2, l3)) - math.log(2.0)
    return base + sum(ax) + tail


def partition_separable(f1: Su2Factor, f2: Su2Factor, t: float) -> float:
    return partition_from_log(log_partition_separable(f1, f2, t))


# --- constrained entangled ensemble ---------------------------------------------


def log_partition_entangled(
    c: CoefficientSet,
    t: float,
    branch: EnsembleBranch = EnsembleBranch.FULL,
    tol: float = DEFAULT_TOL,
) -> float:
    """log of Z = 2 exp(-u/t) [cosh(E2/t) + cosh(E1/t)], or of the
    positive-energy restriction with cosh(y) replaced by exp(-y)/2."""
    t = _check_temperature(t)
    _, e1, e2 = even_spectrum(derive(c, tol))
    y1, y2 = e1 / t, e2 / t
    if branch is EnsembleBranch.FULL:
        tail = math.log1p(
            math.exp(-2 * y2) + math.exp(y1 - y2) + math.exp(-y1 - y2)
        )
        return -c.upsilon / t + y2 + tail
    return -c.upsilon / t - y1 + math.log1p(math.exp(-(y2 - y1)))


def partition_entangled(
    c: CoefficientSet,
    t: float,
    branch: EnsembleBranch = EnsembleBranch.FULL,
    tol: float = DEFAULT_TOL,
) -> float:
    return partition_from_log(log_partition_entangled(c, t, branch, tol))


# --- purity ---------------------------------------------------------------------


def purity(
    system,
    t: float,
    branch: EnsembleBranch = EnsembleBranch.FULL,
    tol: float = DEFAULT_TOL,
) -> float:
    """Thermal purity Z(T/2) / Z(T)^2.

    ``system`` is either a CoefficientSet satisfying a contraction constraint
    or a pair of Su2Factor (product Hamiltonian; full branch only).  Tends to
    1/4 as T -> infinity and to 1 as T -> 0 for non-degenerate spectra.
    """
    t = _check_temperature(t)
    if isinstance(system, CoefficientSet):
        logz = lambda tt: log_partition_entangled(system, tt, branch, tol)
    else:
        f1, f2 = system
        if branch is not EnsembleBranch.FULL:
            raise ValueError("the positive-only branch applies to the even constrained spectrum")
        logz = lambda tt: log_partition_separable(f1, f2, tt)
    return math.exp(logz(t / 2.0) - 2.0 * logz(t))


# --- thermal states --------------------------------------------------------------


def thermal_state(c: CoefficientSet, t: float) -> np.ndarray:
    """The Gibbs state exp(-H/t) / Z for any coefficient set."""
    t = _check_temperature(t)
    dec = eig_hermitian(fano_compose(c))
    w = dec.eigenvalues
    boltz = np.exp(-(w - w[-1]) / t)
    rho = (dec.eigenvectors * boltz) @ dec.eigenvectors.conj().T
    return rho / float(np.sum(boltz))


def thermal_state_from_eigensystem(es: Eigensystem, t: float) -> np.ndarray:
    """Gibbs state assembled as sum_mn rho_mn exp(-e_mn/t) / Z."""
    t = _check_temperature(t)
    emin = float(np.min(es.values))
    num = np.zeros((4, 4), dtype=complex)
    z = 0.0
    for _, e, s in es.items():
        wgt = math.exp(-(e - emin) / t)
        num += wgt * s
        z += wgt
    return num / z


def log_partition_numeric(c: CoefficientSet, t: float) -> float:
    """log Tr[exp(-H/t)] from the numerical spectrum, for any set."""
    t = _check_temperature(t)
    w = eig_hermitian(fano_compose(c)).eigenvalues
    return _logsumexp([-v / t for v in w])


# --- thermal concurrence ----------------------------------------------------------


@dataclass(frozen=True)
class ThermalConcurrenceResult:
    """Closed-form thermal concurrence with its validity diagnostic.

    ``value`` is the closed form; ``wootters`` the definition route on the
    Gibbs state (None when comparison is skipped); ``commutator_norm``
    measures [H(a,b,w), H(-a,-b,w)], which must vanish for the closed form
    to be exact; ``reliable`` records that condition.
    """

    value: float
    commutator_norm: float
    reliable: bool
    wootters: float | None = None

    @property
    def deviation(self) -> float | None:
        if self.wootters is None:
            return None
        return abs(self.value - self.wootters)


def flip_local_signs(c: CoefficientSet) -> CoefficientSet:
    """The spin-flipped coefficient set (alpha, beta) -> (-alpha, -beta)."""
    return CoefficientSet(c.upsilon, -c.alpha, -c.beta, c.omega)


def spin_flip_commutator(c: CoefficientSet) -> tuple[float, bool]:
    """Norm of [H(a,b,w), H(-a,-b,w)] and whether it is negligible, which
    makes the thermal-concurrence closed form provably exact."""
    h = fano_compose(c)
    hf = fano_compose(flip_local_signs(c))
    norm = max_abs(h @ hf - hf @ h)
    return norm, norm <= COMMUTATOR_RTOL * (1.0 + c.scale() ** 2)


def sinh_cosh_gap(xp: float, xm: float, shift: float) -> float:
    """e^{-shift} [sinh(xp) - cosh(xm)] for xm and xp in [0, shift]: every
    exponent is at most zero, so nothing overflows, and the sign is exact."""
    return (
        math.exp(xp - shift) * -math.expm1(-2 * xp)
        - math.exp(xm - shift) * (1.0 + math.exp(-2 * xm))
    ) / 2.0


def cosh_pair(y1: float, y2: float) -> float:
    """e^{-y2} [cosh(y2) + cosh(y1)] for 0 <= y1 <= y2, without overflow."""
    return (1.0 + math.exp(-2 * y2) + math.exp(y1 - y2) + math.exp(-y1 - y2)) / 2.0


def thermal_concurrence(
    c: CoefficientSet, t: float, tol: float = DEFAULT_TOL, compare: bool = True
) -> ThermalConcurrenceResult:
    """Closed-form concurrence of the Gibbs state of a constrained set.

        C = max{sinh(x+/t) - cosh(x-/t), 0} / [cosh(E2/t) + cosh(E1/t)]

    with x+- = sqrt(Tr[w_B w_B^T] +- 2 |det w_B|).  The derivation commutes
    the Gibbs state with its spin flip, which only holds when the local part
    commutes with the interaction part; the result carries that commutator
    norm, and ``wootters`` (computed unless ``compare=False``) lets callers
    quantify the deviation outside the provable regime.
    """
    t = _check_temperature(t)
    if block_form_defect(c) > tol:
        # det(omega_B) lives in the block frame; the Gibbs state's
        # concurrence is invariant under the reducing local rotations.
        c, _, _ = frame_reduce(c, tol)
    d = derive(c, tol)
    _, e1, e2 = even_spectrum(d)
    tr2 = float(np.sum(c.omega**2))
    two_det = 2.0 * abs(d.det_omega_b)
    xp = math.sqrt(tr2 + two_det) / t
    xm = math.sqrt(max(tr2 - two_det, 0.0)) / t
    y1, y2 = e1 / t, e2 / t
    # Both scaled by e^{-y2}; x+ <= y2.
    value = max(sinh_cosh_gap(xp, xm, y2), 0.0) / cosh_pair(y1, y2)

    comm, reliable = spin_flip_commutator(c)
    woot = wootters_concurrence(thermal_state(c, t)) if compare else None
    return ThermalConcurrenceResult(
        value=value, commutator_norm=comm, reliable=reliable, wootters=woot
    )


# --- per-temperature report (CLI sweep) -------------------------------------------


@dataclass(frozen=True)
class ThermalReport:
    """One row of a temperature sweep: Z, purity and concurrence with a flag.

    Flag values: 0 closed forms with a provably exact concurrence, 1 closed
    forms with the concurrence outside its provable regime, 2 definition
    (numerical) route.
    """

    temperature: float
    z_value: float
    purity: float
    concurrence: float
    branch: EnsembleBranch
    flag: int


def thermal_report(
    c: CoefficientSet,
    t: float,
    branch: EnsembleBranch = EnsembleBranch.FULL,
    tol: float = DEFAULT_TOL,
) -> ThermalReport:
    """Evaluate the sweep row for any coefficient set, closed-form when possible.

    Purity and concurrence come from log Z and stay finite; the Z column
    reads inf where Z itself exceeds the double range.
    """
    t = _check_temperature(t)
    label = classify(c, tol)
    if label.kind is CaseKind.SEPARABLE_DYADIC and branch is EnsembleBranch.FULL:
        f1, f2 = factor_dyadic(c, tol)
        logz = log_partition_separable(f1, f2, t)
        pur = purity((f1, f2), t, branch, tol)
        # Gibbs states of product Hamiltonians are explicitly separable.
        conc, flag = 0.0, 0
    else:
        d = derive(c, tol)
        if d.alpha_null or d.beta_null:
            logz = log_partition_entangled(c, t, branch, tol)
            pur = purity(c, t, branch, tol)
            tc = thermal_concurrence(c, t, tol, compare=False)
            conc, flag = tc.value, 0 if tc.reliable else 1
        elif branch is not EnsembleBranch.FULL:
            raise ValueError("the positive-only branch applies to the even constrained spectrum")
        else:
            logz = log_partition_numeric(c, t)
            pur = math.exp(log_partition_numeric(c, t / 2.0) - 2.0 * logz)
            conc, flag = wootters_concurrence(thermal_state(c, t)), 2
    return ThermalReport(t, partition_from_log(logz), pur, conc, branch, flag)
