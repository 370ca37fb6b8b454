"""Thermal ensembles: partition functions, purity, thermal states and concurrence.

Boltzmann's constant is 1 throughout; temperatures share the energy unit of
the Hamiltonian.  Every cosh/sinh/exp combination is evaluated after
factoring out the dominant exponent, so the purity limits remain computable
at temperatures many orders of magnitude away from the spectral scale.

The partition functions, the purity and the thermal-concurrence pieces take
a temperature or an array of temperatures; a scalar temperature gives a
Python float.  :func:`thermal_sweep` evaluates a whole sweep with the
temperature-independent work done once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import (
    COMMUTATOR_RTOL,
    DEFAULT_TOL,
    CaseKind,
    CoefficientSet,
    DerivedCoefficients,
    _decide,
    derive,
    even_spectrum,
    fano_compose,
)
from .oracle import (
    SpectralDecomposition,
    concurrence_from_weights,
    eig_hermitian,
    wootters_concurrence,
)
from .pauli import max_abs, pauli_word
from .solver import Eigensystem, Su2Factor, _factors

# Temperatures per stacked Wootters SVD on the definition route: bounds the
# (block, 4, 4) temporaries of a sweep whatever its length, and keeps each
# block large enough that numpy's per-call cost stays small.
SWEEP_BLOCK = 128


class EnsembleBranch(enum.Enum):
    FULL = "full"
    POSITIVE_ONLY = "positive-only"


def _check_temperature(t) -> np.ndarray:
    """``t`` as a float array (0-d for a scalar), every entry positive and finite."""
    t = np.asarray(t, dtype=float)
    bad = ~((t > 0.0) & np.isfinite(t))
    if bad.any():
        raise ValueError(f"temperature must be positive and finite, got {t[bad].flat[0]}")
    return t


def _scalar_or_array(x):
    """A 0-d result as a Python float, so scalar temperatures give scalars."""
    return float(x) if np.ndim(x) == 0 else x


def partition_from_log(logz):
    """Z = exp(log Z), or inf where Z exceeds the largest double."""
    with np.errstate(over="ignore"):
        return _scalar_or_array(np.exp(logz))


def _logsumexp(vals):
    """log sum_k exp(vals[k]) elementwise over equally shaped terms, summed
    in list order after factoring out the largest term."""
    top = vals[0]
    for v in vals[1:]:
        top = np.maximum(top, v)
    finite = np.isfinite(top)
    shift = np.where(finite, top, 0.0)
    acc = 0.0
    for v in vals:
        acc = acc + np.exp(v - shift)
    return np.where(finite, top + np.log(acc), top)


def _log_partition_and_purity(logz, t):
    """(log Z(T), Z(T/2) / Z(T)^2) from a log-partition function of
    temperature arrays."""
    logz_t = logz(t)
    return logz_t, np.exp(logz(t / 2.0) - 2.0 * logz_t)


# --- separable ensemble ---------------------------------------------------------


def _log_partition_product(f1: Su2Factor, f2: Su2Factor, t):
    a0, a = f1.a0, f1.norm
    b0, b = f2.a0, f2.norm
    x = [a * b / t, a0 * b / t, a * b0 / t]
    base = -a0 * b0 / t
    ax = [np.abs(v) for v in x]
    l1, l2, l3 = (-2.0 * v for v in ax)
    sign = np.sign(x[0]) * np.sign(x[1]) * np.sign(x[2])
    tail = np.where(
        sign > 0,
        _logsumexp([l1, l2, l3, l1 + l2 + l3]),
        np.where(
            sign < 0,
            _logsumexp([0.0, l1 + l2, l1 + l3, l2 + l3]),
            np.log1p(np.exp(l1)) + np.log1p(np.exp(l2)) + np.log1p(np.exp(l3)) - math.log(2.0),
        ),
    )
    return base + (ax[0] + ax[1] + ax[2]) + tail


def log_partition_separable(f1: Su2Factor, f2: Su2Factor, t):
    """log Tr[exp(-H1 (x) H2 / t)] from the hyperbolic product form.

    Z = 4 exp(-a0 b0 / t) [prod_p cosh(m_p/t) - prod_p sinh(m_p/t)] with
    m_1 = a b, m_2 = a0 b, m_3 = a b0.  The product difference is expanded
    in e^{-2|m_p/t|} so there is no cancellation and no overflow.
    """
    return _scalar_or_array(_log_partition_product(f1, f2, _check_temperature(t)))


def partition_separable(f1: Su2Factor, f2: Su2Factor, t):
    return partition_from_log(log_partition_separable(f1, f2, t))


# --- constrained entangled ensemble ---------------------------------------------


def _log_partition_even(upsilon: float, e1: float, e2: float, t, branch: EnsembleBranch):
    y1, y2 = e1 / t, e2 / t
    if branch is EnsembleBranch.FULL:
        tail = np.log1p(np.exp(-2 * y2) + np.exp(y1 - y2) + np.exp(-y1 - y2))
        return -upsilon / t + y2 + tail
    return -upsilon / t - y1 + np.log1p(np.exp(-(y2 - y1)))


def _log_partition_even_fn(upsilon: float, d: DerivedCoefficients, branch: EnsembleBranch):
    """log Z over temperature arrays of a constrained set with derived
    coefficients ``d``."""
    _, e1, e2 = even_spectrum(d)
    return lambda t: _log_partition_even(upsilon, e1, e2, t, branch)


def _log_partition_fn(system, branch: EnsembleBranch, tol: float):
    """log Z as a function of temperature arrays, the set's own work done once.

    ``system`` is a constraint-satisfying CoefficientSet or a pair of
    Su2Factor (full branch only).
    """
    if isinstance(system, CoefficientSet):
        return _log_partition_even_fn(system.upsilon, derive(system, tol), branch)
    if branch is not EnsembleBranch.FULL:
        raise ValueError("the positive-only branch applies to the even constrained spectrum")
    f1, f2 = system
    return lambda t: _log_partition_product(f1, f2, t)


def log_partition_entangled(
    c: CoefficientSet,
    t,
    branch: EnsembleBranch = EnsembleBranch.FULL,
    tol: float = DEFAULT_TOL,
):
    """log of Z = 2 exp(-u/t) [cosh(E2/t) + cosh(E1/t)], or of the
    positive-energy restriction with cosh(y) replaced by exp(-y)/2."""
    t = _check_temperature(t)
    return _scalar_or_array(_log_partition_fn(c, branch, tol)(t))


def partition_entangled(
    c: CoefficientSet,
    t,
    branch: EnsembleBranch = EnsembleBranch.FULL,
    tol: float = DEFAULT_TOL,
):
    return partition_from_log(log_partition_entangled(c, t, branch, tol))


# --- purity ---------------------------------------------------------------------


def purity(
    system,
    t,
    branch: EnsembleBranch = EnsembleBranch.FULL,
    tol: float = DEFAULT_TOL,
):
    """Thermal purity Z(T/2) / Z(T)^2.

    ``system`` is either a CoefficientSet satisfying a contraction constraint
    or a pair of Su2Factor (product Hamiltonian; full branch only).  Tends to
    1/4 as T -> infinity and to 1 as T -> 0 for non-degenerate spectra.
    """
    t = _check_temperature(t)
    _, pur = _log_partition_and_purity(_log_partition_fn(system, branch, tol), t)
    return _scalar_or_array(pur)


# --- thermal states --------------------------------------------------------------


def thermal_state(c: CoefficientSet, t: float) -> np.ndarray:
    """The Gibbs state exp(-H/t) / Z for any coefficient set."""
    t = float(_check_temperature(t))
    dec = eig_hermitian(fano_compose(c))
    w = dec.eigenvalues
    boltz = np.exp(-(w - w[-1]) / t)
    rho = (dec.eigenvectors * boltz) @ dec.eigenvectors.conj().T
    return rho / float(np.sum(boltz))


def thermal_state_from_eigensystem(es: Eigensystem, t: float) -> np.ndarray:
    """Gibbs state assembled as sum_mn rho_mn exp(-e_mn/t) / Z."""
    t = float(_check_temperature(t))
    emin = float(np.min(es.values))
    num = np.zeros((4, 4), dtype=complex)
    z = 0.0
    for _, e, s in es.items():
        wgt = math.exp(-(e - emin) / t)
        num += wgt * s
        z += wgt
    return num / z


def _log_partition_levels(w: np.ndarray, t):
    return _logsumexp([-v / t for v in w])


def log_partition_numeric(c: CoefficientSet, t):
    """log Tr[exp(-H/t)] from the numerical spectrum, for any set."""
    t = _check_temperature(t)
    w = eig_hermitian(fano_compose(c)).eigenvalues
    return _scalar_or_array(_log_partition_levels(w, t))


def _gibbs_concurrence(dec: SpectralDecomposition, t: np.ndarray) -> np.ndarray:
    """Wootters concurrence of the Gibbs states at temperatures ``t`` from one
    eigendecomposition of H.

    With rho = V diag(p) V^dag, the Wootters lambdas are the singular values
    of D^1/2 M D^1/2, where M = V^T (sy (x) sy) V and D = diag(p) (Wootters,
    PRL 80, 2245 (1998)): one stacked SVD per SWEEP_BLOCK temperatures, with
    no square root of a near-zero eigenvalue, through the oracle's
    :func:`~su2pair.oracle.concurrence_from_weights`.  States with
    sum p^2 <= 1/3 lie in the separable ball (Zyczkowski et al., PRA 58, 883
    (1998)) and read 0 without one.
    """
    w, v = dec.eigenvalues, dec.eigenvectors
    m = v.T @ pauli_word(2, 2) @ v
    boltz = np.exp(-(w - w[-1]) / t[:, None])
    p = boltz / np.sum(boltz, axis=1, keepdims=True)
    rows = np.flatnonzero(np.sum(p * p, axis=1) > 1.0 / 3.0)
    out = np.zeros(t.shape)
    for start in range(0, rows.size, SWEEP_BLOCK):
        block = rows[start:start + SWEEP_BLOCK]
        out[block] = concurrence_from_weights(np.sqrt(p[block]), m)
    return out


# --- thermal concurrence ----------------------------------------------------------


@dataclass(frozen=True)
class ThermalConcurrenceResult:
    """Closed-form thermal concurrence with its validity diagnostic.

    ``value`` is the closed form; ``wootters`` the definition route on the
    Gibbs state (None when comparison is skipped); ``commutator_norm`` is
    the largest entry of [H(a,b,w), H(-a,-b,w)] in the frame the set is
    given in (that norm is not frame-invariant), which must vanish for the
    closed form to be exact; ``reliable`` records that condition.
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


def sinh_cosh_gap(xp, xm, shift):
    """e^{-shift} [sinh(xp) - cosh(xm)] for xm and xp in [0, shift]: every
    exponent is at most zero, so nothing overflows, and the sign is exact."""
    return _scalar_or_array(
        (
            np.exp(xp - shift) * -np.expm1(-2 * xp)
            - np.exp(xm - shift) * (1.0 + np.exp(-2 * xm))
        )
        / 2.0
    )


def cosh_pair(y1, y2):
    """e^{-y2} [cosh(y2) + cosh(y1)] for 0 <= y1 <= y2, without overflow."""
    return _scalar_or_array(
        (1.0 + np.exp(-2 * y2) + np.exp(y1 - y2) + np.exp(-y1 - y2)) / 2.0
    )


def _closed_form_concurrence(c: CoefficientSet, d: DerivedCoefficients, t):
    """(closed-form C at temperatures t, commutator norm, reliable) of a
    constrained set with derived coefficients ``d``; see
    :func:`thermal_concurrence`."""
    _, e1, e2 = even_spectrum(d)
    two_adj = 2.0 * d.adj_norm
    xp = math.sqrt(d.omega_sq + two_adj) / t
    xm = math.sqrt(max(d.omega_sq - two_adj, 0.0)) / t
    y1, y2 = e1 / t, e2 / t
    # Both scaled by e^{-y2}; x+ <= y2.
    value = np.maximum(sinh_cosh_gap(xp, xm, y2), 0.0) / cosh_pair(y1, y2)
    comm, reliable = spin_flip_commutator(c)
    return value, comm, reliable


def thermal_concurrence(
    c: CoefficientSet, t: float, tol: float = DEFAULT_TOL, compare: bool = True
) -> ThermalConcurrenceResult:
    """Closed-form concurrence of the Gibbs state of a constrained set.

        C = max{sinh(x+/t) - cosh(x-/t), 0} / [cosh(E2/t) + cosh(E1/t)]

    with x+- = sqrt(|w|_F^2 +- 2 |adj w|_F), in any local frame the
    sqrt(Tr[w_B w_B^T] +- 2 |det w_B|) of the block frame.  The derivation
    commutes the Gibbs state with its spin flip, which only holds when the
    local part commutes with the interaction part; the result carries that
    commutator norm, and ``wootters`` (computed unless ``compare=False``)
    lets callers quantify the deviation outside the provable regime.
    """
    t = float(_check_temperature(t))
    value, comm, reliable = _closed_form_concurrence(c, derive(c, tol), t)
    woot = wootters_concurrence(thermal_state(c, t)) if compare else None
    return ThermalConcurrenceResult(
        value=float(value), commutator_norm=comm, reliable=reliable, wootters=woot
    )


# --- temperature sweeps (CLI) ------------------------------------------------------


def thermal_sweep(
    c: CoefficientSet,
    temps,
    branch: EnsembleBranch = EnsembleBranch.FULL,
    tol: float = DEFAULT_TOL,
) -> dict[str, np.ndarray]:
    """Z, purity and concurrence of any coefficient set over a 1-D array of
    temperatures, closed-form when possible.

    Returns the columns ``t``, ``z``, ``purity``, ``concurrence`` and
    ``flag``.  The route is chosen once per set: product sets use the
    separable closed forms (C = 0), constrained sets the even-spectrum ones
    and the closed-form concurrence, every other set the dense spectrum of
    one eigendecomposition of H with the Wootters concurrence of its Gibbs
    states.  Flags are therefore constant along a sweep; their values are
    those of :class:`ThermalReport`.  Purity and concurrence come from
    log Z and stay finite; ``z`` reads inf where Z exceeds the double range.

    Raises ValueError for a temperature that is not positive and finite, and
    for the positive branch on a set that meets neither constraint.
    """
    t = _check_temperature(temps)
    if t.ndim != 1:
        raise ValueError("temperatures must form a 1-D array")
    kind, _, d, leading, _ = _decide(c, tol)
    if kind is CaseKind.SEPARABLE_DYADIC and branch is EnsembleBranch.FULL:
        logz = _log_partition_fn(_factors(c, leading), branch, tol)
        # Gibbs states of product Hamiltonians are explicitly separable.
        conc, flag = np.zeros(t.shape), 0
    elif d.alpha_null or d.beta_null:
        logz = _log_partition_even_fn(c.upsilon, d, branch)
        conc, _, reliable = _closed_form_concurrence(c, d, t)
        flag = 0 if reliable else 1
    elif branch is not EnsembleBranch.FULL:
        raise ValueError("the positive-only branch applies to the even constrained spectrum")
    else:
        dec = eig_hermitian(fano_compose(c))
        logz = lambda tt: _log_partition_levels(dec.eigenvalues, tt)
        conc, flag = _gibbs_concurrence(dec, t), 2
    logz_t, pur = _log_partition_and_purity(logz, t)
    return {
        "t": t,
        "z": partition_from_log(logz_t),
        "purity": pur,
        "concurrence": conc,
        "flag": np.full(t.shape, flag),
    }


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
    """One sweep row: :func:`thermal_sweep` at the single temperature ``t``.

    Raises ValueError as thermal_sweep does.
    """
    s = thermal_sweep(c, [t], branch, tol)
    return ThermalReport(
        float(s["t"][0]),
        float(s["z"][0]),
        float(s["purity"][0]),
        float(s["concurrence"][0]),
        branch,
        int(s["flag"][0]),
    )
