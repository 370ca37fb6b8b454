"""Thermal ensembles: partition functions, purity, thermal states and concurrence.

Boltzmann's constant is 1 throughout; temperatures share the energy unit of
the Hamiltonian.  Every thermal quantity comes from one kernel,
:func:`_gibbs_weights`: the weights w_k = exp(-(e_k - e_min)/T) of the
levels base + e_k, each at most 1 and the lowest level's exactly 1, with the
log shift -(base + e_min)/T kept apart.  Then log Z = shift + log sum w, the
purity is sum w^2 / (sum w)^2 (the sum of the squared occupations, with no
difference of two log Z values), a Gibbs state's occupations are w / sum w,
and the denominator e^{-E2/T} [cosh(E2/T) + cosh(E1/T)] of the closed-form
concurrence is half the sum of the four even levels' weights.  The levels
are offsets from the base energy: upsilon and +-E1, +-E2 for a constrained
set, a0 b0 and the product offsets for a separable one, 0 and the dense
eigenvalues otherwise.  Nothing overflows, and a large base energy stays out
of the level differences.

:func:`thermal_sweep` is the thermal entry point: Z, purity, concurrence
and flag of any set over an array of temperatures, with the
temperature-independent work done once and one set of weights shared by Z,
purity and concurrence.  :func:`thermal_report` is its one-row view.
:func:`thermal_concurrence` sets a constrained set's closed form at one
temperature beside the Wootters concurrence of its Gibbs state, which it
takes, like the sweep's definition route, from one eigendecomposition of H.
"""

from __future__ import annotations

import enum
import math

import numpy as np

# A module import: of thermal_sweep's routes, only the definition route
# executes the oracle.
from . import oracle
from ._invariants import COMMUTATOR_RTOL, _record, _unconstrained_message, even_spectrum
from .errors import ConstraintError
from .hamiltonian import (
    CaseKind,
    CoefficientSet,
    DerivedCoefficients,
    _decide,
    _factor_parts,
    derive,
    fano_compose,
)
from .pauli import pauli_word

# Temperatures per stacked Wootters SVD on the definition route: bounds the
# (block, 4, 4) temporaries of a sweep whatever its length, and keeps each
# block large enough that numpy's per-call cost stays small.
SWEEP_BLOCK = 128


class EnsembleBranch(enum.Enum):
    FULL = "full"
    POSITIVE_ONLY = "positive-only"


def _check_temperature(t, ndim: int) -> np.ndarray:
    """``t`` as a float array of ``ndim`` dimensions, 0 for one temperature
    and 1 for a sweep, every entry positive and finite: the package's one
    rule for temperatures.  Raises ValueError for anything else, strings,
    bools, complex numbers and objects included, which a cast to float
    would read as numbers or refuse with numpy's own error.
    """
    t = np.asarray(t)
    if t.dtype.kind not in "iuf":
        raise ValueError(f"temperature must be a real number, got dtype {t.dtype.name}")
    t = t.astype(float, copy=False)
    bad = ~((t > 0.0) & np.isfinite(t))
    if bad.any():
        raise ValueError(f"temperature must be positive and finite, got {t[bad].flat[0]}")
    if t.ndim != ndim:
        raise ValueError(
            f"temperature must be one number, not of shape {t.shape}" if ndim == 0
            else "temperatures must form a 1-D array"
        )
    return t


# --- Gibbs weights ----------------------------------------------------------------


def _gibbs_weights(base: float, levels, t: np.ndarray):
    """(w, shift) of the levels base + e_k at the temperatures ``t``.

    w[k] = exp(-(e_k - e_min)/T), with the levels on the first axis and the
    shape of ``t`` after it, and shift = -(base + e_min)/T, so that
    Z = e^shift sum_k w[k].  Every weight is at most 1 and the lowest
    level's is 1, so sum w lies in [1, 4].
    """
    levels = np.asarray(levels, dtype=float)
    e_min = levels.min()
    gaps = (levels - e_min).reshape(levels.shape + (1,) * t.ndim)
    return np.exp(-gaps / t), -(base + e_min) / t


def _partition(w: np.ndarray, shift) -> np.ndarray:
    """Z = exp(shift + log sum w), or inf where Z exceeds the largest double."""
    with np.errstate(over="ignore"):
        return np.exp(shift + np.log(w.sum(0)))


def _purity(w: np.ndarray) -> np.ndarray:
    """sum_k p_k^2 with p = w / sum w."""
    total = w.sum(0)
    return (w * w).sum(0) / (total * total)


def _product_levels(a0: float, a_vec: np.ndarray, b0: float, b_vec: np.ndarray):
    """(a0 b0, offsets) of the product levels (a0 +- a)(b0 +- b), a = |a_vec|, b = |b_vec|."""
    a, b = math.sqrt(a_vec @ a_vec), math.sqrt(b_vec @ b_vec)
    m1, m2, m3 = a * b, a0 * b, a * b0
    return a0 * b0, [m1 + m2 + m3, m3 - m1 - m2, m2 - m1 - m3, m1 - m2 - m3]


# --- thermal states --------------------------------------------------------------


def thermal_state(c: CoefficientSet, t: float) -> np.ndarray:
    """The Gibbs state exp(-H/t) / Z for any coefficient set.  Raises
    ValueError for a ``t`` that :func:`_check_temperature` refuses as one
    temperature."""
    dec = oracle.eig_hermitian(fano_compose(c))
    boltz, _ = _gibbs_weights(0.0, dec.eigenvalues, _check_temperature(t, 0))
    rho = (dec.eigenvectors * boltz) @ dec.eigenvectors.conj().T
    return rho / float(np.sum(boltz))


def _gibbs_concurrence(dec: oracle.SpectralDecomposition, boltz: np.ndarray, purity) -> np.ndarray:
    """Wootters concurrence of the Gibbs states with weights ``boltz``
    (levels, temperatures) over the eigenvalues of one eigendecomposition of H.

    With rho = V diag(p) V^dag, the Wootters lambdas are the singular values
    of D^1/2 M D^1/2, where M = V^T (sy (x) sy) V and D = diag(p) (Wootters,
    PRL 80, 2245 (1998)): one stacked SVD per SWEEP_BLOCK temperatures, with
    no square root of a near-zero eigenvalue, through the oracle's
    :func:`~su2pair.oracle.concurrence_from_weights`.  States whose
    ``purity`` sum p^2 is at most 1/3, as the sweep computed it, lie in the
    separable ball (Zyczkowski et al., PRA 58, 883 (1998)) and read 0
    without one.
    """
    m = dec.eigenvectors.T @ pauli_word(2, 2) @ dec.eigenvectors
    p = (boltz / boltz.sum(0)).T
    rows = np.flatnonzero(purity > 1.0 / 3.0)
    out = np.zeros(p.shape[0])
    for start in range(0, rows.size, SWEEP_BLOCK):
        block = rows[start:start + SWEEP_BLOCK]
        out[block] = oracle.concurrence_from_weights(np.sqrt(p[block]), m)
    return out


# --- thermal concurrence ----------------------------------------------------------


@_record
class ThermalConcurrenceResult:
    """Closed-form thermal concurrence with its validity diagnostic.

    ``value`` is the closed form; ``wootters`` the definition route on the
    Gibbs state; ``commutator_norm`` is the Frobenius norm of
    [H(a,b,w), H(-a,-b,w)], which no local rotation changes and which must
    vanish for the closed form to be exact; ``reliable`` records that
    condition, as :func:`spin_flip_commutator` decides it.
    """

    value: float
    commutator_norm: float
    reliable: bool
    wootters: float

    @property
    def deviation(self) -> float:
        return abs(self.value - self.wootters)


def spin_flip_commutator(c: CoefficientSet) -> tuple[float, bool]:
    """Frobenius norm of [H(a,b,w), H(-a,-b,w)] and whether it is
    negligible, which makes the thermal-concurrence closed form provably
    exact.

    The commutator is 4i sum_lj N_lj sigma_l (x) sigma_j with
    N_lj = (alpha x omega[:, j])_l + (beta x omega[l, :])_j.  The Pauli
    words are orthogonal with squared norm 4, so its Frobenius norm is
    8 |N|_F, read from N's nine entries.  A local rotation maps N to
    R1 N R2^T, so the norm, unlike any one matrix entry, holds in every
    frame.  The norm has no upsilon and is quadratic in alpha, beta and
    omega, so it is negligible when 0 or at most COMMUTATOR_RTOL V, a test
    free of shifts and scale.  N is formed from alpha, beta and omega
    divided by 2^k, the power of two with their largest modulus in
    [2^k, 2^(k+1)): an exact scaling, so N neither underflows for tiny sets
    nor overflows for huge ones, and the ratio to V keeps its bits.  The
    norm is scaled back by 4^k, and reads 0 or inf past the double range.
    """
    k = math.frexp(float(np.max(np.abs(c.packed[1:]))))[1] - 1
    v = np.ldexp(c.packed[1:], -k).tolist()
    a, b, w = v[:3], v[3:6], (v[6:9], v[9:12], v[12:])
    # Indices are cyclic: (x cross y)_l = x_{l+1} y_{l+2} - x_{l+2} y_{l+1}.
    norm = 8.0 * math.hypot(*[(a[l - 2] * w[l - 1][j] - a[l - 1] * w[l - 2][j])
                              + (b[j - 2] * w[l][j - 1] - b[j - 1] * w[l][j - 2])
                              for l in range(3) for j in range(3)])
    h = math.hypot(*v)
    return norm * 2.0**k * 2.0**k, norm == 0.0 or norm / h / h <= COMMUTATOR_RTOL


def sinh_cosh_gap(xp, xm, shift):
    """e^{-shift} [sinh(xp) - cosh(xm)] for xm and xp in [0, shift]: every
    exponent is at most zero, so nothing overflows, and the sign is exact."""
    return (
        np.exp(xp - shift) * -np.expm1(-2 * xp)
        - np.exp(xm - shift) * (1.0 + np.exp(-2 * xm))
    ) / 2.0


def _x_pm(d: DerivedCoefficients) -> tuple[float, float]:
    """x+- = sqrt(|w|_F^2 +- 2 |adj w|_F) of the closed form, x+ >= x-."""
    two_adj = 2.0 * d.adj_norm
    return math.sqrt(d.omega_sq + two_adj), math.sqrt(max(d.omega_sq - two_adj, 0.0))


def _even_closed_forms(upsilon: float, d: DerivedCoefficients, t: np.ndarray):
    """(w, shift, C, [E1, E2]) of a constrained set with derived
    coefficients ``d`` at temperatures ``t``, from one even spectrum: the
    Gibbs weights and log shift of the four levels upsilon +- E1,
    upsilon +- E2, the closed-form concurrence of
    :func:`thermal_concurrence`, and the positive offsets, whose levels are
    the positive-only branch.  Numerator and denominator of C are both
    scaled by e^{-E2/T}, and x+ <= E2.  Raises ConstraintError as
    :func:`~su2pair._invariants.even_spectrum` does."""
    _, e1, e2 = even_spectrum(d)
    boltz, shift = _gibbs_weights(upsilon, [-e2, -e1, e1, e2], t)
    xp, xm = _x_pm(d)
    conc = np.maximum(sinh_cosh_gap(xp / t, xm / t, e2 / t), 0.0) / (boltz.sum(0) / 2.0)
    return boltz, shift, conc, [e1, e2]


def thermal_concurrence(c: CoefficientSet, t: float) -> ThermalConcurrenceResult:
    """Closed-form concurrence of the Gibbs state of a constrained set.

        C = max{sinh(x+/t) - cosh(x-/t), 0} / [cosh(E2/t) + cosh(E1/t)]

    with x+- = sqrt(|w|_F^2 +- 2 |adj w|_F), in any local frame the
    sqrt(Tr[w_B w_B^T] +- 2 |det w_B|) of the block frame.  The derivation
    commutes the Gibbs state with its spin flip, which only holds when the
    local part commutes with the interaction part; the result carries that
    commutator norm, and ``wootters``, the Wootters concurrence of the Gibbs
    state from one eigendecomposition of H as :func:`thermal_sweep`'s
    definition route computes it, lets callers quantify the deviation
    outside the provable regime.  Raises ValueError for a ``t`` that
    :func:`_check_temperature` refuses as one temperature.
    """
    t = _check_temperature(t, 0)
    value = _even_closed_forms(c.upsilon, derive(c), t)[2]
    comm, reliable = spin_flip_commutator(c)
    dec = oracle.eig_hermitian(fano_compose(c))
    boltz, _ = _gibbs_weights(0.0, dec.eigenvalues, t.reshape(1))
    woot = _gibbs_concurrence(dec, boltz, _purity(boltz))[0]
    return ThermalConcurrenceResult(
        value=float(value), commutator_norm=comm, reliable=reliable, wootters=float(woot)
    )


# --- temperature sweeps (CLI) ------------------------------------------------------


def thermal_sweep(
    c: CoefficientSet, temps, branch: EnsembleBranch = EnsembleBranch.FULL
) -> dict[str, np.ndarray]:
    """Z, purity and concurrence of any coefficient set over a 1-D array of
    temperatures, closed-form when possible.

    Returns the columns ``t``, ``z``, ``purity``, ``concurrence`` and
    ``flag``.  The route is chosen once per set: product sets take the
    product levels (C = 0), constrained sets the even levels and the
    closed-form concurrence, every other set the dense spectrum of one
    eigendecomposition of H with the Wootters concurrence of its Gibbs
    states.  Flags are therefore constant along a sweep; their values are
    those of :class:`ThermalReport`.  One set of Gibbs weights per route
    gives log Z, the purity and the concurrence, which stay finite; ``z``
    reads inf where Z exceeds the double range.  On the positive-only
    branch only ``z`` and ``purity`` come from the two positive levels:
    ``concurrence`` and ``flag`` stay those of the full ensemble.

    Raises ValueError for ``temps`` that :func:`_check_temperature`
    refuses as a 1-D array of temperatures, and ConstraintError, a
    ValueError, with the constraint residuals for the positive branch on a
    set that meets neither constraint.
    """
    return _sweep(c, _check_temperature(temps, 1), branch)


def _sweep(c: CoefficientSet, t: np.ndarray, branch: EnsembleBranch) -> dict[str, np.ndarray]:
    """:func:`thermal_sweep` at the 1-D temperatures ``t`` that
    :func:`_check_temperature` has passed."""
    kind, _, d, leading, _ = _decide(c)
    if kind is CaseKind.SEPARABLE_DYADIC and branch is EnsembleBranch.FULL:
        boltz, shift = _gibbs_weights(*_product_levels(*_factor_parts(c, leading)), t)
        # Gibbs states of product Hamiltonians are explicitly separable.
        conc, flag = np.zeros(t.shape), 0
    elif d.alpha_null or d.beta_null:
        boltz, shift, conc, positive = _even_closed_forms(c.upsilon, d, t)
        flag = 0 if spin_flip_commutator(c)[1] else 1
        if branch is not EnsembleBranch.FULL:
            boltz, shift = _gibbs_weights(c.upsilon, positive, t)
    elif branch is not EnsembleBranch.FULL:
        raise ConstraintError(
            "the positive-only branch applies to the even constrained spectrum: "
            + _unconstrained_message(d)
        )
    else:
        dec = oracle.eig_hermitian(fano_compose(c))
        boltz, shift = _gibbs_weights(0.0, dec.eigenvalues, t)
        flag = 2
    purity = _purity(boltz)
    if flag == 2:
        conc = _gibbs_concurrence(dec, boltz, purity)
    return {
        "t": t,
        "z": _partition(boltz, shift),
        "purity": purity,
        "concurrence": conc,
        "flag": np.full(t.shape, flag),
    }


@_record
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
    c: CoefficientSet, t: float, branch: EnsembleBranch = EnsembleBranch.FULL
) -> ThermalReport:
    """One sweep row: :func:`thermal_sweep` at the single temperature ``t``.

    Raises ValueError as thermal_sweep does, and for a ``t`` that
    :func:`_check_temperature` refuses as one temperature.
    """
    s = _sweep(c, _check_temperature(t, 0).reshape(1), branch)
    return ThermalReport(
        float(s["t"][0]),
        float(s["z"][0]),
        float(s["purity"][0]),
        float(s["concurrence"][0]),
        branch,
        int(s["flag"][0]),
    )
