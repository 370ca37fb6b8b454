"""Seeded verification suites: every closed form against its oracle route.

Each suite draws its own reproducible sample stream, reports the worst
deviation seen, and passes iff that stays inside the suite tolerance.  The
CLI ``verify`` subcommand is a thin wrapper around :func:`run_suites`.
"""

from __future__ import annotations

import math

import numpy as np

from ._invariants import _record
from .entanglement import (
    bloch_vectors,
    eigenstate_bloch_closed_form,
    eigenstate_concurrence_closed_form,
    pure_concurrence,
)
from .hamiltonian import CoefficientSet, fano_compose, rotate_set
from .oracle import eig_hermitian, wootters_concurrence
from .sampling import (
    RNG_ALGORITHM,
    make_rng,
    random_coefficient_set,
    random_commuting_thermal_set,
    random_diagonal_zero_set,
    random_dyadic_set,
    random_entangled_canonical,
    random_rotated_constrained,
    random_rotation,
)
from .solver import SolveMethod, solve
from .thermo import EnsembleBranch, thermal_state, thermal_sweep


@_record
class SuiteResult:
    name: str
    samples: int
    max_deviation: float
    tolerance: float
    passed: bool
    detail: str = ""

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{self.name:24s} samples={self.samples:<6d} "
            f"max_dev={self.max_deviation:.3e} tol={self.tolerance:.1e} {status}"
        )
        if self.detail:
            line += f"  [{self.detail}]"
        return line


def _worst(*devs) -> float:
    """The largest deviation, NaN if any is NaN: max() drops a NaN that
    compares false against a running maximum, so a suite would pass it."""
    return math.nan if any(math.isnan(x) for x in devs) else max(devs)


def _match_oracle(es, h) -> tuple[float, float]:
    """(eigenvalue deviation, projector deviation) against the dense oracle."""
    dec = eig_hermitian(h)
    closed = es.sorted_values()
    oracle = np.array(sorted(dec.eigenvalues))
    scale = 1.0 + float(np.max(np.abs(oracle)))
    val_dev = float(np.max(np.abs(closed - oracle))) / scale

    proj_dev = 0.0
    for _, e, s in es.items():
        k = int(np.argmin(np.abs(dec.eigenvalues - e)))
        proj_dev = _worst(proj_dev, float(np.max(np.abs(s - dec.projector(k)))))
    return val_dev, proj_dev


def _off_route(es, method: SolveMethod) -> float:
    """0.0 where :func:`solve` took the closed form ``method`` that a suite
    checks, inf where it took another route, so that the suite fails."""
    return 0.0 if es.method is method else math.inf


# The constrained branches that the entangled-route suites cycle through.
_BRANCHES = ("alpha", "beta", "both")


def suite_oracle_equivalence(samples: int, seed: int) -> SuiteResult:
    """Closed-form eigensystems reproduce the dense solver on product sets
    and on entangled sets of each constrained branch."""
    rng = make_rng(seed)
    worst = 0.0
    half = max(samples // 2, 1)
    for k in range(samples):
        if k < half:
            c, method = random_dyadic_set(rng), SolveMethod.SEPARABLE_CLOSED_FORM
        else:
            c = random_entangled_canonical(rng, _BRANCHES[(k - half) % 3])
            method = SolveMethod.ENTANGLED_CLOSED_FORM
        es = solve(c)
        worst = _worst(worst, *_match_oracle(es, fano_compose(c)), _off_route(es, method))
    # The worst of seeds 0-9 at 2000 samples is 4.4e-14.  Entangled-route
    # eigenvalues off by 1e-10 relative fail.
    return SuiteResult("oracle-equivalence", samples, worst, 5e-12, worst <= 5e-12)


def suite_orthonormality(samples: int, seed: int) -> SuiteResult:
    """Tr[rho_mn rho_pq] = delta delta and unit traces on entangled states
    of each constrained branch."""
    rng = make_rng(seed)
    worst = 0.0
    for k in range(samples):
        c = random_entangled_canonical(rng, _BRANCHES[k % 3])
        es = solve(c)
        worst = _worst(worst, _off_route(es, SolveMethod.ENTANGLED_CLOSED_FORM))
        states = [s for _, _, s in es.items()]
        for i, si in enumerate(states):
            worst = _worst(worst, abs(float(np.trace(si).real) - 1.0))
            for j, sj in enumerate(states):
                overlap = float(np.einsum("ab,ba->", si, sj).real)
                worst = _worst(worst, abs(overlap - (1.0 if i == j else 0.0)))
    # The worst of seeds 0-9 at 2000 samples is 1.1e-13 (4.0e-14 at seed 42).
    # States scaled by 1 + 1e-10 fail.
    return SuiteResult("orthonormality", samples, worst, 5e-12, worst <= 5e-12)


def suite_partition_function(samples: int, seed: int) -> SuiteResult:
    """Z and purity of :func:`thermal_sweep` against the trace of the Gibbs
    operator and sum p^2 over the dense spectrum, on product sets and on
    constrained sets on both branches.  Fails at once when a product set
    reads a flag other than 0 or a nonzero concurrence, or a constrained set
    reads flag 2 (the definition route)."""
    rng = make_rng(seed)
    worst = 0.0
    temps = np.array([0.1, 1.0, 10.0])
    # The worst of seeds 0-9 at 2000 samples is 1.4e-13: eigh's round-off in
    # the levels, times E/T up to ~50.  Levels off by 1e-12 relative fail.
    tol = 1e-11
    for k in range(samples):
        product = k % 2 == 0
        if product:
            c = random_dyadic_set(rng)
        else:
            c = random_entangled_canonical(rng, "alpha")
        w = eig_hermitian(fano_compose(c)).eigenvalues
        s = thermal_sweep(c, temps)
        if product and (np.any(s["flag"] != 0) or np.any(s["concurrence"] != 0.0)):
            detail = f"product set read flag {s['flag'][0]}, max C {np.max(s['concurrence']):.3e}"
            return SuiteResult("partition-function", samples, math.inf, tol, False, detail)
        if not product and np.any(s["flag"] == 2):
            detail = "constrained set read flag 2"
            return SuiteResult("partition-function", samples, math.inf, tol, False, detail)
        runs = [(s, w)]
        if not product:
            # The two largest eigenvalues are the positive branch.
            runs.append((thermal_sweep(c, temps, EnsembleBranch.POSITIVE_ONLY), w[:2]))
        for s, levels in runs:
            boltz = np.exp(-levels[:, None] / temps)
            z_ref = boltz.sum(0)
            pur_ref = ((boltz / z_ref) ** 2).sum(0)
            worst = _worst(
                worst,
                float(np.max(np.abs(s["z"] - z_ref) / z_ref)),
                float(np.max(np.abs(s["purity"] - pur_ref) / pur_ref)),
            )
    return SuiteResult("partition-function", samples, worst, tol, worst <= tol)


def _vanishing_alpha_set(rng) -> CoefficientSet:
    """An alpha-branch set with alpha scaled by 10^-j, j = 0..12, or zeroed,
    in random local frames: the constrained vector may be tiny or zero."""
    c = random_entangled_canonical(rng, "alpha")
    j = int(rng.integers(0, 14))
    c = CoefficientSet(c.upsilon, c.alpha * (10.0**-j if j <= 12 else 0.0), c.beta, c.omega)
    return rotate_set(c, random_rotation(rng), random_rotation(rng))


def suite_concurrence_routes(samples: int, seed: int) -> SuiteResult:
    """Coefficient closed form = Bloch route = Wootters definition, on
    canonical sets of each branch, on sets in random local frames and on
    sets whose constrained vector is tiny or zero."""
    rng = make_rng(seed)
    worst = 0.0
    branches = ("alpha", "beta", "both", "rotated", "vanishing")
    for k in range(samples):
        branch = branches[k % len(branches)]
        if branch == "rotated":
            c = random_rotated_constrained(rng)[1]
        elif branch == "vanishing":
            c = _vanishing_alpha_set(rng)
        else:
            c = random_entangled_canonical(rng, branch)
        es = solve(c)
        worst = _worst(worst, _off_route(es, SolveMethod.ENTANGLED_CLOSED_FORM))
        for (m, n), _, rho in es.items():
            closed = eigenstate_concurrence_closed_form(c, m, n)
            bloch = pure_concurrence(rho)
            woot = wootters_concurrence(rho)
            worst = _worst(worst, abs(closed - bloch), abs(closed - woot))
            pair_cf = eigenstate_bloch_closed_form(c, m, n)
            pair_tr = bloch_vectors(rho)
            worst = _worst(
                worst,
                float(np.max(np.abs(pair_cf.a_bloch - pair_tr.a_bloch))),
                float(np.max(np.abs(pair_cf.b_bloch - pair_tr.b_bloch))),
            )
    # The worst of seeds 0-9 at 2000 samples is 1.7e-12.  Bloch vectors from
    # Ht^2 components off by 1e-9 relative fail, and so does a radical
    # without its 4 Y^2 / Tp term (max_dev ~0.98).
    return SuiteResult("concurrence-routes", samples, worst, 5e-10, worst <= 5e-10)


def suite_thermal_concurrence(samples: int, seed: int) -> SuiteResult:
    """Each row's concurrence from :func:`thermal_sweep` against the Wootters
    concurrence of the Gibbs state.

    The commuting family, drawn in random local frames, must read flag 0
    (the closed form is provably exact there) and is asserted; so are the
    flag-0 rows of generic constrained sets, whose flag-1 rows contribute
    reporting statistics.  A constrained set that reads flag 2 fails.
    """
    rng = make_rng(seed)
    worst = 0.0
    unreliable_devs = []
    temps = np.array([0.3, 1.0, 5.0])
    # The worst of seeds 0-9 at 2000 samples is 8.4e-15.  A closed form off
    # by 1e-11 relative fails.
    tol = 5e-13
    for k in range(samples):
        commuting = k % 2 == 0
        if commuting:
            c = random_commuting_thermal_set(rng)
            c = rotate_set(c, random_rotation(rng), random_rotation(rng))
        else:
            c = random_entangled_canonical(rng, "alpha")
        s = thermal_sweep(c, temps)
        if commuting and np.any(s["flag"] != 0):
            detail = "commuting family flagged unreliable"
            return SuiteResult("thermal-concurrence", samples, math.inf, tol, False, detail)
        if np.any(s["flag"] == 2):
            detail = "constrained set read flag 2"
            return SuiteResult("thermal-concurrence", samples, math.inf, tol, False, detail)
        for t, conc, flag in zip(temps, s["concurrence"], s["flag"]):
            dev = abs(float(conc) - wootters_concurrence(thermal_state(c, t)))
            if flag == 0:
                worst = _worst(worst, dev)
            else:
                unreliable_devs.append(dev)
    detail = ""
    if unreliable_devs:
        detail = (
            f"outside commuting regime: n={len(unreliable_devs)}, "
            f"median dev={np.median(unreliable_devs):.2e}, "
            f"max dev={np.max(unreliable_devs):.2e} (reported, not asserted)"
        )
    return SuiteResult("thermal-concurrence", samples, worst, tol, worst <= tol, detail)


# Set families, cycled in this order so that the first three samples already
# reach every route: separable, entangled, oracle.  Fewer samples are refused.
DISPATCH_MIN_SAMPLES = 3
_DISPATCH_DRAWS = (
    random_dyadic_set,
    lambda rng: random_entangled_canonical(rng, "alpha"),
    random_coefficient_set,
    lambda rng: random_entangled_canonical(rng, "beta"),
    lambda rng: random_entangled_canonical(rng, "both"),
    lambda rng: random_rotated_constrained(rng)[1],
    random_diagonal_zero_set,
)


def suite_solver_dispatch(samples: int, seed: int) -> SuiteResult:
    """solve() matches the oracle eigenvalues and projectors on every route;
    the suite fails if any route was never taken."""
    rng = make_rng(seed)
    worst = 0.0
    routes = {m.value: 0 for m in SolveMethod}
    for k in range(samples):
        c = _DISPATCH_DRAWS[k % len(_DISPATCH_DRAWS)](rng)
        es = solve(c)
        routes[es.method.value] += 1
        worst = _worst(worst, *_match_oracle(es, fano_compose(c)))
    detail = " ".join(f"{name}={count}" for name, count in routes.items())
    passed = worst <= 1e-9 and all(routes.values())
    return SuiteResult("solver-dispatch", samples, worst, 1e-9, passed, detail)


SUITES = {
    "oracle-equivalence": suite_oracle_equivalence,
    "orthonormality": suite_orthonormality,
    "partition-function": suite_partition_function,
    "concurrence-routes": suite_concurrence_routes,
    "thermal-concurrence": suite_thermal_concurrence,
    "solver-dispatch": suite_solver_dispatch,
}


def run_suites(samples: int, seed: int, names=None) -> list[SuiteResult]:
    if samples < 1:
        raise ValueError("sample count must be at least 1")
    picked = list(SUITES) if names is None else list(names)
    for name in picked:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; choices: {sorted(SUITES)}")
    if "solver-dispatch" in picked and samples < DISPATCH_MIN_SAMPLES:
        raise ValueError(
            f"solver-dispatch needs at least {DISPATCH_MIN_SAMPLES} samples to reach every route"
        )
    return [SUITES[name](samples, seed) for name in picked]


def report_lines(results: list[SuiteResult], samples: int, seed: int) -> list[str]:
    lines = [f"verification: {samples} samples, seed {seed}, rng {RNG_ALGORITHM}"]
    lines.extend(r.summary() for r in results)
    lines.append("all suites passed" if all(r.passed for r in results) else "FAILURES present")
    return lines
