"""Cross-module checks: named parameter points, scale stress, wire formats."""

import json

import numpy as np

from su2pair.graphene import GrapheneParams, map_to_su2su2
from su2pair.hamiltonian import CoefficientSet, fano_compose
from su2pair.oracle import eig_hermitian, wootters_concurrence
from su2pair.sampling import (
    make_rng,
    random_coefficient_set,
    random_dyadic_set,
    random_entangled_canonical,
)
from su2pair.entanglement import pure_concurrence
from su2pair.serialization import eigensystem_to_dict
from su2pair.solver import solve, solve_entangled
from su2pair.thermo import EnsembleBranch, thermal_report, thermal_state

from references import build_ab_hamiltonian


def test_biased_gamma_point_oracle_vs_closed_form():
    """Strong bias at k = 0: dense spectrum equals the closed form."""
    p = GrapheneParams(bias=10.0)
    c = map_to_su2su2(p, 0.0, 0.0)
    es = solve_entangled(c)
    w = eig_hermitian(build_ab_hamiltonian(p, 0.0, 0.0)).eigenvalues
    assert np.max(np.abs(np.sort(es.values.ravel()) - np.sort(w))) <= 1e-9 * (
        1 + np.max(np.abs(w))
    )


def test_named_k_point_concurrence_routes():
    p = GrapheneParams(bias=1.0)
    c = map_to_su2su2(p, 1.0, 0.5)
    es = solve_entangled(c)
    for (m, n), _, rho in es.items():
        assert abs(pure_concurrence(rho) - wootters_concurrence(rho)) <= 1e-7


def test_named_k_point_partition_function():
    p = GrapheneParams(bias=1.0)
    c = map_to_su2su2(p, 1.0, 0.5)
    w = eig_hermitian(fano_compose(c)).eigenvalues
    z_ref = float(np.sum(np.exp(-w / 1.0)))
    assert abs(thermal_report(c, 1.0).z_value - z_ref) <= 1e-9 * z_ref


def test_solve_across_scales():
    """Dispatch stays numerically sound 6 orders of magnitude either way."""
    rng = make_rng(123)
    for lam in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        for k in range(30):
            base = (
                random_dyadic_set(rng),
                random_entangled_canonical(rng, "alpha"),
                random_coefficient_set(rng),
            )[k % 3]
            c = CoefficientSet(
                lam * base.upsilon, lam * base.alpha, lam * base.beta, lam * base.omega
            )
            es = solve(c)
            h = fano_compose(c)
            w = eig_hermitian(h).eigenvalues
            scale = 1.0 + float(np.max(np.abs(w)))
            dev = float(np.max(np.abs(np.sort(es.values.ravel()) - np.sort(w))))
            assert dev <= 1e-9 * scale
            res = es.residuals(h)
            assert res["completeness"] <= 1e-9
            assert res["eigen"] <= 1e-8


def test_positive_branch_purity_equals_projected_state(rng):
    """Z+(T/2)/Z+(T)^2 is the purity of the positive-subspace Gibbs state."""
    for _ in range(20):
        c = random_entangled_canonical(rng, "alpha")
        dec = eig_hermitian(fano_compose(c))
        proj = dec.projector(0) + dec.projector(1)  # two largest energies
        for t in (0.5, 2.0):
            raw = proj @ thermal_state(c, t) @ proj
            rho_pos = raw / np.trace(raw).real
            ref = float(np.einsum("ab,ba->", rho_pos, rho_pos).real)
            got = thermal_report(c, t, EnsembleBranch.POSITIVE_ONLY).purity
            assert abs(got - ref) <= 1e-8


def test_eigensystem_json_values_round_trip(rng):
    c = random_entangled_canonical(rng, "alpha")
    es = solve_entangled(c)
    payload = json.loads(json.dumps(eigensystem_to_dict(es)))
    for entry in payload["eigenvalues"]:
        assert entry["value"] == es.eigenvalue(entry["m"], entry["n"])
    states = np.array(payload["states"])
    rebuilt = states[..., 0] + 1j * states[..., 1]
    flat = [s for _, _, s in es.items()]
    for got, want in zip(rebuilt, flat):
        assert np.array_equal(got, want)
