import decimal
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from su2pair.errors import ConstraintError
from su2pair.hamiltonian import CoefficientSet, fano_compose, rotate_set
from su2pair.oracle import eig_hermitian, wootters_concurrence
from su2pair.sampling import (
    dyadic_set_from_factors,
    random_commuting_thermal_set,
    random_coefficient_set,
    random_dyadic_set,
    random_entangled_canonical,
    random_rotated_constrained,
    random_rotation,
    random_separable_factors,
)
from su2pair.solver import Su2Factor, factor_dyadic, solve_entangled, solve_separable
from su2pair.thermo import (
    SWEEP_BLOCK,
    EnsembleBranch,
    spin_flip_commutator,
    thermal_concurrence,
    thermal_report,
    thermal_state,
    thermal_sweep,
)

from references import log_partition_numeric, mat_func, thermal_state_from_eigensystem
from test_golden import SETS

ENTANGLED_EXAMPLE = CoefficientSet(0.0, (0, 0, 1), (0, 0, 0), np.diag([1.0, 1.0, 0.0]))
ZERO_SET = CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.zeros((3, 3)))


def oracle_z(c: CoefficientSet, t: float) -> float:
    w = eig_hermitian(fano_compose(c)).eigenvalues
    return float(np.sum(np.exp(-w / t)))


def product_set(a0, a, b0, b) -> CoefficientSet:
    return dyadic_set_from_factors(Su2Factor(a0, a), Su2Factor(b0, b))


class TestPartitionSeparable:
    def test_zero_hamiltonian(self):
        z = thermal_report(product_set(0, (0, 0, 0), 0, (0, 0, 0)), 1.0).z_value
        assert np.isclose(z, 4.0)

    def test_zz_product(self):
        c = product_set(0, (0, 0, 1), 0, (0, 0, 1))
        assert np.isclose(thermal_report(c, 1.0).z_value, 4.0 * np.cosh(1.0))

    def test_diagonal_spectrum(self):
        z = thermal_report(product_set(1, (0, 0, 1), 2, (0, 0, 1)), 2.0).z_value
        assert np.isclose(z, np.sum(np.exp(-np.array([0, 0, 2, 6]) / 2.0)))

    def test_oracle_equality_fuzz(self, rng):
        temps = np.array([0.1, 1.0, 10.0])
        for _ in range(100):
            c = dyadic_set_from_factors(*random_separable_factors(rng))
            s = thermal_sweep(c, temps)
            assert np.all(s["flag"] == 0)
            for t, z in zip(temps, s["z"]):
                z_ref = oracle_z(c, t)
                assert abs(z - z_ref) <= 1e-9 * z_ref

    def test_far_below_the_spectral_scale(self, rng):
        """At T = 1e-4 log Z lies beyond the double range: Z reads inf or 0
        on the side of its sign, and the purity keeps its digits."""
        c = dyadic_set_from_factors(*random_separable_factors(rng))
        f1, f2 = factor_dyadic(c)
        values = np.sort(
            [
                (f1.a0 + sm * f1.norm) * (f2.a0 + sn * f2.norm)
                for sm in (-1, 1)
                for sn in (-1, 1)
            ]
        )
        t = 1e-4
        want = -values[0] / t + math.log1p(
            sum(math.exp(-(v - values[0]) / t) for v in values[1:])
        )
        assert abs(want) > 746.0
        rep = thermal_report(c, t)
        assert rep.z_value == (math.inf if want > 0 else 0.0)
        w = [math.exp(-(v - values[0]) / t) for v in values]
        assert np.isclose(rep.purity, sum(x * x for x in w) / sum(w) ** 2, rtol=1e-12)

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            thermal_report(product_set(0, (0, 0, 1), 0, (0, 0, 1)), 0.0)


class TestPartitionEntangled:
    def test_zero_set(self):
        assert np.isclose(thermal_report(ZERO_SET, 1.0).z_value, 4.0)

    def test_reference_example(self):
        z = thermal_report(ENTANGLED_EXAMPLE, 1.0).z_value
        assert np.isclose(z, 2.0 * (np.cosh(np.sqrt(5.0)) + np.cosh(1.0)))

    def test_oracle_equality_fuzz(self, rng):
        temps = np.array([0.1, 1.0, 10.0])
        for k in range(100):
            branch = ("alpha", "beta", "both")[k % 3]
            c = random_entangled_canonical(rng, branch)
            s = thermal_sweep(c, temps)
            assert np.all(s["flag"] != 2)
            for t, z in zip(temps, s["z"]):
                z_ref = oracle_z(c, t)
                assert abs(z - z_ref) <= 1e-9 * z_ref

    def test_positive_branch(self):
        z = thermal_report(ZERO_SET, 1.0, EnsembleBranch.POSITIVE_ONLY).z_value
        assert np.isclose(z, 2.0)
        zp = thermal_report(ENTANGLED_EXAMPLE, 1.0, EnsembleBranch.POSITIVE_ONLY).z_value
        assert np.isclose(zp, np.exp(-np.sqrt(5.0)) + np.exp(-1.0))

    def test_positive_branch_oracle_projection(self, rng):
        """Positive branch equals the trace over the upper half spectrum."""
        temps = np.array([0.5, 2.0])
        for _ in range(50):
            c = random_entangled_canonical(rng, "alpha")
            w = eig_hermitian(fano_compose(c)).eigenvalues  # descending
            zp = thermal_sweep(c, temps, EnsembleBranch.POSITIVE_ONLY)["z"]
            for t, z in zip(temps, zp):
                z_ref = float(np.sum(np.exp(-w[:2] / t)))
                assert abs(z - z_ref) <= 1e-9 * z_ref

    @pytest.mark.parametrize(
        "alpha, beta",
        [((1, 2, 3), (3, 1, 2)), ((0, 0, 0), (0, 0, 0))],
        ids=["unconstrained", "xyz-exchange"],
    )
    def test_sets_without_a_constraint_take_the_definition_route(self, alpha, beta):
        """alpha = beta = 0 meets no constraint either once omega has full
        rank: flag 2 on the full branch, and the positive branch refused."""
        c = CoefficientSet(0.3, alpha, beta, np.diag([1.0, 2.0, 3.0]))
        rep = thermal_report(c, 1.0)
        assert rep.flag == 2
        assert np.isclose(rep.z_value, oracle_z(c, 1.0))
        with pytest.raises(ValueError, match="positive-only branch"):
            thermal_report(c, 1.0, EnsembleBranch.POSITIVE_ONLY)


class TestPurity:
    def test_zero_hamiltonian_always_quarter(self):
        pur = thermal_sweep(ZERO_SET, [1e-3, 1.0, 1e5])["purity"]
        assert np.allclose(pur, 0.25)

    def test_high_temperature_limit(self):
        assert abs(thermal_report(ENTANGLED_EXAMPLE, 1e6).purity - 0.25) <= 1e-3

    def test_low_temperature_limit(self):
        assert thermal_report(ENTANGLED_EXAMPLE, 1e-2).purity >= 1.0 - 1e-6

    def test_matches_state_purity(self, rng):
        for _ in range(50):
            c = random_entangled_canonical(rng, "alpha")
            for t in (0.3, 1.0, 4.0):
                rho = thermal_state(c, t)
                ref = float(np.einsum("ab,ba->", rho, rho).real)
                assert abs(thermal_report(c, t).purity - ref) <= 1e-8

    def test_separable_route(self, rng):
        for _ in range(30):
            c = dyadic_set_from_factors(*random_separable_factors(rng))
            for t in (0.5, 2.0):
                rho = thermal_state(c, t)
                ref = float(np.einsum("ab,ba->", rho, rho).real)
                rep = thermal_report(c, t)
                assert rep.flag == 0
                assert abs(rep.purity - ref) <= 1e-8

    def test_monotone_in_temperature(self, rng):
        for _ in range(20):
            c = random_entangled_canonical(rng, "alpha")
            temps = np.exp(np.linspace(np.log(0.05), np.log(50.0), 40))
            values = thermal_sweep(c, temps)["purity"]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_positive_branch_limits(self):
        pur = thermal_sweep(ENTANGLED_EXAMPLE, [1e-3, 1e7], EnsembleBranch.POSITIVE_ONLY)["purity"]
        assert pur[0] >= 1 - 1e-9
        # two-state ensemble: infinite-temperature purity is 1/2
        assert abs(pur[1] - 0.5) <= 1e-3

    def test_positive_branch_rejected_for_separable(self, rng):
        c = dyadic_set_from_factors(*random_separable_factors(rng))
        with pytest.raises(ValueError):
            thermal_report(c, 1.0, EnsembleBranch.POSITIVE_ONLY)


class TestThermalState:
    def test_infinite_temperature(self):
        rho = thermal_state(ENTANGLED_EXAMPLE, 1e8)
        assert np.max(np.abs(rho - np.eye(4) / 4)) <= 1e-6

    def test_matches_mat_func_route(self, rng):
        for _ in range(30):
            c = random_coefficient_set(rng)
            t = float(rng.uniform(0.5, 3.0))
            direct = mat_func(-fano_compose(c) / t, "exp")
            direct /= np.trace(direct).real
            assert np.max(np.abs(thermal_state(c, t) - direct)) <= 1e-9

    def test_eigensystem_expansion_separable(self, rng):
        for _ in range(30):
            f1, f2 = random_separable_factors(rng)
            c = dyadic_set_from_factors(f1, f2)
            es = solve_separable(f1, f2)
            for t in (0.5, 2.0):
                a = thermal_state(c, t)
                b = thermal_state_from_eigensystem(es, t)
                assert np.max(np.abs(a - b)) <= 1e-9

    def test_eigensystem_expansion_entangled(self, rng):
        for _ in range(30):
            c = random_entangled_canonical(rng, "alpha")
            es = solve_entangled(c)
            a = thermal_state(c, 1.0)
            b = thermal_state_from_eigensystem(es, 1.0)
            assert np.max(np.abs(a - b)) <= 1e-9

    def test_unit_trace_and_positivity(self, rng):
        for _ in range(20):
            c = random_coefficient_set(rng)
            rho = thermal_state(c, 0.7)
            assert abs(np.trace(rho).real - 1) <= 1e-12
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-14


class TestThermalConcurrence:
    def test_zero_when_block_determinant_vanishes(self):
        # x+ = x-: sinh never beats cosh at equal arguments.
        c = CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.diag([1.0, 0.0, 0.0]))
        for t in (0.01, 0.5, 10.0):
            assert thermal_concurrence(c, t).value == 0.0

    def test_bell_ground_state_limit(self):
        c = CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.diag([1.0, 1.0, 0.0]))
        res = thermal_concurrence(c, 0.05)
        assert res.reliable
        assert res.value >= 1.0 - 1e-6

    def test_exact_on_commuting_family(self, rng):
        for _ in range(60):
            c = random_commuting_thermal_set(rng)
            for t in (0.3, 1.0, 5.0):
                res = thermal_concurrence(c, t)
                assert res.reliable
                assert res.deviation <= 1e-7

    def test_reported_outside_commuting_regime(self, rng):
        saw_unreliable = False
        for _ in range(20):
            c = random_entangled_canonical(rng, "alpha")
            res = thermal_concurrence(c, 1.0)
            if res.reliable:
                assert res.deviation <= 1e-7
            else:
                saw_unreliable = True
                assert math.isfinite(res.deviation)
        assert saw_unreliable

    def test_rotation_invariance(self, rng):
        """The closed form reads |w|_F and |adj w|_F, so rotated commuting
        (flag 0) and rotated constrained (flag 1) sets give the block-form
        value.  Worst over ten seeds: 1.8e-15."""
        pairs = []
        for _ in range(20):
            c = random_commuting_thermal_set(rng)
            pairs.append((c, rotate_set(c, random_rotation(rng), random_rotation(rng))))
        pairs += [random_rotated_constrained(rng) for _ in range(20)]
        for c, rot in pairs:
            for t in (0.5, 2.0):
                a = thermal_concurrence(c, t).value
                b = thermal_concurrence(rot, t).value
                assert abs(a - b) <= 1e-13

    def test_one_eigendecomposition_per_call(self, monkeypatch):
        """The Wootters reference comes from the one eigendecomposition of H
        that the sweep's definition route uses, not from a second one of
        the Gibbs state."""
        calls = []
        real = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        thermal_concurrence(CoefficientSet(**SETS["rotated"]), 1.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["entangled", "rotated"])
    def test_wootters_is_the_gibbs_state_reference(self, name):
        """``wootters`` equals the Wootters concurrence of thermal_state over
        40 temperatures in [0.01, 100]."""
        c = CoefficientSet(**SETS[name])
        for t in np.geomspace(0.01, 100.0, 40):
            want = wootters_concurrence(thermal_state(c, t))
            assert abs(thermal_concurrence(c, t).wootters - want) <= 1e-13

    def test_unconstrained_set_raises(self):
        c = CoefficientSet(0.3, (1, 2, 3), (3, 1, 2), np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(ConstraintError, match="det_omega residual"):
            thermal_concurrence(c, 1.0)

    def test_monotone_death(self, rng):
        """Zero beyond the death temperature, positive on a left neighborhood."""
        c = CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.diag([1.0, 1.0, 0.0]))
        # death where sinh(2/t) = 1: t* = 2/arcsinh(1)
        t_star = 2.0 / np.arcsinh(1.0)
        for t in (t_star * 1.01, t_star * 2, t_star * 10):
            assert thermal_concurrence(c, t).value == 0.0
        for t in (t_star * 0.99, t_star * 0.5):
            assert thermal_concurrence(c, t).value > 0.0


class TestThermalReport:
    def test_separable_sets_report_zero_concurrence(self, rng):
        f1, f2 = random_separable_factors(rng)
        c = dyadic_set_from_factors(f1, f2)
        rep = thermal_report(c, 1.0)
        assert rep.flag == 0
        assert rep.concurrence == 0.0
        assert np.isclose(rep.z_value, oracle_z(c, 1.0))

    def test_entangled_report(self):
        rep = thermal_report(ENTANGLED_EXAMPLE, 1.0)
        assert rep.flag in (0, 1)
        assert np.isclose(rep.z_value, oracle_z(ENTANGLED_EXAMPLE, 1.0))
        assert 0.25 - 1e-9 <= rep.purity <= 1 + 1e-9

    def test_general_set_definition_route(self, rng):
        c = random_coefficient_set(rng)
        rep = thermal_report(c, 1.0)
        assert rep.flag == 2
        assert np.isclose(rep.z_value, oracle_z(c, 1.0))
        assert np.isclose(
            rep.concurrence, wootters_concurrence(thermal_state(c, 1.0)), atol=1e-10
        )

    def test_bad_temperature_and_branch_raise(self, rng):
        with pytest.raises(ValueError):
            thermal_report(ENTANGLED_EXAMPLE, 0.0)
        with pytest.raises(ValueError):
            thermal_sweep(ENTANGLED_EXAMPLE, [1.0, np.inf])
        with pytest.raises(ValueError):
            thermal_report(random_coefficient_set(rng), 1.0, EnsembleBranch.POSITIVE_ONLY)


# Every thermal_sweep route: product sets (separable closed forms), canonical
# and rotated constrained sets (even-spectrum closed forms, flag 1), the
# commuting family (closed forms, flag 0) and general sets (definition route).
ROUTES = ("dyadic", "alpha", "beta", "both", "rotated", "commuting", "general")
CONSTRAINED = ("alpha", "beta", "both", "rotated", "commuting")


def route_set(route: str, rng) -> CoefficientSet:
    if route == "dyadic":
        return random_dyadic_set(rng)
    if route == "rotated":
        return random_rotated_constrained(rng)[1]
    if route == "commuting":
        return random_commuting_thermal_set(rng)
    if route == "general":
        return random_coefficient_set(rng)
    return random_entangled_canonical(rng, route)


def oracle_log_partition(c: CoefficientSet, t, positive: bool):
    """Dense-spectrum log Z; the positive branch keeps the upper two levels."""
    if not positive:
        return log_partition_numeric(c, t)
    w = eig_hermitian(fano_compose(c)).eigenvalues  # descending
    return np.logaddexp(-w[0] / t, -w[1] / t)


_seed = st.integers(min_value=0, max_value=2**32 - 1)
_route_and_branch = st.sampled_from(ROUTES).flatmap(
    lambda r: st.tuples(st.just(r), st.booleans() if r in CONSTRAINED else st.just(False))
)


class TestThermalSweep:
    def test_temperatures_must_form_a_1d_array(self):
        c = CoefficientSet(0.0, (0, 0, 1), (0, 0, 0), np.diag([1.0, 1.0, 0.0]))
        for temps in (1.0, np.ones((2, 3))):
            with pytest.raises(ValueError, match="^temperatures must form a 1-D array$"):
                thermal_sweep(c, temps)

    @pytest.mark.parametrize(
        "call",
        [lambda t: thermal_sweep(ENTANGLED_EXAMPLE, t if isinstance(t, list) else [t]),
         lambda t: thermal_state(ENTANGLED_EXAMPLE, t),
         lambda t: thermal_concurrence(ENTANGLED_EXAMPLE, t),
         lambda t: thermal_report(ENTANGLED_EXAMPLE, t)],
        ids=["thermal_sweep", "thermal_state", "thermal_concurrence", "thermal_report"],
    )
    @pytest.mark.parametrize(
        "bad, dtype",
        [("1", "str32"), (["1", "2"], "str32"), (True, "bool"), ([True, True], "bool"),
         (None, "object"), (decimal.Decimal(1), "object"), (1 + 0j, "complex128")],
    )
    def test_temperatures_are_real_numbers(self, call, bad, dtype):
        """Strings, bools and objects are refused by the one temperature
        rule, where a cast to float read "1" and True as 1 or leaked its
        own TypeError."""
        message = f"temperature must be a real number, got dtype {dtype}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad)

    @pytest.mark.parametrize("call", [thermal_state, thermal_concurrence, thermal_report])
    def test_one_temperature_is_0d(self, call):
        """A one-element array is not one temperature; a cast to float used
        to leak numpy's "only 0-dimensional arrays" TypeError."""
        with pytest.raises(ValueError, match=r"^temperature must be one number, not of shape \(1,\)$"):
            call(ENTANGLED_EXAMPLE, np.array([1.0]))
        got = call(ENTANGLED_EXAMPLE, np.array(2.0))
        want = call(ENTANGLED_EXAMPLE, 2.0)
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want

    @settings(max_examples=60, deadline=None)
    @given(
        seed=_seed,
        route_branch=_route_and_branch,
        steps=st.integers(2, 2 * SWEEP_BLOCK + 3),
        single=st.floats(-3.0, 3.0),
    )
    def test_sweep_matches_dense_oracle(self, seed, route_branch, steps, single):
        """log Z and purity against the dense spectrum, the concurrence
        against Wootters on the Gibbs state wherever the flag claims it, and
        thermal_report bitwise equal to its row.

        log Z is compared relative to the exponents it sums, max(|log Z|,
        max|E|/T), and purity through its logarithm L(T/2) - 2 L(T) relative
        to max(1, max|E|/T): round-off in E/T bounds both sides alike.
        """
        route, positive = route_branch
        c = route_set(route, np.random.default_rng(seed))
        branch = EnsembleBranch.POSITIVE_ONLY if positive else EnsembleBranch.FULL
        span = float(np.max(np.abs(eig_hermitian(fano_compose(c)).eigenvalues)))
        for temps in (np.geomspace(1e-3, 1e3, steps), np.array([10.0**single])):
            s = thermal_sweep(c, temps, branch)
            assert np.array_equal(s["t"], temps)
            assert np.all(s["flag"] == s["flag"][0])
            scale = np.maximum(1.0, span / temps)

            ref = oracle_log_partition(c, temps, positive)
            z = s["z"]
            normal = (z >= np.finfo(float).tiny) & (z < np.inf)
            logz = np.log(np.where(normal, z, 1.0))
            assert np.all(np.where(normal, np.abs(logz - ref), 0.0)
                          <= 1e-12 * np.maximum(np.abs(ref), scale))
            log_pur = oracle_log_partition(c, temps / 2.0, positive) - 2.0 * ref
            assert np.all(np.abs(np.log(s["purity"]) - log_pur) <= 1e-12 * scale)

            if s["flag"][0] in (0, 2):
                woot = [wootters_concurrence(thermal_state(c, t)) for t in temps]
                assert np.max(np.abs(s["concurrence"] - woot)) <= 1e-7

            for i in sorted({0, min(SWEEP_BLOCK, temps.size - 1), temps.size - 1}):
                rep = thermal_report(c, temps[i], branch)
                row = (s["t"][i], s["z"][i], s["purity"][i], s["concurrence"][i], s["flag"][i])
                assert (rep.temperature, rep.z_value, rep.purity, rep.concurrence,
                        rep.flag) == row

    @settings(max_examples=80, deadline=None)
    @given(seed=_seed, route_branch=_route_and_branch)
    def test_purity_limits(self, seed, route_branch):
        """Purity -> 1 far below the ground gap and -> 1/d (d = 4, or 2 on
        the positive branch) far above the spectrum, inside [1/d, 1] along
        the sweep, at unit scale."""
        route, positive = route_branch
        c = route_set(route, np.random.default_rng(seed))
        w = np.sort(eig_hermitian(fano_compose(c)).eigenvalues)
        levels = w[2:] if positive else w
        span = float(np.max(np.abs(w)))
        gap = float(levels[1] - levels[0])
        assume(gap > 1e-3 * span)
        floor = 0.5 if positive else 0.25
        branch = EnsembleBranch.POSITIVE_ONLY if positive else EnsembleBranch.FULL
        pur = thermal_sweep(c, np.geomspace(gap / 50.0, 1e6 * span, 60), branch)["purity"]
        assert abs(pur[0] - 1.0) <= 1e-12
        assert abs(pur[-1] - floor) <= 1e-10
        assert np.all(pur >= floor * (1.0 - 1e-12)) and np.all(pur <= 1.0 + 1e-12)

    def test_overflowing_commutator_proves_nothing(self):
        """A canonical alpha-branch set scaled by 1e160 has an N that
        overflows, and one scaled by 1e154 a finite norm whose ratio to V is
        far above COMMUTATOR_RTOL: neither commutator is negligible, and the
        sweep flags the set 1 instead of raising on the set it composes."""
        c = random_entangled_canonical(np.random.default_rng(0), "alpha")
        scaled = lambda s: CoefficientSet(c.upsilon * s, c.alpha * s, c.beta * s, c.omega * s)
        with np.errstate(all="ignore"):
            assert spin_flip_commutator(scaled(1e160)) == (math.inf, False)
            assert not spin_flip_commutator(scaled(1e154))[1]
            assert thermal_sweep(scaled(1e154), np.array([1.0]))["flag"].tolist() == [1]

    def test_flag_survives_scales_where_n_underflows(self):
        """alpha = (0, 0, s), omega = s diag(1, 2, 0) reads flag 1 at unit
        scale and at every smaller s: N is formed at unit scale, so it no
        longer underflows to 0 and reads flag 0 ("provably exact") at 1e-170.
        Its N has entries s^2 and -2 s^2, so the commutator 4i sum N sigma (x)
        sigma has Frobenius norm 2 |4 N|_F = 2 sqrt(80) s^2."""
        for s in (1.0, 1e-160, 1e-170, 1e-250, 1e-300):
            c = CoefficientSet(0.0, (0, 0, s), (0, 0, 0), np.diag([s, 2 * s, 0]))
            norm, negligible = spin_flip_commutator(c)
            assert not negligible, s
            want = 2.0 * math.sqrt(80.0) * s * s
            assert math.isclose(norm, want, rel_tol=1e-15, abs_tol=1e-322), s
            assert thermal_sweep(c, np.array([s]))["flag"].tolist() == [1], s

    @pytest.mark.parametrize("seed", range(3))
    def test_commutator_norm_and_flag_are_frame_free(self, seed):
        """A local rotation maps N to R1 N R2^T, so the Frobenius norm
        8 |N|_F of the spin-flip commutator holds within 1e-13 of
        max(norm, V) under random local rotations, V its natural scale
        where it is round-off, and the flag column does not move."""
        rng = np.random.default_rng(seed)
        temps = np.geomspace(0.01, 100.0, 5)
        sets = [random_entangled_canonical(rng, b) for b in ("alpha", "beta", "both")]
        sets += [random_rotated_constrained(rng)[1], random_commuting_thermal_set(rng)]
        for c in sets:
            norm, negligible = spin_flip_commutator(c)
            bound = 1e-13 * max(norm, float(c.packed[1:] @ c.packed[1:]))
            flag = thermal_sweep(c, temps)["flag"].tolist()
            for _ in range(20):
                rot = rotate_set(c, random_rotation(rng), random_rotation(rng))
                rot_norm, rot_negligible = spin_flip_commutator(rot)
                assert abs(rot_norm - norm) <= bound, (norm, rot_norm)
                assert rot_negligible == negligible
                assert thermal_sweep(rot, temps)["flag"].tolist() == flag

    @pytest.mark.parametrize("seed", range(3))
    def test_flag_ignores_upsilon_shifts_and_global_scale(self, seed):
        """The flag column reads the same after upsilon -> upsilon + 2^k,
        k <= 30, and after scaling the set and T by 4^j, j in [-60, 60]:
        the commutator test has no upsilon and is relative to V."""
        rng = np.random.default_rng(seed)
        temps = np.geomspace(0.01, 100.0, 7)
        sets = [random_entangled_canonical(rng, b) for b in ("alpha", "beta", "both")]
        sets += [random_rotated_constrained(rng)[1], random_commuting_thermal_set(rng)]
        for c in sets:
            flag = thermal_sweep(c, temps)["flag"].tolist()
            for k in range(31):
                shifted = CoefficientSet(c.upsilon + 2.0**k, c.alpha, c.beta, c.omega)
                assert thermal_sweep(shifted, temps)["flag"].tolist() == flag, k
            for j in range(-60, 61):
                s = 4.0**j
                scaled = CoefficientSet(c.upsilon * s, c.alpha * s, c.beta * s, c.omega * s)
                assert thermal_sweep(scaled, temps * s)["flag"].tolist() == flag, j
        assert [thermal_sweep(c, temps)["flag"][0] for c in sets] == [1, 1, 1, 1, 0]


class TestWernerGibbsStates:
    """Heisenberg sets omega = J I under random local rotations.  omega is
    not singular, so they take the definition route, and their Gibbs states
    are Werner states: singlet weight F = e^{4J/T} / (e^{4J/T} + 3) and
    C = max(0, 2F - 1), which is 0 for J < 0."""

    @pytest.mark.parametrize("seed", range(8))
    def test_concurrence_matches_the_werner_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        j = rng.uniform(0.1, 10.0) * (1.0 if seed % 2 == 0 else -1.0)
        heisenberg = CoefficientSet(rng.normal(), np.zeros(3), np.zeros(3), j * np.eye(3))
        c = rotate_set(heisenberg, random_rotation(rng), random_rotation(rng))
        temps = abs(j) * np.geomspace(0.01, 100.0, 500)
        s = thermal_sweep(c, temps)
        assert np.all(s["flag"] == 2)
        x = np.exp(4.0 * j / temps)
        werner = np.maximum(0.0, (x - 3.0) / (x + 3.0))
        assert np.max(np.abs(s["concurrence"] - werner)) <= 1e-13


# --- 50-digit reference from the standard library ------------------------------------

_DIGITS = decimal.Context(prec=50, Emin=-999_999_999, Emax=999_999_999)
_ONE, _I = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
_ZERO = (Fraction(0), Fraction(0))
# The Pauli matrices as exact complex entries (re, im).
_EXACT_PAULI = (
    ((_ONE, _ZERO), (_ZERO, _ONE)),
    ((_ZERO, _ONE), (_ONE, _ZERO)),
    ((_ZERO, (Fraction(0), Fraction(-1))), (_I, _ZERO)),
    ((_ONE, _ZERO), (_ZERO, (Fraction(-1), Fraction(0)))),
)


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _exact_traceless(c: CoefficientSet):
    """H - upsilon I of the set as exact 4x4 complex entries, from the
    coefficient floats: sum_ij c_ij sigma_i (x) sigma_j over (i, j) != (0, 0)."""
    coef = [[Fraction(0)] * 4 for _ in range(4)]
    for k in range(3):
        coef[k + 1][0] = Fraction(float(c.alpha[k]))
        coef[0][k + 1] = Fraction(float(c.beta[k]))
        for j in range(3):
            coef[k + 1][j + 1] = Fraction(float(c.omega[k, j]))
    h = [[_ZERO] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            if coef[i][j] == 0:
                continue
            for r in range(4):
                for s in range(4):
                    unit = _cmul(_EXACT_PAULI[i][r // 2][s // 2], _EXACT_PAULI[j][r % 2][s % 2])
                    h[r][s] = (h[r][s][0] + coef[i][j] * unit[0], h[r][s][1] + coef[i][j] * unit[1])
    return h


def _exact_square(m):
    out = [[_ZERO] * 4 for _ in range(4)]
    for r in range(4):
        for s in range(4):
            acc = _ZERO
            for k in range(4):
                p = _cmul(m[r][k], m[k][s])
                acc = (acc[0] + p[0], acc[1] + p[1])
            out[r][s] = acc
    return out


def _dec(x) -> decimal.Decimal:
    """The exact value of a float or Fraction, rounded once to 50 digits."""
    x = Fraction(x)
    return decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)


def _even_levels_50(c: CoefficientSet) -> list[decimal.Decimal]:
    """upsilon +- E1, upsilon +- E2 with E_n = sqrt(V +- sqrt(Theta)),
    V = Tr Ht^2 / 4 and Theta = Tr (Ht^2 - V)^2 / 4 from the exact Ht."""
    h2 = _exact_square(_exact_traceless(c))
    v = sum(h2[k][k][0] for k in range(4)) / 4
    shifted = [[(h2[r][s][0] - (v if r == s else 0), h2[r][s][1]) for s in range(4)]
               for r in range(4)]
    sq = _exact_square(shifted)
    theta = sum(sq[k][k][0] for k in range(4)) / 4
    with decimal.localcontext(_DIGITS):
        root = _dec(theta).sqrt()
        e1 = max(_dec(v) - root, decimal.Decimal(0)).sqrt()
        e2 = (_dec(v) + root).sqrt()
        u = _dec(float(c.upsilon))
        return [u - e2, u - e1, u + e1, u + e2]


def _product_levels_50(f1: Su2Factor, f2: Su2Factor) -> list[decimal.Decimal]:
    """(a0 +- |a|)(b0 +- |b|) from the factors' floats."""
    with decimal.localcontext(_DIGITS):
        a0, b0 = _dec(f1.a0), _dec(f2.a0)
        a = _dec(sum(Fraction(float(x)) ** 2 for x in f1.vec)).sqrt()
        b = _dec(sum(Fraction(float(x)) ** 2 for x in f2.vec)).sqrt()
        return [(a0 + s * a) * (b0 + r * b) for s in (1, -1) for r in (1, -1)]


def _log_z_and_purity_50(levels, t: float) -> tuple[float, float]:
    """log Z and sum p^2 at temperature t, the weights shifted by the lowest level."""
    with decimal.localcontext(_DIGITS):
        t = _dec(t)
        low = min(levels)
        w = [(-(e - low) / t).exp() for e in levels]
        total = sum(w, decimal.Decimal(0))
        log_z = -low / t + total.ln()
        return float(log_z), float(sum(x * x for x in w) / (total * total))


REFERENCE_TEMPS = np.geomspace(1e-2, 1e2, 13)


def _reference_draws():
    """(set, levels, constrained) for seeded alpha, beta, both, rotated and
    product sets with base energies 0, 1e3 and 1e6.  A product set's levels
    come from the factors that factor_dyadic recovers from it, the ones the
    sweep reads."""
    rng = np.random.default_rng(2024)
    for base in (0.0, 1e3, 1e6):
        for _ in range(4):
            for route in ("alpha", "beta", "both", "rotated"):
                c = route_set(route, rng)
                c = CoefficientSet(base, c.alpha, c.beta, c.omega)
                yield c, _even_levels_50(c), True
            f1, f2 = random_separable_factors(rng)
            shift = math.sqrt(base)
            c = dyadic_set_from_factors(Su2Factor(f1.a0 + shift, f1.vec),
                                        Su2Factor(f2.a0 + shift, f2.vec))
            yield c, _product_levels_50(*factor_dyadic(c)), False


class TestAgainstFiftyDigits:
    """log Z and purity of thermal_sweep against the 50-digit reference
    above: constrained sets on both branches and product sets, with base
    energies up to 1e6.  There a purity taken as a difference of two log Z
    values of size 1e8 would keep only ~8 digits; the sum of p^2 keeps all
    but the last.  log Z is read from Z where Z is a normal double."""

    def test_log_partition_and_purity(self):
        worst_log_z = worst_purity = 0.0
        log_z_rows = 0
        for c, levels, constrained in _reference_draws():
            runs = [(EnsembleBranch.FULL, levels)]
            if constrained:
                runs.append((EnsembleBranch.POSITIVE_ONLY, levels[2:]))
            for branch, lv in runs:
                s = thermal_sweep(c, REFERENCE_TEMPS, branch)
                assert s["flag"][0] in ((0, 1) if constrained else (0,))
                for t, z, got_pur in zip(REFERENCE_TEMPS, s["z"], s["purity"]):
                    ref_log_z, ref_pur = _log_z_and_purity_50(lv, float(t))
                    worst_purity = max(worst_purity, abs(got_pur / ref_pur - 1.0))
                    if np.finfo(float).tiny <= z < np.inf:
                        log_z_rows += 1
                        dev = abs(math.log(z) - ref_log_z) / max(1.0, abs(ref_log_z))
                        worst_log_z = max(worst_log_z, dev)
        assert worst_purity <= 4e-15
        assert worst_log_z <= 4e-15
        assert log_z_rows > 0

    def test_threefold_ground_level_down_to_1e_minus_20(self):
        """omega = -I: levels 3, -1, -1, -1, so the purity tends to 1/3."""
        c = CoefficientSet(0.0, np.zeros(3), np.zeros(3), -np.eye(3))
        temps = np.geomspace(1.0, 1e-20, 41)
        s = thermal_sweep(c, temps)
        levels = [decimal.Decimal(v) for v in (3, -1, -1, -1)]
        for t, z, pur in zip(temps, s["z"], s["purity"]):
            ref_log_z, ref_pur = _log_z_and_purity_50(levels, float(t))
            assert abs(pur / ref_pur - 1.0) <= 4e-15
            if z < np.inf:
                assert abs(math.log(z) - ref_log_z) <= 4e-15 * max(1.0, abs(ref_log_z))
        assert abs(s["purity"][-1] - 1.0 / 3.0) <= 1e-15
