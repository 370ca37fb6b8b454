import contextlib
import io
import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2pair import entanglement, graphene
from su2pair._invariants import _ZERO, _derive_components, even_spectrum
from su2pair.cli import main
from su2pair.entanglement import (
    CLOSED_FORM,
    _concurrence_from_derived,
    concurrence_closed_form_arrays,
    eigenstate_concurrence_closed_form,
)
from su2pair.errors import ConcurrenceDomainError, DegenerateBranchError, InputFormatError
from su2pair.graphene import (
    GrapheneParams,
    GridSpec,
    default_grid,
    find_dirac_point,
    first_zone_mask,
    lattice_layer_arrays,
    map_to_su2su2,
    thermal_death_temperature,
)
from su2pair.hamiltonian import (
    Branch,
    CaseKind,
    CoefficientSet,
    classify,
    derive,
    derive_arrays,
    fano_compose,
)
from su2pair.oracle import eig_hermitian, wootters_concurrence
from su2pair.thermo import thermal_state, thermal_sweep

import references
from references import band_columns, build_ab_hamiltonian, concurrence_columns

DEFAULT = GrapheneParams()


def _point_bands(p, kx, ky):
    """(E1, E2) at one wave vector: the even spectrum of the mapped set."""
    _, e1, e2 = even_spectrum(derive(map_to_su2su2(p, kx, ky)))
    return e1, e2


def small_grid(p, n=21):
    lim = 4 * np.pi / (3 * p.lattice)
    return GridSpec(-lim, lim, -lim, lim, n, n)


class TestStructureFactor:
    def test_gamma_point(self):
        assert graphene._structure_factor(DEFAULT, 0.0, 0.0) == pytest.approx(3.0 + 0j)

    def test_cosine_at_pi(self):
        g = graphene._structure_factor(DEFAULT, 0.0, 2 * np.pi / np.sqrt(3.0))
        assert g == pytest.approx(-1.0 + 0j, abs=1e-12)

    def test_conjugation_under_k_reflection(self, rng):
        for _ in range(50):
            kx, ky = rng.normal(size=2) * 4
            a = graphene._structure_factor(DEFAULT, kx, ky)
            b = graphene._structure_factor(DEFAULT, -kx, -ky)
            assert abs(a - np.conj(b)) <= 1e-12 * (1 + abs(a))

    def test_reciprocal_periodicity(self, rng):
        lam = DEFAULT.lattice
        b1 = 2 * np.pi / lam * np.array([1.0, 1.0 / np.sqrt(3.0)])
        b2 = 2 * np.pi / lam * np.array([1.0, -1.0 / np.sqrt(3.0)])
        for _ in range(50):
            k = rng.normal(size=2) * 3
            base = graphene._structure_factor(DEFAULT, *k)
            for g in (b1, b2, b1 - b2):
                shifted = graphene._structure_factor(DEFAULT, *(k + g))
                assert abs(shifted - base) <= 1e-12 * (1 + abs(base))

    @pytest.mark.parametrize("lam", [1.0, 0.246])
    def test_matches_the_written_out_reference(self, lam):
        """The package's G against the reference's own formula on Python
        complex numbers, at Gamma, the zone corner and 100 seeded k."""
        p = GrapheneParams(lattice=lam)
        rng = np.random.default_rng(20261020)
        points = [(0.0, 0.0), find_dirac_point(p), *(rng.uniform(-8.0, 8.0, (100, 2)) / lam)]
        for kx, ky in points:
            want = references.structure_factor(p, float(kx), float(ky))
            got = graphene._structure_factor(p, kx, ky)
            assert abs(got - want) <= 1e-14 * (1 + abs(want))

    def test_dirac_point_zeros_the_structure_factor_at_every_lattice(self):
        """The closed-form zone corner K is a zero of G to 1e-14 at 10^4
        lattices, log-uniform over the accepted range, at both bounds and
        at 1 and 0.246."""
        rng = np.random.default_rng(20261019)
        lo, hi = graphene.SMALLEST_LATTICE, graphene.LARGEST_LATTICE
        lattices = np.clip(np.exp(rng.uniform(math.log(lo), math.log(hi), 10_000)), lo, hi)
        worst = 0.0
        for lam in [*lattices.tolist(), lo, hi, 1.0, 0.246]:
            p = GrapheneParams(lattice=lam)
            worst = max(worst, abs(graphene._structure_factor(p, *find_dirac_point(p))))
        assert worst < 1e-14

    @pytest.mark.parametrize(
        "lam",
        [graphene.SMALLEST_LATTICE, 1e-300, 1e-10, 0.246, 1.0, 1e10, 1e300,
         graphene.LARGEST_LATTICE],
        ids=["smallest", "1e-300", "1e-10", "0.246", "1", "1e10", "1e300", "largest"],
    )
    def test_dirac_point_is_the_zone_corner_in_closed_form(self, lam):
        """K = (0, 4 pi / (3 sqrt(3) lattice)) to the bit, computed without
        an overflow, underflow or invalid operation, and a zero of G."""
        p = GrapheneParams(lattice=lam)
        with np.errstate(over="raise", under="raise", invalid="raise", divide="raise"):
            kx, ky = find_dirac_point(p)
            g = abs(graphene._structure_factor(p, kx, ky))
        assert kx == 0.0 and not math.copysign(1.0, kx) < 0
        assert ky == 4.0 * math.pi / (3.0 * math.sqrt(3.0) * lam)
        assert type(kx) is float and type(ky) is float
        assert g < 1e-14

    @pytest.mark.parametrize("knob", ["seed", "steps"])
    def test_dirac_point_takes_no_search_knob(self, knob):
        """The closed form needs no start point or iteration count."""
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{knob}'"):
            find_dirac_point(DEFAULT, **{knob: None})


class TestMapping:
    def test_gamma_point_coefficients(self):
        p = GrapheneParams(bias=1.0)
        c = map_to_su2su2(p, 0.0, 0.0)
        assert np.allclose(c.alpha, [0, 0, 0.5])
        assert np.allclose(c.beta, [-3.0, 0.0, 0.0])
        assert np.isclose(c.omega[0, 0], -1.0)
        assert np.isclose(c.omega[1, 1], 2.0)

    def test_unbiased_massless_has_no_local_terms(self, rng):
        p = GrapheneParams(bias=0.0, m=0.0)
        kx, ky = rng.normal(size=2)
        c = map_to_su2su2(p, kx, ky)
        assert np.allclose(c.alpha, 0)
        assert c.beta[2] == 0.0

    def test_dirac_point_coefficients(self):
        p = GrapheneParams(m=0.3, bias=0.7)
        kx, ky = find_dirac_point(p)
        c = map_to_su2su2(p, kx, ky)
        assert np.allclose(c.beta, [0, 0, 0.3], atol=1e-10)
        assert np.allclose(c.omega, np.diag([0.5, 0.5, 0.0]), atol=1e-10)

    @pytest.mark.parametrize(
        "lattice", [1.0, graphene.SMALLEST_LATTICE, graphene.LARGEST_LATTICE],
        ids=["unit", "smallest", "largest"],
    )
    def test_set_has_the_bits_of_the_array_reference(self, lattice):
        """map_to_su2su2 builds from _lattice_layer without staging arrays;
        its packed vector is that of lattice_layer_arrays, byte for byte, at
        the Dirac point, at Gamma and at seeded points of the window."""
        rng = np.random.default_rng(35)
        p = GrapheneParams(t=0.9, t3=0.4, tperp=1.3, m=0.2, bias=0.5, lattice=lattice)
        g = default_grid(p)
        kx = rng.uniform(g.kx_min, g.kx_max, 50).tolist()
        ky = rng.uniform(g.ky_min, g.ky_max, 50).tolist()
        for k in [find_dirac_point(p), (0.0, 0.0), *zip(kx, ky)]:
            alpha, beta, omega = lattice_layer_arrays(p, *k)
            want = np.concatenate([[0.0], alpha, beta, omega.ravel()])
            assert map_to_su2su2(p, *k).packed.tobytes() == want.tobytes(), k

    def test_matrix_route_equals_pauli_route(self, rng):
        """Tight-binding matrix and composed coefficients agree entry-wise."""
        for _ in range(1000):
            p = GrapheneParams(
                t=rng.normal(), t3=rng.normal(), tperp=rng.normal(),
                m=rng.normal(), bias=rng.normal(), lattice=float(rng.uniform(0.2, 2.0)),
            )
            kx, ky = rng.normal(size=2) * 3
            a = build_ab_hamiltonian(p, kx, ky)
            b = fano_compose(map_to_su2su2(p, kx, ky))
            assert np.max(np.abs(a - b)) <= 1e-12 * (1 + np.max(np.abs(a)))

    def test_classification_and_constraint(self, rng):
        for _ in range(50):
            p = GrapheneParams(bias=float(rng.uniform(-2, 2)), m=float(rng.normal()))
            kx, ky = rng.normal(size=2) * 2
            c = map_to_su2su2(p, kx, ky)
            label = classify(c)
            assert label.kind is CaseKind.ENTANGLED_CONSTRAINED
            d = derive(c)
            assert d.alpha_null
            assert abs(d.s_cubic) <= 1e-12

    def test_generic_k_is_alpha_branch(self):
        label = classify(map_to_su2su2(GrapheneParams(bias=1.0), 0.8, -0.3))
        assert label.branch is Branch.ALPHA_NULL

    def test_v_quad_identity(self, rng):
        for _ in range(100):
            p = GrapheneParams(
                t=rng.normal(), t3=rng.normal(), tperp=rng.normal(),
                m=rng.normal(), bias=rng.normal(),
            )
            kx, ky = rng.normal(size=2) * 3
            g = abs(graphene._structure_factor(p, kx, ky))
            want = p.m**2 + p.bias**2 / 4 + p.t**2 * g**2 + (p.tperp**2 + p.t3**2 * g**2) / 2
            got = derive(map_to_su2su2(p, kx, ky)).v_quad
            assert abs(got - want) <= 1e-10 * (1 + want)

    def test_block_determinant_identity(self, rng):
        """|adj w|_F = |det w_B| and beta^T adj(w) alpha = (a.b) det w_B with
        det w_B = (tperp^2 - t3^2 |G|^2) / 4."""
        for _ in range(100):
            p = GrapheneParams(
                t3=rng.normal(), tperp=rng.normal(), m=rng.normal(), bias=rng.normal()
            )
            kx, ky = rng.normal(size=2) * 3
            g = abs(graphene._structure_factor(p, kx, ky))
            det_b = (p.tperp**2 - p.t3**2 * g**2) / 4
            c = map_to_su2su2(p, kx, ky)
            d = derive(c)
            assert abs(d.adj_norm - abs(det_b)) <= 1e-12 * (1 + abs(det_b))
            want = (c.alpha @ c.beta) * det_b
            assert abs(d.beta_adj_alpha - want) <= 1e-12 * (1 + abs(want))


class TestBands:
    def test_particle_hole_symmetry(self, rng):
        for _ in range(50):
            p = GrapheneParams(bias=float(rng.normal()), m=float(rng.normal()))
            kx, ky = rng.normal(size=2) * 3
            e1, e2 = _point_bands(p, kx, ky)
            w = eig_hermitian(build_ab_hamiltonian(p, kx, ky)).eigenvalues
            assert np.allclose(np.sort(w), [-e2, -e1, e1, e2], atol=1e-9 * (1 + e2))

    def test_dirac_touching_without_gap_terms(self):
        p = GrapheneParams(m=0.0, bias=0.0)
        kx, ky = find_dirac_point(p)
        e1, _ = _point_bands(p, kx, ky)
        assert e1 <= 1e-8

    def test_bias_gaps_the_dirac_point(self):
        """At G = 0: V = bias^2/4 + tperp^2/2 and sqrt(Tp) = tperp^2/2."""
        p = GrapheneParams(bias=1.0)
        kx, ky = find_dirac_point(p)
        e1, e2 = _point_bands(p, kx, ky)
        assert np.isclose(e1, 0.5, atol=1e-9)
        assert np.isclose(e2, np.sqrt(p.bias**2 / 4 + p.tperp**2), atol=1e-9)
        d = derive(map_to_su2su2(p, kx, ky))
        assert np.isclose(d.v_quad, p.bias**2 / 4 + p.tperp**2 / 2, atol=1e-10)

    def test_grid_ordering_and_oracle(self):
        p = GrapheneParams(bias=0.5)
        data = band_columns(p, small_grid(p))
        assert np.all(data["e2"] >= data["e1"])
        assert np.all(data["e1"] >= 0)
        for kx, ky, e1, e2 in zip(data["kx"], data["ky"], data["e1"], data["e2"]):
            w = np.sort(eig_hermitian(build_ab_hamiltonian(p, kx, ky)).eigenvalues)
            assert np.max(np.abs(w - [-e2, -e1, e1, e2])) <= 1e-9 * (1 + e2)

    def test_row_major_order(self):
        p = DEFAULT
        g = GridSpec(-1.0, 1.0, -2.0, 2.0, 3, 3)
        data = band_columns(p, g)
        assert np.allclose(data["kx"][:3], -1.0)
        assert np.allclose(data["ky"][:3], [-2.0, 0.0, 2.0])


class TestMask:
    def test_zone_membership(self):
        assert first_zone_mask(DEFAULT, 0.0, 0.0)
        corner = 4 * np.pi / (3 * np.sqrt(3.0))
        assert not first_zone_mask(DEFAULT, 0.0, 2.5 * corner)

    def test_masked_grid_is_smaller(self):
        p = DEFAULT
        full = band_columns(p, small_grid(p))
        masked = band_columns(p, default_grid(p, 21, "hex"))
        assert 0 < masked["kx"].size < full["kx"].size

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0, 1, 0, 1, 1, 5)
        with pytest.raises(ValueError):
            GridSpec(1, 0, 0, 1, 5, 5)
        with pytest.raises(ValueError):
            GridSpec(0, 1, 0, 1, 5, 5, mask="circle")
        # Before the counts were checked, 2.5 reached np.linspace and '3'
        # a str < int comparison, each with numpy's or Python's message.
        # They are usage errors, as every GridSpec refusal is.
        with pytest.raises(InputFormatError, match="^nx must be an integer, not 2.5$"):
            GridSpec(-1, 1, -1, 1, 2.5, 3)
        with pytest.raises(InputFormatError, match="^ny must be an integer, not '3'$"):
            GridSpec(-1, 1, -1, 1, 3, "3")
        with pytest.raises(InputFormatError, match="^ny must be an integer"):
            GridSpec(-1, 1, -1, 1, 3, np.float64(3.0))
        assert band_columns(GrapheneParams(), GridSpec(-1, 1, -1, 1, np.int64(3), 3))["kx"].size == 9

    @pytest.mark.parametrize("index", range(4), ids=["kx_min", "kx_max", "ky_min", "ky_max"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_grid_refuses_a_non_finite_bound(self, index, bad):
        """A NaN bound passes the ordering test (every comparison with NaN
        is False), and an infinite one gives non-finite axes; both are
        refused by name."""
        bounds = [0.0, 1.0, 0.0, 1.0]
        bounds[index] = bad
        name = ("kx_min", "kx_max", "ky_min", "ky_max")[index]
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GridSpec(*bounds, 3, 3)


class TestConcurrenceGrid:
    def test_product_limit_all_zero(self):
        p = GrapheneParams(tperp=0.0, t3=0.0, bias=1.0)
        data = concurrence_columns(p, small_grid(p, 11), 2, 1)
        assert np.max(data["c"]) <= 1e-7

    def test_values_in_range_with_flags(self):
        p = GrapheneParams(bias=1.0)
        for n in (1, 2):
            data = concurrence_columns(p, small_grid(p, 15), 2, n)
            assert np.all((data["c"] >= 0) & (data["c"] <= 1))
            assert np.all(data["c"][data["flag"] == 1] == 0.0)

    def test_branches_differ(self):
        p = GrapheneParams(bias=1.0)
        a = concurrence_columns(p, small_grid(p, 21), 2, 1)
        b = concurrence_columns(p, small_grid(p, 21), 2, 2)
        assert np.max(np.abs(a["c"] - b["c"])) >= 0.1

    def test_wootters_agreement_on_unflagged_points(self, rng):
        from su2pair.oracle import wootters_concurrence
        from su2pair.solver import solve

        p = GrapheneParams(bias=1.0)
        data = concurrence_columns(p, small_grid(p, 9), 2, 1)
        for kx, ky, cval, flag in zip(data["kx"], data["ky"], data["c"], data["flag"]):
            if flag:
                continue
            es = solve(map_to_su2su2(p, kx, ky))
            assert abs(cval - wootters_concurrence(es.state(2, 1))) <= 1e-7

    # Each bias's bound is its worst error over the four branches at 51^2,
    # with a margin of 16-30x: 6.3e-15 at bias 0, 1.7e-10 at 0.1 (on the
    # n = 1 branches), 1.9e-12 at 1 and 8.0e-13 at 10.
    @pytest.mark.parametrize("bias, bound", [(0.0, 1e-13), (0.1, 5e-9), (1.0, 5e-11),
                                             (10.0, 2e-11)],
                             ids=["bias-0", "bias-0.1", "bias-1", "bias-10"])
    def test_matches_dense_eigenvectors(self, bias, bound):
        """Each branch's grid against 2|psi_00 psi_11 - psi_01 psi_10| of
        eigh's eigenvectors of each point's composed set, one batched eigh,
        on every point whose level is apart from the others by at least 1e-3
        of the spectral scale: at least 2597 of the 2601 points, none
        flagged.  At bias 0 alpha vanishes at every point, so the radical
        meets |v| = 0 throughout; the Bloch-modulus route that served
        alpha = 0 before the radical lost its division by |v|^2 erred by
        1.1e-12 on the n = 1 branches.  The mapped sets have
        adj(omega)^T beta = 0, so the radical's 4 Y^2 / Tp term is zero here;
        the concurrence-routes suite checks it."""
        p = GrapheneParams(bias=bias)
        grid = default_grid(p, 51)
        points = concurrence_columns(p, grid)
        h = np.array([fano_compose(CoefficientSet(0.0, *x))
                      for x in zip(*lattice_layer_arrays(p, points["kx"], points["ky"]))])
        e, v = np.linalg.eigh(h)
        # Levels ascend as -E2, -E1, E1, E2: the (m, n) level is (-1)^m E_n.
        for k, (m, n) in enumerate([(1, 2), (1, 1), (2, 1), (2, 2)]):
            data = concurrence_columns(p, grid, m, n)
            assert not data["flag"].any()
            psi = v[:, :, k]
            ref = 2.0 * np.abs(psi[:, 0] * psi[:, 3] - psi[:, 1] * psi[:, 2])
            gap = np.abs(np.delete(e, k, axis=1) - e[:, k:k + 1]).min(axis=1)
            apart = gap >= 1e-3 * np.abs(e).max(axis=1)
            assert apart.sum() >= 2597
            assert np.max(np.abs(data["c"] - ref)[apart]) <= bound, (m, n)

    @pytest.mark.parametrize("bias", [0.0, 1.0])
    def test_invariant_under_scaling_every_parameter(self, bias):
        """Concurrence does not change when H is scaled.  Scaling every
        parameter by a power of two scales each term of the radical exactly
        unless one overflows or underflows, so the grid must match the
        unscaled one bit for bit, flags included, up to STRUCTURAL_SCALE.
        Far below unit scale the absolute floor of the degeneracy test
        flags every point, so there the radicands are compared.  Squaring
        the cubic |adj(omega)^T beta| before dividing it by Tp overflowed
        at the large scales and underflowed at the small one."""
        base = GrapheneParams(t=1.0, t3=0.7, tperp=0.9, m=0.2, bias=bias)
        g = default_grid(base, 21, "hex")
        ref = concurrence_columns(base, g)
        layer = lambda p: lattice_layer_arrays(p, ref["kx"], ref["ky"])
        radicand = lambda p: concurrence_closed_form_arrays(*layer(p), 2, 1)[2]
        for k in (182, 198, -182):
            s = 2.0**k
            p = GrapheneParams(t=s, t3=0.7 * s, tperp=0.9 * s, m=0.2 * s, bias=bias * s)
            with np.errstate(all="ignore"):
                assert _bits(radicand(p)) == _bits(radicand(base))
                if k > 0:
                    data = concurrence_columns(p, g)
                    assert _bits(data["c"]) == _bits(ref["c"])
                    assert data["flag"].tolist() == ref["flag"].tolist()


def _scalar_concurrence(p, kx, ky, m, n):
    """The per-point closed form, its raise mapped to flag 1 as the grids do."""
    try:
        return eigenstate_concurrence_closed_form(map_to_su2su2(p, kx, ky), m, n), 0
    except (ConcurrenceDomainError, DegenerateBranchError):
        return 0.0, 1


def _zone_anchors(p):
    """Named k-points at which a grid can start: a Dirac point of G, the
    midpoint of a zone edge, a zone corner, and the corner nudged by 1e-12
    either way (just inside and just outside the mask's slack)."""
    lam = p.lattice
    edge = np.pi / lam * np.array([1.0, 1.0 / np.sqrt(3.0)])
    corner = np.array([4.0 * np.pi / (3.0 * lam), 0.0])
    return {
        "dirac": (0.0, 4.0 * np.pi / (3.0 * np.sqrt(3.0) * lam)),
        "edge": tuple(edge),
        "corner": tuple(corner),
        "corner-in": tuple(corner * (1.0 - 1e-12)),
        "corner-out": tuple(corner * (1.0 + 2e-12)),
    }


# Exact zeros of both signs, and magnitudes from 1e-170 up to the largest
# that GrapheneParams accepts.
_EDGE_MAGNITUDES = [1e-170, 1e-160, 1e-80, graphene.STRUCTURAL_SCALE]


def _parameter(ordinary, edge):
    """A parameter from ``ordinary``, or on edge cases also an exact +-0 or
    a signed magnitude of ``_EDGE_MAGNITUDES``."""
    if not edge:
        return ordinary
    signed = st.tuples(st.sampled_from(_EDGE_MAGNITUDES), st.sampled_from([1.0, -1.0]))
    return ordinary | st.sampled_from([0.0, -0.0]) | signed.map(lambda ms: ms[0] * ms[1])


@st.composite
def _grid_cases(draw):
    edge = draw(st.booleans())
    p = GrapheneParams(
        t=draw(_parameter(st.floats(0.2, 2.0), edge)),
        t3=draw(_parameter(st.floats(0.0, 2.0), edge)),
        tperp=draw(_parameter(st.floats(0.0, 2.0), edge)),
        m=draw(_parameter(st.sampled_from([0.0, 0.3]) | st.floats(-1.0, 1.0), edge)),
        bias=draw(_parameter(st.sampled_from([0.0, 1.0]) | st.floats(-2.0, 2.0), edge)),
        lattice=draw(st.sampled_from([1.0]) | st.floats(0.5, 2.0)),
    )
    # The first grid point is exactly the anchor (linspace starts at kx_min).
    kx0, ky0 = draw(
        st.sampled_from(sorted(_zone_anchors(p).values()))
        | st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
    )
    g = GridSpec(
        kx0, kx0 + draw(st.floats(0.05, 3.0)), ky0, ky0 + draw(st.floats(0.05, 3.0)),
        draw(st.integers(2, 6)), draw(st.integers(2, 6)), draw(st.sampled_from(["none", "hex"])),
    )
    return p, g


def _outcome(f, *args):
    """f(*args), or the class of the exception it raises."""
    try:
        with np.errstate(all="ignore"):
            return f(*args)
    except Exception as exc:
        return type(exc)


def _per_point(f, points):
    """[f(kx, ky) for each point], or the class of the first exception, as
    a grid that stops at its first failing chunk reports it."""
    values = []
    for kx, ky in points:
        value = _outcome(f, kx, ky)
        if isinstance(value, type):
            return value
        values.append(value)
    return values


def _bits(x):
    """The bit patterns of a float array, every NaN read as one: a CSV cell
    reads 'nan' whatever its sign and payload."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).view(np.int64).tolist()


def _assert_same(got, expected, bits):
    """Equal exception classes, or values equal under ``bits``."""
    if isinstance(got, type) or isinstance(expected, type):
        assert got is expected
    else:
        assert bits(got) == bits(expected)


class TestBatchedGridsMatchScalarFunctions:
    """band_chunks and concurrence_chunks evaluate k-points in batches; each point
    must equal the scalar functions bit for bit, and a grid must raise the
    class that the first failing point raises."""

    @settings(max_examples=150, deadline=None)
    @given(
        case=_grid_cases(),
        m=st.sampled_from([1, 2]),
        n=st.sampled_from([1, 2]),
        chunk=st.sampled_from([1, 3, 4096]),
    )
    def test_points_equal_scalar_functions(self, case, m, n, chunk):
        p, g = case
        xs, ys = g.axes()
        points = [
            (float(kx), float(ky)) for kx in xs for ky in ys
            if g.mask == "none" or first_zone_mask(p, kx, ky)
        ]
        with mock.patch.object(graphene, "CHUNK_POINTS", chunk):
            bands = _outcome(band_columns, p, g)
            conc = _outcome(concurrence_columns, p, g, m, n)
        for data in (bands, conc):
            if not isinstance(data, type):
                assert list(zip(data["kx"].tolist(), data["ky"].tolist())) == points
        pairs = lambda data, a, b: data if isinstance(data, type) else list(zip(data[a], data[b]))
        _assert_same(
            pairs(bands, "e1", "e2"),
            _per_point(lambda kx, ky: _point_bands(p, kx, ky), points),
            _bits,
        )
        _assert_same(
            pairs(conc, "c", "flag"),
            _per_point(lambda kx, ky: _scalar_concurrence(p, kx, ky, m, n), points),
            lambda rows: [(_bits([c])[0], int(f)) for c, f in rows],
        )

    def test_dirac_point_is_flagged_in_both_paths(self):
        """Unbiased and massless: E1 vanishes at G = 0, so branch n = 1 flags."""
        p = GrapheneParams()
        kx, ky = _zone_anchors(p)["dirac"]
        g = GridSpec(kx, kx + 0.5, ky, ky + 0.5, 3, 3)
        data = concurrence_columns(p, g, 2, 1)
        assert (data["kx"][0], data["ky"][0]) == (kx, ky)
        assert (data["c"][0], data["flag"][0]) == (0.0, 1)
        assert _scalar_concurrence(p, kx, ky, 2, 1) == (0.0, 1)

    def test_mask_boundary_points_agree(self):
        p = DEFAULT
        anchors = _zone_anchors(p)
        kx = np.array([k[0] for k in anchors.values()])
        ky = np.array([k[1] for k in anchors.values()])
        batched = graphene.first_zone_mask(p, kx, ky)
        assert batched.tolist() == [bool(first_zone_mask(p, x, y)) for x, y in zip(kx, ky)]
        assert first_zone_mask(p, *anchors["corner-in"])
        assert not first_zone_mask(p, *anchors["corner-out"])


def _holds_zero(value):
    if isinstance(value, list):
        return any(map(_holds_zero, value))
    return value is _ZERO


class TestStructureAwareGridsMatchTheArrayPath:
    """The grids take G from per-axis factors and run the derive kernel and
    the concurrence radical with the k-independent components as scalars
    and the structural zeros as ``_ZERO``; every column must equal the
    generic array path on the staged sets bit for bit, bias 0 (alpha = 0)
    included, and raise its class where it raises.  No record field and no
    returned column may hold the structural zero."""

    @settings(max_examples=150, deadline=None)
    @given(
        case=_grid_cases(),
        m=st.sampled_from([1, 2]),
        n=st.sampled_from([1, 2]),
        chunk=st.sampled_from([1, 3, 4096]),
    )
    def test_grids_equal_the_generic_array_path(self, case, m, n, chunk):
        p, g = case
        inputs, records, outputs = [], [], []

        def derive_components(a, b, w):
            inputs.append([*a, *b, *w[0], *w[1], *w[2]])
            records.append(_derive_components(a, b, w))
            return records[-1]

        def concurrence_from_derived(d, a, b, w, m, n):
            passed = [*a, *b, *w[0], *w[1], *w[2]]
            assert d is records[-1] and all(x is y for x, y in zip(passed, inputs[-1]))
            outputs.append(_concurrence_from_derived(d, a, b, w, m, n))
            return outputs[-1]

        with mock.patch.object(graphene, "CHUNK_POINTS", chunk), \
                mock.patch.object(graphene, "_derive_components", derive_components), \
                mock.patch.object(entanglement, "_concurrence_from_derived", concurrence_from_derived):
            bands = _outcome(band_columns, p, g)
            conc = _outcome(concurrence_columns, p, g, m, n)
        assert all(_holds_zero(x) for x in inputs)
        assert not any(_holds_zero(v) for d in records for v in vars(d).values())
        for d in records:
            assert all(np.asarray(v).dtype in (np.float64, np.bool_) for v in vars(d).values())
        for out in outputs:
            assert all(isinstance(x, np.ndarray) for x in out)

        xs, ys = g.axes()
        kx, ky = np.repeat(xs, ys.size), np.tile(ys, xs.size)
        if g.mask == "hex":
            inside = first_zone_mask(p, kx, ky)
            kx, ky = kx[inside], ky[inside]
        for data in (bands, conc):
            if not isinstance(data, type):
                assert (_bits(data["kx"]), _bits(data["ky"])) == (_bits(kx), _bits(ky))
        assert bool(inputs) == bool(kx.size)
        sets = lattice_layer_arrays(p, kx, ky)
        columns = lambda data, *names: data if isinstance(data, type) else [data[k] for k in names]
        expected = _outcome(lambda: even_spectrum(derive_arrays(*sets))[1:])
        _assert_same(columns(bands, "e1", "e2"), expected, _bits)
        expected = _outcome(lambda: concurrence_closed_form_arrays(*sets, m, n)[:2])
        if not isinstance(expected, type):
            c, cause = expected
            expected = [c, (cause != CLOSED_FORM).astype(int)]
        _assert_same(columns(conc, "c", "flag"), expected, _bits)


class _CountedArray(np.ndarray):
    """An array that counts the ufunc calls made on it and on its results."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _CountedArray.calls += 1
        plain = [x.view(np.ndarray) if isinstance(x, _CountedArray) else x for x in inputs]
        out = getattr(ufunc, method)(*plain, **kwargs)
        return out.view(_CountedArray) if isinstance(out, np.ndarray) else out


def _kernel_ufunc_calls(p, structural):
    """Ufunc calls of the grids' derive on the first 4096-point chunk of the
    101^2 bands grid, with the structural zeros as they come or, unless
    ``structural``, 0.0 in their place."""
    g = default_grid(p, 101)
    xs, ys = g.axes()
    ix, iy = next(graphene._grid_chunks(p, g, xs, ys))
    assert ix.size == 4096
    a, b, w = graphene._lattice_layer(p, xs, ys, (ix, iy))
    zero = _ZERO if structural else 0.0
    count = lambda x: [count(v) for v in x] if isinstance(x, list) else (
        x.view(_CountedArray) if isinstance(x, np.ndarray) else zero if x is _ZERO else x)
    _CountedArray.calls = 0
    _derive_components(count(a), count(b), count(w))
    return _CountedArray.calls


def test_structural_zeros_drop_the_kernel_terms_they_vanish_from():
    """The grids' derive kernel makes at most 120 ufunc calls a chunk with
    the structural zeros; on 0.0 in their place it made 279 when they came."""
    p = GrapheneParams(bias=0.1)
    structural = _kernel_ufunc_calls(p, True)
    assert structural == _kernel_ufunc_calls(p, True)
    assert structural <= 120 < _kernel_ufunc_calls(p, False)


def _inside_reference(lattice, kx, ky):
    """Zone membership of one point in Python floats: 2 k.G <= |G|^2 (1 + 1e-12)
    for the six shortest reciprocal vectors G = +-b1, +-b2, +-(b1 - b2)."""
    c, s = 2.0 * math.pi / lattice, 1.0 / math.sqrt(3.0)
    b1, b2 = (c * 1.0, c * s), (c * 1.0, c * -s)
    d = (b1[0] - b2[0], b1[1] - b2[1])
    shells = [b1, b2, d] + [(-gx, -gy) for gx, gy in (b1, b2, d)]
    return not any(
        2.0 * (kx * gx + ky * gy) > (gx * gx + gy * gy) * (1.0 + 1e-12) for gx, gy in shells
    )


def _y_classes(p, ys):
    """The number of distinct bit patterns of cos(sqrt(3) ky lattice/2) over ys."""
    return np.unique(np.cos(np.sqrt(3.0) * ys * p.lattice / 2.0).view(np.int64)).size


class TestDistinctSets:
    """The grids evaluate each distinct lattice-layer set of a chunk once:
    a set depends on ky only through the bits of the y factor of G."""

    def test_bands_kernel_sees_each_distinct_set_of_a_chunk_once(self):
        """At the parent every chunk went whole through the kernel: 4096,
        4096 and 2009 points, 10201 in all."""
        p = GrapheneParams(bias=0.1)
        g = default_grid(p, 101)
        sizes = []

        def derive_components(a, b, w):
            sizes.append(np.size(b[0]))
            return _derive_components(a, b, w)

        classes = _y_classes(p, g.axes()[1])
        assert classes == 67
        with mock.patch.object(graphene, "_derive_components", derive_components):
            chunks = list(graphene.band_chunks(p, g))
        assert len(sizes) == len(chunks) == 3
        for size, ch in zip(sizes, chunks):
            rows = np.unique(ch["kx"][1]).size
            assert size <= min(rows * classes, ch["kx"][1].size)
        assert sum(sizes) < 10201
        assert sum(ch["kx"][1].size for ch in chunks) == 10201

    @pytest.mark.parametrize("samples, chunks", [(101, 2), (201, 7)])
    def test_hex_chunks_are_full_but_the_last(self, samples, chunks):
        """The kept points fill chunks of CHUNK_POINTS in row-major order; at
        the parent the 101^2 grid ran in chunks of 2393, 3464 and 658."""
        p = GrapheneParams(bias=1.0)
        g = default_grid(p, samples, "hex")
        got = list(graphene.concurrence_chunks(p, g, 2, 2))
        sizes = [ch["kx"][1].size for ch in got]
        assert len(sizes) == chunks
        assert sizes[:-1] == [graphene.CHUNK_POINTS] * (chunks - 1)
        assert 0 < sizes[-1] <= graphene.CHUNK_POINTS
        flat = np.concatenate([ch["kx"][1] * samples + ch["ky"][1] for ch in got])
        assert np.all(np.diff(flat) > 0)

    @pytest.mark.parametrize("mask", ["none", "hex"])
    def test_value_columns_are_tables_whose_every_value_is_referenced(self, mask):
        p = GrapheneParams(t3=1.01, tperp=0.99, bias=1.0)
        g = default_grid(p, 101, mask)
        chunks = [(ch, ("e1", "e2")) for ch in graphene.band_chunks(p, g)]
        chunks += [(ch, ("c",)) for ch in graphene.concurrence_chunks(p, g, 2, 2)]
        for ch, names in chunks:
            points = ch["kx"][1].size
            for name in names:
                values, index = ch[name]
                assert isinstance(values, np.ndarray) and values.dtype == np.float64
                assert index.shape == (points,) and index.dtype.kind == "i"
                assert np.array_equal(np.unique(index), np.arange(values.size))
                assert values.size < points
            if "c" in names:
                assert isinstance(ch["flag"], np.ndarray) and ch["flag"].shape == (points,)
                assert ch["flag"].dtype.kind == "i"


class TestFirstZoneMask:
    @pytest.mark.parametrize("lattice", [1.0, 0.7, 1.9])
    def test_anchors_equal_the_per_point_reference(self, lattice):
        p = GrapheneParams(lattice=lattice)
        anchors = _zone_anchors(p)
        kx = np.array([k[0] for k in anchors.values()])
        ky = np.array([k[1] for k in anchors.values()])
        expected = [_inside_reference(lattice, x, y) for x, y in zip(kx.tolist(), ky.tolist())]
        assert first_zone_mask(p, kx, ky).tolist() == expected
        assert [bool(first_zone_mask(p, x, y)) for x, y in zip(kx, ky)] == expected
        inside = dict(zip(anchors, expected))
        assert inside["corner-in"] and not inside["corner-out"]

    @pytest.mark.parametrize("lattice", [1.0, 1.3])
    def test_seeded_points_equal_the_per_point_reference(self, lattice):
        p = GrapheneParams(lattice=lattice)
        rng = np.random.default_rng(19)
        lim = 5.0 / lattice
        kx, ky = rng.uniform(-lim, lim, 10_000), rng.uniform(-lim, lim, 10_000)
        expected = [_inside_reference(lattice, x, y) for x, y in zip(kx.tolist(), ky.tolist())]
        assert 0 < sum(expected) < len(expected)
        assert first_zone_mask(p, kx, ky).tolist() == expected

    @pytest.mark.parametrize("lattice", [1.0, 2.46, 0.37])
    def test_shell_edge_points_equal_the_per_point_reference(self, lattice):
        """Points on the six zone edges k = G/2 + s G_perp, their
        neighbouring doubles and points moved off them by the test's
        relative margin of 1e-12, where one test per pair +-G must decide
        as the two one-sided tests did."""
        p = GrapheneParams(lattice=lattice)
        rng = np.random.default_rng(23)
        c, r = 2.0 * math.pi / lattice, 1.0 / math.sqrt(3.0)
        for gx, gy in [(c, c * r), (c, -c * r), (0.0, 2.0 * c * r)]:
            for sign in (1.0, -1.0):
                s_ = rng.uniform(-0.6, 0.6, 500)
                kx, ky = sign * (gx / 2.0 - s_ * gy), sign * (gy / 2.0 + s_ * gx)
                off = 1.0 + rng.uniform(-1e-12, 2e-12, 500)
                for x, y in [(kx, ky), (np.nextafter(kx, 0.0), ky), (kx, np.nextafter(ky, np.inf)),
                             (np.nextafter(kx, np.inf), np.nextafter(ky, -np.inf)),
                             (kx * off, ky * off)]:
                    expected = [_inside_reference(lattice, a, b) for a, b in zip(x.tolist(), y.tolist())]
                    assert 0 < sum(expected) < len(expected)
                    assert first_zone_mask(p, x, y).tolist() == expected

    def test_hex_point_set_is_the_same_at_every_lattice(self):
        """The mask scales k and G by a power of two first; below a lattice
        of ~1e-154 |G|^2 overflowed unscaled and all 81 points were kept."""

        def kept(lattice):
            p = GrapheneParams(lattice=lattice)
            xs, ys = default_grid(p, 9, "hex").axes()
            kx, ky = np.meshgrid(xs, ys, indexing="ij")
            return first_zone_mask(p, kx, ky).tolist()

        unit = kept(1.0)
        assert sum(map(sum, unit)) == 43
        for lattice in (1e-150, 1e-160, 1e-300):
            assert kept(lattice) == unit


@pytest.mark.parametrize(
    "argv",
    [
        ["graphene-bands", "--bias", "0.1", "--grid", "21"],
        ["graphene-concurrence", "--bias", "1", "--mask", "hex", "--branch-n", "2",
         "--grid", "21"],
        ["graphene-concurrence", "--grid", "21"],
        ["graphene-concurrence", "--bias", "1", "--mask", "hex", "--branch-n", "2",
         "--t3", "1.01", "--tperp", "0.99", "--grid", "21"],
    ],
    ids=["bands", "concurrence-hex", "concurrence-bias-0", "concurrence-hex-jittered"],
)
def test_chunk_size_leaves_output_bytes_unchanged(argv, tmp_path, monkeypatch):
    """441 points: one chunk of 4096 (the grid is below one chunk), chunks
    that divide it, and chunks of 8 and 100 that leave a remainder."""
    outputs = set()
    for chunk in (4096, 441, 147, 100, 8):
        monkeypatch.setattr(graphene, "CHUNK_POINTS", chunk)
        path = tmp_path / f"out{chunk}.csv"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main([*argv, "--output", str(path)]) == 0
        outputs.add((buf.getvalue().replace(path.name, ""), path.read_bytes()))
    assert len(outputs) == 1


def _dirac_points(p):
    """The two inequivalent Dirac points K and K' = -K."""
    kx, ky = find_dirac_point(p)
    return [(kx, ky), (-kx, -ky)]


def _commuting_points():
    """Wave vectors and parameters at which the local part of the mapped set
    commutes with its interaction part: t = m = bias = 0 at any k (the local
    vectors vanish), and the Dirac points at m = bias = 0 (beta vanishes with G)."""
    rng = np.random.default_rng(7)
    for _ in range(6):
        p = GrapheneParams(t=0.0, t3=rng.uniform(0.1, 3.0), tperp=rng.uniform(0.1, 3.0))
        yield p, tuple(rng.uniform(-3.0, 3.0, size=2))
    yield GrapheneParams(t=0.0, t3=2.0, tperp=0.5), (0.0, 0.0)
    for p in (DEFAULT, GrapheneParams(t=1.4, t3=0.5, tperp=2.0, lattice=1.3)):
        for k in _dirac_points(p):
            yield p, k


class TestThermalCurve:
    @pytest.mark.parametrize("point", [[], ["--bias", "0.5", "--kx", "0.3", "--ky", "2.2"]],
                             ids=["dirac-point", "biased-off-dirac"])
    def test_command_maps_its_wave_vector_once(self, point, tmp_path, monkeypatch):
        """graphene-thermal maps its set once, for the lowest-temperature
        check and for the curve."""
        calls = []
        real = graphene._lattice_layer

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(graphene, "_lattice_layer", counted)
        argv = ["graphene-thermal", *point, "--steps", "40", "--output", str(tmp_path / "c.csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        assert len(calls) == 1

    def test_exact_at_commuting_points(self):
        """Where the closed form is provably exact the curve has flag 0 and
        equals the Wootters concurrence of the Gibbs state, also where
        tperp < t3 |G| (t = 0, t3 = 2, tperp = 0.5, k = 0 reads C = 1)."""
        temps = np.geomspace(0.02, 50.0, 25)
        for p, (kx, ky) in _commuting_points():
            c = map_to_su2su2(p, kx, ky)
            data = thermal_sweep(c, temps)
            woot = [wootters_concurrence(thermal_state(c, t)) for t in temps]
            assert np.all(data["flag"] == 0)
            assert np.max(np.abs(data["concurrence"] - woot)) <= 1e-13

    def test_positive_below_death_at_dirac_point(self):
        kx, ky = find_dirac_point(DEFAULT)
        t_star = 1.0 / np.arcsinh(1.0)
        temps = [t_star * 0.5, t_star * 0.99, t_star * 1.01, t_star * 10]
        data = thermal_sweep(map_to_su2su2(DEFAULT, kx, ky), temps)
        assert data["concurrence"][0] > 0 and data["concurrence"][1] > 0
        assert data["concurrence"][2] == 0.0 and data["concurrence"][3] == 0.0

    def test_death_temperature_bisection(self):
        kx, ky = find_dirac_point(DEFAULT)
        t_star = thermal_death_temperature(DEFAULT, kx, ky)
        assert t_star is not None
        assert abs(np.sinh(1.0 / t_star) - 1.0) <= 1e-6

    @pytest.mark.parametrize(
        "p, k",
        [(GrapheneParams(bias=0.4, m=0.1), (0.3, 2.2)), (DEFAULT, (0.0, 0.0)),
         (GrapheneParams(tperp=0.3, t3=0.8), (0.3, 0.2)), (GrapheneParams(tperp=0.0), (0.3, 0.2))],
        ids=["tperp-above", "gamma", "tperp-below", "tperp-zero"],
    )
    def test_death_temperature_solves_the_numerator(self, p, k):
        """sinh(x+/T*) = cosh(x-/T*) with x+- = max/min(tperp, t3 |G|), for
        tperp above and below t3 |G| (the Dirac point, x- = 0, is
        test_death_temperature_bisection)."""
        kx, ky = k
        g = p.t3 * abs(graphene._structure_factor(p, kx, ky))
        x_plus, x_minus = max(p.tperp, g), min(p.tperp, g)
        t_star = thermal_death_temperature(p, kx, ky)
        assert t_star is not None
        lhs, rhs = math.sinh(x_plus / t_star), math.cosh(x_minus / t_star)
        assert abs(lhs - rhs) <= 1e-9 * rhs

    @pytest.mark.parametrize(
        "tperp, inside",
        [(1e-6, True), (8e-7, False), (8e5, True), (1e6, False)],
        ids=["low-inside", "low-outside", "high-inside", "high-outside"],
    )
    def test_death_temperature_at_the_dirac_point_in_the_fixed_bracket(self, tperp, inside):
        """At K, x- = 0 and T* = tperp / asinh(1): found to the last bits
        while it lies in [1e-6, 1e6], None once it leaves."""
        p = GrapheneParams(tperp=tperp)
        t_star = thermal_death_temperature(p, *find_dirac_point(p))
        want = tperp / math.asinh(1.0)
        assert (1e-6 < want < 1e6) is inside
        if inside:
            assert abs(t_star - want) <= 4 * sys.float_info.epsilon * want
        else:
            assert t_star is None

    @pytest.mark.parametrize(
        "t3, inside",
        [(4e-7, True), (2e-7, False), (2.5e5, True), (3e5, False)],
        ids=["low-inside", "low-outside", "high-inside", "high-outside"],
    )
    def test_death_temperature_at_gamma_in_the_fixed_bracket(self, t3, inside):
        """At k = 0 with tperp = 0, x+ = 3 t3 and x- = 0, so T* = 3 t3 / asinh(1):
        found while it lies in [1e-6, 1e6], None once it leaves."""
        p = GrapheneParams(t3=t3, tperp=0.0)
        t_star = thermal_death_temperature(p, 0.0, 0.0)
        want = 3.0 * t3 / math.asinh(1.0)
        assert (1e-6 < want < 1e6) is inside
        if inside:
            assert abs(t_star - want) <= 4 * sys.float_info.epsilon * want
        else:
            assert t_star is None

    @pytest.mark.parametrize("knob", ["t_low", "t_high", "iters"])
    def test_death_temperature_takes_no_bracket_or_iteration_count(self, knob):
        """The bracket and the number of halvings are fixed."""
        kx, ky = find_dirac_point(DEFAULT)
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{knob}'"):
            thermal_death_temperature(DEFAULT, kx, ky, **{knob: 1.0})

    @pytest.mark.parametrize("t3, tperp", [(1.0, 3.0), (0.5, 1.5)], ids=["t3-1", "t3-half"])
    def test_death_none_at_equal_couplings(self, t3, tperp):
        """tperp = t3 |G| at k = 0 (G = 3): sinh(x/T) < cosh(x/T) at every T."""
        assert thermal_death_temperature(GrapheneParams(t3=t3, tperp=tperp), 0.0, 0.0) is None

    def test_matches_thermo_closed_form_when_dimer_dominates(self):
        """For tperp > t3 |G| the curve equals the general closed form."""
        from su2pair.thermo import thermal_concurrence

        p = GrapheneParams(tperp=2.0, bias=0.4)
        kx, ky = find_dirac_point(p)
        kx += 0.05  # small offset: 0 < t3 |G| < tperp
        c = map_to_su2su2(p, kx, ky)
        temps = np.linspace(0.2, 5, 10)
        data = thermal_sweep(c, temps)
        for t, val in zip(data["t"], data["concurrence"]):
            assert abs(val - thermal_concurrence(c, t).value) <= 1e-12

    def test_no_overflow_far_below_the_band_scale(self):
        """E2 >> tperp at large bias; exp((E2 - tperp)/T) must not be formed."""
        p = GrapheneParams(bias=10.0)
        kx, ky = find_dirac_point(p)
        data = thermal_sweep(map_to_su2su2(p, kx, ky), [1e-3, 1e-2, 1.0])
        assert np.all((data["concurrence"] >= 0.0) & (data["concurrence"] <= 1.0))

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError):
            thermal_sweep(map_to_su2su2(DEFAULT, 0.0, 0.0), [1.0, -2.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_temperature(self, bad):
        kx, ky = find_dirac_point(DEFAULT)
        with pytest.raises(ValueError):
            thermal_sweep(map_to_su2su2(DEFAULT, kx, ky), [1.0, bad])


def test_lattice_validation():
    with pytest.raises(ValueError):
        GrapheneParams(lattice=0.0)


@pytest.mark.parametrize("name", ["t", "t3", "tperp", "m", "bias", "lattice"])
def test_parameters_must_be_finite(name):
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            GrapheneParams(**{name: bad})


def test_lattice_at_least_the_smallest_lattice():
    """SMALLEST_LATTICE is the smallest double at which the default window's
    width, twice 4 pi / (3 lattice), is finite.  There the window's axes,
    the reciprocal shells and sqrt(3) k_y at the window's edge are finite,
    and the grids evaluate with no overflow or invalid operation; any smaller
    lattice is refused, by name and bound."""
    bound = graphene.SMALLEST_LATTICE
    assert bound == 4.660183791720613e-308
    p = GrapheneParams(lattice=bound)
    xs, ys = default_grid(p).axes()
    assert np.isfinite(xs).all() and np.isfinite(ys).all()
    assert np.isfinite(graphene._reciprocal_shells(bound)).all()
    assert math.isfinite(math.sqrt(3.0) * ys[-1])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        g = default_grid(p, 5)
        assert np.isfinite(band_columns(p, g)["e2"]).all()
        assert np.isfinite(concurrence_columns(p, g)["c"]).all()
    below = float(np.nextafter(bound, 0.0))
    lim = 4.0 * math.pi / (3.0 * below)
    assert math.isinf(lim - (-lim))
    message = rf"^lattice = .* is below {re.escape(repr(bound))}, where the k-space window overflows$"
    for bad in (below, 4e-308, 3e-308, 1e-310, 5e-324):
        with pytest.raises(ValueError, match=message):
            GrapheneParams(lattice=bad)


def test_lattice_at_most_the_largest_lattice():
    """LARGEST_LATTICE is the largest double at which 3 sqrt(3) lattice, the
    zone corner's denominator, is finite, and any larger lattice is refused,
    by name and bound (the CLI test runs every graphene command at it)."""
    bound = graphene.LARGEST_LATTICE
    above = float(np.nextafter(bound, math.inf))
    assert math.isfinite(3.0 * math.sqrt(3.0) * bound)
    assert math.isinf(3.0 * math.sqrt(3.0) * above)
    message = rf"^lattice = .* is above {re.escape(repr(bound))}, where the Dirac point overflows$"
    for bad in (above, 4e307, 1e308, sys.float_info.max):
        with pytest.raises(ValueError, match=message):
            GrapheneParams(lattice=bad)


@pytest.mark.parametrize("name", ["t", "t3", "tperp", "m", "bias"])
def test_parameters_at_most_the_structural_scale(name):
    """Past STRUCTURAL_SCALE the grids' structural zeros could drop a term
    that overflows, so such parameters are refused, by name and bound."""
    scale = graphene.STRUCTURAL_SCALE
    for ok in (scale, -scale):
        GrapheneParams(**{name: ok})
    for bad in (np.nextafter(scale, np.inf), -2e60, 1e155, 1e300):
        with pytest.raises(ValueError, match=rf"^{name} = .* exceeds 1e\+60 in magnitude$"):
            GrapheneParams(**{name: float(bad)})
