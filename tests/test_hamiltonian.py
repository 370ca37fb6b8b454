import decimal
import math
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su2pair._invariants import _derive_components, even_spectrum
from su2pair.entanglement import (
    bloch_vectors,
    concurrence_closed_form_arrays,
    eigenstate_bloch_closed_form,
    eigenstate_concurrence_closed_form,
)
from su2pair.errors import ConstraintError, NonHermitianError
from su2pair.hamiltonian import (
    Branch,
    CaseKind,
    DEFAULT_TOL,
    CoefficientSet,
    DerivedCoefficients,
    classify,
    derive,
    derive_arrays,
    fano_compose,
    fano_decompose,
    rotate_set,
)
from su2pair.pauli import _WORDS, pauli
from su2pair.solver import SolveMethod, solve
from su2pair.sampling import (
    random_coefficient_set,
    random_entangled_canonical,
    random_rotated_constrained,
    random_rotation,
)

from su2pair.thermo import thermal_concurrence, thermal_report, thermal_sweep

from references import case01_theta, random_hermitian, random_unitary, scaled, traceless

ENTANGLED_EXAMPLE = CoefficientSet(0.0, (0, 0, 1), (0, 0, 0), np.diag([1.0, 1.0, 0.0]))
# The XYZ exchange model: both local vectors vanish, omega has full rank.
XYZ_EXCHANGE = CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.diag([1.0, 2.0, 3.0]))

# Every field of DerivedCoefficients, in field order.
DERIVED_FIELDS = (
    "v_quad", "theta", "phi", "theta_phi", "s_cubic", "beta_adj_alpha", "det_omega",
    "adj_norm", "singular_residual", "alpha_null", "beta_null", "alpha_residual",
    "beta_residual", "alpha_sq", "beta_sq", "omega_sq",
)


class TestFano:
    def test_decompose_identity(self):
        c = fano_decompose(np.eye(4))
        assert c.upsilon == 1.0
        assert np.allclose(c.alpha, 0) and np.allclose(c.beta, 0)
        assert np.allclose(c.omega, 0)

    def test_decompose_single_word(self):
        c = fano_decompose(np.kron(pauli(3), pauli(3)))
        assert c.upsilon == 0.0
        assert np.allclose(c.omega, np.diag([0, 0, 1.0]))

    def test_compose_examples(self):
        c = CoefficientSet(1.0, (0, 0, 0), (0, 0, 0), np.zeros((3, 3)))
        assert np.allclose(fano_compose(c), np.eye(4))
        c2 = CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.diag([0.0, 0.0, 1.0]))
        assert np.allclose(fano_compose(c2), np.kron(pauli(3), pauli(3)))

    def test_compose_equals_the_word_sum(self):
        """fano_compose against the sum of scaled Pauli words, added one at a
        time in the order upsilon, then alpha_i, beta_i, omega_i1..omega_i3
        per i, over 20000 sets with zero entries and scales 1e-5..1e5."""
        rng = np.random.default_rng(2024)
        coef = rng.normal(size=(20000, 16)) * 10.0 ** rng.uniform(-5, 5, size=(20000, 16))
        coef[rng.random(coef.shape) < 0.3] = 0.0
        # words[k] carries coefficient k of (upsilon, alpha, beta, omega row
        # by row); order lists k in the order the words are added.
        words = [(0, 0)] + [(i, 0) for i in (1, 2, 3)] + [(0, j) for j in (1, 2, 3)]
        words += [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
        order = [0]
        for i in (1, 2, 3):
            order += [i, 3 + i] + [3 + 3 * i + j for j in (1, 2, 3)]
        want = np.zeros((len(coef), 4, 4), dtype=complex)
        for k in order:
            want += coef[:, k, None, None] * _WORDS[words[k]]
        for v, h in zip(coef, want):
            c = CoefficientSet(v[0], v[1:4], v[4:7], v[7:].reshape(3, 3))
            assert np.array_equal(fano_compose(c), h)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng)
        back = fano_compose(fano_decompose(h))
        assert np.max(np.abs(back - h)) <= 1e-12 * (1 + np.max(np.abs(h)))

    def test_round_trip_bulk(self, rng):
        for _ in range(1000):
            h = random_hermitian(rng, scale=float(rng.uniform(0.1, 3.0)))
            back = fano_compose(fano_decompose(h))
            assert np.max(np.abs(back - h)) <= 1e-12 * (1 + np.max(np.abs(h)))

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4, 2), (3, 4), (16,)])
    def test_decompose_refuses_any_shape_but_4x4(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"must be 4x4, not of shape {shape}")):
            fano_decompose(np.ones(shape))

    def test_decompose_rejects_non_hermitian(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        with pytest.raises(NonHermitianError):
            fano_decompose(m)

    @pytest.mark.parametrize("size", [1e-200, 1e-160, 1.0, 1e160, 1e200])
    def test_scale_is_the_hypot_at_every_magnitude(self, size):
        """S is math.hypot of the packed vector, bit for bit and without a
        warning, where the sum of squares underflows or overflows, and
        within 2 ulp of a 50-digit reference."""
        v = np.random.default_rng(5).normal(size=16) * size
        c = CoefficientSet(v[0], v[1:4], v[4:7], v[7:].reshape(3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scale = c.scale()
        assert scale == math.hypot(*c.packed.tolist())
        exact = decimal.Context(prec=50).sqrt(sum(decimal.Decimal(x) ** 2 for x in v.tolist()))
        assert abs(decimal.Decimal(scale) - exact) <= 2 * math.ulp(scale)

    def test_coefficients_must_be_finite(self):
        with pytest.raises(ValueError):
            CoefficientSet(np.nan, (0, 0, 0), (0, 0, 0), np.zeros((3, 3)))


def _given_as(form, x):
    """(upsilon, alpha, beta, omega) of the 4x4 layout ``x`` ([0, 0],
    [1:, 0], [0, 1:], [1:, 1:]) in one of the forms CoefficientSet takes."""
    ups, al, be, om = x[0, 0], x[1:, 0], x[0, 1:], x[1:, 1:]
    if form == "lists":
        return float(ups), al.tolist(), be.tolist(), om.tolist()
    if form == "tuples":
        return float(ups), tuple(al.tolist()), tuple(be.tolist()), tuple(map(tuple, om.tolist()))
    if form == "numpy-scalars":
        return ups, list(al), [np.float32(v) for v in be], [list(row) for row in om]
    return ups, al, be, om


class TestPackedCoefficients:
    """A set holds one read-only 16-entry float64 vector in fano_compose's
    order (upsilon, alpha, beta, omega row by row); alpha, beta and omega
    are read-only views of it, however the coefficients were given."""

    @pytest.mark.parametrize("form", ["lists", "tuples", "numpy-scalars", "strided-views"])
    def test_fields_are_read_only_views_of_one_packed_vector(self, form):
        x = np.arange(1.0, 17.0).reshape(4, 4) - 8.5
        c = CoefficientSet(*_given_as(form, x))
        packed = c.packed
        want = [x[0, 0], *x[1:, 0], *x[0, 1:], *x[1:, 1:].ravel()]
        assert packed.dtype == np.float64 and packed.shape == (16,)
        assert packed.tolist() == want
        assert type(c.upsilon) is float and c.upsilon == want[0]
        assert not packed.flags.writeable
        start = packed.__array_interface__["data"][0]
        for field, offset, shape in ((c.alpha, 1, (3,)), (c.beta, 4, (3,)), (c.omega, 7, (3, 3))):
            assert field.dtype == np.float64 and field.shape == shape
            assert np.shares_memory(field, packed)
            assert field.__array_interface__["data"][0] == start + 8 * offset
            assert field.ravel().tolist() == want[offset:offset + field.size]
            assert not field.flags.writeable
            with pytest.raises(ValueError):
                field[(0,) * field.ndim] = 1.0
            with pytest.raises(ValueError):
                field.setflags(write=True)
        # fano_compose gathers from the packed vector.
        assert np.array_equal(fano_compose(c), fano_compose(CoefficientSet(*_given_as("lists", x))))

    @staticmethod
    def _reshape_message(size, shape):
        with pytest.raises(ValueError) as exc:
            np.empty(size).reshape(shape)
        return str(exc.value)

    @pytest.mark.parametrize("field", ["upsilon", "alpha", "beta", "omega"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_refused(self, field, bad):
        args = dict(upsilon=0.5, alpha=[1, 2, 3], beta=(4, 5, 6), omega=np.eye(3))
        args[field] = {"upsilon": bad, "alpha": [1.0, bad, 3.0], "beta": (bad, 5.0, 6.0),
                       "omega": np.diag([1.0, 2.0, bad])}[field]
        message = "upsilon must be finite" if field == "upsilon" else "coefficients must be finite"
        with pytest.raises(ValueError, match=f"^{message}$"):
            CoefficientSet(**args)

    @pytest.mark.parametrize(
        "field, value, shape",
        [("alpha", [1.0, 2.0], (3,)), ("beta", np.zeros(4), (3,)),
         ("omega", np.eye(2), (3, 3)), ("omega", np.zeros((3, 4)), (3, 3))],
    )
    def test_mis_shaped_input_is_refused(self, field, value, shape):
        args = dict(upsilon=0.5, alpha=[1, 2, 3], beta=(4, 5, 6), omega=np.eye(3))
        args[field] = value
        message = self._reshape_message(np.size(value), shape)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CoefficientSet(**args)

    def test_flat_omega_is_accepted_row_by_row(self):
        c = CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.arange(9.0))
        assert c.omega.tolist() == np.arange(9.0).reshape(3, 3).tolist()


class TestEqualityAndHashing:
    """Sets compare and hash by their packed vectors, so equal sets given in
    different forms are equal and key a dict alike."""

    X = np.arange(1.0, 17.0).reshape(4, 4) - 8.5

    def test_equal_distinct_sets_compare_equal(self):
        a, b = (CoefficientSet(*_given_as(form, self.X)) for form in ("lists", "strided-views"))
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)

    @pytest.mark.parametrize("k", range(16))
    def test_one_changed_coefficient_compares_unequal(self, k):
        a = CoefficientSet(*_given_as("lists", self.X))
        x = self.X.copy()
        x.flat[k] += 0.25
        b = CoefficientSet(*_given_as("lists", x))
        assert a != b and not a == b

    def test_other_types_are_not_equal(self):
        a = CoefficientSet(*_given_as("lists", self.X))
        assert a != a.packed.tolist() and a != (a.upsilon, a.alpha, a.beta, a.omega)

    def test_signed_zeros_compare_and_hash_alike(self):
        a = CoefficientSet(0.0, (0, 0, 1), (0, 0, 0), np.eye(3))
        b = CoefficientSet(-0.0, (-0.0, 0, 1), (0, -0.0, 0), np.eye(3))
        assert a == b and hash(a) == hash(b)

    def test_sets_key_a_dict(self):
        table = {CoefficientSet(*_given_as(form, self.X)): form
                 for form in ("lists", "tuples", "numpy-scalars", "strided-views")}
        assert len(table) == 1
        assert table[CoefficientSet(*_given_as("tuples", self.X))] == "strided-views"
        other = CoefficientSet(0.0, (0, 0, 1), (0, 0, 0), np.eye(3))
        table[other] = "other"
        assert len(table) == 2 and table[rotate_set(other, np.eye(3), np.eye(3))] == "other"


class TestDerive:
    def test_rank_one_diagonal(self):
        c = CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.diag([1.0, 0.0, 0.0]))
        d = derive(c)
        assert d.phi == 0.0  # phi = |W|_F^2: Ht^2 has no two-qubit part
        assert d.v_quad == 1.0

    def test_entangled_example_values(self):
        d = derive(ENTANGLED_EXAMPLE)
        assert np.isclose(d.v_quad, 3.0)
        assert np.isclose(d.phi, 4.0)
        assert np.isclose(d.theta_phi, 4.0)
        assert d.s_cubic == 0.0

    def test_zero_set(self):
        d = derive(CoefficientSet(1.0, (0, 0, 0), (0, 0, 0), np.zeros((3, 3))))
        for value in (d.v_quad, d.theta, d.phi, d.theta_phi, d.s_cubic):
            assert value == 0.0

    def test_v_quad_is_quarter_trace_of_ht_squared(self, rng):
        for _ in range(100):
            c = random_coefficient_set(rng)
            ht = traceless(c)
            ref = np.trace(ht @ ht).real / 4.0
            assert abs(derive(c).v_quad - ref) <= 1e-10 * (1 + abs(ref))

    def test_theta_is_quarter_trace_of_o_squared(self, rng):
        """Theta = 1/4 Tr[O^2] holds for every set through the Pauli route."""
        for _ in range(100):
            c = random_coefficient_set(rng)
            d = derive(c)
            ht = traceless(c)
            o_op = ht @ ht - d.v_quad * np.eye(4)
            ref = np.trace(o_op @ o_op).real / 4.0
            assert abs(d.theta - ref) <= 1e-10 * (1 + abs(ref))

    def test_case01_theta_matches_on_dyadic_sets(self, rng):
        from su2pair.sampling import random_dyadic_set

        for _ in range(50):
            c = random_dyadic_set(rng)
            d = derive(c)
            assert abs(case01_theta(c) - d.theta) <= 1e-9 * (1 + abs(d.theta))

    def test_phi_reduced_form_on_canonical_sets(self, rng):
        """Phi = 4[(a.b - det w_B)^2 + (a x b)^2] on constrained canonical sets,
        where beta_adj_alpha is (a.b) det w_B."""
        for branch in ("alpha", "beta", "both"):
            for _ in range(40):
                c = random_entangled_canonical(rng, branch)
                d = derive(c)
                det_b = float(np.linalg.det(c.omega[:2, :2]))
                ref = 4.0 * (
                    (c.alpha @ c.beta - det_b) ** 2
                    + np.cross(c.alpha, c.beta) @ np.cross(c.alpha, c.beta)
                )
                assert abs(d.phi - ref) <= 1e-10 * (1 + abs(ref))
                product = (c.alpha @ c.beta) * det_b
                assert abs(d.beta_adj_alpha - product) <= 1e-12 * (1 + abs(product))

    def test_adjugate_fields_on_rotated_sets(self, rng):
        """adj_norm = s1 s2 and beta_adj_alpha = (a.b) det w_B of the block
        frame, whatever local frame a constrained set comes in."""
        for _ in range(100):
            canonical, rotated = random_rotated_constrained(rng)
            d = derive(rotated)
            s = np.linalg.svd(rotated.omega, compute_uv=False)
            scale = 1 + d.omega_sq
            assert abs(d.adj_norm - s[0] * s[1]) <= 1e-14 * scale
            det_b = float(np.linalg.det(canonical.omega[:2, :2]))
            product = (canonical.alpha @ canonical.beta) * det_b
            assert abs(d.beta_adj_alpha - product) <= 1e-13 * scale * (1 + d.v_quad)

    def test_cayley_hamilton_reduction(self, rng):
        for _ in range(100):
            c = random_entangled_canonical(rng, "alpha")
            d = derive(c)
            ht = traceless(c)
            ht2 = ht @ ht
            lhs = ht2 @ ht2 - 2 * d.v_quad * ht2 + (d.v_quad**2 - d.theta_phi) * np.eye(4)
            assert np.max(np.abs(lhs)) <= 1e-9 * (1 + d.v_quad**2)

    @staticmethod
    def _mixed_sets(rng, count):
        """Constrained and general sets, zero-sprinkled, at scales 1e-6..1e6."""
        sets = []
        for k in range(count):
            c = (random_entangled_canonical(rng, ("alpha", "beta", "both")[k % 3])
                 if k % 2 else scaled(10.0 ** rng.uniform(-6, 6), random_coefficient_set(rng)))
            if k % 5 == 0:
                c = CoefficientSet(c.upsilon, c.alpha * (rng.random(3) < 0.5), c.beta,
                                   c.omega * (rng.random((3, 3)) < 0.5))
            if k % 7 == 0:
                c = rotate_set(c, random_rotation(rng), random_rotation(rng))
            sets.append(c)
        return sets

    @staticmethod
    def _assert_items_equal_derive(batch, sets):
        """Every field of every item of ``batch`` carries the bits of derive."""
        n = len(sets)
        for i, c in enumerate(sets):
            one = derive(c)
            for name in DERIVED_FIELDS:
                value = getattr(one, name)
                item = np.asarray(getattr(batch, name)).reshape((n,) + np.shape(value))[i]
                assert item.tobytes() == np.asarray(value, dtype=item.dtype).tobytes(), (i, name)

    def test_batch_items_equal_single_set_derive_bitwise(self, rng):
        """derive is the unbatched call of derive_arrays; every item of a
        batch (mixed shapes of constraint, zeros, scales) carries the same bits."""
        sets = self._mixed_sets(rng, 60)
        batch = derive_arrays(
            np.array([c.alpha for c in sets]).reshape(3, 20, 3),
            np.array([c.beta for c in sets]).reshape(3, 20, 3),
            np.array([c.omega for c in sets]).reshape(3, 20, 3, 3),
        )
        self._assert_items_equal_derive(batch, sets)

    def test_items_equal_derive_in_any_shape_and_memory_order(self):
        """(N,) and (N, M) batches, C order, transposed and strided views:
        the kernel is elementwise, so the layout cannot move a bit."""
        rng = np.random.default_rng(20261018)
        sets = self._mixed_sets(rng, 240)
        al = np.array([c.alpha for c in sets])
        be = np.array([c.beta for c in sets])
        om = np.array([c.omega for c in sets])
        layouts = {
            "(N,)": (al, be, om),
            "(N, M)": (al.reshape(40, 6, 3), be.reshape(40, 6, 3), om.reshape(40, 6, 3, 3)),
            # Fortran-ordered copies: the component axis has the largest stride.
            "transposed": tuple(np.asfortranarray(x) for x in (al, be, om)),
            # Every other row of an interleaved buffer, and omega^T^T.
            "strided": (
                np.repeat(al, 2, axis=0)[::2],
                np.repeat(be, 2, axis=0)[::2],
                np.ascontiguousarray(om.swapaxes(-1, -2)).swapaxes(-1, -2),
            ),
        }
        for name, (a, b, w) in layouts.items():
            if name == "transposed":
                assert not a.flags.c_contiguous and not w.flags.c_contiguous
            if name == "strided":
                assert not a.flags.c_contiguous and not w.flags.c_contiguous
            self._assert_items_equal_derive(derive_arrays(a, b, w), sets)

    def test_scalar_types_of_one_set(self, rng):
        """derive gives Python floats and bools; derive_arrays on one set keeps
        numpy scalars, so the array forms divide by zero under np.errstate
        instead of raising ZeroDivisionError."""
        for c in self._mixed_sets(rng, 12):
            one, arr = derive(c), derive_arrays(c.alpha, c.beta, c.omega)
            for name in DERIVED_FIELDS:
                value, other = getattr(one, name), getattr(arr, name)
                if isinstance(value, bool):
                    assert isinstance(other, np.bool_), name
                else:
                    assert type(value) is float, name
                    assert isinstance(other, np.floating), name
        zero = derive_arrays(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.isnan(zero.phi / zero.theta_phi)

    def test_field_names_are_the_dataclass_fields(self):
        assert DERIVED_FIELDS == tuple(f.name for f in fields(DerivedCoefficients))

    def test_bloch_vectors_match_solved_states_in_any_frame(self, rng):
        """The Bloch closed form forms the Pauli components of Ht^2 through
        the derive kernel's helper, on one set's components as Python
        floats: on every constrained branch, zero-sprinkled and rotated
        sets, it equals the Bloch vectors of the solved states."""
        sets = []
        for k in range(12):
            c = random_entangled_canonical(rng, ("alpha", "beta", "both")[k % 3])
            if k % 4 == 1:
                c = CoefficientSet(c.upsilon, c.alpha * (rng.random(3) < 0.7), c.beta, c.omega)
            if k % 4 == 2:
                c = rotate_set(c, random_rotation(rng), random_rotation(rng))
            sets.append(c)
        sets += [random_rotated_constrained(rng)[1] for _ in range(4)]
        for i, c in enumerate(sets):
            for (m, n), _, rho in solve(c).items():
                pair, want = eigenstate_bloch_closed_form(c, m, n), bloch_vectors(rho)
                assert np.max(np.abs(pair.a_bloch - want.a_bloch)) <= 1e-12, (i, m, n)
                assert np.max(np.abs(pair.b_bloch - want.b_bloch)) <= 1e-12, (i, m, n)

    def test_records_keep_the_frozen_dataclass_contract(self, rng):
        """repr, replace and frozenness are those of a record built through
        the dataclass's own __init__."""
        from dataclasses import FrozenInstanceError

        c = random_coefficient_set(rng)
        d = derive(c)
        assert tuple(vars(d)) == DERIVED_FIELDS
        fresh = derive(c)
        ref = DerivedCoefficients(**{name: getattr(fresh, name) for name in DERIVED_FIELDS})
        assert repr(d) == repr(ref)
        other = replace(d, v_quad=2.0 * d.v_quad)
        assert other.v_quad == 2.0 * d.v_quad
        for name in DERIVED_FIELDS[1:]:
            got, want = getattr(other, name), getattr(d, name)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
        with pytest.raises(FrozenInstanceError):
            d.v_quad = 0.0
        with pytest.raises(AttributeError):
            d.not_a_field  # noqa: B018

    def test_even_spectrum_rejects_a_batch_with_one_unconstrained_set(self, rng):
        canonical = [random_entangled_canonical(rng, "alpha") for _ in range(4)]
        sets = canonical + [random_coefficient_set(rng)]
        d = derive_arrays(*(np.array([getattr(c, f) for c in sets]) for f in ("alpha", "beta", "omega")))
        with pytest.raises(ConstraintError):
            even_spectrum(d)
        d = derive_arrays(*(np.array([getattr(c, f) for c in canonical]) for f in ("alpha", "beta", "omega")))
        sq, e1, e2 = even_spectrum(d)
        assert sq.shape == e1.shape == e2.shape == (4,)

    def test_unconstrained_error_names_the_relative_residuals(self, rng):
        """even_spectrum's error carries classify's three constraint residuals,
        on one set and on the unconstrained item of a batch."""
        c = CoefficientSet(0.3, (1, 2, 3), (3, 1, 2), np.diag([1.0, 2.0, 3.0]))
        r = classify(c).residuals
        want = (
            f"alpha.omega residual {r['alpha_constraint']:.3e}, "
            f"omega.beta residual {r['beta_constraint']:.3e}, "
            f"det_omega residual {r['det_omega']:.3e}"
        )
        with pytest.raises(ConstraintError, match=re.escape(want)):
            even_spectrum(derive(c))
        sets = [random_entangled_canonical(rng, "alpha"), c, random_entangled_canonical(rng, "beta")]
        d = derive_arrays(*(np.array([getattr(s, f) for s in sets]) for f in ("alpha", "beta", "omega")))
        with pytest.raises(ConstraintError, match=re.escape(want)):
            even_spectrum(d)

    def test_unconstrained_error_reads_scalar_fields_of_a_batch(self):
        """A batch may give components common to every item as scalars, as
        the graphene grids do, so some fields are scalars; the error on an
        item past the first reads them for that item."""
        c = CoefficientSet(0.0, (0, 0, 1), (0, 1, 0), np.eye(3))
        r = classify(c).residuals
        want = (
            f"alpha.omega residual {r['alpha_constraint']:.3e}, "
            f"omega.beta residual {r['beta_constraint']:.3e}, "
            f"det_omega residual {r['det_omega']:.3e}"
        )
        # Item 0 has omega = diag(1, 1, 0) and alpha.omega = 0; item 1 is c.
        d = _derive_components(
            [0.0, 0.0, 1.0], [0.0, 1.0, 0.0],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, np.array([0.0, 1.0])]],
        )
        assert isinstance(d.alpha_sq, float)
        with pytest.raises(ConstraintError, match=re.escape(want)):
            even_spectrum(d)

    def test_odd_traces_vanish_under_constraint(self, rng):
        for _ in range(50):
            c = random_entangled_canonical(rng, "alpha")
            ht = traceless(c)
            bound = 1e-9 * (1 + derive(c).v_quad ** 2.5)
            ht3 = ht @ ht @ ht
            assert abs(np.trace(ht)) <= bound
            assert abs(np.trace(ht3)) <= bound
            assert abs(np.trace(ht3 @ ht @ ht)) <= bound


@st.composite
def _vanishing_vector_sets(draw):
    """Small-integer sets with alpha = 0, beta = 0 or both, optionally rotated.

    omega is drawn whole (mostly full rank) or with one row or column
    cleared, so that both sides of the constraint gate are reached; integer
    entries keep every residual at round-off or far above the tolerance.
    """
    ints = st.integers(min_value=-3, max_value=3)
    vec = lambda: np.array(draw(st.lists(ints, min_size=3, max_size=3)), dtype=float)
    alpha, beta = vec(), vec()
    zero = draw(st.sampled_from(["alpha", "beta", "both"]))
    if zero in ("alpha", "both"):
        alpha[:] = 0.0
    if zero in ("beta", "both"):
        beta[:] = 0.0
    omega = np.array(draw(st.lists(ints, min_size=9, max_size=9)), dtype=float).reshape(3, 3)
    cleared = draw(st.sampled_from([None, "row", "column"]))
    if cleared == "row":
        omega[draw(st.integers(0, 2)), :] = 0.0
    elif cleared == "column":
        omega[:, draw(st.integers(0, 2))] = 0.0
    c = CoefficientSet(float(draw(ints)), alpha, beta, omega)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        c = rotate_set(c, random_rotation(rng), random_rotation(rng))
    return c


class TestConstraintGate:
    @settings(max_examples=400, deadline=None)
    @given(_vanishing_vector_sets())
    @example(XYZ_EXCHANGE)
    # Two small singular values: det omega = 9e-10 <= tol |omega|^3, yet
    # dropping det from the quartic moves the double top level by ~4e-5.
    @example(CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.diag([1.0, 3e-5, 3e-5])))
    def test_admitted_sets_have_the_even_spectrum(self, c):
        """Wherever the gate admits a set, upsilon +- E1, upsilon +- E2 is
        its spectrum; a vanishing vector alone does not admit full-rank omega."""
        try:
            _, e1, e2 = even_spectrum(derive(c))
        except ConstraintError:
            return
        e = np.linalg.eigvalsh(fano_compose(c))
        even = c.upsilon + np.array([-e2, -e1, e1, e2])
        assert np.max(np.abs(even - e)) <= 1e-9 * (1 + np.max(np.abs(e)))

    # E1 = sqrt(V - sqrt(Tp)) cancels where E1 << E2: its error is about
    # sqrt(eps V), where eigvalsh errs by about eps sqrt(V).  The random test
    # above meets this when it draws alpha = beta = 0 and an omega with equal
    # nonzero singular values; this set is one, pinned so that the defect
    # shows on every run until ROADMAP item 7 (a backward-stable E1) lands.
    @pytest.mark.xfail(strict=True, reason="E1 = sqrt(V - sqrt(Tp)) cancels near E1 = 0")
    def test_equal_singular_values_have_the_even_spectrum(self):
        """omega with singular values (3, 3, 0) in a rotated frame: the
        spectrum is -6, 0, 0, 6, and E1 reads 6.0e-8 against the 7e-9 bound
        of the test above."""
        omega = [[0.8750168667406661, -1.4277937635577944, 1.9053467764321144],
                 [-0.4401166539908998, 2.4886604843545155, 1.4239634299220036],
                 [0.44027284470823447, -0.1584022669208964, 1.7122111820649848]]
        c = CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), omega)
        _, e1, e2 = even_spectrum(derive(c))
        e = np.linalg.eigvalsh(fano_compose(c))
        even = c.upsilon + np.array([-e2, -e1, e1, e2])
        assert np.max(np.abs(even - e)) <= 1e-9 * (1 + np.max(np.abs(e)))

    def test_vanishing_vector_with_full_rank_omega_is_not_constrained(self):
        d = derive(XYZ_EXCHANGE)
        assert not d.alpha_null and not d.beta_null
        with pytest.raises(ConstraintError):
            even_spectrum(d)
        assert classify(XYZ_EXCHANGE).kind is CaseKind.GENERAL


class TestPaperTypoCrossChecks:
    """Documented discrepancies guarded against silent 'fixes'."""

    def test_expanded_phi_polynomial_disagrees(self):
        # The expanded trace polynomial for Phi evaluates to 20 on
        # omega = diag(1,1,0) with alpha = beta = 0, while the defining
        # matrix form gives 4; the expansion is not used anywhere.
        c = CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.diag([1.0, 1.0, 0.0]))
        om = np.asarray(c.omega)
        tr = np.trace
        expansion = (
            4.0
            * (
                (c.alpha @ c.alpha) * (c.beta @ c.beta)
                - (c.alpha @ c.beta) * (tr(om) ** 2 - tr(om @ om))
                + tr(om @ om @ om @ om)
            )
            - 4.0 * tr(om @ om @ om) * tr(om)
            + 4.0 * tr(om @ om) * tr(om) ** 2
            - (tr(om) ** 2 - tr(om @ om)) ** 2
        )
        assert np.isclose(expansion, 20.0)
        assert np.isclose(derive(c).phi, 4.0)

    def test_rank_one_theta_form_disagrees_off_rank_one(self):
        # 4(a.w.w^T.a + b.w^T.w.b + a^2 b^2) misses the omega-only part of
        # Theta whenever omega has rank > 1.
        c = CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.eye(3))
        assert case01_theta(c) == 0.0
        assert np.isclose(derive(c).theta, 12.0)

    def test_separable_coefficient_signs(self):
        # Direct expansion of (a0 I + a.s)(x)(b0 I + b.s) fixes the local
        # vectors as +b0*a and +a0*b; the opposite signs fail.
        a0, b0 = 1.5, -0.5
        av, bv = np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.5, 2.0])
        h1 = a0 * np.eye(2, dtype=complex) + sum(av[i] * pauli(i + 1) for i in range(3))
        h2 = b0 * np.eye(2, dtype=complex) + sum(bv[i] * pauli(i + 1) for i in range(3))
        plus = CoefficientSet(a0 * b0, b0 * av, a0 * bv, np.outer(av, bv))
        minus = CoefficientSet(a0 * b0, -b0 * av, -a0 * bv, np.outer(av, bv))
        assert np.max(np.abs(fano_compose(plus) - np.kron(h1, h2))) <= 1e-12
        assert np.max(np.abs(fano_compose(minus) - np.kron(h1, h2))) > 1.0


def _scaled(c: CoefficientSet, lam: float) -> CoefficientSet:
    return CoefficientSet(lam * c.upsilon, lam * c.alpha, lam * c.beta, lam * c.omega)


def _closed_form_declined(c: CoefficientSet) -> bool:
    """The even-spectrum degeneracy flag: solve's entangled route hands over to the oracle."""
    return solve(c).method is SolveMethod.ORACLE_NUMERIC


@st.composite
def _shaped_sets(draw, constrained=False):
    """Small-integer sets in every classify shape, optionally rotated.

    Integer entries keep each residual either at round-off or far above the
    tolerance, so a label can only change through a scale-dependent bound,
    not by rounding across the threshold.
    """
    ints = st.integers(min_value=-3, max_value=3)
    vec = lambda: np.array(draw(st.lists(ints, min_size=3, max_size=3)), dtype=float)
    shapes = ["alpha", "beta", "both"]
    if not constrained:
        shapes += ["dyadic", "diagonal", "general"]
    shape = draw(st.sampled_from(shapes))
    ups, alpha, beta = float(draw(ints)), vec(), vec()
    omega = np.array(draw(st.lists(ints, min_size=9, max_size=9)), dtype=float).reshape(3, 3)
    if shape == "dyadic":
        a0, b0 = float(draw(ints)), float(draw(ints))
        ups, omega = a0 * b0, np.outer(alpha, beta)
        alpha, beta = b0 * alpha, a0 * beta
    elif shape == "diagonal":
        omega = np.diag(np.diag(omega))
    elif shape != "general":
        omega[2, :] = omega[:, 2] = 0.0
        if shape in ("alpha", "both"):
            alpha[:2] = 0.0
        if shape in ("beta", "both"):
            beta[:2] = 0.0
    c = CoefficientSet(ups, alpha, beta, omega)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        c = rotate_set(c, random_rotation(rng), random_rotation(rng))
    return c


class TestClassify:
    def test_dyadic_label(self, rng):
        from su2pair.sampling import random_dyadic_set

        for _ in range(20):
            assert classify(random_dyadic_set(rng)).kind is CaseKind.SEPARABLE_DYADIC

    def test_entangled_branches(self, rng):
        for branch, expected in (
            ("alpha", Branch.ALPHA_NULL),
            ("beta", Branch.BETA_NULL),
            ("both", Branch.BOTH),
        ):
            c = random_entangled_canonical(rng, branch)
            label = classify(c)
            assert label.kind is CaseKind.ENTANGLED_CONSTRAINED
            assert label.branch is expected

    def test_rotated_constrained_keeps_its_label(self, rng):
        """The label is frame-free: local rotations keep kind and branch."""
        for branch, expected in (
            ("alpha", Branch.ALPHA_NULL),
            ("beta", Branch.BETA_NULL),
            ("both", Branch.BOTH),
        ):
            for _ in range(10):
                c = random_entangled_canonical(rng, branch)
                label = classify(rotate_set(c, random_rotation(rng), random_rotation(rng)))
                assert label.kind is CaseKind.ENTANGLED_CONSTRAINED
                assert label.branch is expected
                assert label.residuals["det_omega"] <= 1e-12

    def test_rounded_rank_one_omega_counts_as_singular(self):
        """omega = u v^T in floating point keeps cofactors of round-off size, so
        a cofactor expansion of det omega is as large as |omega| |adj omega|
        eps and fails the singularity gate; the reflected form must not."""
        rng = np.random.default_rng(20261018)
        for _ in range(500):
            u, v, beta = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-3, 3)
            c = CoefficientSet(rng.normal(), np.zeros(3), beta, np.outer(u, v))
            label = classify(c)
            assert label.kind is CaseKind.ENTANGLED_CONSTRAINED, label
            assert label.residuals["det_omega"] <= 1e-12

    def test_diagonal_label(self, rng):
        # Full-rank diagonal omega with generic local vectors: no constraint,
        # not factorizable, so general like any other set without a closed form.
        c = CoefficientSet(0.3, (1, 2, 3), (3, 1, 2), np.diag([1.0, 2.0, 3.0]))
        label = classify(c)
        assert label.kind is CaseKind.GENERAL and str(label) == "general"
        assert "offdiagonal" not in label.residuals

    def test_general_label(self, rng):
        for _ in range(20):
            c = random_coefficient_set(rng)
            assert classify(c).kind is CaseKind.GENERAL

    def test_scale_equivariance(self, rng):
        from su2pair.sampling import random_dyadic_set

        sets = [
            random_dyadic_set(rng),
            random_entangled_canonical(rng, "alpha"),
            CoefficientSet(0.3, (1, 2, 3), (3, 1, 2), np.diag([1.0, 2.0, 3.0])),
            random_coefficient_set(rng),
        ]
        for c in sets:
            base = classify(c)
            for lam in (1e-6, 1.0, 1e6):
                scaled = CoefficientSet(
                    lam * c.upsilon, lam * c.alpha, lam * c.beta, lam * c.omega
                )
                label = classify(scaled)
                assert label.kind is base.kind and label.branch is base.branch

    @settings(max_examples=300, deadline=None)
    @given(_shaped_sets(), st.sampled_from([1e-6, 1e6]))
    def test_labels_invariant_under_rescaling(self, c, lam):
        base, label = classify(c), classify(_scaled(c, lam))
        assert (label.kind, label.branch) == (base.kind, base.branch)

    # Both scales fail today, for two reasons recorded here until the
    # DEGENERACY_RTOL bounds are made scale-free:
    # - at 1e-6 the bounds' absolute floor (their "1 +") marks every
    #   spectrum degenerate, so the closed form is never used;
    # - at 1e6 the bound on E1 = sqrt(V - sqrt(Tp)), 1e-8 (1 + sqrt(V)),
    #   sits at the sqrt(eps) round-off floor of E1, so an exactly
    #   degenerate E1 (two unit local fields, no coupling, rotated: the
    #   pinned example) is caught at unit scale only thanks to the "1 +".
    @pytest.mark.xfail(strict=True, reason="degeneracy bounds are not scale-free")
    @pytest.mark.parametrize("lam", [1e-6, 1e6])
    @settings(max_examples=300, deadline=None)
    @given(c=_shaped_sets(constrained=True))
    @example(
        c=CoefficientSet(
            0.0,
            (0.9374778783024902, -0.3423226483143298, -0.06285246331310232),
            (0.678965377775841, -0.14271814924925807, -0.7201649433682371),
            np.zeros((3, 3)),
        )
    )
    def test_degeneracy_flag_invariant_under_rescaling(self, c, lam):
        assert _closed_form_declined(_scaled(c, lam)) == _closed_form_declined(c)

    @pytest.mark.parametrize("call, positional", [
        (lambda c, *t, **k: derive(c, *t, **k), True),
        (lambda c, *t, **k: derive_arrays(c.alpha, c.beta, c.omega, *t, **k), True),
        (lambda c, *t, **k: classify(c, *t, **k), True),
        (lambda c, *t, **k: solve(c, *t, **k), True),
        (lambda c, *t, **k: eigenstate_bloch_closed_form(c, 1, 1, *t, **k), True),
        (lambda c, *t, **k: concurrence_closed_form_arrays(
            c.alpha, c.beta, c.omega, 1, 1, *t, **k), True),
        (lambda c, *t, **k: eigenstate_concurrence_closed_form(c, 1, 1, *t, **k), True),
        (lambda c, *t, **k: thermal_concurrence(c, 1.0, **k), False),
        (lambda c, *t, **k: thermal_sweep(c, [1.0], **k), False),
        (lambda c, *t, **k: thermal_report(c, 1.0, **k), False),
    ], ids=["derive", "derive_arrays", "classify", "solve", "eigenstate_bloch_closed_form",
            "concurrence_closed_form_arrays", "eigenstate_concurrence_closed_form",
            "thermal_concurrence", "thermal_sweep", "thermal_report"])
    def test_tol_is_not_a_parameter(self, call, positional):
        """Every derived record is made at the one fixed DEFAULT_TOL: a
        per-call tol is refused, not ignored, by keyword and, where its old
        slot is now past the last parameter, by position."""
        with pytest.raises(TypeError, match="unexpected keyword argument 'tol'"):
            call(ENTANGLED_EXAMPLE, tol=DEFAULT_TOL)
        if positional:
            with pytest.raises(TypeError, match=r"takes \d+ positional arguments? but"):
                call(ENTANGLED_EXAMPLE, DEFAULT_TOL)


class TestRotations:
    def test_rotate_set_matches_conjugation(self, rng):
        """u (v.sigma) u^dag = (R v).sigma with R_ij = 1/2 Tr[s_i u s_j u^dag],
        so u1 (x) u2 conjugates H into the rotated set's Hamiltonian."""
        for _ in range(20):
            c = random_coefficient_set(rng)
            u1, u2 = random_unitary(rng), random_unitary(rng)
            r1, r2 = (
                np.array([[0.5 * np.trace(pauli(i) @ u @ pauli(j) @ u.conj().T).real
                           for j in (1, 2, 3)] for i in (1, 2, 3)])
                for u in (u1, u2)
            )
            u = np.kron(u1, u2)
            lhs = u @ fano_compose(c) @ u.conj().T
            rhs = fano_compose(rotate_set(c, r1, r2))
            assert np.max(np.abs(lhs - rhs)) <= 1e-11 * (1 + c.scale())


    def test_rotated_constrained_sets_stay_constrained(self, rng):
        """The constraint gates and the spectrum survive local rotations, so
        the closed forms apply in any frame."""
        for branch in ("alpha", "beta", "both"):
            for _ in range(25):
                c = random_entangled_canonical(rng, branch)
                rot = rotate_set(c, random_rotation(rng), random_rotation(rng))
                got = classify(rot)
                assert got.kind is CaseKind.ENTANGLED_CONSTRAINED
                assert got.branch is classify(c).branch
                w0 = np.linalg.eigvalsh(fano_compose(c))
                w1 = np.linalg.eigvalsh(fano_compose(rot))
                assert np.max(np.abs(w0 - w1)) <= 1e-10 * (1 + np.max(np.abs(w0)))
