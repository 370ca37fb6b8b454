import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2pair import entanglement
from su2pair.entanglement import (
    CLOSED_FORM,
    bloch_vectors,
    concurrence_closed_form_arrays,
    eigenstate_bloch_closed_form,
    eigenstate_concurrence_closed_form,
    pure_concurrence,
)
from su2pair.errors import (
    ConstraintError,
    DegenerateBranchError,
    DensityMatrixError,
    NonHermitianError,
)
from su2pair.hamiltonian import CaseKind, CoefficientSet, classify, rotate_set
from su2pair.oracle import wootters_concurrence
from su2pair.pauli import pauli
from su2pair.sampling import (
    random_entangled_canonical,
    random_rotated_constrained,
    random_rotation,
)
from su2pair.solver import solve

from references import partial_trace, random_pure_density, von_neumann_entropy

ENTANGLED_EXAMPLE = CoefficientSet(0.0, (0, 0, 1), (0, 0, 0), np.diag([1.0, 1.0, 0.0]))
BELL = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0


class TestBlochVectors:
    def test_maximally_mixed(self):
        pair = bloch_vectors(np.eye(4) / 4)
        assert np.allclose(pair.a_bloch, 0)
        assert np.allclose(pair.b_bloch, 0)

    def test_product_projector(self):
        up = 0.5 * (np.eye(2) + pauli(3))
        down = 0.5 * (np.eye(2) - pauli(3))
        pair = bloch_vectors(np.kron(up, down))
        assert np.allclose(pair.a_bloch, [0, 0, 1])
        assert np.allclose(pair.b_bloch, [0, 0, -1])

    @pytest.mark.parametrize(
        "rho, error",
        [
            (np.eye(4), DensityMatrixError),
            (np.eye(4) / 4 + np.triu(np.ones((4, 4)), 1) / 8, NonHermitianError),
            (np.eye(2) / 2, DensityMatrixError),
            (np.ones((4, 4, 2)) / 4, DensityMatrixError),
        ],
        ids=["trace-4", "not-hermitian", "2x2", "4x4x2"],
    )
    def test_rejects_what_is_not_a_state(self, rho, error):
        with pytest.raises(error):
            bloch_vectors(rho)

    def test_closed_form_matches_trace_route(self, rng):
        for k in range(200):
            branch = ("alpha", "beta", "both")[k % 3]
            c = random_entangled_canonical(rng, branch)
            es = solve(c)
            for (m, n), _, rho in es.items():
                cf = eigenstate_bloch_closed_form(c, m, n)
                tr = bloch_vectors(rho)
                assert np.max(np.abs(cf.a_bloch - tr.a_bloch)) <= 1e-9
                assert np.max(np.abs(cf.b_bloch - tr.b_bloch)) <= 1e-9

    def test_partial_trace_marginal_matches_closed_form(self, rng):
        """Marginal Bloch vector of rho_mn via partial trace = coefficient route."""
        for _ in range(30):
            c = random_entangled_canonical(rng, "alpha")
            es = solve(c)
            for (m, n), _, rho in es.items():
                marginal = partial_trace(rho, 1)
                a_tr = np.array(
                    [np.trace(marginal @ pauli(i)).real for i in (1, 2, 3)]
                )
                cf = eigenstate_bloch_closed_form(c, m, n)
                assert np.max(np.abs(a_tr - cf.a_bloch)) <= 1e-9

    def test_moduli_equal_for_eigenstates(self, rng):
        for _ in range(100):
            c = random_entangled_canonical(rng, "alpha")
            for m in (1, 2):
                for n in (1, 2):
                    pair = eigenstate_bloch_closed_form(c, m, n)
                    assert abs(pair.a_modulus - pair.b_modulus) <= 1e-9

    def test_scalar_set_gives_zero_vectors(self):
        # all coefficients vanish except upsilon: Bloch route on I/4
        pair = bloch_vectors(np.eye(4) / 4)
        assert pair.a_modulus == 0.0

    def test_unconstrained_rejected(self):
        c = CoefficientSet(0.3, (1, 2, 3), (3, 1, 2), np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(ConstraintError):
            eigenstate_bloch_closed_form(c, 1, 1)


class TestPureConcurrence:
    def test_bell(self):
        assert np.isclose(pure_concurrence(BELL), 1.0)

    def test_product(self, rng):
        rho = np.kron(random_pure_density(rng, 2), random_pure_density(rng, 2))
        assert pure_concurrence(rho) <= 1e-7

    def test_rejects_mixed(self):
        with pytest.raises(DensityMatrixError):
            pure_concurrence(np.eye(4) / 4)

    @pytest.mark.parametrize("shape", [(16,), (4, 4, 2), (3, 3), (8, 8)])
    def test_rejects_anything_but_4x4_before_its_purity(self, shape):
        """np.ones(16) used to leak einsum's ValueError, and np.eye(3) read
        as a mixed state of purity 3."""
        rho = np.eye(shape[0]) if len(shape) == 2 else np.ones(shape)
        message = f"expected a 4x4 density matrix, not of shape {shape}"
        with pytest.raises(DensityMatrixError, match=f"^{re.escape(message)}$"):
            pure_concurrence(rho)

    def test_agrees_with_wootters(self, rng):
        for _ in range(100):
            rho = random_pure_density(rng)
            assert abs(pure_concurrence(rho) - wootters_concurrence(rho)) <= 1e-7


class TestClosedFormConcurrence:
    def test_reference_example(self):
        es = solve(ENTANGLED_EXAMPLE)
        want = 2.0 / np.sqrt(5.0)
        got = eigenstate_concurrence_closed_form(ENTANGLED_EXAMPLE, 1, 2)
        assert abs(got - want) <= 1e-10
        assert abs(got - wootters_concurrence(es.state(1, 2))) <= 1e-7
        # the inner branch (E = 1) states are product states
        assert eigenstate_concurrence_closed_form(ENTANGLED_EXAMPLE, 1, 1) <= 1e-7

    def test_product_hamiltonian_limit(self):
        # omega = 0 and one local field: eigenstates are products.
        c = CoefficientSet(0.0, (0, 0, 0), (1.0, 0.5, -0.2), np.zeros((3, 3)))
        es = solve(c)
        for _, _, rho in es.items():
            if abs(np.einsum("ab,ba->", rho, rho).real - 1) <= 1e-9:
                assert pure_concurrence(rho) <= 1e-6

    def test_triple_route_agreement(self, rng):
        for k in range(300):
            branch = ("alpha", "beta", "both")[k % 3]
            c = random_entangled_canonical(rng, branch)
            es = solve(c)
            for (m, n), _, rho in es.items():
                closed = eigenstate_concurrence_closed_form(c, m, n)
                bloch = pure_concurrence(rho)
                woot = wootters_concurrence(rho)
                assert abs(closed - bloch) <= 1e-7
                assert abs(closed - woot) <= 1e-7

    def test_local_rotation_covariance(self, rng):
        """Rotations rotate the Bloch vectors and leave concurrence unchanged."""
        for _ in range(50):
            c = random_entangled_canonical(rng, "alpha")
            r1, r2 = random_rotation(rng), random_rotation(rng)
            rot = rotate_set(c, r1, r2)
            for m in (1, 2):
                for n in (1, 2):
                    base = eigenstate_bloch_closed_form(c, m, n)
                    moved = eigenstate_bloch_closed_form(rot, m, n)
                    assert np.max(np.abs(moved.a_bloch - r1 @ base.a_bloch)) <= 1e-9
                    assert np.max(np.abs(moved.b_bloch - r2 @ base.b_bloch)) <= 1e-9
                    dc = abs(
                        eigenstate_concurrence_closed_form(c, m, n)
                        - eigenstate_concurrence_closed_form(rot, m, n)
                    )
                    assert dc <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        m=st.sampled_from([1, 2]),
        n=st.sampled_from([1, 2]),
    )
    def test_rotated_set_invariant_under_further_rotations(self, seed, m, n):
        """Both sets leave block form; the closed form reads them as given.

        Worst over ten seeds of 200 draws: 6.4e-14.
        """
        rng = np.random.default_rng(seed)
        canonical, rotated = random_rotated_constrained(rng)
        moved = rotate_set(rotated, random_rotation(rng), random_rotation(rng))
        base = eigenstate_concurrence_closed_form(canonical, m, n)
        assert abs(eigenstate_concurrence_closed_form(rotated, m, n) - base) <= 5e-12
        assert abs(eigenstate_concurrence_closed_form(moved, m, n) - base) <= 5e-12

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_batch_of_rotated_sets_matches_solved_states(self, rng, m, n):
        """The batch form works off block form: every item equals the
        concurrence of solve's (m, n) state, and the scalar form bit for bit."""
        sets = [random_rotated_constrained(rng)[1] for _ in range(100)]
        al, be, om = (np.array([getattr(c, f) for c in sets]) for f in ("alpha", "beta", "omega"))
        value, cause, _ = concurrence_closed_form_arrays(al, be, om, m, n)
        assert (cause == CLOSED_FORM).all()
        for c, got in zip(sets, value):
            scalar = eigenstate_concurrence_closed_form(c, m, n)
            assert np.float64(scalar).tobytes() == got.tobytes()
            rho = solve(c).state(m, n)
            assert abs(got - pure_concurrence(rho)) <= 1e-12
            assert abs(got - wootters_concurrence(rho)) <= 1e-12

    def test_vanishing_constrained_vector_in_any_frame(self, rng):
        """alpha = 0 with a generic beta: the radical has no division by
        |alpha|^2, so it holds as given and after local rotations."""
        c = CoefficientSet(0.0, (0, 0, 0), (1.0, 2.0, 0.5), np.diag([1.0, -0.5, 0.0]))
        for cc in (c, rotate_set(c, random_rotation(rng), random_rotation(rng))):
            assert classify(cc).kind is CaseKind.ENTANGLED_CONSTRAINED
            es = solve(cc)
            for (m, n), _, rho in es.items():
                got = eigenstate_concurrence_closed_form(cc, m, n)
                assert abs(got - wootters_concurrence(rho)) <= 1e-12

    def test_unconstrained_set_raises(self):
        c = CoefficientSet(0.3, (1, 2, 3), (3, 1, 2), np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(ConstraintError, match="alpha.omega residual"):
            eigenstate_concurrence_closed_form(c, 1, 2)

    def test_degenerate_branch_flagged(self):
        c = CoefficientSet(0.0, (0, 0, 1), (0, 0, 0), np.diag([1.0, 0.0, 0.0]))
        with pytest.raises(DegenerateBranchError):
            eigenstate_concurrence_closed_form(c, 1, 1)

    @pytest.mark.parametrize(
        "c, n, message",
        [(CoefficientSet(0.0, (0, 0, 1), (0, 0, 0), np.diag([1.0, 0.0, 0.0])), 2,
          "theta_phi is numerically degenerate"),
         (CoefficientSet(0.0, (0, 0, 0), (0, 0, 0), np.diag([1.0, 1.0, 0.0])), 1,
          "E_1 is numerically degenerate"),
         (ENTANGLED_EXAMPLE, 2, None)],
        ids=["theta-phi", "e-n", "closed-form"],
    )
    def test_branch_scales_run_once(self, c, n, message, monkeypatch):
        """The scalar closed form decides its branch once: a degenerate
        cause returns before any division and raises; a value is reached
        through the same single call."""
        calls = []
        real = entanglement._branch_scales

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(entanglement, "_branch_scales", counted)
        if message is None:
            assert 0.0 <= eigenstate_concurrence_closed_form(c, 1, n) <= 1.0
        else:
            with pytest.raises(DegenerateBranchError, match=f"^{message}$"):
                eigenstate_concurrence_closed_form(c, 1, n)
        assert len(calls) == 1

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            eigenstate_concurrence_closed_form(ENTANGLED_EXAMPLE, 0, 1)


def test_marginal_entropy_consistency(rng):
    """Entanglement entropy of closed-form eigenstates matches their concurrence."""
    for _ in range(20):
        c = random_entangled_canonical(rng, "alpha")
        es = solve(c)
        for (m, n), _, rho in es.items():
            conc = eigenstate_concurrence_closed_form(c, m, n)
            p = (1 + np.sqrt(max(1 - conc**2, 0.0))) / 2
            want = 0.0
            for q in (p, 1 - p):
                if q > 0:
                    want -= q * np.log2(q)
            got = von_neumann_entropy(partial_trace(rho, 1))
            assert abs(got - want) <= 1e-6
