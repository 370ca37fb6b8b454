import numpy as np
import pytest

from su2pair.hamiltonian import derive_arrays, fano_compose
from su2pair.quartic import solve_quartic
from su2pair.sampling import random_coefficient_set
from su2pair.solver import secular_coefficients

from references import quartic_residuals, scaled


def sorted_real(roots):
    assert np.max(np.abs(roots.imag)) <= 1e-8
    return np.sort(roots.real)


def test_double_roots_of_biquadratic():
    roots = solve_quartic(1, 0, -2, 0, 1)
    assert np.allclose(sorted_real(roots), [-1, -1, 1, 1], atol=1e-7)


def test_two_real_pairs():
    roots = solve_quartic(1, 0, -5, 0, 4)
    assert np.allclose(sorted_real(roots), [-2, -1, 1, 2], atol=1e-10)


def test_secular_example_spectrum():
    """x^4 - 6x^2 + 5: the shifted spectrum of s3(x)I + s1s1 + s2s2."""
    roots = solve_quartic(1, 0, -6, 0, 5)
    assert np.allclose(sorted_real(roots), [-np.sqrt(5), -1, 1, np.sqrt(5)], atol=1e-10)


def test_degenerate_leading_coefficient():
    with pytest.raises(ValueError):
        solve_quartic(0, 1, 1, 1, 1)


def test_descending_sort_order():
    roots = solve_quartic(1, 0, 2, 0, 1)  # (x^2+1)^2: +-i doubled
    assert np.allclose(roots.real, 0, atol=1e-8)
    assert roots[0].imag >= roots[-1].imag


def test_complex_conjugate_quadruple():
    # (x^2 - 2x + 5)(x^2 + 2x + 5): roots 1+-2i, -1+-2i
    roots = solve_quartic(1, 0, 6, 0, 25)
    expect = np.array([1 + 2j, 1 - 2j, -1 + 2j, -1 - 2j])
    for z in expect:
        assert np.min(np.abs(roots - z)) <= 1e-9


def test_random_polynomials_residuals(rng):
    for _ in range(300):
        coeffs = rng.normal(size=5)
        coeffs[0] = coeffs[0] if abs(coeffs[0]) > 0.1 else 1.0
        roots = solve_quartic(*coeffs)
        assert quartic_residuals(roots, *coeffs) <= 1e-9 * np.max(np.abs(coeffs))


def test_random_roots_reconstruction(rng):
    """Construct from known real roots, compare as multisets."""
    for _ in range(200):
        want = np.sort(rng.normal(size=4) * 3)
        coeffs = np.poly(want)
        got = np.sort(solve_quartic(*coeffs).real)
        assert np.max(np.abs(got - want)) <= 1e-7 * (1 + np.max(np.abs(want)))


def test_near_double_roots(rng):
    for eps in (1e-3, 1e-6, 1e-9):
        want = np.array([1.0, 1.0 + eps, -2.0, 3.0])
        coeffs = np.poly(want)
        roots = solve_quartic(*coeffs)
        assert quartic_residuals(roots, *coeffs) <= 1e-9 * np.max(np.abs(coeffs))
        assert np.max(np.abs(np.sort(roots.real) - np.sort(want))) <= 1e-4


def test_quadruple_root():
    coeffs = np.poly([2.0, 2.0, 2.0, 2.0])
    roots = solve_quartic(*coeffs)
    assert np.max(np.abs(roots - 2.0)) <= 1e-3
    assert quartic_residuals(roots, *coeffs) <= 1e-9 * np.max(np.abs(coeffs))


def test_zero_polynomial_roots():
    roots = solve_quartic(1, 0, 0, 0, 0)
    assert np.max(np.abs(roots)) <= 1e-12


class TestBatch:
    def test_rows_are_the_single_calls(self, rng):
        """Random coefficients, integer ones with repeated roots, biquadratics
        and zero roots: an (N,) batch gives (N, 4), each row bitwise the
        single call."""
        coeffs = rng.normal(size=(5, 400))
        coeffs[:, :100] = rng.integers(-3, 4, size=(5, 100))
        coeffs[0, :100] = rng.choice([-1.0, 1.0, 2.0], size=100)
        coeffs[[1, 3], 100:150] = 0.0
        coeffs[2:, 150:160] = 0.0
        coeffs[:, 160] = (1, 0, 2, 0, 1)
        roots = solve_quartic(*coeffs)
        assert roots.shape == (400, 4) and roots.dtype == complex
        for row, item in zip(roots, coeffs.T):
            assert row.tobytes() == solve_quartic(*item).tobytes()

    def test_batch_axes_broadcast(self, rng):
        """Coefficients broadcast over any batch shape; a scalar call keeps (4,)."""
        coeffs = rng.normal(size=(4, 6, 5))
        roots = solve_quartic(1.0, *coeffs)
        assert roots.shape == (6, 5, 4)
        flat = solve_quartic(np.ones(30), *coeffs.reshape(4, 30))
        assert roots.reshape(30, 4).tobytes() == flat.tobytes()
        assert solve_quartic(1, 0, -5, 0, 4).shape == (4,)

    def test_any_zero_leading_coefficient_raises(self):
        with pytest.raises(ValueError, match="leading coefficient is zero"):
            solve_quartic([1.0, 0.0], 1, 1, 1, 1)

    def test_every_root_is_backward_stable(self, rng):
        """|p(x)| <= 2e-15 sum_k |c_k| |x|^k at every root of a batch of
        random quartics: the Newton steps leave each root within a few
        rounding errors of a root of the given coefficients, and only the
        largest resolvent root factors every quartic into real quadratics."""
        coeffs = rng.normal(size=(5, 5000))
        coeffs[0] = np.where(np.abs(coeffs[0]) > 0.1, coeffs[0], 1.0)
        roots = solve_quartic(*coeffs)
        value = scale = 0.0
        for c in coeffs:
            value = value * roots + c[:, None]
            scale = scale * np.abs(roots) + np.abs(c[:, None])
        assert np.max(np.abs(value) / scale) <= 2e-15

    def test_secular_roots_are_the_spectrum(self):
        """One call on a derive_arrays record: roots plus upsilon are each
        set's spectrum at scales 10^-3 .. 10^3, within the bound of the
        single-set property in test_solver.py."""
        rng = np.random.default_rng(2008)
        sets = [
            scaled(10.0 ** rng.uniform(-3, 3), random_coefficient_set(rng)) for _ in range(1000)
        ]
        roots = solve_quartic(*secular_coefficients(derive_arrays(
            [c.alpha for c in sets], [c.beta for c in sets], [c.omega for c in sets]
        )))
        assert roots.shape == (1000, 4)
        worst = 0.0
        for c, item in zip(sets, roots):
            want = np.linalg.eigvalsh(fano_compose(c))
            err = np.max(np.abs(np.sort(item.real) + c.upsilon - want))
            worst = max(worst, err / (1 + np.max(np.abs(want))))
        assert worst <= 1e-12
