import numpy as np
import pytest

from su2pair.quartic import solve_quartic

from references import quartic_residuals


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
