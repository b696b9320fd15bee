import math
import re
import warnings

import numpy as np
import pytest

from micromaser.measures import (
    DegenerateMeasureError,
    TimeMeasure,
    build_basis,
    cross_moment_identity,
    expansion_coeffs,
    moment,
)


def test_exponential_moments_are_factorials():
    m = TimeMeasure.exponential()
    for n in range(10):
        assert moment(m, n) == math.factorial(n)


def test_quadrature_measure_reproduces_exponential_moments():
    m = TimeMeasure.gauss_laguerre(60)
    for n in range(8):
        assert moment(m, n) == pytest.approx(math.factorial(n), rel=1e-10)


def test_discrete_measure_normalizes_nodes_to_unit_mean():
    m = TimeMeasure.discrete([1.0, 3.0], [0.5, 0.5])
    assert m.nodes.tolist() == [0.5, 1.5]
    assert float(m.weights @ m.nodes) == pytest.approx(1.0)
    assert m.support_size == 2


def test_measures_compare_and_hash_by_value():
    two_point = TimeMeasure.discrete([1.0, 3.0], [0.5, 0.5])
    same = TimeMeasure(np.array([0.5, 1.5]), np.array([0.5, 0.5]))
    assert two_point == same and hash(two_point) == hash(same)
    assert TimeMeasure.exponential() == TimeMeasure()
    assert hash(TimeMeasure.exponential()) == hash(TimeMeasure())
    # other weights, other nodes, another node count, the exponential measure
    assert two_point != TimeMeasure.discrete([1.0, 3.0], [0.75, 0.25])
    assert two_point != TimeMeasure.discrete([1.0, 2.0], [0.5, 0.5])
    assert two_point != TimeMeasure.discrete([1.0, 2.0, 3.0], [0.25, 0.5, 0.25])
    assert two_point != TimeMeasure.exponential()
    assert TimeMeasure.exponential() != TimeMeasure.gauss_laguerre(8)
    assert two_point != (two_point.nodes, two_point.weights)
    table = {TimeMeasure.exponential(): "exp", two_point: "two"}
    assert table[TimeMeasure()] == "exp" and table[same] == "two"
    assert len({two_point, same, TimeMeasure.discrete([2.0], [1.0])}) == 2


def test_measure_validation_rejects_bad_weights():
    with pytest.raises(ValueError):
        TimeMeasure(np.array([1.0]), np.array([0.5]))
    with pytest.raises(ValueError):
        TimeMeasure(np.array([0.5, 1.5]), np.array([0.7, -0.3]))
    with pytest.raises(ValueError):
        TimeMeasure(weights=np.array([1.0]))
    with pytest.raises(ValueError):
        TimeMeasure(np.array([np.nan]), np.array([1.0]))
    with pytest.raises(ValueError):
        TimeMeasure.discrete([0.0], [1.0])


@pytest.mark.parametrize(
    "taus, weights, name",
    [([1.0, np.inf], [0.5, 0.5], "times"), ([1.0, 2.0], [0.5, np.nan], "weights")],
)
def test_discrete_measure_refuses_nonfinite_values_before_it_divides(taus, weights, name):
    """An infinite time used to divide inf by inf (a RuntimeWarning) before
    the node check refused it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            TimeMeasure.discrete(taus, weights)


@pytest.mark.parametrize(
    "taus, weights, mean",
    [
        ([1e308, 1e308], [1.0, 1.0], "inf"),
        ([1.0, -1.0], [0.5, 0.5], "0.0"),
        # inf and -inf partial sums: nan here, inf where the sum runs in order
        ([1e308, 1e308, -1e308, -1e308] * 4, [1.0] * 16, "(nan|inf)"),
    ],
)
def test_discrete_measure_refuses_a_mean_that_is_not_finite_and_positive(taus, weights, mean):
    """Finite times whose weighted mean overflows, to inf or to inf - inf,
    used to warn (overflow or invalid value in matmul) before the weights
    were refused."""
    with pytest.raises(ValueError, match=f"^times must have a finite positive mean, got {mean}$"):
        TimeMeasure.discrete(taus, weights)
    # the largest mean that is finite still divides without a warning
    assert TimeMeasure.discrete([1e308, 1.7e308], [0.5, 0.5]).nodes.tolist() == pytest.approx(
        [1e308 / 1.35e308, 1.7e308 / 1.35e308]
    )


class TestExponentialBasis:
    """The orthonormal family of e^{-x} dx with leading signs (-1)^k."""

    def test_first_polynomials(self):
        basis = build_basis(TimeMeasure.exponential(), 3)
        assert np.allclose(basis.coeffs[0], [1.0], atol=1e-12)
        assert np.allclose(basis.coeffs[1], [1.0, -1.0], atol=1e-12)
        assert np.allclose(basis.coeffs[2], [1.0, -2.0, 0.5], atol=1e-12)
        # degree 3: 1 - 3x + 3x^2/2 - x^3/6
        assert np.allclose(
            basis.coeffs[3], [1.0, -3.0, 1.5, -1.0 / 6.0], atol=1e-12
        )

    def test_orthonormality(self):
        basis = build_basis(TimeMeasure.exponential(), 6)
        gram = np.array(
            [
                [basis.inner(basis.coeffs[i], basis.coeffs[j]) for j in range(7)]
                for i in range(7)
            ]
        )
        assert np.abs(gram - np.eye(7)).max() < 1e-10

    def test_expansion_coefficients_closed_form(self):
        # a_nk = (-1)^k n! C(n, k) for the exponential measure
        basis = build_basis(TimeMeasure.exponential(), 5)
        for n in range(6):
            got = expansion_coeffs(basis, n)
            want = [
                (-1.0) ** k * math.factorial(n) * math.comb(n, k) for k in range(6)
            ]
            assert np.allclose(got[: n + 1], want[: n + 1], rtol=1e-9, atol=1e-9)
            assert np.abs(got[n + 1 :]).max() < 1e-8 if n < 5 else True

    def test_cross_moments_give_factorials(self):
        basis = build_basis(TimeMeasure.exponential(), 8)
        for n in range(5):
            for m in range(5):
                got = cross_moment_identity(basis, n, m)
                assert got == pytest.approx(math.factorial(n + m), rel=1e-9)

    def test_expansion_reconstructs_monomial_pointwise(self):
        basis = build_basis(TimeMeasure.exponential(), 4)
        a = expansion_coeffs(basis, 3)
        x = np.linspace(0.0, 4.0, 9)
        total = sum(a[k] * basis.evaluate(k, x) for k in range(5))
        assert np.allclose(total, x**3, rtol=1e-9, atol=1e-9)


def test_expansion_beyond_degree_needs_finite_support():
    basis = build_basis(TimeMeasure.exponential(), 2)
    with pytest.raises(ValueError):
        expansion_coeffs(basis, 3)


@pytest.mark.parametrize("measure", [TimeMeasure.exponential(), TimeMeasure.discrete([1.0], [1.0])])
@pytest.mark.parametrize("degree", [2.0, True, "2"])
def test_basis_degree_must_be_an_integer(measure, degree):
    """Checked before anything is built: 2.0 used to build a basis on the
    exponential measure and fail in range on a node measure."""
    message = f"degree must be an integer in 0..64, got {degree!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_basis(measure, degree)


def test_point_mass_spans_everything():
    m = TimeMeasure.discrete([1.0], [1.0])
    basis = build_basis(m, 0)
    # x^3 = 1 at the single support point, so a_30 = 1
    assert expansion_coeffs(basis, 3) == pytest.approx([1.0])


def test_two_point_measure_basis_and_degeneracy():
    m = TimeMeasure.discrete([0.5, 1.5], [0.5, 0.5])
    basis = build_basis(m, 1)
    assert np.allclose(basis.coeffs[1], [2.0, -2.0], atol=1e-10)  # f1 = 2 - 2x
    with pytest.raises(DegenerateMeasureError):
        build_basis(m, 2)


def test_gauss_laguerre_basis_matches_exponential():
    exact = build_basis(TimeMeasure.exponential(), 3)
    quad = build_basis(TimeMeasure.gauss_laguerre(80), 3)
    for k in range(4):
        assert np.allclose(exact.coeffs[k], quad.coeffs[k], rtol=1e-8, atol=1e-8)


class TestRecurrence:
    """The basis is its Jacobi matrix; values and expansions run on it."""

    def test_degree_64_orthonormal_on_gauss_laguerre_nodes(self):
        quad = TimeMeasure.gauss_laguerre(300)
        basis = build_basis(TimeMeasure.exponential(), 64)
        values = np.array([basis.evaluate(k, quad.nodes) for k in range(65)])
        gram = (values * quad.weights) @ values.T
        assert np.abs(gram - np.eye(65)).max() < 1e-12

    def test_stieltjes_reproduces_laguerre_recurrence(self):
        exact = build_basis(TimeMeasure.exponential(), 64)
        quad = build_basis(TimeMeasure.gauss_laguerre(300), 64)
        k = np.arange(65)
        assert np.array_equal(exact.a, 2.0 * k + 1.0)
        assert np.array_equal(exact.b, -k)
        assert np.abs(quad.a / exact.a - 1.0).max() < 1e-13
        assert np.abs(quad.b[1:] / exact.b[1:] - 1.0).max() < 1e-13

    def test_recurrence_values_match_moment_oracle_coefficients(self):
        # the moment route cancels ~ (2K)! eps, so it checks low degrees only
        basis = build_basis(TimeMeasure.gauss_laguerre(40), 6)
        gram = np.array(
            [[basis.inner(basis.coeffs[i], basis.coeffs[j]) for j in range(7)] for i in range(7)]
        )
        assert np.abs(gram - np.eye(7)).max() < 1e-10
        x = np.linspace(0.0, 5.0, 11)
        for k in range(7):
            direct = np.polynomial.polynomial.polyval(x, basis.coeffs[k])
            assert np.allclose(basis.evaluate(k, x), direct, rtol=1e-10, atol=1e-10)

    def test_laguerre_expansions_to_degree_64(self):
        basis = build_basis(TimeMeasure.exponential(), 64)
        for n in (20, 40, 64):
            want = np.array(
                [(-1.0) ** k * math.factorial(n) * math.comb(n, k) for k in range(n + 1)]
            )
            got = expansion_coeffs(basis, n)
            assert np.abs(got[: n + 1] / want - 1.0).max() < 1e-13
            assert not np.any(got[n + 1 :])

    def test_degree_ceiling_is_checked_before_building(self):
        for degree in (65, 10**12):
            with pytest.raises(ValueError):
                build_basis(TimeMeasure.exponential(), degree)
        with pytest.raises(ValueError):
            build_basis(TimeMeasure.exponential(), -1)

    def test_repeated_nodes_count_once(self):
        m = TimeMeasure.discrete([1.0, 1.0], [0.5, 0.5])
        assert m.support_size == 1
        with pytest.raises(DegenerateMeasureError):
            build_basis(m, 1)
