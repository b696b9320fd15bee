import numpy as np
import pytest

from micromaser.fock import TruncatedSpace
from micromaser.oracle import (
    annihilation,
    creation,
    number,
    phi_fn,
    phi_squared,
    validate_density,
)

from conftest import random_density


def test_space_dim_and_levels():
    space = TruncatedSpace(7)
    assert space.dim == 8


def test_space_rejects_bad_n_max():
    with pytest.raises(ValueError):
        TruncatedSpace(0)
    with pytest.raises(ValueError):
        TruncatedSpace(-3)


@pytest.mark.parametrize("n_max", [2.0, True, "3", 0, -3, np.float64(3.0), np.bool_(True)], ids=repr)
def test_space_takes_integers_at_least_1_only(n_max):
    # 2.0 would give a float dim, True a silent dim of 2
    with pytest.raises(ValueError, match="n_max must be an integer >= 1"):
        TruncatedSpace(n_max)


def test_space_takes_numpy_integers():
    space = TruncatedSpace(np.int64(3))
    assert space.dim == 4
    assert np.array_equal(np.diag(number(space)), np.arange(4))


def test_ladder_matrix_elements():
    space = TruncatedSpace(5)
    a = annihilation(space)
    for n in range(5):
        assert a[n, n + 1] == pytest.approx(np.sqrt(n + 1))
    assert np.count_nonzero(a) == 5
    assert np.array_equal(creation(space), a.T)


def test_number_operator_is_a_dagger_a():
    space = TruncatedSpace(9)
    a = annihilation(space)
    assert np.allclose(number(space), a.T @ a)
    assert np.allclose(np.diag(number(space)), np.arange(10))


def test_phi_squared_keeps_exact_top_eigenvalue():
    # the plain product a a* has a zero top entry; phi_squared must not
    space = TruncatedSpace(6)
    a = annihilation(space)
    product = a @ a.T
    assert product[-1, -1] == 0.0
    exact = phi_squared(space)
    assert np.allclose(np.diag(exact), np.arange(1, 8))
    assert np.allclose(exact[:-1, :-1], product[:-1, :-1])


def test_phi_fn_applies_function_of_sqrt_eigenvalues():
    space = TruncatedSpace(4)
    op = phi_fn(space, lambda x: np.cos(0.3 * x))
    assert np.allclose(np.diag(op), np.cos(0.3 * np.sqrt(np.arange(1, 6))))
    assert np.count_nonzero(op - np.diag(np.diag(op))) == 0


def test_validate_density_accepts_proper_state(rng):
    space = TruncatedSpace(12)
    rho = random_density(space, rng)
    report = validate_density(rho)
    assert report.ok
    assert report.trace_defect < 1e-12
    assert report.min_eigenvalue > -1e-10


def test_validate_density_flags_bad_trace():
    rho = np.diag([0.7, 0.7])
    report = validate_density(rho)
    assert not report.ok
    assert report.trace_defect > 0.1


def test_validate_density_flags_negative_eigenvalue():
    rho = np.diag([1.3, -0.3])
    report = validate_density(rho)
    assert not report.ok
    assert report.min_eigenvalue == pytest.approx(-0.3)


def test_validate_density_flags_non_hermitian():
    rho = np.array([[0.5, 0.4], [0.1, 0.5]])
    report = validate_density(rho)
    assert report.hermiticity_defect > 0.1
    assert not report.ok
