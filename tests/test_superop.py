import numpy as np
import pytest

from micromaser.fock import Superoperator, TruncatedSpace, unvec, vec, vec_entries
from micromaser.oracle import (
    annihilation,
    apply_dissipator,
    column_trace_defects,
    dissipator_matrix,
    left_mult,
    loss_dissipator,
    right_mult,
    sandwich,
)

from conftest import random_density


def test_vec_unvec_roundtrip(rng):
    space = TruncatedSpace(4)
    rho = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert np.array_equal(unvec(vec(rho), space), rho)


def test_vec_is_column_stacking():
    rho = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(rho), [1.0, 2.0, 3.0, 4.0])


def test_vec_entries_index_vec(rng):
    rho = rng.standard_normal((5, 5))
    assert not np.array_equal(rho, rho.T)
    m, n = vec_entries(5)
    assert np.array_equal(vec(rho), rho[m, n])


@pytest.mark.parametrize("builder", [left_mult, right_mult, sandwich])
def test_multiplication_superoperators(builder, rng):
    space = TruncatedSpace(5)
    op = rng.standard_normal((6, 6))
    rho = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    mat = builder(op)
    got = unvec(mat @ vec(rho), space)
    if builder is left_mult:
        want = op @ rho
    elif builder is right_mult:
        want = rho @ op
    else:
        want = op @ rho @ op.conj().T
    assert np.allclose(got, want, atol=1e-13)


def test_dissipator_action_and_trace(rng):
    space = TruncatedSpace(6)
    op = rng.standard_normal((7, 7))
    rho = random_density(space, rng)
    mat = dissipator_matrix(op)
    drho = unvec(mat @ vec(rho), space)
    direct = apply_dissipator(op, op.conj().T @ op, rho)
    assert np.allclose(drho, direct, atol=1e-13)
    # dissipators never move trace, on any state
    assert abs(np.trace(drho)) < 1e-13


def test_superoperator_apply_and_norm(rng):
    space = TruncatedSpace(3)
    mat = rng.standard_normal((16, 16))
    s = Superoperator(space, mat)
    rho = rng.standard_normal((4, 4))
    assert np.allclose(s.apply(rho), unvec(mat @ vec(rho), space))
    assert s.norm == pytest.approx(np.linalg.norm(mat))


def test_apply_complex_state_with_real_matrix(rng):
    space = TruncatedSpace(6)
    mat = rng.standard_normal((49, 49))
    rho = random_density(space, rng)
    want = mat.astype(complex) @ vec(rho)
    got = vec(Superoperator(space, mat).apply(rho))
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_apply_real_state_keeps_the_real_product(rng):
    space = TruncatedSpace(6)
    mat = rng.standard_normal((49, 49))
    rho = rng.standard_normal((7, 7))
    got = Superoperator(space, mat).apply(rho)
    assert got.dtype == np.float64
    assert np.array_equal(got, unvec(mat @ vec(rho), space))


def test_superoperator_shape_validation():
    with pytest.raises(ValueError):
        Superoperator(TruncatedSpace(3), np.zeros((15, 15)))


def test_loss_dissipator_trace_defects_vanish():
    # photon loss maps the truncated space into itself: no boundary leak
    space = TruncatedSpace(8)
    loss = loss_dissipator(2.3, space)
    interior, boundary = column_trace_defects(loss)
    assert interior < 1e-13
    assert boundary < 1e-13


def test_loss_dissipator_damps_mean(rng):
    space = TruncatedSpace(10)
    kappa = 1.7
    loss = loss_dissipator(kappa, space)
    rho = random_density(space, rng, envelope=0.8)
    drho = loss.apply(rho)
    n_op = np.diag(np.arange(11, dtype=float))
    mean = np.trace(n_op @ rho).real
    dmean = np.trace(n_op @ drho).real
    assert dmean == pytest.approx(-kappa * mean, rel=1e-10)
