import math
import re

import numpy as np
import pytest

from micromaser.fock import Superoperator, TruncatedSpace, unvec, vec, vec_entries
from micromaser.models import assemble, exact_model
from micromaser.oracle import (
    annihilation,
    apply_dissipator,
    column_trace_defects,
    dissipator_matrix,
    from_matrix,
    left_mult,
    loss_dissipator,
    right_mult,
    sandwich,
)
from micromaser.pump import PumpParameters

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
    s = from_matrix(space, mat)
    rho = rng.standard_normal((4, 4))
    assert np.allclose(s.apply(rho), unvec(mat @ vec(rho), space))
    assert np.linalg.norm(s.values) == pytest.approx(np.linalg.norm(mat))


def test_apply_complex_state_with_real_matrix(rng):
    space = TruncatedSpace(6)
    mat = rng.standard_normal((49, 49))
    rho = random_density(space, rng)
    want = mat.astype(complex) @ vec(rho)
    got = vec(from_matrix(space, mat).apply(rho))
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_apply_real_state_keeps_the_real_product(rng):
    space = TruncatedSpace(6)
    # integer values: every sum is exact in any order, so the bits must agree
    mat = rng.integers(-9, 10, (49, 49)).astype(float)
    rho = rng.integers(-9, 10, (7, 7)).astype(float)
    got = from_matrix(space, mat).apply(rho)
    assert got.dtype == np.float64
    assert np.array_equal(got, unvec(mat @ vec(rho), space))
    mat = rng.standard_normal((49, 49))
    rho = rng.standard_normal((7, 7))
    got = from_matrix(space, mat).apply(rho)
    want = unvec(mat @ vec(rho), space)
    assert got.dtype == np.float64
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_entries_are_the_nonzeros_in_row_major_order(rng):
    space = TruncatedSpace(3)
    mat = rng.standard_normal((16, 16))
    mat[rng.random((16, 16)) < 0.7] = 0.0
    s = from_matrix(space, mat)
    flat = np.flatnonzero(mat)
    assert np.array_equal(s.rows * 16 + s.cols, flat)
    assert np.array_equal(s.values, mat.reshape(-1)[flat])
    assert np.array_equal(s.matrix, mat)


def test_from_entries_sorts_and_drops_zeros(rng):
    space = TruncatedSpace(3)
    mat = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    mat[rng.random((16, 16)) < 0.7] = 0.0
    rows, cols = np.divmod(np.arange(256), 16)
    order = rng.permutation(256)  # every position, the zeros included, shuffled
    s = Superoperator(space, rows[order], cols[order], mat.reshape(-1)[order])
    want = from_matrix(space, mat)
    for name in ("rows", "cols", "values"):
        assert np.array_equal(getattr(s, name), getattr(want, name))
    assert np.array_equal(s.matrix, mat)
    rho = random_density(space, rng)
    assert np.array_equal(s.apply(rho), want.apply(rho))
    assert np.abs(s.apply(rho) - unvec(mat @ vec(rho), space)).max() < 1e-14 * np.abs(mat).sum()


@pytest.mark.parametrize(
    "rows, cols, match",
    [
        ([0, 3, 0], [1, 2, 1], "given twice"),
        ([0, 16], [1, 2], "outside"),
        ([0, -1], [1, 2], "outside"),
        ([0.0, 1.0], [1, 2], "integer"),
        ([0, 1], [1], "one length"),
    ],
)
def test_from_entries_rejects_bad_positions(rows, cols, match):
    values = np.ones(len(rows))
    with pytest.raises(ValueError, match=match):
        Superoperator(TruncatedSpace(3), rows, cols, values)


def test_superoperator_shape_validation():
    with pytest.raises(ValueError):
        from_matrix(TruncatedSpace(3), np.zeros((15, 15)))


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


@pytest.mark.parametrize("kappa", [math.inf, math.nan, -1.0])
def test_loss_dissipator_takes_the_kappa_assemble_takes(kappa):
    """inf and NaN used to give a Superoperator of NaN entries (inf with a
    RuntimeWarning, NaN silently); both now follow assemble's 0 <= kappa < inf."""
    space = TruncatedSpace(3)
    model = exact_model(PumpParameters.from_pump(0.9, 0.15), space)
    message = f"^{re.escape(f'kappa must be nonnegative and finite, got {kappa}')}$"
    for build in (loss_dissipator, lambda k, s: assemble(model, k)):
        with pytest.raises(ValueError, match=message):
            build(kappa, space)
    assert loss_dissipator(0.0, space).values.size == 0  # the loss-free cavity
