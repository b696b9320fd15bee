import functools
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.csgraph import connected_components

from micromaser.fock import TruncatedSpace, unvec
from micromaser.measures import TimeMeasure
from micromaser.models import (
    EXACT,
    HEURISTIC,
    MODELS,
    UNIFORM,
    GeneratorModel,
    PairTerms,
    assemble,
    exact_model,
    expansion_cutoff,
    heuristic_model,
    weak_coupling_model,
)
from micromaser.observables import (
    band_derivatives,
    distribution_distance,
    linewidth,
    linewidth_columns,
    moments,
)
from micromaser.oracle import annihilation, from_matrix, left_mult, loss_dissipator, right_mult
from micromaser.pump import PumpParameters
from micromaser.steady import (
    GAP_TOL,
    HARD_CAP,
    ZERO_TOL,
    DegenerateSteadyStateError,
    SteadyStateError,
    _block_labels,
    nullspace_steady,
    recurrence_steady,
    solve_pump_axis,
)

from conftest import checkout_env, searched

KAPPA = 1.0


def test_recurrence_matches_direct_product():
    ratios = np.array([2.0, 0.5, 0.25, 0.1])
    stats = recurrence_steady(lambda n: ratios[n], TruncatedSpace(4))
    raw = np.concatenate([[1.0], np.cumprod(ratios)])
    assert np.allclose(stats.p, raw / raw.sum(), rtol=1e-14)
    assert not stats.negative


def test_recurrence_survives_geometric_overflow():
    # 1.5**2000 overflows float64 around level 1755; the log-space path
    # must still return the normalized geometric distribution
    stats = recurrence_steady(lambda n: np.full(n.shape, 1.5), TruncatedSpace(2000))
    assert np.all(np.isfinite(stats.p))
    assert stats.p.sum() == pytest.approx(1.0, abs=1e-12)
    assert stats.p[-1] / stats.p[-2] == pytest.approx(1.5, rel=1e-12)


def test_recurrence_tracks_negative_entries():
    def ratio(n):
        out = 0.5 * np.ones(n.shape)
        out[n == 2] = -0.5
        return out

    stats = recurrence_steady(ratio, TruncatedSpace(5))
    assert stats.negative
    levels = [n for n, _ in stats.negative]
    assert levels == [3, 4, 5]
    signed = np.array([1, 0.5, 0.25, -0.125, -0.0625, -0.03125])
    assert np.allclose(stats.p, signed / signed.sum(), rtol=1e-13)


def test_recurrence_zero_ratio_cuts_support():
    def ratio(n):
        out = np.full(n.shape, 2.0)
        out[n >= 3] = 0.0
        return out

    stats = recurrence_steady(ratio, TruncatedSpace(8))
    assert np.all(stats.p[4:] == 0.0)
    assert stats.p[3] > 0
    assert stats.converged


def test_recurrence_cutoff_zeroes_tail():
    stats = recurrence_steady(lambda n: np.full(n.shape, 0.9), TruncatedSpace(10), cutoff=4)
    assert np.all(stats.p[5:] == 0.0)
    assert stats.converged
    assert stats.p.sum() == pytest.approx(1.0, abs=1e-14)


def test_recurrence_rejects_nonpositive_total():
    def ratio(n):
        out = np.full(n.shape, 1.0)
        out[n == 0] = -2.0
        return out

    with pytest.raises(SteadyStateError):
        recurrence_steady(ratio, TruncatedSpace(1))


@pytest.mark.parametrize("bad, shown", [(np.inf, "inf"), (-np.inf, "-inf"), (np.nan, "nan")])
def test_recurrence_names_a_ratio_that_is_not_finite(bad, shown):
    """A ladder with a ratio that is not finite has no state, even where
    its weight reads inf, which compares as positive."""
    message = f"^ratio p_4/p_3 = {shown} is not finite; the recurrence defines no state here$"
    with pytest.raises(SteadyStateError, match=message):
        recurrence_steady(lambda n: np.where(n == 3, bad, 0.5), TruncatedSpace(8))


def test_recurrence_convergence_flag_tracks_tail():
    params = PumpParameters.from_pump(0.9, 0.03, KAPPA)
    model = exact_model(params, TruncatedSpace(1))
    # near threshold the ratio decays slowly: ~400 levels clear the tail
    stats = recurrence_steady(model.gain_ratio(KAPPA), TruncatedSpace(400))
    assert stats.converged
    tight = recurrence_steady(model.gain_ratio(KAPPA), TruncatedSpace(60))
    assert not tight.converged


def test_expansion_cutoff_fails_below_one_without_warning():
    assert expansion_cutoff(0.15) == math.floor(0.2 / 0.15**2)
    assert expansion_cutoff(0.03) == math.floor(0.2 / 0.03**2)
    assert expansion_cutoff(0.5) == 0
    model = weak_coupling_model(PumpParameters.from_pump(0.9, 0.5, KAPPA), TruncatedSpace(1))
    axis = solve_pump_axis(model, KAPPA)
    assert axis.status == ["error: expansion models unusable at g tau_bar = 0.5 (cutoff 0 < 1)"]


@pytest.mark.parametrize("g_tau_bar", [np.nan, np.inf, 0.0, -1.0, 1e200, 1e-160])
def test_expansion_cutoff_rejects_a_coupling_that_is_not_positive_and_finite(g_tau_bar):
    with pytest.raises(ValueError, match="g_tau_bar and its square must be positive and finite"):
        expansion_cutoff(g_tau_bar)


def test_nullspace_recovers_vacuum_for_pure_loss():
    space = TruncatedSpace(6)
    rho = nullspace_steady(loss_dissipator(KAPPA, space))
    want = np.zeros((7, 7))
    want[0, 0] = 1.0
    assert np.allclose(rho, want, atol=1e-12)


def test_nullspace_reports_spectral_info():
    space = TruncatedSpace(4)
    rho, info = nullspace_steady(loss_dissipator(KAPPA, space), return_info=True)
    assert abs(info["eigenvalue"]) < 1e-12
    # slowest decay channel of pure loss sits at kappa / 2
    assert info["gap"] == pytest.approx(0.5 * KAPPA, rel=1e-10)


def test_nullspace_rejects_degenerate_kernel():
    space = TruncatedSpace(3)
    zero = from_matrix(space, np.zeros((16, 16)))
    with pytest.raises(DegenerateSteadyStateError):
        nullspace_steady(zero)


def test_nullspace_rejects_missing_kernel():
    space = TruncatedSpace(3)
    ident = from_matrix(space, np.eye(16))
    with pytest.raises(SteadyStateError):
        nullspace_steady(ident)


def _nullspace_matching_full_eig(generator):
    """nullspace_steady, checked against one eig of the whole matrix."""
    lam, vecs = scipy.linalg.eig(generator.matrix)
    order = np.argsort(np.abs(lam))
    want = unvec(vecs[:, order[0]], generator.space)
    want = 0.5 * (want + want.conj().T)
    want = want / np.trace(want).real
    rho, info = nullspace_steady(generator, return_info=True)
    assert np.abs(rho - want).max() < 1e-12
    assert abs(info["eigenvalue"] - lam[order[0]]) < 1e-14 * info["norm"]
    assert info["gap"] == pytest.approx(abs(lam[order[1]]), rel=1e-11)
    return rho


def _n_blocks(generator):
    return connected_components(generator.matrix != 0, connection="weak")[0]


def test_nullspace_solves_eigenvectors_of_the_steady_block_only(monkeypatch):
    params = PumpParameters.from_pump(2.0, 0.15, KAPPA)
    space = TruncatedSpace(12)
    d = space.dim
    mat = assemble(exact_model(params, space), KAPPA).matrix
    assert _n_blocks(from_matrix(space, mat)) == 2 * d - 1
    calls = []
    eig = np.linalg.eig

    def spy(a, *args, **kwargs):
        calls.append(a.shape)
        return eig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", spy)
    rho, info = nullspace_steady(from_matrix(space, mat), return_info=True)
    monkeypatch.undo()
    # the steady state lives on the diagonal rho_nn: the offset-0 block
    idx = np.arange(d) * (d + 1)
    assert calls == [(d, d)]
    lam, vecs = np.linalg.eig(mat[np.ix_(idx, idx)])
    j = np.argmin(np.abs(lam))
    steady = np.zeros(d * d, dtype=vecs.dtype)
    steady[idx] = vecs[:, j]
    want = unvec(steady, space)
    want = 0.5 * (want + want.conj().T)
    want = want / float(np.trace(want).real)
    assert np.array_equal(rho, want)
    assert info["eigenvalue"] == lam[j]


def _offset_blocks(dim):
    """The vec indices of each offset n - m of a dim x dim matrix, offsets
    0, -1, ..., -(dim - 1), then 1, ..., dim - 1."""
    n, m = np.divmod(np.arange(dim * dim), dim)  # column-stacked: rho[m, n]
    offsets = [*range(0, -dim, -1), *range(1, dim)]
    return [np.flatnonzero(n - m == k) for k in offsets]


def _all_blocks_reference(generator, return_info=False, blocks=None):
    """nullspace_steady's answer with every block's eigenvalues solved: the
    decisions, messages and info read the whole spectrum.  The blocks are
    the given index sets, by default the weakly connected components of the
    nonzero pattern."""
    mat = generator.matrix
    # the largest absolute row sum, each row summed in column order as
    # np.bincount sums it (a zero adds nothing)
    scale = np.abs(mat).cumsum(axis=1)[:, -1].max()
    if blocks is None:
        n_blocks, labels = connected_components(mat != 0, connection="weak")
        blocks = [np.flatnonzero(labels == b) for b in range(n_blocks)]
    spectra = [np.linalg.eigvals(mat[np.ix_(idx, idx)]) for idx in blocks]
    lam = np.concatenate(spectra)
    owner = np.repeat(np.arange(len(blocks)), [len(s) for s in spectra])
    order = np.argsort(np.abs(lam))
    first, second = abs(lam[order[0]]), abs(lam[order[1]]) if len(lam) > 1 else np.inf
    if first > ZERO_TOL * scale:
        raise SteadyStateError(
            f"smallest |eigenvalue| {first:.3e} exceeds "
            f"{ZERO_TOL:g} * ||S|| = {ZERO_TOL * scale:.3e}"
        )
    if second <= GAP_TOL * scale:
        raise DegenerateSteadyStateError(
            f"second eigenvalue {second:.3e} also lies within "
            f"{GAP_TOL:g} * ||S||; steady state is not unique"
        )
    idx = blocks[owner[order[0]]]
    block_lam, vecs = np.linalg.eig(mat[np.ix_(idx, idx)])
    j = np.argmin(np.abs(block_lam))
    steady = np.zeros(len(mat), dtype=np.result_type(mat, vecs))
    steady[idx] = vecs[:, j]
    rho = unvec(steady, generator.space)
    rho = 0.5 * (rho + rho.conj().T)
    trace = float(np.trace(rho).real)
    if abs(trace) < 1e-12 * np.linalg.norm(rho) * rho.shape[0]:
        raise SteadyStateError("nullspace vector is traceless; not a state")
    rho = rho / trace
    info = {"eigenvalue": complex(block_lam[j]), "gap": float(second), "norm": float(scale)}
    return (rho, info) if return_info else rho


def _outcome(solve, generator, return_info):
    """A nullspace solve's exception and message, or its rho's dtype and
    bytes and its info (None without return_info)."""
    try:
        got = solve(generator, return_info=return_info)
    except (SteadyStateError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    rho, info = got if return_info else (got, None)
    return rho.dtype, rho.tobytes(), info


class _EigvalsSpy:
    """np.linalg.eigvals, recording the matrix of every call."""

    def __init__(self, monkeypatch):
        self.calls = []
        eigvals = np.linalg.eigvals

        def spy(a):
            self.calls.append(np.array(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", spy)


def test_nullspace_solves_eigenvalues_of_the_steady_block_only(monkeypatch):
    params = PumpParameters.from_pump(2.0, 0.15, KAPPA)
    space = TruncatedSpace(12)
    d = space.dim
    generator = assemble(exact_model(params, space), KAPPA)
    spy = _EigvalsSpy(monkeypatch)
    got = _outcome(nullspace_steady, generator, False)
    monkeypatch.undo()
    # the offset-0 block's column discs touch zero, every other block's exclude
    # it by more than 2 GAP_TOL ||S||: one eigenvalue solve, on rho_nn
    idx = np.arange(d) * (d + 1)
    assert len(spy.calls) == 1
    assert np.array_equal(spy.calls[0], generator.matrix[np.ix_(idx, idx)])
    assert got == _outcome(_all_blocks_reference, generator, False)


def _random_block(rng, size, kind, dtype):
    entries = rng.standard_normal((size, size))
    if dtype == complex:
        entries = entries + 1j * rng.standard_normal((size, size))
    entries[rng.random((size, size)) < 0.3] = 0.0
    if kind == "kernel":
        # columns summing to zero: a zero eigenvalue, discs that reach it
        off = np.abs(entries) if dtype == float else entries
        np.fill_diagonal(off, 0.0)
        return off - np.diag(off.sum(axis=0))
    if kind == "slow":
        # an eigenvalue of 1e-9 (within GAP_TOL * ||S||) behind discs that reach zero
        basis = np.eye(size) + 0.3 * entries
        values = np.concatenate(([1e-9], -rng.uniform(0.5, 2.0, size - 1)))
        return basis @ np.diag(values) @ np.linalg.inv(basis)
    if kind == "wide":
        return entries  # discs that reach zero, no eigenvalue near it
    # "decay": discs shifted off zero, some by little, some by far
    return 0.3 * entries - rng.uniform(0.2, 40.0) * np.eye(size)


@pytest.mark.parametrize("dtype", [float, complex])
def test_pruned_blocks_match_the_all_blocks_reference(dtype, rng, monkeypatch):
    spy = _EigvalsSpy(monkeypatch)
    unsolved = 0
    outcomes = set()
    for trial in range(60):
        space = TruncatedSpace(int(rng.integers(3, 6)))
        blocks = _offset_blocks(space.dim)
        kinds = ["kernel"] * (trial % 3)  # missing, one and two kernels
        if rng.random() < 0.2:
            kinds.append("slow")
        if rng.random() < 0.3:
            kinds.append("wide")
        kinds += ["decay"] * (len(blocks) - len(kinds))
        # a phase-covariant generator: one random block on each offset
        mat = np.zeros((space.dim**2,) * 2, dtype=dtype)
        for idx, kind in zip(blocks, rng.permutation(kinds)):
            mat[np.ix_(idx, idx)] = _random_block(rng, len(idx), kind, dtype)
        n_blocks, labels, margins, _ = _block_labels(from_matrix(space, mat))
        assert n_blocks == len(blocks)
        for b, idx in enumerate(blocks):
            assert np.flatnonzero(labels == b).tolist() == idx.tolist()
            least = np.abs(np.linalg.eigvals(mat[np.ix_(idx, idx)])).min()
            assert margins[:, idx].min(axis=1).max() <= least + 1e-12
        if trial % 10 == 9:  # a non-finite entry in one block, on or off its diagonal
            i, j = blocks[rng.integers(len(blocks))][[0, -1]]
            mat[i, rng.choice([i, j])] = rng.choice([np.nan, np.inf])
        generator = from_matrix(space, mat)
        reference = functools.partial(_all_blocks_reference, blocks=blocks)
        for return_info in (False, True):
            spy.calls.clear()
            got = _outcome(nullspace_steady, generator, return_info)
            unsolved += n_blocks - len(spy.calls)
            want = _outcome(reference, generator, return_info)
            assert got == want
            outcomes.add(want[0].__name__ if isinstance(want[0], type) else "ok")
    assert outcomes == {"ok", "SteadyStateError", "DegenerateSteadyStateError", "LinAlgError"}
    assert unsolved > 0


def test_unsplit_generator_gets_one_full_eig():
    # a coherent drive -i[eps (a + a*), rho] couples neighbouring offsets
    space = TruncatedSpace(12)
    a = annihilation(space)
    eps = 0.2
    drive = eps * (a + a.conj().T)
    generator = from_matrix(
        space,
        loss_dissipator(KAPPA, space).matrix - 1j * (left_mult(drive) - right_mult(drive)),
    )
    assert _n_blocks(generator) == _block_labels(generator)[0] == 1
    rho = _nullspace_matching_full_eig(generator)
    # the driven damped mode settles in the coherent state alpha = -2i eps / kappa
    alpha = -2j * eps / KAPPA
    n = np.arange(space.dim)
    amp = alpha**n / np.sqrt([math.factorial(k) for k in n]) * np.exp(-abs(alpha) ** 2 / 2)
    assert np.abs(rho - np.outer(amp, amp.conj())).max() < 1e-10


def test_one_way_coupling_joins_its_ends_in_one_block():
    # rho_00 feeds rho_10 but nothing feeds back: the kernel vector spreads
    # over both, so a one-way coupling across offsets joins them in one block
    space = TruncatedSpace(1)
    mat = np.diag([0.0, -1.0, -1.0, -2.0])
    mat[1, 0] = 1.0
    n_blocks, labels, _, _ = _block_labels(from_matrix(space, mat))
    assert n_blocks == 1
    assert not labels.any()
    rho = _nullspace_matching_full_eig(from_matrix(space, mat))
    assert rho[1, 0] == pytest.approx(0.5)


def test_nullspace_rejects_one_zero_eigenvalue_per_block(rng):
    # two irreducible 8-state rate matrices, interleaved: each block alone
    # has a unique kernel, together they have two
    space = TruncatedSpace(3)
    rates = [rng.uniform(0.5, 1.5, (8, 8)) for _ in range(2)]
    blocks = [q - np.diag(q.sum(axis=0)) for q in rates]
    perm = rng.permutation(16)
    mat = scipy.linalg.block_diag(*blocks)[np.ix_(perm, perm)]
    generator = from_matrix(space, mat)
    assert _n_blocks(generator) == 2
    with pytest.raises(DegenerateSteadyStateError):
        nullspace_steady(generator)


def test_import_leaves_scipy_sparse_unloaded():
    # only the oracle's kron imports scipy.sparse, inside the call
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, micromaser; print('scipy.sparse' in sys.modules)"],
        capture_output=True, text=True, env=checkout_env(), check=True,
    )
    assert proc.stdout.strip() == "False"


_DENSE_ROUTE = """
import sys
import numpy as np
from micromaser.fock import TruncatedSpace
from micromaser.models import MODELS, assemble
from micromaser.observables import linewidth, linewidth_fd
from micromaser.pump import PumpParameters
from micromaser.steady import nullspace_steady, recurrence_steady

params = PumpParameters.from_pump(2.0, 0.05, 1.0)
space = TruncatedSpace(6)
models = [record.build(params, space) for record in MODELS.values()]
for model in models:
    generator = assemble(model, 1.0)
    rho = nullspace_steady(generator)
    _, info = nullspace_steady(generator, return_info=True)
    p = recurrence_steady(model.gain_ratio(1.0), space).p
    assert np.abs(np.diagonal(rho).real - p).max() < 1e-10, model.name
    assert abs(info["eigenvalue"]) <= 1e-10 * info["norm"], model.name
    linewidth(generator, rho, 1.0)
    linewidth_fd(generator, rho, 1.0)
print(len(models), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_dense_route_loads_no_scipy():
    # the benchmark's dense route for every model of the table, in a fresh interpreter
    proc = subprocess.run(
        [sys.executable, "-c", _DENSE_ROUTE],
        capture_output=True, text=True, env=checkout_env(), check=True,
    )
    assert proc.stdout.strip() == f"{len(MODELS)} []"


def test_choose_truncation_covers_far_above_threshold():
    params = PumpParameters.from_pump(5.0, 0.03, KAPPA)
    model = exact_model(params, TruncatedSpace(1))
    space = searched(exact_model, params)
    stats = recurrence_steady(model.gain_ratio(KAPPA), space)
    mean = float(np.arange(space.dim) @ stats.p)
    # semiclassical intensity (A/kappa - 1) / (4u)
    assert mean == pytest.approx((5.0 - 1.0) / (4 * params.u), rel=1e-3)
    assert stats.p[-1] < 1e-10
    assert stats.converged


def test_choose_truncation_is_silent_when_low_levels_underflow():
    # far above threshold the lowest levels underflow to 0 against the peak
    params = PumpParameters.from_pump(8.0, 0.03, KAPPA)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        space = searched(exact_model, params)
    assert space.n_max == 2235


def test_choose_truncation_raises_at_hard_cap():
    space = TruncatedSpace(1)
    runaway = GeneratorModel(
        name="exact",
        space=space,
        params=None,
        feed_terms=PairTerms((1.01 * KAPPA,), lambda ym, yn: (np.sqrt(ym * yn),)),
        dephasing_terms=PairTerms((0.0,), lambda ym, yn: (ym - yn,)),
    )
    axis = solve_pump_axis(runaway, KAPPA)
    assert axis.status == [f"error: no truncation below {HARD_CAP} resolves the distribution tail"]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
def test_choose_truncation_passes_a_trapping_dip():
    # at a fixed interaction time the gain ratio is not monotone: it dips
    # near the trapping level 0.3 sqrt(n+1) = pi (n ~ 108.7) and the search
    # stops there (n_max 106, mean 89.7) although the state reaches mean 357.6
    measure = TimeMeasure.discrete([1.0], [1.0])
    params = PumpParameters.from_pump(200.0, 0.3, KAPPA)
    space = searched(lambda params, space: exact_model(params, space, measure), params)
    found = recurrence_steady(exact_model(params, space, measure).gain_ratio(KAPPA), space)
    wide = TruncatedSpace(4000)
    reference = recurrence_steady(exact_model(params, wide, measure).gain_ratio(KAPPA), wide)
    assert distribution_distance(found.p, reference.p) <= 1e-8


def test_heuristic_truncation_matches_exact():
    params = PumpParameters.from_pump(0.9, 0.15, KAPPA)
    def heur(params, space):
        return heuristic_model(params.gain_rate, 4 * params.u, space)

    assert searched(heur, params) == searched(exact_model, params)


SEARCHED_N_MAX = {EXACT: 429, UNIFORM: 347, HEURISTIC: 429}  # at g tau_bar 0.03, pump 2


@pytest.mark.parametrize("name", SEARCHED_N_MAX)
def test_nullspace_steady_at_the_truncation_the_search_chooses(name):
    # the gap test scales with the largest absolute row sum (1.5e3 here),
    # which does not grow with the number of entries as the Frobenius norm
    # (2.5e5) does, so the offset-1 relaxation rate (1.357e-3 for exact)
    # stays clear of GAP_TOL * ||S|| and the steady state is unique
    params = PumpParameters.from_pump(2.0, 0.03, KAPPA)
    space = searched(MODELS[name].build, params)
    assert space.n_max == SEARCHED_N_MAX[name]
    model = MODELS[name].build(params, space)
    generator = assemble(model, KAPPA)
    rho = nullspace_steady(generator)
    p = recurrence_steady(model.gain_ratio(KAPPA), space).p
    assert np.abs(np.diagonal(rho).real - p).max() <= 1e-10
    dense = linewidth(generator, rho, KAPPA).D
    slope = band_derivatives(model, p[None], KAPPA)
    band = linewidth_columns(slope, np.array([moments(p).mean_n]), KAPPA).D[0]
    assert abs(dense - band) <= 1e-9 * abs(band)
