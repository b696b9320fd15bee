"""Conformance: every model of models.MODELS through the same checks.

A model is one record of the table plus its level functions.  Every check
here is parametrized over VARIANTS: each model of the table at its default
options, the options that change its level functions, and the measures
that only the API takes.  So a new record is checked as it lands, and the
meta-checks at the end fail until the variants and the golden CLI cases
cover it.

The dense references are independent of the band form: the explicit
Lindblad operators (oracle.lindblad_ops), the kron formula of the quartic
generator, or, for exact, the raw measure average off the top-level
column; the steady state of the assembled generator is checked against
the recurrence, against one eig of the whole matrix and against the
nullspace solve that reads every block.
"""

import functools
import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from micromaser import models
from micromaser.fock import TruncatedSpace
from micromaser.measures import TimeMeasure, build_basis
from micromaser.models import (
    EXACT,
    HEURISTIC,
    MODELS,
    POST4,
    UNIFORM,
    WEAK,
    PairTerms,
    assemble,
    exact_model,
    expansion_cutoff,
    general_weak_model,
)
from micromaser.observables import band_derivatives, linewidth, linewidth_columns, moment_columns
from micromaser.oracle import (
    averaged_pump_superoperator,
    column_trace_defects,
    dissipator_matrix,
    fourth_order_generator,
    from_matrix,
    lindblad_ops,
    loss_dissipator,
)
from micromaser.pump import PumpParameters
from micromaser.steady import _block_labels, nullspace_steady, recurrence_steady, solve_pump_axis

from conftest import random_density
from test_golden import CASES
from test_steady import _all_blocks_reference, _n_blocks, _nullspace_matching_full_eig, _outcome

KAPPA = 1.0
PARAMS = PumpParameters.from_pump(0.9, 0.15, KAPPA)

# exact_model(measure=) on node measures: two point atoms, and quadratures,
# the 40-node one wide enough that its node sums run over many SIMD lanes
TWO_POINT = TimeMeasure.discrete([0.6, 1.4], [0.5, 0.5])
MEASURES = {
    "exact_two_point": TWO_POINT,
    "exact_gauss_laguerre_3": TimeMeasure.gauss_laguerre(3),
    "exact_gauss_laguerre_40": TimeMeasure.gauss_laguerre(40),
}

VARIANTS = {
    **{name: record.build for name, record in MODELS.items()},
    "weak_lindblad_order_5": functools.partial(MODELS[WEAK].build, order=5),
    "uniform_lindblad_order_2": functools.partial(MODELS[UNIFORM].build, order=2),
    "heuristic_a_dag_a": functools.partial(MODELS[HEURISTIC].build, ordering="a_dag_a"),
    **{name: functools.partial(exact_model, measure=m) for name, m in MEASURES.items()},
    "weak_lindblad_two_point": lambda params, space: general_weak_model(
        params, build_basis(TWO_POINT, 1), 3, space
    ),
}
each_variant = pytest.mark.parametrize("variant", VARIANTS)


@pytest.mark.parametrize("g_tau_bar", [0.05, 0.15])
@each_variant
def test_assemble_matches_the_dense_oracle_and_preserves_trace(variant, g_tau_bar):
    params = PumpParameters.from_pump(0.9, g_tau_bar, KAPPA)
    space = TruncatedSpace(12)
    d = space.dim
    model = VARIANTS[variant](params, space)
    generator = assemble(model, KAPPA)
    assert max(column_trace_defects(generator)) < 1e-12
    got = generator.matrix
    loss = loss_dissipator(KAPPA, space).matrix
    if model.name == POST4:
        want = loss + fourth_order_generator(params, space).matrix
    elif model.name == EXACT:
        pump = averaged_pump_superoperator(params, space, MEASURES.get(variant)).matrix
        want = (loss + pump).reshape(d, d, d, d)
        got = got.reshape(d, d, d, d)
        # compare every column not sourced from the top level
        want, got = want[:, :, : d - 1, : d - 1], got[:, :, : d - 1, : d - 1]
    else:
        assert model.lindblad is not None
        want = loss + dissipator_matrix(*lindblad_ops(model))
    assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("g_tau_bar", [0.05, 0.15])
@each_variant
def test_band_linewidth_matches_the_dense_generator(variant, g_tau_bar):
    """The CLI route, band_derivatives on the offset-1 band, against the
    assembled generator acting on the full matrix diag(p), above threshold."""
    params = PumpParameters.from_pump(2.0, g_tau_bar, KAPPA)
    space = TruncatedSpace(12)
    model = VARIANTS[variant](params, space)
    p = recurrence_steady(model.gain_ratio(KAPPA), space).p
    band = linewidth_columns(band_derivatives(model, p[None], KAPPA), moment_columns(p)[0], KAPPA)
    dense = linewidth(assemble(model, KAPPA), np.diag(p), KAPPA)
    assert band.D[0] == pytest.approx(dense.D, rel=1e-12)


@each_variant
def test_the_band_tables_are_real(variant):
    """Real F and H make the band real, so f'(0) of a real state is real and
    the linewidth output carries no frequency pull."""
    space = TruncatedSpace(12)
    model = VARIANTS[variant](PARAMS, space)
    for terms in (model.feed_terms, model.dephasing_terms):
        for k in (0, 1):
            assert np.isrealobj(terms.band(k, space.dim - k)), (
                "a complex F or H (as ROADMAP item 20's detuning gives) makes Im f'(0) "
                "a frequency pull: bring its linewidth column back, checked against "
                "oracle.jaynes_cummings_band (item 21)"
            )


@pytest.mark.parametrize("k", [-3, -1, 0, 1, 4])
@each_variant
def test_apply_band_matches_apply(variant, k, rng):
    space = TruncatedSpace(9)
    model = VARIANTS[variant](PARAMS, space)
    rho = random_density(space, rng)
    got = model.apply_band(np.diagonal(rho, k), k, KAPPA)
    want = np.diagonal(model.apply(rho, KAPPA), k)
    assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
@each_variant
def test_apply_band_rows_equal_the_one_pump_models(variant, k, rng):
    """A model on a (P, 1) pump column, applied to one band per pump row:
    each row bit for bit what the model of that pump alone gives it."""
    space = TruncatedSpace(9)
    pumps = np.array([[0.0], [0.7], [2.0], [5.5]])
    column = VARIANTS[variant](PumpParameters.from_pump(pumps, 0.15, KAPPA), space)
    bands = rng.standard_normal((len(pumps), space.dim - abs(k)))
    got = column.apply_band(bands, k, KAPPA)
    for pump, band, row in zip(pumps[:, 0], bands, got):
        alone = VARIANTS[variant](PumpParameters.from_pump(pump, 0.15, KAPPA), space)
        assert row.tolist() == alone.apply_band(band, k, KAPPA).tolist()


@pytest.mark.parametrize("k", [0, 1, 2])
@each_variant
def test_level_tables_are_prefixes(variant, k):
    """A level table of band k read to length L is bit for bit the first L
    entries of the table read to 2L + k, whether evaluated there at once or
    grown to it: what lets one table serve every block of a pump axis.
    Band 0 is held on at least HARD_CAP levels from its first read, so that
    every stage of the truncation search slices one table; the other bands
    are held at the length asked for."""
    params = PumpParameters.from_pump(np.array([[0.7], [2.0]]), 0.15, KAPPA)
    model = VARIANTS[variant](params, TruncatedSpace(1))

    def table(terms, *lengths):
        fresh = PairTerms(terms.rates, terms.fn)
        for length in lengths:
            fresh.band(k, length)
        return fresh.tables[k][1]

    def held(length):
        return max(length, models.HARD_CAP) if k == 0 else length

    for terms in (model.feed_terms, model.dephasing_terms):
        for length in (1, 7, 16, 33, models.HARD_CAP):
            short = table(terms, length)
            assert len(short[0]) == held(length)
            for grown in (table(terms, 2 * length + k), table(terms, length, 2 * length + k)):
                assert len(grown[0]) == held(2 * length + k)
                prefix = [t[:length].tobytes() for t in short]
                assert [t[:length].tobytes() for t in grown] == prefix


def band_from_pair_functions(model, band, k, kappa):
    """apply_band evaluated directly from model.feed, model.dephasing and
    model.gain_fn on the band's own levels, as it was before level tables."""
    m = np.arange(max(0, -k), model.space.dim - max(0, k))
    n = m + k
    gain_out = model.gain_fn(np.arange(model.space.dim))
    gain_out[..., -1] = 0.0
    decay = model.dephasing(m, n) - 0.5 * (gain_out[..., m] + gain_out[..., n] + kappa * (m + n))
    out = np.zeros(band.shape)
    out += decay * band
    out[..., 1:] += model.feed(m[:-1], n[:-1]) * band[..., :-1]
    out[..., :-1] += kappa * np.sqrt(m[1:] * n[1:]) * band[..., 1:]
    return out


@each_variant
def test_blocks_read_the_pair_functions_of_their_space(variant, rng):
    """Views of one pump-axis model on spaces of several sizes, in any order,
    share its tables; each block's apply_band (the truncated top included)
    is bit for bit the direct pair functions on that block's space, in
    every band."""
    pumps = np.array([[0.0], [0.7], [2.0], [5.5]])
    axis = VARIANTS[variant](PumpParameters.from_pump(pumps, 0.15, KAPPA), TruncatedSpace(1))
    rows = np.array([3, 1])
    for n_max in (9, 30, 4, 17):
        block = axis.at(rows, TruncatedSpace(n_max))
        for k in (-2, -1, 0, 1, 2):
            bands = rng.standard_normal((len(rows), n_max + 1 - abs(k)))
            got = block.apply_band(bands, k, KAPPA)
            assert got.tobytes() == band_from_pair_functions(block, bands, k, KAPPA).tobytes()
        ratios = block.ratio_rows(KAPPA, n_max)
        assert ratios.tobytes() == block.gain_ratio(KAPPA)(np.arange(n_max)).tobytes()


@each_variant
def test_a_fock_state_feeds_its_neighbours_at_the_gain_rate(variant):
    """Birth-death structure: a pumped |n><n| moves weight only to the
    levels n - 1 and n + 1, and the pump alone feeds n + 1 at F(n, n)."""
    space = TruncatedSpace(9)
    model = VARIANTS[variant](PARAMS, space)
    got = []
    for n in range(5):
        rho = np.zeros((space.dim, space.dim))
        rho[n, n] = 1.0
        drho = model.apply(rho, KAPPA)
        diag = np.diagonal(drho).real.copy()
        diag[max(0, n - 1) : n + 2] = 0.0
        assert np.abs(diag).max() < 1e-14
        # loss moves weight down only, so level n + 1 sees the pump alone
        got.append(drho[n + 1, n + 1].real)
    assert np.allclose(got, model.gain_fn(np.arange(5)), rtol=1e-12, atol=1e-14)


@each_variant
def test_nullspace_matches_recurrence(variant):
    space = TruncatedSpace(25)
    model = VARIANTS[variant](PARAMS, space)
    rho = nullspace_steady(assemble(model, KAPPA))
    stats = recurrence_steady(model.gain_ratio(KAPPA), space)
    assert np.abs(np.diag(rho).real - stats.p).max() < 1e-10
    off = rho - np.diag(np.diag(rho))
    assert np.abs(off).max() < 1e-10


@pytest.mark.parametrize("g_tau_bar", [0.05, 0.15])
@each_variant
def test_offset_blocks_and_the_block_nullspace(variant, g_tau_bar):
    """Phase covariance: one block per offset n - m, as csgraph finds them
    on the nonzero pattern; the block solve equals one eig of the whole
    matrix."""
    for pump in (0.9, 2.0):
        for n_max in (12, 30):
            params = PumpParameters.from_pump(pump, g_tau_bar, KAPPA)
            space = TruncatedSpace(n_max)
            mat = assemble(VARIANTS[variant](params, space), KAPPA).matrix
            n_blocks, labels, _, _ = _block_labels(from_matrix(space, mat))
            want_n, want = connected_components(mat != 0, connection="weak")
            assert n_blocks == want_n == 2 * space.dim - 1
            assert labels.tolist() == want.tolist()
    space = TruncatedSpace(12)
    params = PumpParameters.from_pump(0.9, g_tau_bar, KAPPA)
    generator = assemble(VARIANTS[variant](params, space), KAPPA)
    assert _n_blocks(generator) == 2 * space.dim - 1
    _nullspace_matching_full_eig(generator)


@pytest.mark.parametrize("return_info", [False, True])
@each_variant
def test_the_nullspace_matches_the_all_blocks_reference(variant, return_info):
    params = PumpParameters.from_pump(2.0, 0.05, KAPPA)
    generator = assemble(VARIANTS[variant](params, TruncatedSpace(30)), KAPPA)
    got = _outcome(nullspace_steady, generator, return_info)
    assert got == _outcome(_all_blocks_reference, generator, return_info)


@each_variant
def test_the_truncation_search_follows_the_cutoff_field(variant):
    """A series model holds to expansion_cutoff, and the search takes the
    field, not the name: pinned at 12, every model is searched to 12."""
    model = VARIANTS[variant](PARAMS, TruncatedSpace(1))
    assert model.cutoff in (None, expansion_cutoff(0.15))
    pinned = replace(model, cutoff=12)
    searched, fixed = (solve_pump_axis(m, KAPPA) for m in (model, pinned))
    assert searched.status == fixed.status == ["ok"]
    assert fixed.n_max.tolist() == [12]
    if model.cutoff is None:
        assert searched.n_max[0] > 12
    else:
        assert searched.n_max.tolist() == [model.cutoff]


@pytest.mark.parametrize("pumps", [1, 3, 9])
@each_variant
def test_the_dense_forms_take_one_pump_read_from_the_rates(variant, pumps):
    """With as many pumps as rows of an operator (3) or of a superoperator
    (9), a column of rates would broadcast into a wrong dense operator.
    Whether a model holds one pump is read from the shapes of its rates: no
    level function runs, whatever the answer."""
    values = np.linspace(0.5, 2.0, pumps)[:, None] if pumps > 1 else 0.5
    model = VARIANTS[variant](PumpParameters.from_pump(values, 0.15), TruncatedSpace(2))
    calls = []
    for terms in (model.feed_terms, model.dephasing_terms):
        terms.fn = lambda *args, fn=terms.fn: calls.append(fn) or fn(*args)
    dense = [
        model._require_one_pump,
        lambda: assemble(model, KAPPA),
        lambda: model.apply(np.diag([0.5, 0.3, 0.2]), KAPPA),
        lambda: lindblad_ops(model),
    ]
    if pumps > 1:
        for form in dense:
            with pytest.raises(ValueError, match="one pump value"):
                form()
        assert calls == []
    else:
        model._require_one_pump()
        assert calls == []
        assemble(model, KAPPA)  # which does read the level functions
        assert calls


@each_variant
def test_band_linewidth_memory_is_linear_in_n_max(variant):
    """Model build, the recurrence to the model's own cutoff and the band
    linewidth at n_max 3000 allocate no d x d array (one would take 72 MB).
    Past their validity (pump 8) the series models' D is negative."""
    params = PumpParameters.from_pump(8.0, 0.03, KAPPA)
    space = TruncatedSpace(3000)
    tracemalloc.start()
    try:
        model = VARIANTS[variant](params, space)
        stats = recurrence_steady(model.gain_ratio(KAPPA), space, cutoff=model.cutoff)
        slope = band_derivatives(model, stats.p[None], KAPPA)
        res = linewidth_columns(slope, moment_columns(stats.p)[0], KAPPA)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (res.D[0] > 0) == (model.cutoff is None)
    assert peak < 8e6


def test_the_variants_run_every_model_of_the_table_at_the_defaults_of_its_constructor():
    """Each record builds a model of its own name, and the defaults the CLI
    takes from the table are its constructor's, so a library call and a
    config without options build the same model."""
    assert set(MODELS) <= set(VARIANTS)
    for name, record in MODELS.items():
        assert VARIANTS[name](PARAMS, TruncatedSpace(2)).name == name
        parameters = inspect.signature(getattr(models, record.builder)).parameters
        assert {key: parameters[key].default for key in record.options} == record.options
    assert {build(PARAMS, TruncatedSpace(2)).name for build in VARIANTS.values()} == set(MODELS)


def test_the_golden_options_case_runs_every_model_and_option():
    entries = [
        {"name": entry} if isinstance(entry, str) else entry
        for entry in CASES["options"]["models"]
    ]
    assert {entry["name"] for entry in entries} == set(MODELS)
    options = {(entry["name"], key) for entry in entries for key in entry if key != "name"}
    assert options == {(name, key) for name, record in MODELS.items() for key in record.options}
