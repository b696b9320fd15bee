import numpy as np
import pytest
import scipy.linalg

from micromaser.fock import TruncatedSpace, annihilation, validate_density
from micromaser.measures import TimeMeasure, build_basis
from micromaser.models import (
    EXACT,
    HEURISTIC,
    POST4,
    UNIFORM,
    WEAK,
    assemble,
    exact_model,
    expansion_cutoff,
    exponential_projections,
    fourth_order_generator,
    fourth_order_model,
    general_weak_model,
    heuristic_model,
    merge_proportional,
    sixth_order_superoperator,
    uniform_model,
    weak_coupling_model,
)
from micromaser.observables import distribution_distance, linewidth
from micromaser.pump import PumpParameters, averaged_pump_superoperator
from micromaser.steady import recurrence_steady
from micromaser.superop import dissipator_matrix, loss_dissipator, unvec, vec

from conftest import coherent_density, random_density

KAPPA = 1.0


def build_all(params, space):
    return [
        exact_model(params, space),
        fourth_order_model(params, space),
        weak_coupling_model(params, space),
        uniform_model(params, space),
        heuristic_model(params.gain_rate, 4 * params.u, space),
    ]


@pytest.fixture(scope="module")
def params15():
    return PumpParameters.from_pump(0.9, 0.15, KAPPA)


def test_model_names_and_lindblad_flags(params15):
    space = TruncatedSpace(8)
    models = build_all(params15, space)
    names = [m.name for m in models]
    assert names == [EXACT, POST4, WEAK, UNIFORM, HEURISTIC]
    flags = {m.name: m.manifest_lindblad for m in models}
    assert flags == {
        EXACT: False,
        POST4: False,
        WEAK: True,
        UNIFORM: True,
        HEURISTIC: True,
    }


@pytest.mark.parametrize("g_tau_bar", [0.03, 0.15])
def test_weak_model_is_post4_plus_sixth_order(g_tau_bar):
    """The closed-form Lindblad set reproduces the fourth-order generator
    exactly once its own sixth-order remainder is subtracted.  Entrywise."""
    params = PumpParameters.from_pump(0.9, g_tau_bar, KAPPA)
    space = TruncatedSpace(20)
    weak = assemble(weak_coupling_model(params, space), KAPPA).matrix
    weak -= loss_dissipator(KAPPA, space).matrix
    post4 = fourth_order_generator(params, space).matrix
    sixth = sixth_order_superoperator(params, space).matrix
    scale = np.abs(weak).max()
    assert np.abs(weak - (post4 + sixth)).max() < 1e-13 * scale


def test_sixth_order_term_is_itself_a_dissipator(params15):
    # 20 r u^3 (a*P rho P a - {P^3, rho}/2) == D[sqrt(20 r) (g tau)^3 a* P]
    space = TruncatedSpace(12)
    a = annihilation(space)
    op = np.sqrt(20.0 * params15.r) * params15.g_tau_bar**3 * (a.T @ a @ a.T)
    direct = dissipator_matrix(op)
    assert np.allclose(
        sixth_order_superoperator(params15, space).matrix, direct, atol=1e-13
    )


def test_exact_completion_is_trace_preserving_everywhere(params15):
    space = TruncatedSpace(15)
    gen = assemble(exact_model(params15, space), KAPPA)
    interior, boundary = gen.trace_defect()
    assert interior < 1e-12
    assert boundary < 1e-12


def test_exact_completion_matches_raw_average_on_interior(params15):
    space = TruncatedSpace(12)
    d = space.dim
    completed = assemble(exact_model(params15, space), 0.0).matrix
    raw = averaged_pump_superoperator(params15, space).matrix
    grid = np.abs(completed - raw).reshape(d, d, d, d)
    # columns not sourced from the top level agree identically
    assert grid[:, :, : d - 1, : d - 1].max() < 1e-12
    # the top-level column is where the reflecting completion acts
    assert grid[:, :, d - 1, d - 1].max() > 1e-3


def test_general_series_reproduces_closed_form_weak_set(params15):
    basis = build_basis(TimeMeasure.exponential(), 3)
    space = TruncatedSpace(14)
    reference = weak_coupling_model(params15, space)
    series = general_weak_model(params15, basis, 3, space)
    lhs = assemble(series, KAPPA).matrix
    rhs = assemble(reference, KAPPA).matrix
    assert np.abs(lhs - rhs).max() < 1e-12 * np.abs(rhs).max()
    assert len(series.lindblad_ops) == len(reference.lindblad_ops) == 4


def test_general_series_rejects_order_beyond_degree(params15):
    basis = build_basis(TimeMeasure.exponential(), 2)
    with pytest.raises(ValueError):
        general_weak_model(params15, basis, 3, TruncatedSpace(6))


def test_general_series_on_two_point_measure(params15):
    # finite support: the expansion is exact, so the merged generator must
    # equal the measure-averaged pump of that discrete measure (interior)
    measure = TimeMeasure.discrete([0.6, 1.4], [0.5, 0.5])
    basis = build_basis(measure, 1)
    space = TruncatedSpace(10)
    d = space.dim
    series = general_weak_model(params15, basis, 1, space)
    gain = series.gain_fn(np.arange(4))
    # one-quantum gain element squared summed over channels, by hand
    gt = params15.g_tau_bar
    want = params15.r * (gt * np.sqrt(np.arange(1.0, 5.0))) ** 2 * np.array(
        [1.0] * 4
    )  # order 1 keeps only the linear gain term S ~ gt a*
    # projection of x onto f_0, f_1 reconstructs x exactly on 2 points
    assert np.allclose(gain, want * 1.0, rtol=0.35)  # loose: order-1 truncation


def test_uniform_operators_closed_forms(params15):
    space = TruncatedSpace(25)
    model = uniform_model(params15, space, order=1)
    lv = np.arange(1, space.dim + 1, dtype=float)
    alpha = params15.g_tau_bar * np.sqrt(lv)
    sq = np.sqrt(params15.r)
    s0, s1, c0 = model.lindblad_ops
    assert np.allclose(np.diag(s0, -1), (sq * alpha / (1 + alpha**2))[:-1], rtol=1e-13)
    want1 = sq * (-alpha * (1 - alpha**2) / (1 + alpha**2) ** 2)
    assert np.allclose(np.diag(s1, -1), want1[:-1], rtol=1e-13)
    assert np.allclose(np.diag(c0), sq / (1 + alpha**2), rtol=1e-13)


def test_uniform_operators_match_direct_quadrature(params15):
    space = TruncatedSpace(18)
    model = uniform_model(params15, space, order=2)
    quad = TimeMeasure.gauss_laguerre(150)
    x, w = quad.nodes, quad.weights
    basis = build_basis(TimeMeasure.exponential(), 2)
    lv = np.arange(1, space.dim + 1, dtype=float)
    alpha = params15.g_tau_bar * np.sqrt(lv)
    sq = np.sqrt(params15.r)
    s0, s1, s2, c0, c1 = model.lindblad_ops
    for k, op in ((0, s0), (1, s1), (2, s2)):
        fk = basis.evaluate(k, x)
        want = sq * np.einsum("j,nj->n", w * fk, np.sin(alpha[:, None] * x))
        assert np.allclose(np.diag(op, -1), want[:-1], atol=1e-11)
    for k, op in ((0, c0), (1, c1)):
        fk = basis.evaluate(k, x)
        want = sq * np.einsum("j,nj->n", w * fk, np.cos(alpha[:, None] * x))
        got = np.diag(op)
        # identity components are dropped at construction; compare modulo 1
        assert np.allclose(got - got[0], want - want[0], atol=1e-11)


def test_uniform_order_validation(params15):
    with pytest.raises(ValueError):
        uniform_model(params15, TruncatedSpace(5), order=3)


def test_exponential_projections_match_quadrature_to_degree_64():
    quad = TimeMeasure.gauss_laguerre(300)
    x, w = quad.nodes, quad.weights
    basis = build_basis(TimeMeasure.exponential(), 64)
    alpha = np.array([0.05, 0.3, 1.0, 1.7, 3.0])
    proj = exponential_projections(alpha, 64)
    for k, (cos, sin) in enumerate(proj):
        weighted = w * basis.evaluate(k, x)
        assert np.allclose(sin, np.sin(alpha[:, None] * x) @ weighted, atol=1e-12)
        assert np.allclose(cos, np.cos(alpha[:, None] * x) @ weighted, atol=1e-12)


def test_exponential_projections_keep_low_degree_closed_forms_bitwise():
    # CLI output at the default uniform order is byte-stable only if these hold
    alpha = np.concatenate([np.linspace(0.0, 3.0, 3001), 0.03 * np.sqrt(np.arange(1.0, 3000.0))])
    den = 1.0 + alpha**2
    (c0, s0), (c1, s1) = exponential_projections(alpha, 1)
    assert np.array_equal(c0, 1.0 / den) and np.array_equal(s0, alpha / den)
    assert np.array_equal(c1, 2.0 * alpha**2 / den**2)
    assert np.array_equal(s1, -alpha * (1.0 - alpha**2) / den**2)


def test_general_series_converges_to_exact_at_weak_cutoff():
    params = PumpParameters.from_pump(3.0, 0.15, KAPPA)
    space = TruncatedSpace(expansion_cutoff(params.g_tau_bar))
    exact = recurrence_steady(exact_model(params, space).gain_ratio(KAPPA), space).p
    distances = {}
    for order in (3, 30, 60):
        basis = build_basis(TimeMeasure.exponential(), order)
        model = general_weak_model(params, basis, order, space)
        p = recurrence_steady(model.gain_ratio(KAPPA), space).p
        distances[order] = distribution_distance(p, exact)
    assert distances[3] > 1e-3  # the weak-coupling set is visibly off here
    assert distances[30] <= 1e-5
    assert distances[60] <= 1e-9


def test_general_series_order_ceiling(params15):
    basis = build_basis(TimeMeasure.discrete([0.5, 1.5], [0.5, 0.5]), 1)
    with pytest.raises(ValueError):
        general_weak_model(params15, basis, 65, TruncatedSpace(4))


def test_heuristic_orderings_differ_by_one_level():
    space = TruncatedSpace(10)
    after = heuristic_model(1.0, 0.2, space, ordering="aa_dag")
    before = heuristic_model(1.0, 0.2, space, ordering="a_dag_a")
    n = np.arange(6)
    assert np.allclose(after.gain_fn(n), (n + 1) / (1 + 0.2 * (n + 1)))
    assert np.allclose(before.gain_fn(n), (n + 1) / (1 + 0.2 * n))
    with pytest.raises(ValueError):
        heuristic_model(1.0, 0.2, space, ordering="normal")


def test_heuristic_beta_4u_matches_exact_gain(params15):
    space = TruncatedSpace(6)
    ex = exact_model(params15, space)
    heur = heuristic_model(params15.gain_rate, 4 * params15.u, space)
    n = np.arange(40)
    assert np.allclose(
        heur.gain_ratio(KAPPA)(n), ex.gain_ratio(KAPPA)(n), rtol=1e-13
    )


# exact_model(measure=) on node measures: two point atoms and a quadrature
ORACLE_MEASURES = {
    "exact_two_point": TimeMeasure.discrete([0.6, 1.4], [0.5, 0.5]),
    "exact_gauss_laguerre": TimeMeasure.gauss_laguerre(3),
}

ORACLE_VARIANTS = {
    "exact": lambda params, space: exact_model(params, space),
    **{
        name: lambda params, space, m=measure: exact_model(params, space, measure=m)
        for name, measure in ORACLE_MEASURES.items()
    },
    "post4": lambda params, space: fourth_order_model(params, space),
    "weak": lambda params, space: weak_coupling_model(params, space),
    "weak_series_3": lambda params, space: general_weak_model(
        params, build_basis(TimeMeasure.exponential(), 3), 3, space
    ),
    "weak_series_two_point": lambda params, space: general_weak_model(
        params, build_basis(ORACLE_MEASURES["exact_two_point"], 1), 3, space
    ),
    "uniform": lambda params, space: uniform_model(params, space),
    "uniform_order_2": lambda params, space: uniform_model(params, space, order=2),
    "heuristic_aa_dag": lambda params, space: heuristic_model(
        params.gain_rate, 4 * params.u, space, ordering="aa_dag"
    ),
    "heuristic_a_dag_a": lambda params, space: heuristic_model(
        params.gain_rate, 4 * params.u, space, ordering="a_dag_a"
    ),
}


@pytest.mark.parametrize("g_tau_bar", [0.05, 0.15])
@pytest.mark.parametrize("variant", sorted(ORACLE_VARIANTS))
def test_assemble_matches_dense_oracle(variant, g_tau_bar):
    """The band form against an independently built dense generator: the
    explicit Lindblad operators, the kron formula of the quartic generator,
    or (exact) the raw measure average off the top-level column."""
    params = PumpParameters.from_pump(0.9, g_tau_bar, KAPPA)
    space = TruncatedSpace(12)
    d = space.dim
    model = ORACLE_VARIANTS[variant](params, space)
    got = assemble(model, KAPPA).matrix
    loss = loss_dissipator(KAPPA, space).matrix
    if model.name == POST4:
        want = loss + fourth_order_generator(params, space).matrix
    elif model.name == EXACT:
        pump = averaged_pump_superoperator(params, space, ORACLE_MEASURES.get(variant)).matrix
        want = (loss + pump).reshape(d, d, d, d)
        got = got.reshape(d, d, d, d)
        # compare every column not sourced from the top level
        want, got = want[:, :, : d - 1, : d - 1], got[:, :, : d - 1, : d - 1]
    else:
        assert model.manifest_lindblad
        want = loss + sum(dissipator_matrix(op) for op in model.lindblad_ops)
    assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("g_tau_bar", [0.05, 0.15])
@pytest.mark.parametrize("variant", sorted(ORACLE_VARIANTS))
def test_band_linewidth_matches_dense_generator(variant, g_tau_bar):
    """The CLI route, linewidth(model, p) on the offset-1 band, against the
    assembled generator acting on the full matrix diag(p), above threshold."""
    params = PumpParameters.from_pump(2.0, g_tau_bar, KAPPA)
    space = TruncatedSpace(12)
    model = ORACLE_VARIANTS[variant](params, space)
    p = recurrence_steady(model.gain_ratio(KAPPA), space).p
    band = linewidth(model, p, KAPPA)
    dense = linewidth(assemble(model, KAPPA), np.diag(p), KAPPA)
    assert band.D == pytest.approx(dense.D, rel=1e-12)
    assert band.frequency_pull == pytest.approx(
        dense.frequency_pull, rel=1e-12, abs=1e-12 * abs(dense.D)
    )


@pytest.mark.parametrize("k", [-3, -1, 0, 1, 4])
@pytest.mark.parametrize("idx", range(5))
def test_apply_band_matches_apply(params15, idx, k, rng):
    space = TruncatedSpace(9)
    model = build_all(params15, space)[idx]
    rho = random_density(space, rng)
    got = model.apply_band(np.diagonal(rho, k), k, KAPPA)
    want = np.diagonal(model.apply(rho, KAPPA), k)
    assert np.abs(got - want).max() < 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
@pytest.mark.parametrize("variant", sorted(ORACLE_VARIANTS))
def test_apply_band_rows_equal_the_one_pump_models(variant, k, rng):
    """A model on a (P, 1) pump column, applied to one band per pump row:
    each row bit for bit what the model of that pump alone gives it."""
    space = TruncatedSpace(9)
    pumps = np.array([[0.0], [0.7], [2.0], [5.5]])
    column = ORACLE_VARIANTS[variant](PumpParameters.from_pump(pumps, 0.15, KAPPA), space)
    bands = rng.standard_normal((len(pumps), space.dim - abs(k)))
    got = column.apply_band(bands, k, KAPPA)
    for pump, band, row in zip(pumps[:, 0], bands, got):
        alone = ORACLE_VARIANTS[variant](PumpParameters.from_pump(pump, 0.15, KAPPA), space)
        assert row.tolist() == alone.apply_band(band, k, KAPPA).tolist()


@pytest.mark.parametrize("idx", range(5))
def test_apply_matches_assembled_matrix(params15, idx, rng):
    space = TruncatedSpace(9)
    model = build_all(params15, space)[idx]
    gen = assemble(model, KAPPA)
    rho = random_density(space, rng)
    lhs = model.apply(rho, KAPPA)
    rhs = unvec(gen.matrix @ vec(rho), space)
    assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())


@pytest.mark.parametrize("idx", range(5))
def test_gain_fn_matches_transition_elements(params15, idx):
    space = TruncatedSpace(9)
    model = build_all(params15, space)[idx]
    got = []
    for n in range(5):
        rho = np.zeros((space.dim, space.dim))
        rho[n, n] = 1.0
        # remove loss so only the pump feeds the level above
        drho = model.apply(rho, KAPPA) - (-KAPPA * n * rho + _loss_feed(rho, KAPPA))
        got.append(drho[n + 1, n + 1].real)
    assert np.allclose(got, model.gain_fn(np.arange(5)), rtol=1e-12, atol=1e-14)


def _loss_feed(rho, kappa):
    d = rho.shape[0]
    out = np.zeros_like(rho)
    n = np.arange(d - 1)
    out[:-1, :-1] = kappa * np.sqrt((n[:, None] + 1) * (n[None, :] + 1)) * rho[1:, 1:]
    return out


def test_birth_death_structure(params15):
    # every model keeps diagonal dynamics nearest-neighbour: feeding level n
    # only ever changes p_{n-1}, p_n, p_{n+1}
    space = TruncatedSpace(9)
    for model in build_all(params15, space):
        rho = np.zeros((space.dim, space.dim))
        rho[4, 4] = 1.0
        diag = np.diagonal(model.apply(rho, KAPPA)).real.copy()
        diag[3:6] = 0.0
        assert np.abs(diag).max() < 1e-14, model.name


def test_merge_proportional_quadrature_sum(rng):
    base = rng.standard_normal((6, 6))
    other = rng.standard_normal((6, 6))
    merged = merge_proportional([base, -2.0 * base, other])
    assert len(merged) == 2
    # |1|^2 + |-2|^2 = 5
    assert np.allclose(np.abs(merged[0]), np.sqrt(5.0) * np.abs(base) / 1.0, atol=1e-12)
    lhs = sum(dissipator_matrix(op) for op in (base, -2.0 * base, other))
    rhs = sum(dissipator_matrix(op) for op in merged)
    assert np.allclose(lhs, rhs, atol=1e-11)


def test_fourth_order_gain_turns_negative_past_validity():
    params = PumpParameters.from_pump(0.9, 0.15, KAPPA)
    model = fourth_order_model(params, TruncatedSpace(5))
    boundary = 0.25 / params.u  # 11.1 at g tau_bar = 0.15
    n = np.arange(30)
    gain = model.gain_fn(n)
    assert np.all(gain[n + 1 < boundary] > 0)
    assert np.all(gain[n + 1 > boundary] < 0)


def test_exact_gain_is_always_positive(params15):
    model = exact_model(params15, TruncatedSpace(5))
    n = np.arange(0, 2000, 37)
    assert np.all(model.gain_fn(n) > 0)


def test_lindblad_evolution_preserves_positivity_spot_check(params15, rng):
    # one cheap instance here; the acceptance suite covers all models/times
    space = TruncatedSpace(12)
    model = uniform_model(params15, space)
    gen = assemble(model, KAPPA)
    prop = scipy.linalg.expm(2.0 * gen.matrix)
    rho = random_density(space, rng, envelope=0.9)
    evolved = unvec(prop @ vec(rho), space)
    report = validate_density(evolved)
    assert report.min_eigenvalue > -1e-10
    assert report.trace_defect < 1e-10


def test_fourth_order_evolution_breaks_positivity():
    """The quartic generator is not completely positive: a coherent state
    pushed through it develops a genuinely negative eigenvalue.  The time is
    kept short of the regime where the truncated generator blows up, so the
    defect is a clean O(1e-2) number and the trace stays 1."""
    params = PumpParameters.from_pump(1.5, 0.25, KAPPA)
    space = TruncatedSpace(15)
    gen = assemble(fourth_order_model(params, space), KAPPA)
    rho = coherent_density(space, 1.5)
    prop = scipy.linalg.expm(0.2 * gen.matrix)
    evolved = unvec(prop @ vec(rho), space)
    trace = np.trace(evolved).real
    assert trace == pytest.approx(1.0, abs=1e-8)
    min_eig = validate_density(evolved).min_eigenvalue
    assert -1.0 < min_eig < -1e-4
