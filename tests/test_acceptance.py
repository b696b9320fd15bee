"""Acceptance gate: one numbered criterion per test, one PASS/FAIL line each.

Every check here compares two independently produced objects: a closed-form
operator family against the generic series builder, a recurrence against a
dense nullspace, a derivative formula against a finite difference, and so on.
Tolerances are part of the contract and are not to be loosened.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from micromaser.fock import TruncatedSpace, unvec, vec
from micromaser.measures import (
    TimeMeasure,
    build_basis,
    cross_moment_identity,
)
from micromaser.models import (
    EXACT,
    MODELS,
    POST4,
    assemble,
    exact_model,
    fourth_order_model,
    general_weak_model,
    heuristic_model,
    uniform_model,
    weak_coupling_model,
)
from micromaser.observables import (
    band_derivatives,
    linewidth,
    linewidth_columns,
    linewidth_fd,
    moments,
)
from micromaser.oracle import (
    dissipator_matrix,
    fourth_order_generator,
    kraus_operators,
    lindblad_ops,
    sixth_order_superoperator,
    validate_density,
)
from micromaser.pump import PumpParameters
from micromaser.steady import nullspace_steady, recurrence_steady

from conftest import random_density, reference_weak_operators, searched

KAPPA = 1.0


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {name}: {tag}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_series_reproduces_reference_operator_set():
    basis = build_basis(TimeMeasure.exponential(), 3)
    space = TruncatedSpace(60)
    worst = 0.0
    for gt in (0.03, 0.15):
        params = PumpParameters.from_pump(0.9, gt, KAPPA)
        reference = dissipator_matrix(*reference_weak_operators(params, space))
        series = assemble(general_weak_model(params, basis, 3, space), 0.0).matrix
        worst = max(worst, float(np.abs(series - reference).max()))
        del reference, series
    report(
        1,
        "order-3 series equals reference operator set",
        worst < 1e-12,
        f"max entry diff {worst:.2e}",
    )


def test_criterion_02_weak_minus_sixth_equals_fourth_order():
    space = TruncatedSpace(40)
    worst = 0.0
    for gt in (0.03, 0.15):
        params = PumpParameters.from_pump(0.9, gt, KAPPA)
        weak = assemble(weak_coupling_model(params, space), 0.0).matrix
        weak -= sixth_order_superoperator(params, space).matrix
        quartic = fourth_order_generator(params, space).matrix
        worst = max(worst, float(np.abs(weak - quartic).max()))
    report(
        2,
        "weak set minus sixth-order part equals quartic generator",
        worst < 1e-12,
        f"max entry diff {worst:.2e}",
    )


def test_criterion_03_weak_gain_matches_recurrence_bracket():
    n = np.arange(60)
    worst = 0.0
    for gt in (0.03, 0.15):
        params = PumpParameters.from_pump(0.9, gt, KAPPA)
        model = weak_coupling_model(params, TruncatedSpace(60))
        got = model.gain_ratio(KAPPA)(n)
        x = params.u * (n + 1.0)
        want = (params.gain_rate / KAPPA) * (1.0 - 4.0 * x + 10.0 * x**2)
        worst = max(worst, float(np.abs(got / want - 1.0).max()))
    report(
        3,
        "weak diagonal gain equals quartic recurrence bracket",
        worst < 1e-12,
        f"max rel err {worst:.2e}",
    )


def test_criterion_04_quartic_recurrence_goes_negative():
    # pump chosen so the full model sits near n = 44: semiclassical
    # intensity (A/kappa - 1)/(4 u) = 44.4 at A/kappa = 5, g tau_bar = 0.15
    gt = 0.15
    params = PumpParameters.from_pump(5.0, gt, KAPPA)
    exact = exact_model(params, TruncatedSpace(1))
    space_big = searched(exact_model, params)
    stats_exact = recurrence_steady(exact.gain_ratio(KAPPA), space_big)
    mean = float(np.arange(space_big.dim) @ stats_exact.p)
    populated = abs(mean - 44.0) < 4.0

    # the quartic gain changes sign at n + 1 = 1 / (4 u) = 11.1; past the
    # next few levels the alternating products blow up, so probe to n = 16
    space = TruncatedSpace(16)
    boundary = 0.25 / gt**2
    post4 = fourth_order_model(params, space)
    stats_post4 = recurrence_steady(post4.gain_ratio(KAPPA), space)
    neg_levels = [lvl for lvl, _ in stats_post4.negative]
    weak = weak_coupling_model(params, space)
    stats_weak = recurrence_steady(weak.gain_ratio(KAPPA), space)

    ok = (
        populated
        and stats_post4.negative
        and all(lvl > boundary for lvl in neg_levels)
        and min(neg_levels) == 12
        and not stats_weak.negative
        and np.all(stats_weak.p >= 0)
    )
    report(
        4,
        "quartic model yields negative p_n past 1/(4 u); weak set stays positive",
        ok,
        f"mean_n {mean:.1f}, negative levels {neg_levels}",
    )


def test_criterion_05_exact_equivalences():
    params = PumpParameters.from_pump(0.9, 0.15, KAPPA)
    space = TruncatedSpace(30)
    levels = np.arange(space.dim)

    # (a) dense nullspace of the completed generator vs the saturation
    # recurrence ratio (A/kappa) / (1 + 4 u (n+1)), coded literally
    rho = nullspace_steady(assemble(exact_model(params, space), KAPPA))
    p_dense = np.diagonal(rho).real

    def saturation_ratio(n):
        return (params.gain_rate / KAPPA) / (1.0 + 4.0 * params.u * (n + 1.0))

    p_rec = recurrence_steady(saturation_ratio, space).p
    err_a = float(np.abs(p_dense - p_rec).max())

    # (b) heuristic rational-gain model with beta = 4 u, one-quantum
    # ordering, solved by its own dense nullspace
    heur = heuristic_model(params.gain_rate, 4.0 * params.u, space, ordering="aa_dag")
    p_heur = np.diagonal(nullspace_steady(assemble(heur, KAPPA))).real
    err_b = float(np.abs(p_heur - p_rec).max())
    mom_h, mom_e = moments(p_heur), moments(p_rec)
    stat_match = (
        abs(mom_h.mean_n - mom_e.mean_n) < 1e-8
        and abs(mom_h.mandel_q - mom_e.mandel_q) < 1e-8
    )

    report(
        5,
        "exact statistics match saturation recurrence and rational-gain model",
        err_a < 1e-8 and err_b < 1e-8 and stat_match,
        f"nullspace vs recurrence {err_a:.2e}, rational-gain {err_b:.2e}",
    )


def test_criterion_06_kraus_completeness():
    rng = np.random.default_rng(1139)
    space = TruncatedSpace(14)
    d = space.dim
    worst = 0.0
    for _ in range(50):
        g_tau = float(rng.uniform(0.02, 0.6))
        r_dt = float(rng.uniform(0.05, 0.95))
        params = PumpParameters(g_tau_bar=1.0, r=10.0)
        kraus = kraus_operators(params, g_tau, r_dt / params.r, space)
        defect = kraus.completeness_defect()
        worst = max(worst, float(np.abs(defect[: d - 1, : d - 1]).max()))
    report(
        6,
        "Kraus operators resolve the identity on the interior block",
        worst < 1e-13,
        f"max interior defect {worst:.2e} over 50 draws",
    )


def test_criterion_07_basis_coefficients_and_cross_moments():
    basis = build_basis(TimeMeasure.exponential(), 8)
    reference = [
        np.array([1.0]),
        np.array([1.0, -1.0]),
        np.array([1.0, -2.0, 0.5]),
    ]
    coeff_err = max(
        float(np.abs(np.asarray(basis.coeffs[k]) - reference[k]).max())
        for k in range(3)
    )
    moment_err = 0.0
    for n in range(9):
        for m in range(9 - n):
            got = cross_moment_identity(basis, n, m)
            want = math.factorial(n + m)
            moment_err = max(moment_err, abs(got - want) / want)
    report(
        7,
        "orthonormal basis matches closed-form polynomials and moment sums",
        coeff_err < 1e-12 and moment_err < 1e-9,
        f"coeff err {coeff_err:.2e}, cross-moment rel err {moment_err:.2e}",
    )


def test_criterion_08_uniform_operators_closed_form_and_quadrature():
    params = PumpParameters.from_pump(0.9, 0.15, KAPPA)
    space = TruncatedSpace(40)
    model = uniform_model(params, space, order=1)
    s0, s1, c0 = lindblad_ops(model)

    levels = np.arange(1.0, space.dim + 1.0)
    alpha = params.g_tau_bar * np.sqrt(levels)
    sr = math.sqrt(params.r)
    closed = {
        "s0": sr * alpha / (1.0 + alpha**2),
        "s1": -sr * alpha * (1.0 - alpha**2) / (1.0 + alpha**2) ** 2,
        "c0": sr / (1.0 + alpha**2),
    }
    err_closed = max(
        float(np.abs(np.diag(s0, -1) - closed["s0"][:-1]).max()),
        float(np.abs(np.diag(s1, -1) - closed["s1"][:-1]).max()),
        float(np.abs(np.diag(c0) - closed["c0"]).max()),
    )

    quad = TimeMeasure.gauss_laguerre(200)
    x, w = quad.nodes, quad.weights
    basis = build_basis(TimeMeasure.exponential(), 1)
    f0 = basis.evaluate(0, x)
    f1 = basis.evaluate(1, x)
    sin_t = np.sin(alpha[:, None] * x)
    cos_t = np.cos(alpha[:, None] * x)
    quad_s0 = sr * sin_t @ (w * f0)
    quad_s1 = sr * sin_t @ (w * f1)
    quad_c0 = sr * cos_t @ (w * f0)
    err_quad = max(
        float(np.abs(np.diag(s0, -1) - quad_s0[:-1]).max()),
        float(np.abs(np.diag(s1, -1) - quad_s1[:-1]).max()),
        float(np.abs(np.diag(c0) - quad_c0).max()),
    )
    report(
        8,
        "uniform operators equal closed forms and direct quadrature",
        err_closed < 1e-10 and err_quad < 1e-10,
        f"closed-form err {err_closed:.2e}, quadrature err {err_quad:.2e}",
    )


def offset_block_expm(gen, space, t):
    """exp(t gen) for a generator with no entry between two offsets n - m of
    the column-stacked rho_mn (index m + d n): one scipy.linalg.expm per
    offset block, zero between blocks."""
    i = np.arange(space.dim**2)
    offsets = i // space.dim - i % space.dim
    assert not np.any(gen[offsets[:, None] != offsets[None, :]])
    prop = np.zeros_like(gen)
    for k in range(1 - space.dim, space.dim):
        idx = np.flatnonzero(offsets == k)
        prop[np.ix_(idx, idx)] = scipy.linalg.expm(gen[np.ix_(idx, idx)] * t)
    return prop


def test_offset_block_propagator_matches_the_dense_expm():
    params = PumpParameters.from_pump(0.9, 0.15, KAPPA)
    space = TruncatedSpace(6)
    gen = assemble(uniform_model(params, space), KAPPA).matrix
    for t in (0.1, 10.0):
        assert np.abs(offset_block_expm(gen, space, t) - scipy.linalg.expm(gen * t)).max() < 1e-13


def test_criterion_09_lindblad_models_preserve_positivity():
    params = PumpParameters.from_pump(0.9, 0.15, KAPPA)
    space = TruncatedSpace(25)
    built = [record.build(params, space) for record in MODELS.values()]
    models = [m for m in built if m.lindblad is not None]
    # every model of the table but the two outside Lindblad form
    assert sorted(m.name for m in built if m.lindblad is None) == [EXACT, POST4]

    rng = np.random.default_rng(907)
    states = np.stack([vec(random_density(space, rng, envelope=0.7)) for _ in range(10)], axis=1)
    worst = 0.0
    for model in models:
        gen = assemble(model, KAPPA).matrix
        for t in (0.1, 1.0, 10.0, 100.0):
            for evolved in (offset_block_expm(gen, space, t / KAPPA) @ states).T:
                worst = min(worst, validate_density(unvec(evolved, space)).min_eigenvalue)
    report(
        9,
        "manifest-Lindblad evolution keeps states positive",
        worst >= -1e-8,
        f"most negative eigenvalue {worst:.2e}",
    )


def _exact_point(pump, gt):
    params = PumpParameters.from_pump(pump, gt, KAPPA)
    space = searched(exact_model, params)
    model = exact_model(params, space)
    stats = recurrence_steady(model.gain_ratio(KAPPA), space)
    return params, model, space, stats


def test_criterion_10_figure_trends():
    gt = 0.03
    pumps = np.round(np.arange(0.5, 3.001, 0.1), 10)
    q_values = []
    for pump in pumps:
        _, _, _, stats = _exact_point(pump, gt)
        q_values.append(moments(stats.p).mandel_q)
    q_values = np.asarray(q_values)
    peak = int(np.argmax(q_values))
    peak_ok = q_values[peak] > 1.0 and 0.7 <= pumps[peak] <= 1.3
    tail_ok = q_values[-1] < 2.0

    d_ok = True
    d_seen = []
    for pump in (2.0, 3.0, 4.0, 5.0):
        _, model, _, stats = _exact_point(pump, gt)
        mean_n = np.array([moments(stats.p).mean_n])
        slope = band_derivatives(model, stats.p[None], KAPPA)
        normalized_d = linewidth_columns(slope, mean_n, KAPPA).normalized_D[0]
        d_seen.append(normalized_d)
        d_ok = d_ok and 0.5 <= normalized_d <= 2.0

    means = []
    for pump in (1.2, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0):
        _, _, _, stats = _exact_point(pump, gt)
        means.append(moments(stats.p).mean_n)
    mono_ok = all(b > a for a, b in zip(means, means[1:]))

    report(
        10,
        "Mandel Q peak, normalized linewidth window, monotone intensity",
        peak_ok and tail_ok and d_ok and mono_ok,
        f"Q peak {q_values[peak]:.2f} at pump {pumps[peak]:.1f}, "
        f"Q(3.0) {q_values[-1]:.2f}, normalized_D {min(d_seen):.2f}..{max(d_seen):.2f}",
    )


def test_criterion_11_linewidth_formula_vs_finite_difference():
    gt = 0.03
    pumps = (0.3, 0.6, 0.9, 1.2, 1.5)
    worst = 0.0
    checked = 0
    for pump in pumps:
        params = PumpParameters.from_pump(pump, gt, KAPPA)
        for record in MODELS.values():
            space = searched(record.build, params)
            model = record.build(params, space)
            stats = recurrence_steady(model.gain_ratio(KAPPA), space)
            rho = np.diag(stats.p)
            generator = assemble(model, KAPPA)
            direct = linewidth(generator, rho, KAPPA)
            fd = linewidth_fd(generator, rho, KAPPA)
            worst = max(worst, abs(direct.D - fd.D) / abs(fd.D))
            checked += 1
    report(
        11,
        "regression linewidth matches finite-difference oracle",
        worst < 1e-6 and checked == len(MODELS) * len(pumps),
        f"max rel diff {worst:.2e} over {checked} model/pump points",
    )
