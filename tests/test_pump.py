import numpy as np
import pytest
import scipy.integrate

from micromaser.fock import TruncatedSpace, phi_squared
from micromaser.measures import TimeMeasure
from micromaser.pump import (
    PumpParameters,
    TruncationLeakWarning,
    averaged_pump_superoperator,
    cos_cos_average,
    cos_op,
    jcp_map,
    kraus_operators,
    lindblad_C_S,
    pump_average_tables,
    regularized_trace,
    riemann_kraus_operators,
    sin_shift_op,
    sin_sin_average,
)
from micromaser.superop import dissipator_matrix, unvec, vec

from conftest import random_density


def test_parameters_derived_quantities():
    p = PumpParameters(g_tau_bar=0.15, r=20.0)
    assert p.g_tau_bar == pytest.approx(0.15)
    assert p.u == pytest.approx(0.0225)
    assert p.gain_rate == pytest.approx(2 * 20.0 * 0.0225)
    assert p.saturation_rate == pytest.approx(p.u * p.gain_rate)


def test_from_pump_inverts_gain_relation():
    p = PumpParameters.from_pump(0.9, 0.03, kappa=2.0)
    assert p.gain_rate == pytest.approx(0.9 * 2.0)


def test_parameters_validation():
    with pytest.raises(ValueError):
        PumpParameters(g_tau_bar=-0.1, r=1.0)
    with pytest.raises(ValueError):
        lindblad_C_S(PumpParameters(g_tau_bar=0.1, r=1.0), 0.1, TruncatedSpace(2), q=1.5)
    # r = 0 is the unpumped cavity and must be representable
    assert PumpParameters(g_tau_bar=0.1, r=0.0).gain_rate == 0.0


def test_pump_map_preserves_trace_on_interior_state(rng):
    space = TruncatedSpace(20)
    rho = random_density(space, rng, envelope=1.0)
    rho[-1, -1] = 0.0
    rho /= np.trace(rho).real
    out = jcp_map(rho, 0.4)
    assert np.trace(out).real == pytest.approx(np.trace(rho).real, abs=1e-12)


def test_pump_map_warns_on_boundary_leak():
    space = TruncatedSpace(3)
    rho = np.zeros((4, 4))
    rho[-1, -1] = 1.0
    with pytest.warns(TruncationLeakWarning):
        jcp_map(rho, 0.7)


def test_pump_map_matrix_elements():
    # cos part diagonal cos(gt sqrt(n+1)), gain part subdiagonal sin(gt sqrt(n+1))
    space = TruncatedSpace(5)
    gt = 0.37
    c = cos_op(space, gt)
    s = sin_shift_op(space, gt)
    assert np.allclose(np.diag(c), np.cos(gt * np.sqrt(np.arange(1, 7))))
    assert np.allclose(np.diag(s, -1), np.sin(gt * np.sqrt(np.arange(1, 6))))
    assert np.count_nonzero(s) == 5


def test_pump_map_is_phi_function():
    # the two pump branches commute with aa* held at exact eigenvalues
    space = TruncatedSpace(8)
    phi2 = phi_squared(space)
    c = cos_op(space, 0.23)
    assert np.allclose(c @ phi2, phi2 @ c)


class TestKraus:
    def test_completeness_interior(self):
        space = TruncatedSpace(12)
        params = PumpParameters(g_tau_bar=0.3, r=5.0)
        ks = kraus_operators(params, g_tau=0.45, dt=0.1, space=space)
        defect = ks.completeness_defect()
        assert np.abs(defect[:-1, :-1]).max() < 1e-14
        # the boundary entry reports exactly the truncated gain channel
        want = -params.r * 0.1 * np.sin(0.45 * np.sqrt(13.0)) ** 2
        assert defect[-1, -1].real == pytest.approx(want, rel=1e-12)

    def test_rejects_bad_probability(self):
        space = TruncatedSpace(4)
        params = PumpParameters(g_tau_bar=0.3, r=5.0)
        with pytest.raises(ValueError):
            kraus_operators(params, 0.3, dt=0.5, space=space)  # r dt = 2.5

    def test_node_sum_completeness(self):
        space = TruncatedSpace(10)
        params = PumpParameters(g_tau_bar=0.2, r=2.0)
        measure = TimeMeasure.gauss_laguerre(24)
        ks = riemann_kraus_operators(params, measure, dt=0.2, space=space)
        defect = ks.completeness_defect()
        assert np.abs(defect[:-1, :-1]).max() < 1e-13

    def test_node_sum_rejects_exponential(self):
        space = TruncatedSpace(4)
        params = PumpParameters(g_tau_bar=0.2, r=2.0)
        with pytest.raises(ValueError):
            riemann_kraus_operators(params, TimeMeasure.exponential(), 0.1, space)


def test_regularized_trace_matches_direct_sum():
    got = regularized_trace(0.4, q=0.3)
    direct = sum((1 - 0.3) * 0.3**n * np.cos(0.4 * np.sqrt(n + 1)) for n in range(200))
    assert got == pytest.approx(direct, abs=1e-13)


def test_traceless_split_is_q_independent_as_generator(rng):
    """The identity shift in the cosine part must drop out of the dissipator."""
    space = TruncatedSpace(9)
    rho = random_density(space, rng)
    outs = []
    for q in (0.2, 0.5, 0.9):
        params = PumpParameters(g_tau_bar=0.3, r=4.0)
        c, s = lindblad_C_S(params, g_tau=0.35, space=space, q=q)
        mat = dissipator_matrix(c) + dissipator_matrix(s)
        outs.append(unvec(mat @ vec(rho), space))
    assert np.allclose(outs[0], outs[1], atol=1e-12)
    assert np.allclose(outs[0], outs[2], atol=1e-12)


def test_split_generator_equals_pump_map_generator(rng):
    # r (M - 1) and the C/S dissipators agree apart from the truncated
    # gain-out-of-top channel, which only affects the boundary column
    space = TruncatedSpace(7)
    params = PumpParameters(g_tau_bar=0.3, r=4.0)
    gt = 0.3
    c, s = lindblad_C_S(params, gt, space)
    mat = dissipator_matrix(c) + dissipator_matrix(s)
    rho = random_density(space, rng)
    rho[-1, :] = 0.0
    rho[:, -1] = 0.0
    rho /= np.trace(rho).real
    lhs = unvec(mat @ vec(rho), space)
    rhs = params.r * (jcp_map(rho, gt) - rho)
    assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("alpha,beta", [(0.1, 0.1), (0.45, 1.2), (3.0, 0.02)])
def test_lorentzian_averages_against_quadrature(alpha, beta):
    m = TimeMeasure.exponential()
    cc, _ = scipy.integrate.quad(
        lambda x: np.cos(alpha * x) * np.cos(beta * x) * np.exp(-x), 0, np.inf
    )
    ss, _ = scipy.integrate.quad(
        lambda x: np.sin(alpha * x) * np.sin(beta * x) * np.exp(-x), 0, np.inf
    )
    assert cos_cos_average(m, alpha, beta) == pytest.approx(cc, abs=1e-12)
    assert sin_sin_average(m, alpha, beta) == pytest.approx(ss, abs=1e-12)


def test_averages_on_discrete_measure():
    m = TimeMeasure.discrete([0.5, 1.5], [0.5, 0.5])
    x = m.nodes
    want = float(m.weights @ (np.sin(0.3 * x) * np.sin(0.8 * x)))
    assert sin_sin_average(m, 0.3, 0.8) == pytest.approx(want, abs=1e-15)


def test_average_tables_diagonal_saturation():
    # <sin^2(a_n x)> = 2u(n+1) / (1 + 4u(n+1)) for the exponential measure
    params = PumpParameters(g_tau_bar=0.15, r=1.0)
    space = TruncatedSpace(30)
    _, ss = pump_average_tables(params, space)
    n = np.arange(31.0)
    want = 2 * params.u * (n + 1) / (1 + 4 * params.u * (n + 1))
    assert np.allclose(np.diag(ss), want, rtol=1e-13)


def test_averaged_superoperator_interior_trace_and_leak(rng):
    params = PumpParameters(g_tau_bar=0.2, r=3.0)
    space = TruncatedSpace(10)
    sup = averaged_pump_superoperator(params, space)
    interior, boundary = sup.trace_defect()
    assert interior < 1e-12
    # the raw average leaks exactly r <sin^2(a_top x)> out of the top level
    want = params.r * sin_sin_average(
        TimeMeasure.exponential(), 0.2 * np.sqrt(11.0), 0.2 * np.sqrt(11.0)
    )
    assert boundary == pytest.approx(want, rel=1e-12)


def test_averaged_superoperator_matches_node_average(rng):
    # dual route: closed Lorentzian forms vs direct quadrature averaging
    params = PumpParameters(g_tau_bar=0.25, r=2.0)
    space = TruncatedSpace(8)
    closed = averaged_pump_superoperator(params, space).matrix
    quad = averaged_pump_superoperator(
        params, space, TimeMeasure.gauss_laguerre(160)
    ).matrix
    assert np.abs(closed - quad).max() < 1e-10
