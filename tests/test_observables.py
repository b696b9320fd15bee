import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from micromaser.fock import TruncatedSpace
from micromaser.models import assemble, exact_model, heuristic_model
from micromaser.observables import (
    LinewidthResult,
    _row_dots,
    band_linewidths,
    distribution_distance,
    linewidth,
    linewidth_fd,
    moment_columns,
    moments,
    semiclassical_intensity,
)
from micromaser.oracle import from_matrix, loss_dissipator
from micromaser.pump import PumpParameters
from micromaser.steady import nullspace_steady, recurrence_steady

from conftest import coherent_density

KAPPA = 1.0


def poisson(mean, n_max):
    n = np.arange(n_max + 1)
    logp = n * math.log(mean) - mean - np.array([math.lgamma(k + 1) for k in n])
    p = np.exp(logp)
    return p / p.sum()


def thermal(mean, n_max):
    x = mean / (1 + mean)
    p = (1 - x) * x ** np.arange(n_max + 1)
    return p / p.sum()


def test_moments_poisson_is_poissonian():
    m = moments(poisson(7.3, 120))
    assert m.mean_n == pytest.approx(7.3, rel=1e-10)
    assert m.variance == pytest.approx(7.3, rel=1e-10)
    assert abs(m.mandel_q) < 1e-9


def test_moments_thermal_super_poissonian():
    m = moments(thermal(4.0, 400))
    assert m.mean_n == pytest.approx(4.0, rel=1e-8)
    assert m.mandel_q == pytest.approx(4.0, rel=1e-7)


def test_moments_number_state_sub_poissonian():
    p = np.zeros(9)
    p[5] = 1.0
    m = moments(p)
    assert m.mean_n == 5.0
    assert m.variance == 0.0
    assert m.mandel_q == -1.0


def test_moments_vacuum_q_undefined():
    p = np.zeros(4)
    p[0] = 1.0
    m = moments(p)
    assert m.mean_n == 0.0
    assert math.isnan(m.mandel_q)


@pytest.mark.parametrize("rows", [0, 5])
@pytest.mark.parametrize("width", [0, 1, 7, 8, 16, 17, 32, 33, 66, 2236])
def test_row_dots_equal_one_dot_per_row_bitwise(width, rows, rng):
    """The batched row dots against ndarray.dot per row, bit for bit: a
    matrix-vector product, which sums in another order, differs from width
    17 up, and one last bit of a moment moves a near-zero Mandel Q."""
    vector = rng.standard_normal(width)
    matrix = rng.standard_normal((rows, width))
    got = _row_dots(vector, matrix)
    want = np.array([vector.dot(row) for row in matrix], dtype=float)
    assert got.shape == (rows,)
    assert got.tobytes() == want.tobytes()


def test_moment_columns_equal_the_one_row_formula(rng):
    """Every row as the one-distribution formula gives it, bit for bit: a
    dot product per row and the mean squared by Python's float **.  Over
    this many random means NumPy's square differs from it in some."""
    p = rng.random((20000, 12))
    p /= p.sum(axis=1, keepdims=True)
    p[0] = 0.0  # a zero mean: Mandel Q is undefined
    mean, variance, mandel_q = moment_columns(p)
    n = np.arange(12, dtype=float)
    for k, row in enumerate(p):
        row_mean = float(n @ row)
        row_variance = float((n * n) @ row) - row_mean**2
        assert (mean[k], variance[k]) == (row_mean, row_variance)
        if row_mean > 0:
            assert mandel_q[k] == row_variance / row_mean - 1.0
        else:
            assert math.isnan(mandel_q[k])
    one = moments(p[7])
    assert (one.mean_n, one.variance, one.mandel_q) == (mean[7], variance[7], mandel_q[7])


def test_semiclassical_intensity_threshold_clamp():
    assert semiclassical_intensity(0.5, 1.0, 0.01) == 0.0
    assert semiclassical_intensity(1.0, 1.0, 0.01) == 0.0
    assert semiclassical_intensity(2.0, 1.0, 4 * 0.03**2) == pytest.approx(
        1.0 / (4 * 0.03**2)
    )


@pytest.mark.parametrize(
    "gain, beta, message",
    [
        (math.nan, 0.1, "gain must be nonnegative and finite, got nan"),
        (-1.0, 0.1, "gain must be nonnegative and finite, got -1.0"),
        (math.inf, 0.1, "gain must be nonnegative and finite, got inf"),
        (2.0, math.inf, "beta must be positive and finite, got inf"),
    ],
)
def test_semiclassical_intensity_takes_a_gain_and_beta_by_the_rules(gain, beta, message):
    """They used to give nan, 0.0, inf and 0.0."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        semiclassical_intensity(gain, KAPPA, beta)


def test_distribution_distance_properties():
    p = np.array([0.5, 0.5])
    q = np.array([0.0, 0.5, 0.5])
    assert distribution_distance(p, p) == 0.0
    assert distribution_distance(p, q) == pytest.approx(0.5)
    disjoint = np.array([0.0, 0.0, 1.0])
    assert distribution_distance(p, disjoint) == pytest.approx(1.0)
    assert distribution_distance(np.array([1.0]), np.array([0.0, 1.0])) == 1.0
    assert distribution_distance(p, q) == distribution_distance(q, p)


def test_distribution_distance_takes_one_distribution_per_argument():
    """A (2, 3) array, two pumps' rows, used to end in NumPy's broadcast
    error; a (1, 3) row is one distribution, as moments takes it."""
    p = np.array([0.5, 0.5, 0.0])
    assert distribution_distance(p[None, :], [0.0, 1.0]) == distribution_distance(p, [0.0, 1.0])
    two_pumps = np.stack([p, p[::-1]])
    message = re.escape("one pump value needed, got q of shape (2, 3)")
    with pytest.raises(ValueError, match=message):
        distribution_distance(p, two_pumps)
    with pytest.raises(ValueError, match=message.replace("q", "p")):
        distribution_distance(two_pumps, p)


def test_linewidth_pure_loss_is_kappa():
    """With no pump the field correlation decays at exactly kappa/2, so the
    full width D equals kappa independent of the state."""
    space = TruncatedSpace(12)
    gen = loss_dissipator(KAPPA, space)
    rho = coherent_density(space, 1.2)
    res = linewidth(gen, rho, KAPPA)
    assert isinstance(res, LinewidthResult)
    assert res.D == pytest.approx(KAPPA, rel=1e-12)


def test_linewidth_matches_finite_difference_oracle():
    params = PumpParameters.from_pump(0.9, 0.15, KAPPA)
    space = TruncatedSpace(30)
    model = exact_model(params, space)
    gen = assemble(model, KAPPA)
    rho = nullspace_steady(gen)
    direct = linewidth(gen, rho, KAPPA)
    fd = linewidth_fd(gen, rho, KAPPA)
    assert direct.D == pytest.approx(fd.D, rel=1e-7)
    assert direct.normalized_D == pytest.approx(direct.D * direct.mean_n / KAPPA)


def test_linewidth_of_a_complex_diagonal_state_is_positive():
    params = PumpParameters.from_pump(0.9, 0.15, KAPPA)
    space = TruncatedSpace(25)
    model = heuristic_model(params.gain_rate, 4 * params.u, space)
    stats = recurrence_steady(model.gain_ratio(KAPPA), space)
    rho = np.diag(stats.p).astype(complex)
    res = linewidth(assemble(model, KAPPA), rho, KAPPA)
    assert res.D > 0


@pytest.mark.parametrize("route", [linewidth, linewidth_fd])
def test_a_dense_linewidth_reads_the_state_of_any_trace(route):
    """mean_n and normalized_D used to scale with the trace of rho_ss
    (mean_n 22.31 for 2 rho here, against 11.15), while D did not."""
    space = TruncatedSpace(30)
    gen = assemble(exact_model(PumpParameters.from_pump(2.0, 0.15, KAPPA), space), KAPPA)
    rho = nullspace_steady(gen)
    want = route(gen, rho, KAPPA)
    for scale in (2.0, 0.5, 3.0):
        got = route(gen, scale * rho, KAPPA)
        for name in ("D", "normalized_D", "mean_n"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("route", [linewidth, linewidth_fd])
@pytest.mark.parametrize("trace", [0.0, math.nan, math.inf])
def test_a_dense_linewidth_refuses_a_trace_that_is_zero_or_not_finite(route, trace):
    space = TruncatedSpace(6)
    gen = assemble(exact_model(PumpParameters.from_pump(2.0, 0.15, KAPPA), space), KAPPA)
    rho = np.diag([trace, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="a state needs a finite trace that is not zero"):
        route(gen, rho, KAPPA)


@pytest.mark.parametrize("kappa", [0.0, -1.0, math.inf, math.nan])
def test_every_linewidth_route_rejects_a_kappa_that_is_not_positive_and_finite(kappa):
    """Every route divides by kappa.  The band route did not check it: kappa
    0 gave normalized_D -inf with a RuntimeWarning, -1 a finite D of -1.90."""
    space = TruncatedSpace(30)
    model = exact_model(PumpParameters.from_pump(2.0, 0.15, KAPPA), space)
    p = recurrence_steady(model.gain_ratio(KAPPA), space).p
    generator, rho = assemble(model, KAPPA), np.diag(p)
    routes = [
        lambda: band_linewidths(model, p[None, :], moment_columns(p)[0], kappa),
        lambda: linewidth(generator, rho, kappa),
        lambda: linewidth_fd(generator, rho, kappa),
        lambda: semiclassical_intensity(2.0, kappa, 0.1),
    ]
    message = f"^{re.escape(f'kappa must be positive and finite, got {kappa}')}$"
    for route in routes:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                route()


@pytest.mark.parametrize("shape", [(8, 8), (40,), (3, 3), (6,)])
def test_the_dense_entries_refuse_an_array_of_another_shape(shape):
    """On a 6-level generator an 8 x 8 matrix or a 40-entry vector used to
    give a 6 x 6 result without a word, and a 3 x 3 matrix an IndexError.
    A populations vector is no density matrix either: diag(p) is."""
    space = TruncatedSpace(5)
    model = exact_model(PumpParameters.from_pump(0.9, 0.15, KAPPA), space)
    generator = assemble(model, KAPPA)
    message = re.escape(f"the generator acts on matrices of shape (6, 6), got {shape}")
    for entry in (
        generator.apply,
        lambda rho: model.apply(rho, KAPPA),
        lambda rho: linewidth(generator, rho, KAPPA),
        lambda rho: linewidth_fd(generator, rho, KAPPA),
    ):
        for rho in (np.full(shape, 0.1), np.full(shape, 0.1 + 0.1j)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                entry(rho)


@pytest.mark.parametrize(
    "route, given, error, match",
    [
        (linewidth, "callable", TypeError, r"assemble\(model, kappa\)"),
        (linewidth, "model", TypeError, r"assemble\(model, kappa\)"),
        (linewidth_fd, "callable", TypeError, r"assemble\(model, kappa\)"),
        (linewidth_fd, "model", TypeError, r"assemble\(model, kappa\)"),
        (linewidth_fd, "zero", ValueError, "zero"),
    ],
    ids=["callable", "model", "fd-callable", "fd-model", "fd-zero"],
)
def test_a_density_matrix_needs_an_assembled_nonzero_generator(route, given, error, match):
    space = TruncatedSpace(6)
    model = exact_model(PumpParameters.from_pump(0.9, 0.15, KAPPA), space)
    generator = {
        "callable": lambda r: model.apply(r, KAPPA),
        "model": model,
        "zero": from_matrix(space, np.zeros((space.dim**2, space.dim**2))),
    }[given]
    with pytest.raises(error, match=match):
        route(generator, coherent_density(space, 1.0), KAPPA)


def test_dense_route_holds_no_square_array():
    """assemble, nullspace_steady and linewidth_fd at n_max 30 stay below a
    quarter of one (n_max+1)^2 x (n_max+1)^2 float array (7.4 MB): the
    generator is held as its nonzero entries, and no step densifies it."""
    params = PumpParameters.from_pump(2.0, 0.05, KAPPA)
    space = TruncatedSpace(30)
    model = exact_model(params, space)
    tracemalloc.start()
    try:
        gen = assemble(model, KAPPA)
        rho = nullspace_steady(gen)
        res = linewidth_fd(gen, rho, KAPPA)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.D > 0
    assert peak < space.dim**4 * 8 / 4


def test_dense_route_at_a_truncation_no_square_array_could_hold():
    """The README quickstart (n_max 271), where a dense generator would take
    41 GiB: the nullspace populations are the recurrence's, and the linewidth
    on the assembled generator is the band linewidth on the populations."""
    params = PumpParameters.from_pump(0.9, 0.15, KAPPA)
    space = TruncatedSpace(271)
    model = exact_model(params, space)
    gen = assemble(model, KAPPA)
    rho = nullspace_steady(gen)
    p = recurrence_steady(model.gain_ratio(KAPPA), space).p
    assert np.abs(np.diagonal(rho).real - p).max() < 1e-10
    band = band_linewidths(model, p, moment_columns(p)[0], KAPPA)
    assert linewidth(gen, rho, KAPPA).D == pytest.approx(band.D[0], rel=1e-9)


def test_linewidth_rejects_empty_cavity():
    space = TruncatedSpace(6)
    gen = loss_dissipator(KAPPA, space)
    vac = np.zeros((7, 7), dtype=complex)
    vac[0, 0] = 1.0
    with pytest.raises(ValueError, match="undefined"):
        linewidth(gen, vac, KAPPA)
    with pytest.raises(ValueError, match="undefined"):
        linewidth_fd(gen, vac, KAPPA)


def test_fd_oracle_on_pure_loss():
    space = TruncatedSpace(10)
    gen = loss_dissipator(KAPPA, space)
    rho = coherent_density(space, 0.9)
    fd = linewidth_fd(gen, rho, KAPPA)
    assert fd.D == pytest.approx(KAPPA, rel=1e-7)
