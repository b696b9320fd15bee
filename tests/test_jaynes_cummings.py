"""`exact` against its first-principles referee, oracle.jaynes_cummings_band:
the Jaynes-Cummings blocks averaged on the measure's nodes, sharing no code
with the models, the pump averages or the band route.  The exponential
measure takes 100 Gauss-Laguerre nodes (60 leave a TV distance of 2.3e-10
at g tau_bar 0.03, pump 8)."""

import numpy as np
import pytest

from micromaser.fock import TruncatedSpace
from micromaser.measures import TimeMeasure
from micromaser.models import exact_model
from micromaser.oracle import jaynes_cummings_band
from micromaser.pump import PumpParameters
from micromaser.steady import solve_pump_axis

from conftest import searched

LAGUERRE = np.polynomial.laguerre.laggauss(100)
TWO_POINT = TimeMeasure.discrete([0.5, 1.5], [0.5, 0.5])
CELLS = {  # (g tau_bar, pump, measure), measure None for the exponential one
    "0.15_pump_0.9": (0.15, 0.9, None),
    "0.15_pump_3.5": (0.15, 3.5, None),
    "0.03_pump_3": (0.03, 3.0, None),
    "0.03_pump_8": (0.03, 8.0, None),
    "two_point_0.15_pump_3": (0.15, 3.0, TWO_POINT),
}
# about 10x the worst error over CELLS at 2N + 200, which is given after each
TV_TOL = 1.5e-10  # 1.3e-11, at 0.03, pump 8
MOMENT_TOL = 2e-11  # relative: mean 1.5e-12, variance 1.9e-12, both at 0.15, pump 0.9
D_TOL = 3.5e-10  # relative: 3.4e-11, at 0.03, pump 8
D_TWO_POINT_TOL = 1e-12  # relative: 7.1e-14


def product_and_referee(g_tau_bar, pump, measure, extra_levels: bool):
    """The product's pump axis and the referee's (p, D) on one truncation:
    the search's n_max N, or 2N + 200 with extra_levels, where the
    truncation's own error in D is below rounding."""
    params = PumpParameters.from_pump(pump, g_tau_bar)
    n_max = searched(lambda prm, space: exact_model(prm, space, measure), params).n_max
    if extra_levels:
        n_max = 2 * n_max + 200
    model = exact_model(params, TruncatedSpace(1), measure)
    axis = solve_pump_axis(model, 1.0, truncation=n_max, linewidth=True)
    assert axis.status == ["ok"], axis.status
    nodes, weights = LAGUERRE if measure is None else (measure.nodes, measure.weights)
    return axis, jaynes_cummings_band(g_tau_bar, params.r, 1.0, n_max, nodes, weights)


@pytest.mark.parametrize("cell", CELLS)
def test_exact_matches_the_jaynes_cummings_referee_well_past_its_truncation(cell):
    g_tau_bar, pump, measure = CELLS[cell]
    axis, (p, d_rate) = product_and_referee(g_tau_bar, pump, measure, extra_levels=True)
    n = np.arange(p.size, dtype=float)
    mean = n @ p
    assert 0.5 * np.abs(p - axis.p[0]).sum() < TV_TOL
    assert mean == pytest.approx(axis.mean_n[0], rel=MOMENT_TOL, abs=0)
    assert (n * n) @ p - mean**2 == pytest.approx(axis.variance[0], rel=MOMENT_TOL, abs=0)
    tol = D_TOL if measure is None else D_TWO_POINT_TOL
    assert d_rate == pytest.approx(axis.D[0], rel=tol, abs=0)


@pytest.mark.xfail(reason="ROADMAP item 10", strict=True)
def test_exact_matches_the_jaynes_cummings_referee_at_its_own_truncation():
    """At the search's own N the band drops the gain out of the top level
    and the feed past it, which the referee keeps: D is off by 1.1e-7
    (0.15, pump 3.5), 3.8e-5 (0.03, pump 3) and 1.9e-4 (0.03, pump 8)."""
    errors = {}
    for cell in ("0.15_pump_3.5", "0.03_pump_3", "0.03_pump_8"):
        axis, (_, d_rate) = product_and_referee(*CELLS[cell], extra_levels=False)
        errors[cell] = abs(axis.D[0] / d_rate - 1.0)
    assert max(errors.values()) < D_TOL, errors
