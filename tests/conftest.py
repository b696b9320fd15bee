import math
import os
from pathlib import Path

# One BLAS thread unless the caller sets its own: the tests' small dense
# products lose more to OpenBLAS thread hand-offs than they gain.  It must
# be set before numpy loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from micromaser.fock import TruncatedSpace
from micromaser.oracle import annihilation
from micromaser.steady import solve_pump_axis


SRC = Path(__file__).resolve().parents[1] / "src"


def checkout_env() -> dict:
    """The caller's environment with this checkout's src first on PYTHONPATH,
    so that a subprocess runs the code under test, not an installed copy."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def searched(build, params) -> TruncatedSpace:
    """The truncation search's n_max for one pump at kappa 1 (solve_pump_axis)."""
    axis = solve_pump_axis(build(params, TruncatedSpace(1)), 1.0)
    assert axis.status == ["ok"], axis.status
    return TruncatedSpace(int(axis.n_max[0]))


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def random_density(space: TruncatedSpace, rng, envelope: float = 0.5) -> np.ndarray:
    """Random full-rank density matrix with amplitudes decaying up the ladder.

    The e^{-envelope n} profile keeps the top levels nearly empty so that
    truncation artifacts stay below test tolerances.
    """
    n = np.arange(space.dim)
    weights = np.exp(-envelope * n)
    g = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal(
        (space.dim, space.dim)
    )
    g = weights[:, None] * g
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def coherent_density(space: TruncatedSpace, amplitude: float) -> np.ndarray:
    """Truncated coherent state |alpha><alpha|, renormalized on the space."""
    n = np.arange(space.dim)
    amp = np.array(
        [amplitude**k / math.sqrt(math.factorial(k)) for k in n], dtype=float
    )
    amp *= np.exp(-(amplitude**2) / 2.0)
    amp /= np.linalg.norm(amp)
    return np.outer(amp, amp)


def reference_weak_operators(params, space, q=0.5):
    """The closed-form Lindblad family of the third-order expansion, written
    out literally, including the identity offset that must drop out."""
    a = annihilation(space)
    ad = a.T
    eye = np.eye(space.dim)
    p_op = a @ ad
    gt = params.g_tau_bar
    u = params.u
    sr = math.sqrt(params.r)
    c0 = sr * u * (eye / (1.0 - q) - p_op)
    return [
        c0,
        -2.0 * c0,
        c0,
        sr * gt * ad @ (eye - u * p_op),
        -sr * gt * ad @ (eye - 3.0 * u * p_op),
        math.sqrt(10.0 * params.r) * gt**3 * (ad @ a @ ad),
    ]
