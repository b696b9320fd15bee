"""Micromaser steady states: five master-equation treatments of a cavity
pumped by a stream of excited two-level atoms, on a truncated Fock space.

The exact coarse-grained theory, its fourth-order expansion (not of
Lindblad form), two Lindblad-by-construction series treatments, and a
saturated-gain heuristic all expose the same interface: build a model,
assemble or apply its generator, solve for the steady state, and read off
photon statistics and the phase-diffusion linewidth.

This namespace is the product.  The independent dense references that the
tests compare it with (ladder operators, Kraus sets, Lindblad operator
lists, the series generators) live in `micromaser.oracle`, which no module
of the package imports: import them from there.
"""

from .fock import Superoperator, TruncatedSpace, unvec, vec
from .measures import (
    DegenerateMeasureError,
    OrthoBasis,
    TimeMeasure,
    build_basis,
    cross_moment_identity,
    expansion_coeffs,
)
from .models import (
    EXACT,
    HEURISTIC,
    MODEL_NAMES,
    MODELS,
    POST4,
    UNIFORM,
    WEAK,
    GeneratorModel,
    assemble,
    exact_model,
    expansion_cutoff,
    fourth_order_model,
    general_weak_model,
    heuristic_model,
    uniform_model,
    weak_coupling_model,
)
from .observables import (
    LinewidthResult,
    PhotonMoments,
    distribution_distance,
    linewidth,
    linewidth_fd,
    moments,
    semiclassical_intensity,
)
from .pump import PumpParameters
from .steady import (
    DegenerateSteadyStateError,
    PhotonStatistics,
    PumpAxis,
    SteadyStateError,
    nullspace_steady,
    recurrence_steady,
    solve_pump_axis,
)

__version__ = "0.1.0"

__all__ = [
    "Superoperator",
    "TruncatedSpace",
    "unvec",
    "vec",
    "DegenerateMeasureError",
    "OrthoBasis",
    "TimeMeasure",
    "build_basis",
    "cross_moment_identity",
    "expansion_coeffs",
    "EXACT",
    "HEURISTIC",
    "MODEL_NAMES",
    "MODELS",
    "POST4",
    "UNIFORM",
    "WEAK",
    "GeneratorModel",
    "assemble",
    "exact_model",
    "expansion_cutoff",
    "fourth_order_model",
    "general_weak_model",
    "heuristic_model",
    "uniform_model",
    "weak_coupling_model",
    "LinewidthResult",
    "PhotonMoments",
    "distribution_distance",
    "linewidth",
    "linewidth_fd",
    "moments",
    "semiclassical_intensity",
    "PumpParameters",
    "DegenerateSteadyStateError",
    "PhotonStatistics",
    "PumpAxis",
    "SteadyStateError",
    "nullspace_steady",
    "recurrence_steady",
    "solve_pump_axis",
    "__version__",
]
