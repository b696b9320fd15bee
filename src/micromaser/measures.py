"""Interaction-time probability measures and their orthonormal polynomials.

Times are handled in the dimensionless variable x = tau / tau_bar, so the
exponential measure has density e^{-x} dx and moments n!.  Polynomials
f_0, f_1, ... are orthonormal under the measure and expansions
x^n = sum_k a_nk f_k(x) carry the model coefficients downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_laguerre

WEIGHT_SUM_TOL = 1e-12
MEAN_TOL = 1e-10


class DegenerateMeasureError(RuntimeError):
    """Raised when a measure cannot support the requested polynomial degree."""


@dataclass(frozen=True)
class TimeMeasure:
    """Probability measure for the atom-field interaction time.

    kind is 'exponential' (density e^{-x}, moments exact), 'discrete'
    (finitely many atoms tau_j with weights) or 'quadrature' (nodes/weights
    standing in for a continuous density).  nodes are stored in x units.
    """

    kind: str
    tau_bar: float
    nodes: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("exponential", "discrete", "quadrature"):
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.tau_bar <= 0:
            raise ValueError("tau_bar must be positive")
        if self.kind != "exponential":
            if self.nodes is None or self.weights is None:
                raise ValueError(f"{self.kind} measure needs nodes and weights")
            w = np.asarray(self.weights, dtype=float)
            x = np.asarray(self.nodes, dtype=float)
            if w.shape != x.shape or w.ndim != 1 or w.size == 0:
                raise ValueError("nodes and weights must be matching 1-d arrays")
            if np.any(w <= 0) or np.any(x < 0):
                raise ValueError("weights must be positive and nodes nonnegative")
            if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
                raise ValueError(f"weights must sum to 1, defect {abs(w.sum()-1.0):.3e}")
            if abs(float(w @ x) - 1.0) > MEAN_TOL:
                raise ValueError(
                    f"first moment must equal tau_bar (x-mean 1), got {float(w @ x):.12f}"
                )
            object.__setattr__(self, "nodes", x)
            object.__setattr__(self, "weights", w)

    @classmethod
    def exponential(cls, tau_bar: float = 1.0) -> "TimeMeasure":
        return cls("exponential", tau_bar)

    @classmethod
    def discrete(cls, taus, weights, tau_bar: float | None = None) -> "TimeMeasure":
        """Measure of point atoms at the given times (in tau units)."""
        taus = np.asarray(taus, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if tau_bar is None:
            tau_bar = float(weights @ taus)
        return cls("discrete", tau_bar, taus / tau_bar, weights)

    @classmethod
    def gauss_laguerre(cls, n_nodes: int, tau_bar: float = 1.0) -> "TimeMeasure":
        """Quadrature stand-in for the exponential measure."""
        x, w = roots_laguerre(n_nodes)
        # beyond ~170 nodes the outermost weights underflow to 0; they carry
        # no quadrature information, so drop them rather than reject them
        keep = w > 0
        x, w = x[keep], w[keep]
        w = w / w.sum()  # remove O(eps) drift so the weight invariant holds
        return cls("quadrature", tau_bar, x, w)

    @property
    def support_size(self) -> int | None:
        """Number of support points, or None for an absolutely continuous measure."""
        return None if self.kind == "exponential" else int(self.nodes.size)


def moment(measure: TimeMeasure, n: int) -> float:
    """n-th moment of x = tau/tau_bar; exact n! for the exponential measure."""
    if n < 0:
        raise ValueError("moment order must be nonnegative")
    if measure.kind == "exponential":
        return float(math.factorial(n))  # OverflowError for huge n is the report
    return float(measure.weights @ measure.nodes**n)


def average(measure: TimeMeasure, fn, n_nodes: int = 200) -> float | np.ndarray:
    """Integrate fn(x) against the measure; exponential falls back to quadrature."""
    if measure.kind == "exponential":
        x, w = roots_laguerre(n_nodes)
    else:
        x, w = measure.nodes, measure.weights
    vals = np.asarray([fn(xi) for xi in x])
    return np.tensordot(w, vals, axes=(0, 0))


@dataclass(frozen=True)
class OrthoBasis:
    """Polynomials f_0..f_K orthonormal under the measure.

    coeffs[k][j] is the coefficient of x^j in f_k; leading coefficients
    carry sign (-1)^k (so f_1 = 1 - x for the exponential measure).
    """

    measure: TimeMeasure
    degree: int
    coeffs: tuple = field(repr=False)

    def evaluate(self, k: int, x) -> np.ndarray:
        c = self.coeffs[k]
        return np.polyval(c[::-1], np.asarray(x, dtype=float))

    def inner(self, poly_a: np.ndarray, poly_b: np.ndarray) -> float:
        """Measure inner product of two coefficient vectors."""
        return _monomial_inner(self.measure, poly_a, poly_b)


def _monomial_inner(measure: TimeMeasure, pa: np.ndarray, pb: np.ndarray) -> float:
    acc = 0.0
    for i, ca in enumerate(pa):
        if ca == 0.0:
            continue
        for j, cb in enumerate(pb):
            if cb != 0.0:
                acc += ca * cb * moment(measure, i + j)
    return acc


def build_basis(measure: TimeMeasure, degree: int) -> OrthoBasis:
    """Gram-Schmidt over {1, x, ..., x^degree} in the measure inner product.

    A second orthogonalization pass keeps the basis numerically orthonormal
    for the factorial-growth moments of the exponential measure.  Measures
    with fewer than degree+1 support points cannot carry the requested
    degree and raise DegenerateMeasureError.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    support = measure.support_size
    if support is not None and support < degree + 1:
        raise DegenerateMeasureError(
            f"measure with {support} support points cannot build degree {degree}"
        )
    basis: list[np.ndarray] = []
    scale = 1.0
    for k in range(degree + 1):
        poly = np.zeros(k + 1)
        poly[k] = 1.0  # start from the monomial x^k
        for _ in range(2):  # repeated Gram-Schmidt for numerical orthogonality
            for f in basis:
                proj = _monomial_inner(measure, poly, f)
                poly[: f.size] -= proj * f
        norm_sq = _monomial_inner(measure, poly, poly)
        if norm_sq <= 1e-24 * scale:
            raise DegenerateMeasureError(
                f"Gram matrix degenerate at degree {k} (norm^2 = {norm_sq:.3e})"
            )
        poly = poly / math.sqrt(norm_sq)
        if k == 0:
            scale = norm_sq
        # leading-coefficient sign convention (-1)^k
        if poly[k] * (-1.0) ** k < 0:
            poly = -poly
        basis.append(poly)
    return OrthoBasis(measure, degree, tuple(basis))


def expansion_coeffs(basis: OrthoBasis, n: int) -> np.ndarray:
    """Coefficients a_nk of x^n = sum_k a_nk f_k(x) under the basis measure.

    For n beyond the basis degree the identity can only hold when the basis
    already spans L2 of the measure (finite support <= degree+1 points).
    """
    measure = basis.measure
    if n > basis.degree:
        support = measure.support_size
        if support is None or support > basis.degree + 1:
            raise ValueError(
                f"x^{n} is not in the span of a degree-{basis.degree} basis"
            )
    mono = np.zeros(n + 1)
    mono[n] = 1.0
    return np.array(
        [_monomial_inner(measure, mono, basis.coeffs[k]) for k in range(basis.degree + 1)]
    )


def cross_moment_identity(basis: OrthoBasis, n: int, m: int) -> float:
    """sum_k a_nk a_mk, which must reproduce moment(n+m) of the measure."""
    a_n = expansion_coeffs(basis, n)
    a_m = expansion_coeffs(basis, m)
    return float(a_n @ a_m)
