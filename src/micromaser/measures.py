"""Interaction-time probability measures and their orthonormal polynomials.

Times are handled in the dimensionless variable x = tau / tau_bar, so the
exponential measure has density e^{-x} dx and moments n!.  Polynomials
f_0, f_1, ... are orthonormal under the measure and expansions
x^n = sum_k a_nk f_k(x) carry the model coefficients downstream.

A basis is its three-term recurrence (Jacobi matrix J), from which values,
monomial coefficients and a_nk = (J^n)_{k0} all derive; the moments are the
independent route that checks it at low degree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

WEIGHT_SUM_TOL = 1e-12
MEAN_TOL = 1e-10
MAX_DEGREE = 64  # highest basis degree (and weak-series order) that is tested
AVERAGE_NODES = 200  # Gauss-Laguerre nodes of `average` on the exponential measure


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
        from scipy.special import roots_laguerre  # here: scipy costs every import 0.5 s

        x, w = roots_laguerre(n_nodes)
        # beyond ~170 nodes the outermost weights underflow to 0; they carry
        # no quadrature information, so drop them rather than reject them
        keep = w > 0
        x, w = x[keep], w[keep]
        w = w / w.sum()  # remove O(eps) drift so the weight invariant holds
        return cls("quadrature", tau_bar, x, w)

    @property
    def support_size(self) -> int | None:
        """Number of distinct support points, or None for a continuous measure."""
        return None if self.kind == "exponential" else int(np.unique(self.nodes).size)


def moment(measure: TimeMeasure, n: int) -> float:
    """n-th moment of x = tau/tau_bar; exact n! for the exponential measure."""
    if n < 0:
        raise ValueError("moment order must be nonnegative")
    if measure.kind == "exponential":
        return float(math.factorial(n))  # OverflowError for huge n is the report
    return float(measure.weights @ measure.nodes**n)


def average(measure: TimeMeasure, fn) -> float | np.ndarray:
    """Integrate fn(x) against the measure; exponential falls back to
    AVERAGE_NODES-point Gauss-Laguerre quadrature."""
    if measure.kind == "exponential":
        from scipy.special import roots_laguerre

        x, w = roots_laguerre(AVERAGE_NODES)
    else:
        x, w = measure.nodes, measure.weights
    vals = np.asarray([fn(xi) for xi in x])
    return np.tensordot(w, vals, axes=(0, 0))


@dataclass(frozen=True)
class OrthoBasis:
    """Polynomials f_0..f_K orthonormal under the measure, stored as the
    recurrence x f_k = b_{k+1} f_{k+1} + a_k f_k + b_k f_{k-1} (f_0 = 1,
    b[0] = 0): b_k < 0 gives f_k the leading sign (-1)^k (f_1 = 1 - x for the
    exponential measure).  `inner` is the independent route, via moments."""

    measure: TimeMeasure
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)

    @property
    def degree(self) -> int:
        return self.a.size - 1

    def evaluate(self, k: int, x):
        """f_k at points x, or as a numpy Polynomial when x is one."""
        if not isinstance(x, np.polynomial.Polynomial):
            x = np.asarray(x, dtype=float)
        prev, cur = 0.0 * x, x**0
        for j in range(k):
            prev, cur = cur, ((x - self.a[j]) * cur - self.b[j] * prev) / self.b[j + 1]
        return cur

    @functools.cached_property
    def coeffs(self) -> tuple:
        """coeffs[k][j] multiplies x^j in f_k; for display and low degrees."""
        x = np.polynomial.Polynomial([0.0, 1.0])
        return tuple(self.evaluate(k, x).coef for k in range(self.degree + 1))

    def inner(self, poly_a: np.ndarray, poly_b: np.ndarray) -> float:
        """Measure inner product of two monomial coefficient vectors."""
        acc = 0.0
        for i, ca in enumerate(poly_a):
            if ca == 0.0:
                continue
            for j, cb in enumerate(poly_b):
                if cb != 0.0:
                    acc += ca * cb * moment(self.measure, i + j)
        return acc


def build_basis(measure: TimeMeasure, degree: int) -> OrthoBasis:
    """Exact Laguerre recurrence a_k = 2k + 1, b_k = -k for the exponential
    measure; otherwise the discretized Stieltjes procedure on sqrt(w_i) f_k(x_i)
    (Gautschi, Orthogonal Polynomials, OUP 2004, sec. 2.2).  Fewer than
    degree+1 distinct support points raise DegenerateMeasureError."""
    if not 0 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in 0..{MAX_DEGREE}, got {degree}")
    if measure.kind == "exponential":
        k = np.arange(degree + 1, dtype=float)
        return OrthoBasis(measure, 2.0 * k + 1.0, -k)
    support = measure.support_size
    if support < degree + 1:
        raise DegenerateMeasureError(
            f"measure with {support} support points cannot build degree {degree}"
        )
    x = measure.nodes
    a, b = np.zeros(degree + 1), np.zeros(degree + 1)
    prev, cur = np.zeros_like(x), np.sqrt(measure.weights)
    for k in range(degree + 1):
        a[k] = x @ cur**2
        if k < degree:
            resid = (x - a[k]) * cur - b[k] * prev
            b[k + 1] = -np.linalg.norm(resid)
            prev, cur = cur, resid / b[k + 1]
    return OrthoBasis(measure, a, b)


def expansion_coeffs(basis: OrthoBasis, n: int) -> np.ndarray:
    """Coefficients a_nk = (J^n)_{k0} of x^n = sum_k a_nk f_k(x).

    For n beyond the basis degree the identity can only hold when the basis
    already spans L2 of the measure (finite support <= degree+1 points).
    """
    if n > basis.degree:
        support = basis.measure.support_size
        if support is None or support > basis.degree + 1:
            raise ValueError(
                f"x^{n} is not in the span of a degree-{basis.degree} basis"
            )
    off = np.diag(basis.b[1:], 1)
    return np.linalg.matrix_power(np.diag(basis.a) + off + off.T, n)[:, 0]


def cross_moment_identity(basis: OrthoBasis, n: int, m: int) -> float:
    """sum_k a_nk a_mk, which must reproduce moment(n+m) of the measure."""
    a_n = expansion_coeffs(basis, n)
    a_m = expansion_coeffs(basis, m)
    return float(a_n @ a_m)
