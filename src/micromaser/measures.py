"""Interaction-time probability measures and their orthonormal polynomials.

Times are handled in the dimensionless variable x = tau / tau_bar, the only
form in which the physics reads them, so a measure stores no tau_bar: it is
either the exponential measure, density e^{-x} dx with moments n!, or
weights on finitely many nodes with x-mean 1.  Polynomials
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


class DegenerateMeasureError(RuntimeError):
    """Raised when a measure cannot support the requested polynomial degree."""


@dataclass(frozen=True)
class TimeMeasure:
    """Probability measure for the atom-field interaction time, in x units.

    Without nodes it is the exponential measure (density e^{-x}, moments
    exact).  Otherwise it puts weights on finitely many nodes: point atoms
    at fixed times, or a quadrature standing in for a continuous density;
    every function treats the two alike.  The x-mean of a node measure is 1.
    """

    nodes: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.nodes is None and self.weights is None:
            return
        if self.nodes is None or self.weights is None:
            raise ValueError("a node measure needs nodes and weights")
        w = np.asarray(self.weights, dtype=float)
        x = np.asarray(self.nodes, dtype=float)
        if w.shape != x.shape or w.ndim != 1 or w.size == 0:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if not (np.all(w > 0) and np.all(x >= 0)):  # NaN fails both
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
    def exponential(cls) -> "TimeMeasure":
        return cls()

    @classmethod
    def discrete(cls, taus, weights) -> "TimeMeasure":
        """Measure of point atoms at the given times, in any unit: they are
        divided by their mean, which is tau_bar."""
        taus = np.asarray(taus, dtype=float)
        weights = np.asarray(weights, dtype=float)
        mean = float(weights @ taus)
        if not mean > 0:
            raise ValueError(f"times must have a positive mean, got {mean}")
        return cls(taus / mean, weights)

    @classmethod
    def gauss_laguerre(cls, n_nodes: int) -> "TimeMeasure":
        """Quadrature stand-in for the exponential measure."""
        from scipy.special import roots_laguerre  # here: scipy costs every import 0.5 s

        x, w = roots_laguerre(n_nodes)
        # beyond ~170 nodes the outermost weights underflow to 0; they carry
        # no quadrature information, so drop them rather than reject them
        keep = w > 0
        x, w = x[keep], w[keep]
        w = w / w.sum()  # remove O(eps) drift so the weight invariant holds
        return cls(x, w)

    @property
    def support_size(self) -> int | None:
        """Number of distinct support points, or None for a continuous measure."""
        return None if self.nodes is None else int(np.unique(self.nodes).size)


def moment(measure: TimeMeasure, n: int) -> float:
    """n-th moment of x = tau/tau_bar; exact n! for the exponential measure."""
    if n < 0:
        raise ValueError("moment order must be nonnegative")
    if measure.nodes is None:
        return float(math.factorial(n))  # OverflowError for huge n is the report
    return float(measure.weights @ measure.nodes**n)


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
    if measure.nodes is None:
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
