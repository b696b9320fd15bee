"""The truncated Fock space and the one dense layout of operators on it.

A density matrix rho on the space is vectorized by stacking its columns
(Fortran order): vec index n * dim + m holds rho[m, n] (`vec_entries`).
`vec`, `unvec` and the dense `Superoperator` that `models.assemble` writes
for `steady.nullspace_steady` and `observables.linewidth` use that layout;
the dense operators and dissipator matrices are built in `oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TruncatedSpace:
    """Photon-number space kept up to n_max; operators are (n_max+1) square."""

    n_max: int

    def __post_init__(self):
        # a float n_max would make dim a float, and True is an int to Python
        n_max = self.n_max
        if not isinstance(n_max, (int, np.integer)) or isinstance(n_max, bool) or n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {n_max!r}")

    @property
    def dim(self) -> int:
        return self.n_max + 1


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho).reshape(-1, order="F")


def unvec(v: np.ndarray, space: TruncatedSpace) -> np.ndarray:
    return np.asarray(v).reshape((space.dim, space.dim), order="F")


def vec_entries(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The row m and column n of the dim x dim matrix entry held at each
    vec index: vec(rho)[k] is rho[m[k], n[k]]."""
    n, m = np.divmod(np.arange(dim * dim), dim)
    return m, n


@dataclass(frozen=True)
class Superoperator:
    """Dense generator matrix acting on column-stacked density matrices."""

    space: TruncatedSpace
    matrix: np.ndarray

    def __post_init__(self):
        d2 = self.space.dim**2
        if self.matrix.shape != (d2, d2):
            raise ValueError(
                f"superoperator for n_max={self.space.n_max} must be {d2}x{d2}"
            )

    def apply(self, rho: np.ndarray) -> np.ndarray:
        v = vec(rho)
        if np.iscomplexobj(v) and not np.iscomplexobj(self.matrix):
            # two real products: `real @ complex` would copy the matrix to complex
            return unvec(self.matrix @ v.real + 1j * (self.matrix @ v.imag), self.space)
        return unvec(self.matrix @ v, self.space)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))
