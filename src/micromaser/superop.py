"""Dense superoperators on column-stacked (Fortran-order) density matrices:
the generator `models.assemble` writes for `steady.nullspace_steady` and
`observables.linewidth`.  Dissipator matrices are built in `oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import TruncatedSpace


def vec(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho).reshape(-1, order="F")


def unvec(v: np.ndarray, space: TruncatedSpace) -> np.ndarray:
    return np.asarray(v).reshape((space.dim, space.dim), order="F")


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
