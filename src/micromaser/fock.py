"""The truncated Fock space and the one column-stacked layout of operators on it.

A density matrix rho on the space is vectorized by stacking its columns
(Fortran order): vec index n * dim + m holds rho[m, n] (`vec_entries`).
`vec`, `unvec` and `Superoperator` use that layout.  A Superoperator holds
a generator on the (n_max+1)^2 vec indices as its nonzero entries only,
and is built from them: `models.assemble` writes at most three per column
for `steady.nullspace_steady` and `observables.linewidth`, so none of them
forms the (n_max+1)^2 x (n_max+1)^2 array; the dense operators and
dissipator matrices are built in `oracle`, whose `from_matrix` reads a
generator off such a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def is_integer(value) -> bool:
    """Whether value is an int or a NumPy integer; True is an int to Python,
    but not here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class TruncatedSpace:
    """Photon-number space kept up to n_max; operators are (n_max+1) square."""

    n_max: int

    def __post_init__(self):
        # a float n_max would make dim a float
        if not is_integer(self.n_max) or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max!r}")

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


class Superoperator:
    """Generator on column-stacked density matrices, held as its nonzero
    entries (rows[i], cols[i]) = values[i] in row-major order, the order
    np.flatnonzero reads a dense array in.

    Superoperator(space, rows, cols, values) is the generator whose entry
    (rows[i], cols[i]) is values[i] and every other entry zero: zero values
    are dropped, and a position given twice or outside the (n_max+1)^2
    square is a ValueError.  `matrix` scatters the entries into a fresh
    dense array; `oracle.from_matrix` takes one the other way.
    """

    def __init__(self, space: TruncatedSpace, rows, cols, values):
        rows, cols, values = np.asarray(rows), np.asarray(cols), np.asarray(values)
        if not rows.shape == cols.shape == values.shape == (len(values),):
            raise ValueError("rows, cols and values must be 1-D arrays of one length")
        if values.size and not (rows.dtype.kind in "iu" and cols.dtype.kind in "iu"):
            raise ValueError("rows and cols must be integer arrays")
        d2 = space.dim**2
        if values.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= d2):
            raise ValueError(f"an entry lies outside the {d2}x{d2} superoperator")
        flat = rows.astype(np.int64) * d2 + cols.astype(np.int64)
        order = np.argsort(flat, kind="stable")  # runs of sorted entries merge in O(n)
        flat, values = flat[order], values[order]
        if np.any(flat[1:] == flat[:-1]):
            raise ValueError("an entry position is given twice")
        keep = values != 0
        self.space, self.values = space, values[keep]
        self.rows, self.cols = np.divmod(flat[keep], d2)

    @property
    def matrix(self) -> np.ndarray:
        d2 = self.space.dim**2
        mat = np.zeros((d2, d2), dtype=self.values.dtype)
        mat[self.rows, self.cols] = self.values
        return mat

    def _operand(self, rho) -> np.ndarray:
        """rho as an array; ValueError unless it is a (dim, dim) matrix, the
        one shape the generator acts on."""
        rho = np.asarray(rho)
        shape = (self.space.dim,) * 2
        if rho.shape != shape:
            raise ValueError(f"the generator acts on matrices of shape {shape}, got {rho.shape}")
        return rho

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """The generator on rho, a (dim, dim) matrix: each row's sum over its
        entries in column order (np.bincount), a complex sum as its real and
        imaginary parts."""
        terms = self.values * vec(self._operand(rho))[self.cols]
        d2 = self.space.dim**2
        if np.iscomplexobj(terms):  # np.bincount sums real weights only
            real, imag = (np.bincount(self.rows, part, d2) for part in (terms.real, terms.imag))
            return unvec(real + 1j * imag, self.space)
        return unvec(np.bincount(self.rows, terms, d2), self.space)
