"""The truncated Fock space; its dense operators are built in `oracle`."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TruncatedSpace:
    """Photon-number space kept up to n_max; operators are (n_max+1) square."""

    n_max: int

    def __post_init__(self):
        if int(self.n_max) != self.n_max or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max!r}")

    @property
    def dim(self) -> int:
        return self.n_max + 1
