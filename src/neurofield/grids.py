"""Uniform grids, sampled profiles, and the composite trapezoid rule."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [lo, hi] into n subintervals (n + 1 nodes)."""

    lo: float
    hi: float
    n: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.n < 1:
            raise ValueError(f"need at least one subinterval, got n={self.n}")
        if self.n + 1 > np.iinfo(np.intp).max // 8:
            # past the address space numpy refuses the nodes with a ValueError
            raise MemoryError(f"Unable to allocate {self.n + 1} grid nodes")

    @property
    def dx(self) -> float:
        return (self.hi - self.lo) / self.n

    @property
    def n_nodes(self) -> int:
        return self.n + 1

    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n + 1)

    @property
    def symmetric(self) -> bool:
        """True when the grid is mirror-symmetric about 0."""
        return abs(self.lo + self.hi) <= 1e-12 * max(abs(self.lo), abs(self.hi))


@dataclass(frozen=True)
class Profile:
    """Real-valued samples of a function on a grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n + 1,):
            raise ValueError(
                f"profile has {vals.shape} values for a grid with {self.grid.n + 1} nodes"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("profile contains non-finite values")

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def quadrature_weights(grid: Grid) -> np.ndarray:
    """Composite trapezoid weights on the grid nodes."""
    w = np.full(grid.n + 1, grid.dx)
    w[0] = w[-1] = grid.dx / 2.0
    return w
