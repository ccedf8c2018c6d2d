"""Uniform grids, sampled profiles, the trapezoid rule and a line fit's slope."""

from __future__ import annotations

import numpy as np


class Grid:
    """Uniform partition of [lo, hi] into n subintervals (n + 1 nodes); grids
    built apart with equal (lo, hi, n) are equal and hash alike."""

    __slots__ = ("lo", "hi", "n")

    def __init__(self, lo: float, hi: float, n: int):
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        if n < 1:
            raise ValueError(f"need at least one subinterval, got n={n}")
        if n + 1 > np.iinfo(np.intp).max // 8:
            # past the address space numpy refuses the nodes with a ValueError
            raise MemoryError(f"Unable to allocate {n + 1} grid nodes")
        self.lo, self.hi, self.n = lo, hi, n

    def __eq__(self, other):
        return type(other) is Grid and (self.lo, self.hi, self.n) == (other.lo, other.hi, other.n)

    def __hash__(self):
        return hash((self.lo, self.hi, self.n))

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


class Profile:
    """Real-valued samples of a function on a grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n + 1,):
            raise ValueError(f"profile has {values.shape} values for a grid with "
                             f"{grid.n + 1} nodes")
        if not np.all(np.isfinite(values)):
            raise ValueError("profile contains non-finite values")
        self.grid, self.values = grid, values

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def quadrature_weights(grid: Grid) -> np.ndarray:
    """Composite trapezoid weights on the grid nodes."""
    w = np.full(grid.n + 1, grid.dx)
    w[0] = w[-1] = grid.dx / 2.0
    return w


def slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of the straight line fitted to the points (x, y)."""
    dx = x - np.mean(x)
    return float(dx @ (y - np.mean(y)) / (dx @ dx))
