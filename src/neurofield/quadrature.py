"""Cumulative kernel integrals and Nystrom application of integral operators."""

from __future__ import annotations

import math

import numpy as np

from .grids import Grid, Profile, TRAPEZOID, quadrature_weights
from .model import Kernel

#: table refinement for the cumulative integral, subintervals per unit length
DEFAULT_N_PER_UNIT = 4096


class CumulativeKernel:
    """W(b) = integral of omega over [0, b], with the odd extension W(-b) = -W(b).

    Node values are accumulated once on a fine uniform table (per-cell Simpson);
    a query refines the trailing partial cell with another Simpson step, so the
    result carries the full O(dx^4) accuracy everywhere, not just at table nodes.
    A ``float`` query takes a plain-Python path with the same arithmetic as an
    array query, so the bisections in ``bounds`` pay no array overhead.
    """

    def __init__(self, kernel: Kernel, n_per_unit: int = DEFAULT_N_PER_UNIT,
                 b_max: float = 8.0):
        self.kernel = kernel
        self.n_per_unit = n_per_unit
        self._dx = 1.0 / n_per_unit
        self._table = np.zeros(1)
        self._extend(b_max)

    @property
    def b_max(self) -> float:
        return (len(self._table) - 1) * self._dx

    def _extend(self, b_needed: float) -> None:
        """Grow the table so it covers [0, b_needed]."""
        n_cells = math.ceil(b_needed / self._dx)
        have = len(self._table) - 1
        if n_cells <= have:
            return
        # Simpson per cell from two evaluations: the cell ends are shared nodes
        x = np.arange(have, n_cells + 1) * self._dx
        kx = self.kernel(x)
        km = self.kernel(x[:-1] + 0.5 * self._dx)
        cells = (kx[:-1] + 4.0 * km + kx[1:]) * (self._dx / 6.0)
        self._table = np.concatenate([self._table, self._table[-1] + np.cumsum(cells)])

    def __call__(self, b):
        if isinstance(b, float):
            ab = abs(b)
            self._extend(ab)
            idx = min(int(ab / self._dx), len(self._table) - 1)
            x0 = idx * self._dx
            rem = ab - x0
            k = self.kernel
            out = self._table[idx] + (k(x0) + 4.0 * k(x0 + 0.5 * rem) + k(ab)) * (rem / 6.0)
            return float(out if b >= 0.0 else -out)
        b = np.asarray(b, dtype=float)
        scalar = b.ndim == 0
        b = np.atleast_1d(b)
        ab = np.abs(b)
        self._extend(float(np.max(ab)) if ab.size else 0.0)
        idx = np.minimum((ab / self._dx).astype(int), len(self._table) - 1)
        x0 = idx * self._dx
        rem = ab - x0
        partial = (self.kernel(x0) + 4.0 * self.kernel(x0 + 0.5 * rem) + self.kernel(ab)) \
            * (rem / 6.0)
        out = np.sign(b) * (self._table[idx] + partial)
        return float(out[0]) if scalar else out


def indicator_convolution(W: CumulativeKernel, delta: float, x):
    """u_delta(x) = integral of omega(x - y) over [-delta, delta] = W(x+delta) - W(x-delta)."""
    if delta <= 0.0:
        raise ValueError(f"need delta > 0, got delta={delta}")
    if not isinstance(x, float):
        x = np.asarray(x, dtype=float)
    return W(x + delta) - W(x - delta)


def apply_integral_operator(kernel: Kernel, weight: Profile, targets: Grid,
                            rule: str = TRAPEZOID) -> Profile:
    """Nystrom application: x -> integral of omega(x - y) weight(y) dy at the target nodes.

    Direct quadrature-weighted summation, chunked over target nodes to bound the
    size of the kernel-difference block.
    """
    w = quadrature_weights(weight.grid, rule)
    src = weight.grid.nodes()
    wv = w * weight.values
    tgt = targets.nodes()
    out = np.empty(len(tgt))
    chunk = max(1, 16_000_000 // max(len(src), 1))
    for start in range(0, len(tgt), chunk):
        block = tgt[start:start + chunk, None] - src[None, :]
        out[start:start + chunk] = kernel(block) @ wv
    return Profile(targets, out)
