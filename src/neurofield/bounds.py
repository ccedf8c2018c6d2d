"""Sandwich constants (a, delta_minus, delta_plus, d) and bounding profiles u_minus, u_plus.

The lower profile is the convolution of the kernel with the indicator of
[-delta_minus, delta_minus], the upper one with [-delta_plus, delta_plus];
they bracket the bump constructed by the fixed-point module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BracketFailure, NeurofieldError, NoConvergence, NoSuchD
from .grids import Grid, Profile
from .model import Kernel, ModelParams
from .quadrature import CumulativeKernel, indicator_convolution

#: probe horizon: the positivity radius a is capped at DEFAULT_HORIZON / 2
DEFAULT_HORIZON = 40.0

#: absolute tolerance of the bisections for delta_minus, delta_plus and d
BISECT_TOL = 1e-12


@dataclass(frozen=True)
class BumpBounds:
    delta_minus: float
    delta_plus: float
    d: float
    u_minus: Profile = field(repr=False)
    u_plus: Profile = field(repr=False)

    def __post_init__(self):
        if not 0.0 < self.delta_minus < self.delta_plus < self.d:
            raise ValueError(
                f"need 0 < delta_minus < delta_plus < d, got "
                f"{self.delta_minus}, {self.delta_plus}, {self.d}"
            )
        gap = self.u_plus.values[1:-1] - self.u_minus.values[1:-1]
        if np.min(gap) <= 0.0:
            raise ValueError("u_minus must lie strictly below u_plus at interior nodes")

    @property
    def grid(self) -> Grid:
        return self.u_minus.grid

    def gap_norm(self) -> float:
        return float(np.max(self.u_plus.values - self.u_minus.values))


def _bisect(f, a: float, b: float, xtol: float) -> float:
    """Root of f in [a, b] by bisection, stepping and stopping exactly as
    ``scipy.optimize.bisect`` with its default rtol, so results are bit-equal."""
    fa, fb = float(f(a)), float(f(b))
    if fa * fb > 0.0:
        raise BracketFailure(
            f"f({a:.6g}) = {fa:.3g} and f({b:.6g}) = {fb:.3g} do not bracket a root")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    rtol = 4.0 * np.finfo(float).eps
    dm = b - a
    for _ in range(200):
        dm *= 0.5
        xm = a + dm
        fm = float(f(xm))
        if fm * fa >= 0.0:
            a = xm
        if fm == 0.0 or abs(dm) < xtol + rtol * abs(xm):
            return xm
    raise NoConvergence("bisection did not converge in 200 steps")


def solve_delta(W: CumulativeKernel, level: float, a: float) -> float:
    """Half-width delta with W(2 delta) = level, by bisection on [0, a].

    W is strictly increasing on [0, 2a] since omega > 0 there, so bisection
    converges unconditionally.
    """
    if not 0.0 < level:
        raise BracketFailure(f"need level > 0, got {level}")
    top = W(2.0 * a)
    if level >= top:
        raise BracketFailure(
            f"level {level} is not below the kernel mass W(2a) = {top:.6g}"
        )
    return _bisect(lambda s: W(2.0 * s) - level, 0.0, a, xtol=BISECT_TOL / 4.0)


def find_d(W: CumulativeKernel, delta_plus: float, h: float, a: float) -> float:
    """Radius d in (delta_plus, a] with u_plus(d) = h, by bisection.

    u_plus(delta_plus) = h + tau > h by construction, and u_plus decreases
    beyond delta_plus, so the bracket is monotone.
    """
    if indicator_convolution(W, delta_plus, a) > h:
        raise NoSuchD(
            f"u_plus never falls to h={h} on ({delta_plus:.6g}, {a:.6g}]"
        )
    return _bisect(lambda x: indicator_convolution(W, delta_plus, x) - h,
                   delta_plus, a, xtol=BISECT_TOL / 4.0)


class Sandwich(NamedTuple):
    """The constants of the order interval [u_minus, u_plus]: the positivity
    radius a, the half-widths delta_minus < delta_plus and the radius d, with
    ``failure`` saying why the constants after a are None when they are."""

    a: float
    delta_minus: float | None = None
    delta_plus: float | None = None
    d: float | None = None
    failure: NeurofieldError | None = None

    def solved(self) -> Sandwich:
        """This sandwich, or the error of its failed solve raised."""
        if self.failure is not None:
            raise self.failure
        return self


def solve_sandwich(kernel: Kernel, params: ModelParams) -> Sandwich:
    """Solve W(2 delta_minus) = h, W(2 delta_plus) = h + tau and u_plus(d) = h on
    [0, a], a the kernel's positive radius capped at DEFAULT_HORIZON / 2; a failed
    solve (no level below W(2a), no such d) leaves them None and keeps its error."""
    W = CumulativeKernel(kernel)
    a = min(kernel.positive_radius(), DEFAULT_HORIZON / 2.0)
    try:
        delta_minus = solve_delta(W, params.h, a)
        delta_plus = solve_delta(W, params.h + params.tau, a)
        d = find_d(W, delta_plus, params.h, a)
    except (BracketFailure, NoSuchD) as exc:
        # without its traceback, whose frames would keep the callers' arrays alive
        return Sandwich(a, failure=exc.with_traceback(None))
    return Sandwich(a, delta_minus, delta_plus, d)


def build_bounds(kernel: Kernel, params: ModelParams, n: int) -> BumpBounds:
    """Sample u_minus and u_plus of the solved sandwich on [-d, d].

    The grid has n subintervals (n must be even so 0 and +-d are nodes).
    """
    if n % 2 != 0:
        raise ValueError(f"need an even subinterval count for a symmetric grid, got n={n}")
    sw = solve_sandwich(kernel, params).solved()
    W = CumulativeKernel(kernel)
    grid = Grid(-sw.d, sw.d, n)
    xs = grid.nodes()
    u_minus = Profile(grid, indicator_convolution(W, sw.delta_minus, xs))
    u_plus = Profile(grid, indicator_convolution(W, sw.delta_plus, xs))
    return BumpBounds(sw.delta_minus, sw.delta_plus, sw.d, u_minus, u_plus)
