"""Sandwich constants (delta_minus, delta_plus, d) and bounding profiles u_minus, u_plus.

The lower profile is the convolution of the kernel with the indicator of
[-delta_minus, delta_minus], the upper one with [-delta_plus, delta_plus];
they bracket the bump constructed by the fixed-point module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BracketFailure, NoConvergence, NoSuchD
from .grids import Grid, Profile, quadrature_weights
from .model import Kernel, ModelParams
from .quadrature import (DEFAULT_N_PER_UNIT, CumulativeKernel,
                         indicator_convolution)

#: default probe horizon bounding the search for the positivity radius a
DEFAULT_HORIZON = 40.0


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


def solve_delta(kernel: Kernel, level: float, tol: float = 1e-12,
                W: CumulativeKernel | None = None, a: float | None = None,
                horizon: float = DEFAULT_HORIZON) -> float:
    """Half-width delta with W(2 delta) = level, by bisection on [0, a].

    W is strictly increasing on [0, 2a] since omega > 0 there, so bisection
    converges unconditionally.
    """
    if W is None:
        W = CumulativeKernel(kernel)
    if a is None:
        a = kernel.positive_radius(horizon)
    if not 0.0 < level:
        raise BracketFailure(f"need level > 0, got {level}")
    top = W(2.0 * a)
    if level >= top:
        raise BracketFailure(
            f"level {level} is not below the kernel mass W(2a) = {top:.6g}"
        )
    return _bisect(lambda s: W(2.0 * s) - level, 0.0, a, xtol=tol / 4.0)


def find_d(kernel: Kernel, delta_plus: float, h: float, tol: float = 1e-12,
           W: CumulativeKernel | None = None, a: float | None = None,
           horizon: float = DEFAULT_HORIZON) -> float:
    """Radius d in (delta_plus, a] with u_plus(d) = h, by bisection.

    u_plus(delta_plus) = h + tau > h by construction, and u_plus decreases
    beyond delta_plus, so the bracket is monotone.
    """
    if W is None:
        W = CumulativeKernel(kernel)
    if a is None:
        a = kernel.positive_radius(horizon)
    if indicator_convolution(W, delta_plus, a) > h:
        raise NoSuchD(
            f"u_plus never falls to h={h} on ({delta_plus:.6g}, {a:.6g}]"
        )
    return _bisect(lambda x: indicator_convolution(W, delta_plus, x) - h,
                   delta_plus, a, xtol=tol / 4.0)


def build_bounds(kernel: Kernel, params: ModelParams, n: int,
                 n_per_unit: int = DEFAULT_N_PER_UNIT, tol: float = 1e-12,
                 horizon: float = DEFAULT_HORIZON,
                 W: CumulativeKernel | None = None) -> BumpBounds:
    """Assemble the sandwich: solve for both deltas and d, sample u_minus, u_plus on [-d, d].

    The grid has n subintervals (n must be even so 0 and +-d are nodes).
    ``W`` is the kernel's cumulative table; when not given, one is built with
    ``n_per_unit`` subintervals per unit length.
    """
    if n % 2 != 0:
        raise ValueError(f"need an even subinterval count for a symmetric grid, got n={n}")
    if W is None:
        W = CumulativeKernel(kernel, n_per_unit=n_per_unit)
    a = kernel.positive_radius(horizon)
    delta_minus = solve_delta(kernel, params.h, tol=tol, W=W, a=a)
    delta_plus = solve_delta(kernel, params.h + params.tau, tol=tol, W=W, a=a)
    d = find_d(kernel, delta_plus, params.h, tol=tol, W=W, a=a)
    grid = Grid(-d, d, n)
    xs = grid.nodes()
    u_minus = Profile(grid, indicator_convolution(W, delta_minus, xs))
    u_plus = Profile(grid, indicator_convolution(W, delta_plus, xs))
    return BumpBounds(delta_minus, delta_plus, d, u_minus, u_plus)


def verify_heaviside_stationarity(kernel: Kernel, bb: BumpBounds, probe: Grid,
                                  n_per_unit: int = DEFAULT_N_PER_UNIT) -> dict:
    """Numeric battery for the Heaviside stationarity of u_minus and u_plus.

    On the probe grid: u_minus >= h on [0, delta_minus] and < h strictly beyond
    (one grid cell of slack at the boundary), analogously u_plus against
    h + tau; the supra-threshold supports match [-delta, delta] within one
    cell; and both profiles satisfy their Heaviside fixed-point identity
    within quadrature error.
    """
    W = CumulativeKernel(kernel, n_per_unit=n_per_unit)
    xs = probe.nodes()
    dx = probe.dx
    h = float(W(2.0 * bb.delta_minus))
    h_plus_tau = float(W(2.0 * bb.delta_plus))

    report: dict = {"h": h, "h_plus_tau": h_plus_tau, "checks": {}}

    def record(name, ok, margin):
        report["checks"][name] = {"status": "pass" if ok else "fail",
                                  "margin": float(margin)}

    for label, delta, level in (("u_minus", bb.delta_minus, h),
                                ("u_plus", bb.delta_plus, h_plus_tau)):
        u = indicator_convolution(W, delta, np.abs(xs))
        core = np.abs(xs) <= delta
        outside = np.abs(xs) > delta + dx
        inner_margin = np.min(u[core] - level) if core.any() else np.inf
        outer_margin = np.min(level - u[outside]) if outside.any() else np.inf
        # boundary equality u(delta) = level is accepted with zero margin
        record(f"{label}_core_above_level", inner_margin >= -1e-12, inner_margin)
        record(f"{label}_tail_below_level", outer_margin > 0.0, outer_margin)
        support = xs[u - level > 1e-12]
        if support.size:
            support_dev = max(abs(support.min() + delta), abs(support.max() - delta))
        else:
            support_dev = np.inf
        record(f"{label}_support_matches", support_dev <= dx + 1e-12, dx - support_dev)

    # Heaviside fixed-point identities T_chi u = u: apply the Nystrom operator
    # with the indicator firing rate on the bounds grid.  The indicator edge
    # falls mid-cell, so the quadrature error budget is O(dx).
    ys = bb.grid.nodes()
    wts = quadrature_weights(bb.grid)
    K = kernel(ys[:, None] - ys[None, :])
    quad_err = 4.0 * float(np.max(K)) * bb.grid.dx + 1e-12
    for label, u, delta, level in (("u_minus", bb.u_minus.values, bb.delta_minus, h),
                                   ("u_plus", bb.u_plus.values, bb.delta_plus, h_plus_tau)):
        g = (u - level > 0.0).astype(float)
        Tu = K @ (wts * g)
        resid = float(np.max(np.abs(Tu - u)))
        record(f"{label}_heaviside_fixed_point", resid <= quad_err, quad_err - resid)

    report["ok"] = all(c["status"] == "pass" for c in report["checks"].values())
    return report
