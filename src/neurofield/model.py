"""Coupling kernels, firing-rate functions, and model parameters.

Kernels are even functions of distance; firing rates are nondecreasing maps
into [0, 1] that vanish for arguments <= 0 and saturate at 1 beyond the
width tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotDifferentiable
from .grids import Grid


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialKernel:
    """omega(x) = exp(-|x|) / 2.  Positive everywhere, kink at the origin."""

    tag = "exponential"

    def __call__(self, x):
        return 0.5 * np.exp(-np.abs(x))

    def deriv(self, x):
        """Derivative; at the kink x = 0 the odd-symmetric value 0 is returned."""
        x = np.asarray(x, dtype=float)
        out = -0.5 * np.sign(x) * np.exp(-np.abs(x))
        return out if out.ndim else float(out)

    def antiderivative(self, b: float) -> float:
        """W(b) = integral of omega over [0, b] = (1 - e^-b) / 2, for b >= 0."""
        return -0.5 * math.expm1(-b)

    def positive_radius(self) -> float:
        """Largest a with omega > 0 on [0, 2a): unbounded, omega > 0 everywhere."""
        return math.inf


@dataclass(frozen=True)
class GaussianKernel:
    """omega(x) = exp(-x^2)."""

    tag = "gaussian"

    def __call__(self, x):
        return np.exp(-np.square(x))

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        out = -2.0 * x * np.exp(-np.square(x))
        return out if out.ndim else float(out)

    def antiderivative(self, b: float) -> float:
        """W(b) = (sqrt(pi) / 2) erf(b), for b >= 0."""
        return 0.5 * math.sqrt(math.pi) * math.erf(b)

    def positive_radius(self) -> float:
        return math.inf


@dataclass(frozen=True)
class MexicanHatKernel:
    """omega(x) = K exp(-k x^2) - M exp(-m x^2), locally excitatory, laterally inhibitory."""

    K: float
    k: float
    M: float
    m: float

    tag = "mexican_hat"

    def __post_init__(self):
        if not (self.K > self.M > 0.0):
            raise ValueError(f"need K > M > 0, got K={self.K}, M={self.M}")
        if not (self.k > self.m > 0.0):
            raise ValueError(f"need k > m > 0, got k={self.k}, m={self.m}")

    def __call__(self, x):
        x2 = np.square(x)
        return self.K * np.exp(-self.k * x2) - self.M * np.exp(-self.m * x2)

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        x2 = np.square(x)
        out = -2.0 * x * (self.K * self.k * np.exp(-self.k * x2)
                          - self.M * self.m * np.exp(-self.m * x2))
        return out if out.ndim else float(out)

    def antiderivative(self, b: float) -> float:
        """W(b) = K sqrt(pi/k)/2 erf(sqrt(k) b) - M sqrt(pi/m)/2 erf(sqrt(m) b), for b >= 0."""
        K, k, M, m = self.K, self.k, self.M, self.m
        return (K * math.sqrt(math.pi / k) * 0.5 * math.erf(math.sqrt(k) * b)
                - M * math.sqrt(math.pi / m) * 0.5 * math.erf(math.sqrt(m) * b))

    def first_zero(self) -> float:
        """Positive zero of omega: x0 = sqrt(ln(K/M) / (k - m))."""
        return math.sqrt(math.log(self.K / self.M) / (self.k - self.m))

    def positive_radius(self) -> float:
        return self.first_zero() / 2.0


@dataclass(frozen=True)
class TabulatedKernel:
    """Samples on a grid, linearly interpolated, and 0 past the table by definition."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    tag = "tabulated"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n + 1,):
            raise ValueError("tabulated kernel: value count does not match grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("tabulated kernel samples must be finite")
        if not self.grid.symmetric:
            raise ValueError("tabulated kernel grid must be symmetric about 0")
        if np.max(np.abs(vals - vals[::-1])) > 1e-12:
            raise ValueError("tabulated kernel samples are not symmetric about 0")
        nodes = self.grid.nodes()
        object.__setattr__(self, "_nodes", nodes)
        # the interpolant on [0, hi]: its value at 0 (a node, or mid-cell on
        # an odd grid), the nodes past 0, and the exact integral up to each
        pos = nodes > 0.0
        xs = np.concatenate([[0.0], nodes[pos]])
        vs = np.concatenate([[np.interp(0.0, nodes, vals)], vals[pos]])
        cum = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(xs) * (vs[:-1] + vs[1:]))])
        object.__setattr__(self, "_half", (xs.tolist(), vs.tolist(), cum.tolist()))

    def __call__(self, x):
        out = np.interp(x, self._nodes, self.values, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    def antiderivative(self, b: float) -> float:
        """W(b) for b >= 0: the exact integral of the linear interpolant that
        ``__call__`` evaluates, a cumulative trapezoid over the nodes plus the
        partial cell; constant past the table edge, where omega is 0."""
        xs, vs, cum = self._half
        if not b < xs[-1]:
            return cum[-1] if b >= xs[-1] else math.nan
        # the cell [xs[i], xs[i + 1]] holding b; within rounding of a node the
        # neighbouring cell may be taken, and its line agrees there
        i = 0 if b < xs[1] else min(int((b - xs[1]) / self.grid.dx) + 1, len(xs) - 2)
        t = b - xs[i]
        slope = (vs[i + 1] - vs[i]) / (xs[i + 1] - xs[i])
        return cum[i] + t * (vs[i] + 0.5 * slope * t)

    def deriv(self, x):
        """Central differences with step equal to the table spacing."""
        d = self.grid.dx
        x = np.asarray(x, dtype=float)
        out = (self(x + d) - self(x - d)) / (2.0 * d)
        return out if np.ndim(out) else float(out)

    def positive_radius(self) -> float:
        """Half the first zero of the interpolant on x >= 0, or of the table's
        edge, past which omega is 0."""
        xs, vs, _ = self._half
        i = next((i for i, v in enumerate(vs) if v <= 0.0), None)
        if i is None:
            return xs[-1] / 2.0
        if i == 0:
            return 0.0
        t = vs[i - 1] / (vs[i - 1] - vs[i])
        return (xs[i - 1] + t * (xs[i] - xs[i - 1])) / 2.0


Kernel = ExponentialKernel | GaussianKernel | MexicanHatKernel | TabulatedKernel


# ---------------------------------------------------------------------------
# firing rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatioFiring:
    """f(u) = u^p / (u^p + (tau - u)^p) on (0, tau), 0 below, 1 above."""

    p: float
    tau: float

    tag = "ratio_family"

    def __post_init__(self):
        if self.p <= 0.0:
            raise ValueError(f"need p > 0, got p={self.p}")
        if self.tau <= 0.0:
            raise ValueError(f"need tau > 0, got tau={self.tau}")
        # On the clipped argument a / (a + b) is exactly 0 at u <= 0 and 1 at
        # u >= tau, and a + b >= (tau/2)^p > 0, while tau^p is finite and
        # (tau/2)^p nonzero (tested with a margin); otherwise the ends need
        # the np.where of __call__.
        tau, p = float(self.tau), float(self.p)
        with np.errstate(over="ignore", under="ignore"):
            plain = np.power(0.25 * tau, p) > 0.0 and np.isfinite(2.0 * np.power(tau, p))
        object.__setattr__(self, "_plain", bool(plain))

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        uc = np.clip(u, 0.0, self.tau)
        uc += 0.0  # -0.0 to +0.0, so f(-0.0) = +0.0 at every p
        a = np.power(uc, self.p)
        b = np.power(self.tau - uc, self.p)
        if self._plain:
            out = a / (a + b)
        else:
            with np.errstate(invalid="ignore"):
                mid = a / (a + b)
            out = np.where(u <= 0.0, 0.0, np.where(u >= self.tau, 1.0, mid))
        return out if out.ndim else float(out)

    def deriv(self, u):
        """f'(u) = p tau u^(p-1) (tau-u)^(p-1) / (u^p + (tau-u)^p)^2 inside (0, tau).

        Requires p > 1 so that f' is continuous (vanishing at 0 and tau).
        """
        if self.p <= 1.0:
            raise NotDifferentiable(f"ratio firing rate with p={self.p} <= 1 is not C^1")
        u = np.asarray(u, dtype=float)
        uc = np.clip(u, 0.0, self.tau)
        a = np.power(uc, self.p)
        b = np.power(self.tau - uc, self.p)
        num = self.p * self.tau * np.power(uc, self.p - 1.0) * np.power(self.tau - uc, self.p - 1.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            mid = num / np.square(a + b)
        out = np.where((u <= 0.0) | (u >= self.tau), 0.0, mid)
        return out if out.ndim else float(out)

    @property
    def holder_exponent(self) -> float:
        """Holder exponent of f' for p > 1: mu = min(1, p - 1)."""
        if self.p <= 1.0:
            raise NotDifferentiable(f"ratio firing rate with p={self.p} <= 1 is not C^1")
        return min(1.0, self.p - 1.0)


Firing = RatioFiring


@dataclass(frozen=True)
class ModelParams:
    """Firing threshold h and saturation width tau (both strictly positive)."""

    h: float
    tau: float

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError(f"need h > 0, got h={self.h}")
        if self.tau <= 0.0:
            raise ValueError(f"need tau > 0, got tau={self.tau}")
