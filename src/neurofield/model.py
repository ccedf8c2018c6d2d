"""Coupling kernels, firing-rate functions, and model parameters.

Kernels are even functions of distance; firing rates are nondecreasing maps
into [0, 1] that vanish for arguments <= 0 and saturate at 1 beyond the
width tau.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NondifferentiableWarning, NotDifferentiable, OutOfTableWarning
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
        if x.ndim == 0 and x == 0.0:
            warnings.warn("exponential kernel is not differentiable at 0; returning 0",
                          NondifferentiableWarning, stacklevel=2)
        out = -0.5 * np.sign(x) * np.exp(-np.abs(x))
        return out if out.ndim else float(out)

    def positive_radius(self, horizon: float) -> float:
        """Largest a with omega > 0 on [0, 2a], up to the probe horizon."""
        return horizon / 2.0


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

    def positive_radius(self, horizon: float) -> float:
        return horizon / 2.0


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

    def first_zero(self) -> float:
        """Positive zero of omega: x0 = sqrt(ln(K/M) / (k - m))."""
        return math.sqrt(math.log(self.K / self.M) / (self.k - self.m))

    def positive_radius(self, horizon: float) -> float:
        return min(self.first_zero() / 2.0, horizon / 2.0)


@dataclass(frozen=True)
class TabulatedKernel:
    """Kernel given by samples on a grid; linear interpolation, zero outside."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    tag = "tabulated"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n + 1,):
            raise ValueError("tabulated kernel: value count does not match grid")
        if not self.grid.symmetric:
            raise ValueError("tabulated kernel grid must be symmetric about 0")
        mirrored = vals[::-1]
        if np.max(np.abs(vals - mirrored)) > 1e-12:
            raise ValueError("tabulated kernel samples are not symmetric about 0")
        object.__setattr__(self, "_nodes", self.grid.nodes())

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(np.abs(x) > self.grid.hi):
            warnings.warn("tabulated kernel evaluated outside its grid; using 0",
                          OutOfTableWarning, stacklevel=2)
        out = np.interp(x, self._nodes, self.values, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    def deriv(self, x):
        """Central differences with step equal to the table spacing."""
        d = self.grid.dx
        x = np.asarray(x, dtype=float)
        out = (sample_kernel(self, x + d) - sample_kernel(self, x - d)) / (2.0 * d)
        return out if np.ndim(out) else float(out)

    def positive_radius(self, horizon: float) -> float:
        xs = self._nodes
        pos = xs >= 0.0
        xs, vs = xs[pos], self.values[pos]
        nonpos = np.nonzero(vs <= 0.0)[0]
        edge = xs[nonpos[0]] if nonpos.size else xs[-1]
        return min(edge / 2.0, horizon / 2.0)


Kernel = ExponentialKernel | GaussianKernel | MexicanHatKernel | TabulatedKernel


def sample_kernel(kernel, x) -> np.ndarray:
    """kernel(x) without an OutOfTableWarning: a tabulated kernel is 0 past
    its table by definition, which is what a probe or a lag line reads there."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OutOfTableWarning)
        return np.asarray(kernel(x))


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


@dataclass(frozen=True)
class HeavisideLo:
    """Indicator of (0, inf); comparison rate generating the lower bound profile."""

    tag = "heaviside_lo"

    def __call__(self, u):
        out = (np.asarray(u, dtype=float) > 0.0).astype(float)
        return out if out.ndim else float(out)

    def deriv(self, u):
        raise NotDifferentiable("Heaviside firing rate has no derivative")


@dataclass(frozen=True)
class HeavisideHi:
    """Indicator of (tau, inf); comparison rate generating the upper bound profile."""

    tau: float

    tag = "heaviside_hi"

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError(f"need tau > 0, got tau={self.tau}")

    def __call__(self, u):
        out = (np.asarray(u, dtype=float) > self.tau).astype(float)
        return out if out.ndim else float(out)

    def deriv(self, u):
        raise NotDifferentiable("Heaviside firing rate has no derivative")


Firing = RatioFiring | HeavisideLo | HeavisideHi


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
