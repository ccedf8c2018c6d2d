"""Discretized Hammerstein operator on [-d, d], sandwich verification, and the
third fixed point between the bounding profiles, extended to the whole line."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import BumpBounds
from .errors import (DegenerateFixedPoint, EpsilonNotFound, GridMisaligned,
                     NewtonDivergence, NoConvergence, ShiftOutOfRange)
from .grids import Grid, Profile, TRAPEZOID, quadrature_weights
from .model import Firing, Kernel, ModelParams

#: above this node count the translation-invariant Nystrom sum is evaluated by
#: FFT convolution instead of a dense matrix (identical up to rounding)
DENSE_NODE_LIMIT = 4096


def fast_fft_len(m: int) -> int:
    """Smallest 5-smooth integer 2^a 3^b 5^c >= m (scipy.fft.next_fast_len(m, True))."""
    best = 1 << max(m - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest power of two lifting p35 to at least m
            quotient = -(-m // p35)
            candidate = p35 << max(quotient - 1, 0).bit_length()
            best = min(best, candidate)
            p35 *= 3
        p5 *= 5
    return best


class OperatorContext:
    """Kernel, firing rate, parameters, and a symmetric grid carrying T.

    The Nystrom sum (Tu)(x_i) = sum_j w_j omega(x_i - x_j) f(u(x_j) - h) is a
    discrete convolution on the uniform grid; small grids use a cached dense
    matrix, large ones an FFT evaluation of the same sum.
    """

    def __init__(self, kernel: Kernel, firing: Firing, params: ModelParams,
                 grid: Grid, rule: str = TRAPEZOID):
        if not grid.symmetric:
            raise ValueError("operator grid must be symmetric about 0")
        if grid.n % 2 != 0:
            raise ValueError("operator grid needs an even subinterval count")
        self.kernel = kernel
        self.firing = firing
        self.params = params
        self.grid = grid
        self.rule = rule
        self.weights = quadrature_weights(grid, rule)
        self._nodes = grid.nodes()
        self._dense: np.ndarray | None = None
        self._kern_spectrum: np.ndarray | None = None
        self._fft_len = 0

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes

    def kernel_matrix(self) -> np.ndarray:
        """Dense block omega(x_i - x_j); only for moderate grids."""
        if self._dense is None:
            if self.grid.n_nodes > DENSE_NODE_LIMIT:
                raise MemoryError(
                    f"dense kernel matrix refused for {self.grid.n_nodes} nodes")
            x = self._nodes
            self._dense = np.asarray(self.kernel(x[:, None] - x[None, :]))
        return self._dense

    def apply_weighted(self, s: np.ndarray) -> np.ndarray:
        """sum_j s_j omega(x_i - x_j) for an already weighted source vector s."""
        n = self.grid.n
        if self.grid.n_nodes <= DENSE_NODE_LIMIT:
            return self.kernel_matrix() @ s
        # linear convolution of s (n + 1 values) with the kernel line on lags
        # -n..n (2n + 1 values) has 3n + 1 terms; the rfft length is the one
        # scipy.signal.fftconvolve picks, which makes the result bit-equal to it
        if self._kern_spectrum is None:
            lags = np.arange(-n, n + 1) * self.grid.dx
            self._fft_len = fast_fft_len(3 * n + 1)
            self._kern_spectrum = np.fft.rfft(np.asarray(self.kernel(lags)), self._fft_len)
        full = np.fft.irfft(np.fft.rfft(s, self._fft_len) * self._kern_spectrum,
                            self._fft_len)
        return full[n:2 * n + 1]

    def apply_T_values(self, values: np.ndarray) -> np.ndarray:
        gain = self.firing(values - self.params.h)
        return self.apply_weighted(self.weights * gain)


def apply_T(ctx: OperatorContext, u: Profile) -> Profile:
    """One application of the Hammerstein operator on the context grid."""
    if u.grid != ctx.grid:
        raise GridMisaligned("profile does not live on the operator grid")
    return Profile(ctx.grid, ctx.apply_T_values(u.values))


def apply_T_hat(ctx: OperatorContext, u: Profile, bb: BumpBounds) -> Profile:
    """T followed by the nodewise clamp into [u_minus, u_plus]."""
    Tu = ctx.apply_T_values(u.values)
    clamped = np.maximum(np.minimum(Tu, bb.u_plus.values), bb.u_minus.values)
    return Profile(ctx.grid, clamped)


def compute_epsilon(ctx: OperatorContext, bb: BumpBounds,
                    max_halvings: int = 60) -> float:
    """Largest margin in the ladder eps0 * 2^-k certifying the strict sandwich.

    Requires, on the grid: T(u_minus + eps) stays strictly below u_minus + eps,
    T(u_plus - eps) strictly above u_plus - eps, and the shifted profiles stay
    strictly ordered.
    """
    eps = bb.gap_norm() / 4.0
    for _ in range(max_halvings):
        lo = bb.u_minus.values + eps
        hi = bb.u_plus.values - eps
        ok = (np.min(lo - ctx.apply_T_values(lo)) > 0.0
              and np.min(ctx.apply_T_values(hi) - hi) > 0.0
              and np.min(hi - lo) > 0.0)
        if ok:
            return eps
        eps /= 2.0
    raise EpsilonNotFound(
        "no strictly positive sandwich margin found; the discretization may be "
        "too coarse or the hypotheses marginal")


@dataclass(frozen=True)
class MonotoneTrace:
    """Record of a clamped-operator iteration run."""

    iterations: int
    sup_steps: tuple[float, ...]
    monotone_ok: bool
    direction: str  # "decreasing" | "increasing" | "stationary"


def monotone_iterate(ctx: OperatorContext, bb: BumpBounds, start: Profile,
                     tol: float = 1e-10, max_iter: int = 10_000
                     ) -> tuple[Profile, MonotoneTrace]:
    """Iterate the clamped operator and record order preservation per step."""
    u = start.values.copy()
    steps: list[float] = []
    direction = "stationary"
    monotone_ok = True
    for it in range(1, max_iter + 1):
        v = np.maximum(np.minimum(ctx.apply_T_values(u), bb.u_plus.values),
                       bb.u_minus.values)
        diff = v - u
        step = float(np.max(np.abs(diff)))
        steps.append(step)
        if step > 0.0:
            if np.all(diff <= 1e-14):
                step_dir = "decreasing"
            elif np.all(diff >= -1e-14):
                step_dir = "increasing"
            else:
                step_dir = "mixed"
            if direction == "stationary":
                direction = step_dir
            if step_dir not in (direction, "stationary"):
                monotone_ok = False
        u = v
        if step <= tol:
            return Profile(ctx.grid, u), MonotoneTrace(it, tuple(steps),
                                                       monotone_ok, direction)
    raise NoConvergence(f"clamped iteration did not settle in {max_iter} steps")


@dataclass(frozen=True)
class FixedPointResult:
    u_star: Profile = field(repr=False)
    residual_sup: float
    iterations: int
    dist_to_u_minus: float
    dist_to_u_plus: float
    epsilon_used: float | None = None

    def to_dict(self) -> dict:
        return {
            "residual_sup": self.residual_sup,
            "iterations": self.iterations,
            "dist_to_u_minus": self.dist_to_u_minus,
            "dist_to_u_plus": self.dist_to_u_plus,
            "epsilon_used": self.epsilon_used,
        }


def _newton_even(ctx: OperatorContext, bb: BumpBounds, u0: np.ndarray,
                 tol: float, max_iter: int) -> tuple[np.ndarray, int]:
    """Damped Newton for u = Tu on the even-symmetric subspace.

    Unknowns are the node values at x >= 0; the mirror image fixes the rest and
    removes the near-singular translation mode of the unsymmetrized Jacobian.
    """
    n = ctx.grid.n
    mid = n // 2
    h = ctx.params.h

    def mirror(v):
        return np.concatenate([v[:0:-1], v])

    def residual(v):
        full = mirror(v)
        return v - ctx.apply_T_values(full)[mid:]

    v = u0[mid:].copy()
    r = residual(v)
    rnorm = float(np.max(np.abs(r)))
    K = ctx.kernel_matrix()[mid:, :]
    for it in range(1, max_iter + 1):
        if rnorm <= tol:
            return mirror(v), it - 1
        full = mirror(v)
        gain = ctx.firing.deriv(full - h) * ctx.weights
        M = K * gain[None, :]
        # fold the mirrored columns onto the x >= 0 unknowns
        Mred = M[:, mid:].copy()
        Mred[:, 1:] += M[:, mid - 1::-1]
        J = np.eye(n // 2 + 1) - Mred
        step = np.linalg.solve(J, r)
        lam = 1.0
        for _ in range(40):
            v_try = v - lam * step
            r_try = residual(v_try)
            rnorm_try = float(np.max(np.abs(r_try)))
            if rnorm_try < rnorm:
                break
            lam /= 2.0
        else:
            raise NewtonDivergence(
                f"damping exhausted at residual {rnorm:.3e} (iteration {it})")
        v, r, rnorm = v_try, r_try, rnorm_try
    if rnorm <= tol:
        return mirror(v), max_iter
    raise NewtonDivergence(f"no convergence in {max_iter} Newton steps "
                           f"(residual {rnorm:.3e})")


def solve_third_fixed_point(ctx: OperatorContext, bb: BumpBounds,
                            tol: float = 1e-10, max_iter: int = 60,
                            degeneracy_threshold: float = 1e-2,
                            mixes: tuple[float, ...] = (0.5, 0.35, 0.65, 0.25, 0.75),
                            epsilon: float | None = None) -> FixedPointResult:
    """Find the interior fixed point separated from both bounding profiles.

    Starts Newton from convex combinations lam*u_minus + (1-lam)*u_plus and
    rejects runs that collapse onto either bound (degeneracy threshold is
    relative to the gap norm).
    """
    gap = bb.gap_norm()
    sep_min = degeneracy_threshold * gap
    last_exc: Exception | None = None
    for lam in mixes:
        u0 = lam * bb.u_minus.values + (1.0 - lam) * bb.u_plus.values
        try:
            u, iters = _newton_even(ctx, bb, u0, tol, max_iter)
        except NewtonDivergence as exc:
            last_exc = exc
            continue
        d_lo = float(np.max(np.abs(u - bb.u_minus.values)))
        d_hi = float(np.max(np.abs(u - bb.u_plus.values)))
        if min(d_lo, d_hi) < sep_min:
            last_exc = DegenerateFixedPoint(
                f"Newton from mix {lam} collapsed onto a bounding profile "
                f"(separations {d_lo:.3e}, {d_hi:.3e})")
            continue
        resid = float(np.max(np.abs(u - ctx.apply_T_values(u))))
        return FixedPointResult(Profile(ctx.grid, u), resid, iters,
                                d_lo, d_hi, epsilon_used=epsilon)
    raise last_exc if last_exc is not None else NewtonDivergence("no Newton run converged")


def tail_extension(kernel: Kernel, d: float, tol: float = 1e-10,
                   search_limit: float = 1e4) -> float:
    """Smallest x_tail with sup_{y in [-d,d]} omega(x - y) * 2d <= tol for x >= d + x_tail.

    For a kernel decreasing in |x| beyond its core the supremum sits at y = d,
    so x_tail solves omega(x_tail) * 2d = tol on the decreasing branch.
    """
    target = tol / (2.0 * d)
    x = d
    while float(kernel(x)) > target:
        x *= 2.0
        if x > search_limit:
            raise ValueError("kernel tail does not decay below the truncation target")
    lo, hi = x / 2.0, x
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(kernel(mid)) > target:
            lo = mid
        else:
            hi = mid
    return hi


def make_extension_grid(kernel: Kernel, grid_d: Grid, tail_tol: float = 1e-10,
                        L_override: float | None = None) -> Grid:
    """Grid on [-L, L] with the same spacing, embedding the [-d, d] nodes.

    L defaults to d plus the certified tail length, rounded up to a node.
    """
    d = grid_d.hi
    dx = grid_d.dx
    x_tail = (L_override - d) if L_override is not None else tail_extension(kernel, d, tail_tol)
    if x_tail <= 0.0:
        raise ValueError("extension length must be positive")
    extra = int(math.ceil(x_tail / dx - 1e-12))
    L = d + extra * dx
    return Grid(-L, L, grid_d.n + 2 * extra)


def embed_offset(small: Grid, big: Grid, tol: float = 1e-9) -> int:
    """Index of the small grid's first node inside the big grid."""
    if abs(small.dx - big.dx) > tol * big.dx:
        raise GridMisaligned(f"spacings differ: {small.dx} vs {big.dx}")
    off = (small.lo - big.lo) / big.dx
    k = round(off)
    if abs(off - k) > 1e-6 or k < 0 or k + small.n > big.n:
        raise GridMisaligned("small grid nodes are not embedded in the big grid")
    return k


def extend_bump(ctx: OperatorContext, u_star: Profile,
                ctx_big: OperatorContext) -> Profile:
    """Whole-line bump on the grid of ctx_big: the kernel convolved with
    f(u_star - h) over [-d, d], i.e. T on ctx_big applied to a source that is
    zero outside the embedded [-d, d] nodes."""
    k = embed_offset(ctx.grid, ctx_big.grid)
    src = np.zeros(ctx_big.grid.n_nodes)
    src[k:k + ctx.grid.n_nodes] = ctx.weights * ctx.firing(u_star.values - ctx.params.h)
    return Profile(ctx_big.grid, ctx_big.apply_weighted(src))


def stationary_residual(ctx_big: OperatorContext, u: Profile) -> float:
    """Sup-norm residual of u = T u on the context grid."""
    return float(np.max(np.abs(u.values - ctx_big.apply_T_values(u.values))))


def verify_translation_family(ctx_big: OperatorContext, u_tilde: Profile,
                              c: float) -> float:
    """Residual of the stationary equation on the profile shifted by c.

    c must be a multiple of the grid spacing, and the shifted supra-threshold
    support must stay inside the working interval with the tail margin.
    """
    dx = ctx_big.grid.dx
    k = round(c / dx)
    if abs(c - k * dx) > 1e-9 * max(1.0, abs(c)):
        raise ShiftOutOfRange(f"shift {c} is not a multiple of the spacing {dx}")
    vals = u_tilde.values
    supra = np.nonzero(vals > ctx_big.params.h)[0]
    if supra.size:
        margin_cells = min(supra[0], len(vals) - 1 - supra[-1])
        if abs(k) >= margin_cells:
            raise ShiftOutOfRange(
                f"shift of {k} cells exceeds the {margin_cells}-cell support margin")
    shifted = np.roll(vals, k)
    if k > 0:
        shifted[:k] = vals[0]
    elif k < 0:
        shifted[k:] = vals[-1]
    return stationary_residual(ctx_big, Profile(ctx_big.grid, shifted))
