"""Reference implementations that only the tests use.

The dense ones build the full matrix that the package applies through FFT
products, so they serve moderate grids only.  The rest are the plain form of
a step the package computes more cheaply (the whole-grid RK4 step), or checks
that no certify stage runs (the clamped iteration, the translation family).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from neurofield.errors import GridMisaligned, NeurofieldError, NoConvergence
from neurofield.grids import Profile


class ShiftOutOfRange(NeurofieldError):
    """Requested translation pushes the profile support outside the working interval."""


def dense_linearization(lin):
    """The matrix w_j omega(x_i - x_j) g_j of a ``Linearization``."""
    return lin.ctx.kernel_matrix() * (lin.weights * lin.gains)[None, :]


def dense_eigenvalues(lin):
    """Every support eigenvalue of a ``Linearization``, descending, by
    ``eigvalsh`` on the symmetrized support block s K s, s = sqrt(w g)."""
    idx = lin.support
    if idx.size == 0:
        return np.zeros(0)
    x = lin.ctx.nodes[idx]
    K = np.asarray(lin.ctx.kernel(x[:, None] - x[None, :]))
    s = np.sqrt(lin.weights[idx] * lin.gains[idx])
    return np.linalg.eigvalsh(K * s[None, :] * s[:, None])[::-1]


def dense_even_jacobian(ctx, v):
    """Jacobian at v of the even-subspace residual v - T(mirror v)[x >= 0]:
    the kernel block of the x >= 0 rows with the mirrored columns folded onto
    the x >= 0 unknowns."""
    n = ctx.grid.n
    mid = n // 2
    full = np.concatenate([v[:0:-1], v])
    gain = ctx.firing.deriv(full - ctx.params.h) * ctx.weights
    M = ctx.kernel_matrix()[mid:, :] * gain[None, :]
    folded = M[:, mid:].copy()
    folded[:, 1:] += M[:, mid - 1::-1]
    return np.eye(mid + 1) - folded


def whole_grid_rk4_step(ctx, u, dt):
    """The classical RK4 step of u_t = -u + Tu with every stage on the whole grid."""
    def rhs(y):
        return -y + ctx.apply_T_values(y)
    k1 = rhs(u)
    k2 = rhs(u + 0.5 * dt * k1)
    k3 = rhs(u + 0.5 * dt * k2)
    k4 = rhs(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def apply_T(ctx, u: Profile) -> Profile:
    """One application of the Hammerstein operator on the context grid."""
    if u.grid != ctx.grid:
        raise GridMisaligned("profile does not live on the operator grid")
    return Profile(ctx.grid, ctx.apply_T_values(u.values))


@dataclass(frozen=True)
class MonotoneTrace:
    """Record of a clamped-operator iteration run."""

    iterations: int
    sup_steps: tuple[float, ...]
    monotone_ok: bool
    direction: str  # "decreasing" | "increasing" | "stationary"


def monotone_iterate(ctx, bb, start: Profile, tol: float = 1e-10,
                     max_iter: int = 10_000) -> tuple[Profile, MonotoneTrace]:
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


def stationary_residual(ctx_big, u: Profile) -> float:
    """Sup-norm residual of u = T u on the context grid."""
    return float(np.max(np.abs(u.values - ctx_big.apply_T_values(u.values))))


def verify_translation_family(ctx_big, u_tilde: Profile, c: float) -> float:
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
