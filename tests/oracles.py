"""Reference implementations that only the tests use.

The dense ones build the full matrix that the package applies through FFT
products, so they serve moderate grids only.  The rest are the plain form of
a step the package computes more cheaply (the whole-grid RK4 step), or checks
that no certify stage runs (the clamped iteration, the translation family,
the Heaviside stationarity of u_minus and u_plus, and the two formulations of
condition (vii)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from neurofield.assumptions import DEFAULT_PROBE, _vii_violation
from neurofield.errors import GridMisaligned, NeurofieldError, NoConvergence
from neurofield.grids import Grid, Profile, quadrature_weights
from neurofield.quadrature import CumulativeKernel, indicator_convolution


class ShiftOutOfRange(NeurofieldError):
    """Requested translation pushes the profile support outside the working interval."""


def dense_linearization(lin):
    """The matrix w_j omega(x_i - x_j) g_j of a ``Linearization``."""
    return lin.ctx.kernel_matrix() * (lin.weights * lin.gains)[None, :]


def sample(grid: Grid, fn) -> Profile:
    """Sample a vectorized callable on the grid nodes."""
    return Profile(grid, np.asarray(fn(grid.nodes()), dtype=float))


def integrate(p: Profile) -> float:
    """Composite trapezoid approximation of the integral of p over its interval."""
    return float(np.dot(quadrature_weights(p.grid), p.values))


def apply_integral_operator(kernel, weight: Profile, targets: Grid) -> Profile:
    """Nystrom application: x -> integral of omega(x - y) weight(y) dy at the target nodes.

    Direct quadrature-weighted summation, chunked over target nodes to bound the
    size of the kernel-difference block.
    """
    w = quadrature_weights(weight.grid)
    src = weight.grid.nodes()
    wv = w * weight.values
    tgt = targets.nodes()
    out = np.empty(len(tgt))
    chunk = max(1, 16_000_000 // max(len(src), 1))
    for start in range(0, len(tgt), chunk):
        block = tgt[start:start + chunk, None] - src[None, :]
        out[start:start + chunk] = kernel(block) @ wv
    return Profile(targets, out)


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


def verify_heaviside_stationarity(kernel, bb, probe: Grid) -> dict:
    """Numeric battery for the Heaviside stationarity of u_minus and u_plus.

    On the probe grid: u_minus >= h on [0, delta_minus] and < h strictly beyond
    (one grid cell of slack at the boundary), analogously u_plus against
    h + tau; the supra-threshold supports match [-delta, delta] within one
    cell; and both profiles satisfy their Heaviside fixed-point identity
    within quadrature error.
    """
    W = CumulativeKernel(kernel)
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


def check_lemma1_equivalence(kernel, d: float, probe: Grid | None = None,
                             n_sample: int = 200) -> dict:
    """Sampled cross-check of the two equivalent formulations of condition (vii).

    Formulation one: omega decreasing on [0, 2d] and omega(x) <= omega(2d) for
    x >= 2d.  Formulation two: omega(x - y) <= omega(d - y) for all x > d and
    y in [-d, d].  Both verdicts are returned; they must agree.
    """
    if d <= 0.0:
        raise ValueError(f"need d > 0, got d={d}")
    probe = probe or DEFAULT_PROBE
    xs = probe.nodes()
    vii_violation = _vii_violation(kernel, xs, np.asarray(kernel(xs)), d)

    x_samples = d + np.linspace(probe.dx, probe.hi - d, n_sample)
    y_samples = np.linspace(-d, d, n_sample)
    lhs = kernel(x_samples[:, None] - y_samples[None, :])
    rhs = kernel(d - y_samples)[None, :]
    eq_violation = float(np.max(lhs - rhs))

    tol = 1e-12
    return {
        "vii_holds": vii_violation <= tol,
        "eq_cond_holds": eq_violation <= tol,
        "agree": (vii_violation <= tol) == (eq_violation <= tol),
        "worst_violation": float(max(vii_violation, eq_violation)),
    }
