"""Method-of-lines integration of u_t = -u + Tu and the escape experiment
demonstrating Lyapunov instability of the computed bump.

An RK4 step computes its stages on ``OperatorContext.step_window`` only: the
nodes where u > h, widened by a block on each side.  Off that window each
stage state is a_i u + K c_i, K the kernel convolution and c_i a mix of the
earlier stage sources, so the new state there is one whole-line convolution.
Before each stage the step checks a_i u + |c_i|_1 max|omega| <= h off the
window, which keeps the stage's source zero there, and else reruns on the
whole grid; either way the supra-threshold sets are the whole-grid step's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonFinite, PerturbationTooLarge
from .fixedpoint import OperatorContext
from .grids import Profile

#: the most steps a run may ask for (about 1 ms each on the reference grid)
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.01
    t_end: float = 60.0

    def __post_init__(self):
        if self.dt <= 0.0 or self.t_end <= 0.0:
            raise ValueError("need dt > 0 and t_end > 0")
        if self.dt > 0.1:
            raise ValueError("rk4 default accuracy budget requires dt <= 0.1")
        if not self.t_end / self.dt <= MAX_STEPS:  # inf once it overflows
            raise ConfigError(f"dynamics.dt: t_end / dt = {self.t_end / self.dt:.6g} "
                              f"steps exceed the affordable {MAX_STEPS}")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray = field(repr=False)
    deviation_sup: np.ndarray = field(repr=False)


def step_values(ctx: OperatorContext, u: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """One RK4 step of u_t = -u + Tu."""
    out = _rk4_step(ctx, u, cfg.dt, *ctx.step_window(u))
    return _rk4_step(ctx, u, cfg.dt, 0, ctx.grid.n) if out is None else out


def _rk4_step(ctx: OperatorContext, u: np.ndarray, dt: float,
              lo: int, hi: int) -> np.ndarray | None:
    """One RK4 step from u with its stages computed on the nodes [lo, hi],
    which hold every node where u > h, or None if a stage state may exceed h
    outside them."""
    inside, rest = u[lo:hi + 1], np.concatenate([u[:lo], u[hi + 1:]])
    top = rest.max() if rest.size else 0.0
    y, a, c, slopes, a_f, c_f = inside, 1.0, 0.0, 0.0, 1.0, 0.0
    # (share of dt from the last slope to the next stage, slope weight)
    for offset, weight in ((0.5, 1.0), (0.5, 2.0), (1.0, 2.0), (0.0, 1.0)):
        Ty, s = ctx.apply_T_window(y, lo)
        k = Ty - y
        slopes = slopes + weight * k
        y = inside + offset * dt * k
        if rest.size:
            # off the window this slope is -a u + K (s - c), and the next
            # stage state is (1 - offset dt a) u + K (offset dt (s - c))
            s = s - c
            a_f -= dt / 6.0 * weight * a
            c_f = c_f + dt / 6.0 * weight * s
            a, c = 1.0 - offset * dt * a, offset * dt * s
            if offset and not (a * (top if a >= 0.0 else rest.min())
                               + ctx.weighted_bound(c, lo) <= ctx.params.h):
                return None
    new = inside + (dt / 6.0) * slopes
    if not rest.size:
        return new
    out = a_f * u + ctx.apply_weighted(c_f, lo)
    out[lo:hi + 1] = new
    return out


def simulate(ctx: OperatorContext, u0: Profile, u_ref: Profile, cfg: SimConfig,
             stop_at: float | None = None) -> Trajectory:
    """Integrate to t_end, recording the sup deviation from u_ref after every step.

    With ``stop_at``, integration ends early at the first recorded deviation
    >= stop_at.  Raises NonFinite (carrying the partial trajectory) as soon as
    a step overflows.
    """
    n_steps = int(round(cfg.t_end / cfg.dt))
    u = u0.values.copy()
    ref = u_ref.values
    times = [0.0]
    devs = [float(np.max(np.abs(u - ref)))]
    for i in range(1, n_steps + 1):
        if stop_at is not None and devs[-1] >= stop_at:
            break
        u = step_values(ctx, u, cfg)
        if not np.all(np.isfinite(u)):
            raise NonFinite(f"state became non-finite at t={i * cfg.dt:.6g}",
                            trajectory=Trajectory(np.asarray(times), np.asarray(devs)))
        times.append(i * cfg.dt)
        devs.append(float(np.max(np.abs(u - ref))))
    return Trajectory(np.asarray(times), np.asarray(devs))


def instability_experiment(ctx: OperatorContext, u_tilde: Profile,
                           v_principal: Profile, delta: float,
                           epsilon_ball: float, cfg: SimConfig,
                           lambda_max: float | None = None) -> dict:
    """Perturb the bump along the principal mode and time its escape.

    The growth rate is fitted on the window where the deviation lies in
    [2 delta, 10 delta], clear of both the transient and the nonlinear
    saturation regime.  Integration stops at the first sample outside the
    epsilon ball, which gives the escape time; as epsilon_ball > 10 delta,
    that sample lies above the fit window.  A deviation that stays inside the
    ball up to t_end gives an escape time of None.
    """
    if delta >= epsilon_ball / 10.0:
        raise PerturbationTooLarge(
            f"delta = {delta:.6g} is not below epsilon_ball / 10 = "
            f"{epsilon_ball / 10.0:.6g} (epsilon_ball = {epsilon_ball:.6g}), "
            "so no linear growth window fits inside the ball")
    vmax = float(np.max(np.abs(v_principal.values)))
    if abs(vmax - 1.0) > 1e-8:
        raise ValueError("principal direction must have sup-norm 1")
    u0 = Profile(ctx.grid, u_tilde.values + delta * v_principal.values)
    traj = simulate(ctx, u0, u_tilde, cfg, stop_at=epsilon_ball)

    window = (traj.deviation_sup >= 2.0 * delta) & (traj.deviation_sup <= 10.0 * delta)
    growth_rate = None
    if np.sum(window) >= 2:
        growth_rate = float(np.polyfit(traj.times[window],
                                       np.log(traj.deviation_sup[window]), 1)[0])

    escaped = np.nonzero(traj.deviation_sup >= epsilon_ball)[0]
    escape_time = float(traj.times[escaped[0]]) if escaped.size else None
    predicted = None
    if lambda_max is not None and lambda_max > 1.0:
        predicted = float(np.log(epsilon_ball / delta) / (lambda_max - 1.0))
    return {
        "growth_rate": growth_rate,
        "escape_time": escape_time,
        "predicted_escape": predicted,
        "trajectory": traj,
    }
