"""Method-of-lines integration of u_t = -u + Tu and the escape experiment
demonstrating Lyapunov instability of the computed bump."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoEscape, NonFinite, PerturbationTooLarge
from .fixedpoint import OperatorContext
from .grids import Profile

RK4 = "rk4"
EXP_EULER = "exp_euler"


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.01
    t_end: float = 60.0
    scheme: str = RK4

    def __post_init__(self):
        if self.dt <= 0.0 or self.t_end <= 0.0:
            raise ValueError("need dt > 0 and t_end > 0")
        if self.scheme not in (RK4, EXP_EULER):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == RK4 and self.dt > 0.1:
            raise ValueError("rk4 default accuracy budget requires dt <= 0.1")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray = field(repr=False)
    deviation_sup: np.ndarray = field(repr=False)


def _rhs(ctx: OperatorContext, u: np.ndarray) -> np.ndarray:
    return -u + ctx.apply_T_values(u)


def step_values(ctx: OperatorContext, u: np.ndarray, cfg: SimConfig) -> np.ndarray:
    dt = cfg.dt
    if cfg.scheme == RK4:
        k1 = _rhs(ctx, u)
        k2 = _rhs(ctx, u + 0.5 * dt * k1)
        k3 = _rhs(ctx, u + 0.5 * dt * k2)
        k4 = _rhs(ctx, u + dt * k3)
        return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # exponential Euler: the linear part is exactly -u, integrated exactly
    decay = np.exp(-dt)
    return decay * u + (1.0 - decay) * ctx.apply_T_values(u)


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
    that sample lies above the fit window.
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
    if escape_time is None and lambda_max is not None and lambda_max > 1.0 + 1e-6:
        raise NoEscape(
            f"deviation never reached {epsilon_ball:.3g} by t={cfg.t_end} despite "
            f"a positive spectral margin {lambda_max - 1.0:.3g}")
    return {
        "growth_rate": growth_rate,
        "escape_time": escape_time,
        "predicted_escape": predicted,
        "trajectory": traj,
    }
