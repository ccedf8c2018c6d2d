"""Method-of-lines integration of u_t = -u + Tu and the escape experiment
demonstrating Lyapunov instability of the computed bump.

An RK4 step computes its stages on ``OperatorContext.step_window`` only: the
nodes where u > h, widened by a block on each side.  Off that window each
stage state is a_i u + K c_i, K the kernel convolution and c_i a mix of the
earlier stage sources, so the new state there is a_f u + K c_f.  Before each
stage the step checks a_i top + |c_i|_1 E[0] <= h off the window, top an
upper bound of u there, a_i > 0 and E ``OperatorContext.envelope``, which
keeps the stage's source zero there, and else reruns on the whole grid;
either way the supra-threshold sets are the whole-grid step's.

A run (``LineState``) keeps the state off the window in that form, u = A u0
+ K C, u0 the state when the whole line was last built, A the product of the
steps' a_f and C <- a_f C + c_f a source on the window, so a step costs
O(window).  After each step one product gives the state on two guard bands
beside the window, each as wide as it, and beyond them
|u - ref| <= |A| max|u0 - ref| + |C - (1 - A) s|_1 E[w + 2] + |1 - A| max|ref - K s|,
s ref's source on the window and w + 1 its width, so E[w + 2] is the largest
|omega| at the lags past the bands.  While the bands and that bound lie below
the deviation on the window, the deviation is that on-window maximum,
exactly; the whole line is built (one product) only where they do not, where
the step window would move, or where the state is not finite.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NonFinite
from .fixedpoint import OperatorContext
from .grids import Profile

#: the most steps a run may ask for (about 0.35 ms each on the reference grid)
MAX_STEPS = 1_000_000


class SimConfig:
    """The config's ``dynamics`` section: the RK4 step and horizon, and the
    escape run's perturbation delta."""

    def __init__(self, dt: float = 0.01, t_end: float = 60.0, delta: float = 1e-3):
        if dt <= 0.0 or t_end <= 0.0:
            raise ValueError("need dt > 0 and t_end > 0")
        if dt > 0.1:
            raise ValueError("rk4 default accuracy budget requires dt <= 0.1")
        if not t_end / dt <= MAX_STEPS:  # inf once it overflows
            raise ConfigError(f"dynamics.dt: t_end / dt = {t_end / dt:.6g} "
                              f"steps exceed the affordable {MAX_STEPS}")
        self.dt, self.t_end, self.delta = dt, t_end, delta

    def ball(self, u_tilde: Profile) -> float:
        """The epsilon ball's radius around the bump u_tilde: 0.05 sup|u_tilde|."""
        return 0.05 * u_tilde.sup_norm()


class Trajectory(NamedTuple):
    times: np.ndarray
    deviation_sup: np.ndarray


def _off(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The entries of x off the nodes [lo, hi]."""
    return np.concatenate([x[:lo], x[hi + 1:]])


class LineState:
    """A state u on the grid of ``ctx``: exact on the step window [lo, hi]
    and A u0 + K C off it (see the module docstring), with ``deviation`` =
    sup|u - ref| and ``finite`` whether u is finite.  ``top`` bounds u off
    the window from above; None reads it from u."""

    def __init__(self, ctx: OperatorContext, values: np.ndarray, ref: np.ndarray):
        self.ctx, self.ref = ctx, ref
        self._ref_terms = None
        self._restart(np.array(values, dtype=float))

    def _restart(self, values: np.ndarray) -> None:
        """Continue from the whole-line values: u0 = values, A = 1, C = 0."""
        self.u, self.a, self.c = values, 1.0, None
        self.lo, self.hi = self.ctx.step_window(values)
        self.top = self._window_terms = None
        self.finite = bool(np.all(np.isfinite(values)))
        dev = np.abs(values - self.ref)
        self.deviation = float(np.max(dev))
        width = self.hi - self.lo + 1
        self.bands = max(0, self.lo - width), min(self.ctx.grid.n, self.hi + width)
        self._d0 = float(np.max(_off(dev, *self.bands), initial=0.0))

    def values(self) -> np.ndarray:
        """The whole-line values of u, by one product once a step has run."""
        if self.c is None:
            return self.u
        out = self.a * self.u + self.ctx.apply_weighted(self.c, self.lo)
        out[self.lo:self.hi + 1] = self.u[self.lo:self.hi + 1]
        return out

    def step(self, dt: float) -> LineState:
        """Advance u by one RK4 step, in place."""
        ctx, lo, hi = self.ctx, self.lo, self.hi
        out = _rk4_step(ctx, self.u, dt, lo, hi, self.top)
        if out is None:
            self._restart(_rk4_step(ctx, self.values(), dt, 0, ctx.grid.n)[0])
            return self
        new, a_f, c_f = out
        if (lo, hi) == (0, ctx.grid.n):
            self._restart(new)
            return self
        self.u[lo:hi + 1] = new
        self.a *= a_f
        self.c = c_f if self.c is None else a_f * self.c + c_f
        if not self._settle():
            self._restart(self.values())
        return self

    def _settle(self) -> bool:
        """After a windowed step, set the deviation and the bounds off the
        window from the guard bands and the bound beyond them; False where
        they do not settle it, the step window would move, or u is not
        finite."""
        ctx, ref, lo, hi, a = self.ctx, self.ref, self.lo, self.hi, self.a
        terms = self._far_terms()
        if terms is None:
            return False
        s, reach, ref_hi, r_far = terms
        inside = self.u[lo:hi + 1]
        on = float(np.max(np.abs(inside - ref[lo:hi + 1])))
        far = (abs(a) * self._d0 + abs(1.0 - a) * r_far
               + float(np.sum(np.abs(self.c - (1.0 - a) * s))) * reach)
        if not far < on:
            return False
        b_lo, b_hi = self.bands
        near = a * self.u[b_lo:b_hi + 1] + ctx.apply_weighted(self.c, lo, b_lo, b_hi)
        bands = _off(near, lo - b_lo, hi - b_lo)
        band_dev = np.max(np.abs(bands - _off(ref[b_lo:b_hi + 1], lo - b_lo, hi - b_lo)))
        top = max(float(np.max(bands)), ref_hi + far)
        if not (band_dev < on and top <= ctx.h
                and ctx.step_window(inside, lo) == (lo, hi)):
            return False
        self.top = top
        self.deviation, self.finite = on, True
        return True

    def _far_terms(self) -> tuple[np.ndarray, float, float, float] | None:
        """ref's weighted source s on the step window, the envelope E at the
        lags from the window past the bands, and beyond the bands the max of
        ref and max|ref - K s|; None if ref's source reaches off the window.
        One product per run gives K s = T ref."""
        ctx, ref, lo, hi = self.ctx, self.ref, self.lo, self.hi
        if self._ref_terms is None:
            t_ref, src = ctx.apply_T_window(ref, 0)
            self._ref_terms = src, np.flatnonzero(src), np.abs(ref - t_ref)
        src, fires, residual = self._ref_terms
        if fires.size and not lo <= fires[0] <= fires[-1] <= hi:
            return None
        if self._window_terms is None:
            self._window_terms = (
                src[lo:hi + 1], float(ctx.envelope[hi - lo + 2]),
                float(np.max(_off(ref, *self.bands), initial=-np.inf)),
                float(np.max(_off(residual, *self.bands), initial=0.0)))
        return self._window_terms


def step_values(ctx: OperatorContext, u: LineState, cfg: SimConfig) -> LineState:
    """One RK4 step of u_t = -u + Tu, advancing u (on ctx's grid) in place."""
    return u.step(cfg.dt)


def _rk4_step(ctx: OperatorContext, u: np.ndarray, dt: float, lo: int, hi: int,
              top: float | None = None):
    """One RK4 step from u with its stages computed on the nodes [lo, hi],
    which hold every node where u > h: the new values there, and a_f and c_f,
    the new state off them being a_f u + K c_f; or None if a stage state may
    exceed h off them.  u off [lo, hi] is at most top, by default its max
    there."""
    inside = u[lo:hi + 1]
    outside = hi - lo < ctx.grid.n
    if outside and top is None:
        top = _off(u, lo, hi).max()
    y, a, c, slopes, a_f, c_f = inside, 1.0, 0.0, 0.0, 1.0, 0.0
    # (share of dt from the last slope to the next stage, slope weight)
    for offset, weight in ((0.5, 1.0), (0.5, 2.0), (1.0, 2.0), (0.0, 1.0)):
        Ty, s = ctx.apply_T_window(y, lo)
        k = Ty - y
        slopes = slopes + weight * k
        y = inside + offset * dt * k
        if outside:
            # off the window this slope is -a u + K (s - c), and the next
            # stage state is (1 - offset dt a) u + K (offset dt (s - c))
            s = s - c
            a_f -= dt / 6.0 * weight * a
            c_f = c_f + dt / 6.0 * weight * s
            a, c = 1.0 - offset * dt * a, offset * dt * s
            # a lies in [0.9, 1) for every dt that SimConfig admits (dt <= 0.1),
            # so a u <= a top off the window and the bound needs no minimum of u
            if offset and not (a * top + float(np.sum(np.abs(c))) * ctx.envelope[0]
                               <= ctx.h):
                return None
    return inside + (dt / 6.0) * slopes, a_f, c_f


def simulate(ctx: OperatorContext, u0: Profile, u_ref: Profile, cfg: SimConfig,
             stop_at: float | None = None) -> Trajectory:
    """Integrate to t_end, recording the sup deviation from u_ref after every step.

    With ``stop_at``, integration ends early at the first recorded deviation
    >= stop_at.  Raises NonFinite (carrying the partial trajectory) as soon as
    a step overflows.
    """
    n_steps = int(round(cfg.t_end / cfg.dt))
    u = LineState(ctx, u0.values, u_ref.values)
    times = [0.0]
    devs = [u.deviation]
    for i in range(1, n_steps + 1):
        if stop_at is not None and devs[-1] >= stop_at:
            break
        u = step_values(ctx, u, cfg)
        if not u.finite:
            raise NonFinite(f"state became non-finite at t={i * cfg.dt:.6g}",
                            trajectory=Trajectory(np.asarray(times), np.asarray(devs)))
        times.append(i * cfg.dt)
        devs.append(u.deviation)
    return Trajectory(np.asarray(times), np.asarray(devs))


def instability_experiment(ctx: OperatorContext, u_tilde: Profile,
                           v_principal: Profile, cfg: SimConfig,
                           lambda_max: float) -> dict:
    """Perturb the bump by ``cfg.delta`` along the principal mode and time
    its escape from the ball of radius ``cfg.ball(u_tilde)``.

    The growth rate is fitted on the window where the deviation lies in
    [2 delta, 10 delta], clear of both the transient and the nonlinear
    saturation regime.  Integration stops at the first sample outside the
    epsilon ball, which gives the escape time; as epsilon_ball > 10 delta,
    that sample lies above the fit window, and a delta that leaves no such
    window is a ConfigError.  A deviation that stays inside the ball up to
    t_end gives an escape time of None; ``epsilon_ball`` is the ball's radius.
    """
    delta, epsilon_ball = cfg.delta, cfg.ball(u_tilde)
    if delta >= epsilon_ball / 10.0:
        raise ConfigError(
            f"dynamics.delta: delta = {delta:.6g} is not below epsilon_ball / 10 = "
            f"{epsilon_ball / 10.0:.6g} (epsilon_ball = {epsilon_ball:.6g}), "
            "so no linear growth window fits inside the ball; epsilon_ball is "
            "the default 0.05 * sup|u_tilde|")
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

    escaped = traj.deviation_sup[-1] >= epsilon_ball
    escape_time = float(traj.times[-1]) if escaped else None
    predicted = None
    if lambda_max > 1.0:
        predicted = float(np.log(epsilon_ball / delta) / (lambda_max - 1.0))
    return {
        "growth_rate": growth_rate,
        "escape_time": escape_time,
        "predicted_escape": predicted,
        "epsilon_ball": epsilon_ball,
        "trajectory": traj,
    }
