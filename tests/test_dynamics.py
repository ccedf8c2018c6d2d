import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neurofield.dynamics import (EXP_EULER, RK4, SimConfig, _rk4_step,
                                 instability_experiment, simulate,
                                 step_values)
from neurofield.errors import NoEscape, NonFinite
from neurofield.fixedpoint import (OperatorContext, extend_bump,
                                   make_extension_grid)
from neurofield.grids import Profile
from neurofield.spectral import Linearization, spectral_radius
from oracles import whole_grid_rk4_step


@pytest.fixture(scope="module")
def setup(coarse_setup):
    ctx_big = coarse_setup["ctx_big"]
    u_tilde = coarse_setup["u_tilde"]
    lin = Linearization(ctx_big, u_tilde)
    lam, vec = spectral_radius(lin)
    return {"ctx": ctx_big, "u": u_tilde, "lam": lam, "vec": vec}


def test_sim_config_validation():
    SimConfig(dt=0.05, t_end=10.0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(scheme="euler")
    with pytest.raises(ValueError):
        SimConfig(dt=0.5, scheme=RK4)
    SimConfig(dt=0.5, scheme=EXP_EULER)


def test_equilibrium_is_stationary(setup):
    cfg = SimConfig(dt=0.05, t_end=1.0)
    out = step_values(setup["ctx"], setup["u"].values, cfg)
    assert np.max(np.abs(out - setup["u"].values)) < 1e-12


def test_zero_stays_zero(setup):
    g = setup["ctx"].grid
    zero = Profile(g, np.zeros(g.n_nodes))
    traj = simulate(setup["ctx"], zero, zero, SimConfig(dt=0.05, t_end=2.0))
    assert np.max(traj.deviation_sup) == 0.0


def _matches_whole_grid_step(ctx, u, dt):
    out = step_values(ctx, u, SimConfig(dt=dt))
    ref = whole_grid_rk4_step(ctx, u, dt)
    return np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(u))


def _takes_window(ctx, u, dt):
    window = ctx.step_window(u)
    return (window != (0, ctx.grid.n)
            and _rk4_step(ctx, u, dt, *window) is not None)


def test_window_step_matches_whole_grid_step(kernel_setup):
    # an extension grid of 16 d leaves the step window below a sixth of it
    ctx, fp = kernel_setup["ctx"], kernel_setup["fp"]
    grid = make_extension_grid(ctx.kernel, ctx.grid, L_override=16.0 * ctx.grid.hi)
    big = OperatorContext(ctx.kernel, ctx.firing, ctx.params, grid)
    u = extend_bump(ctx, fp.u_star, big).values
    x = big.nodes
    for state in (u, u + 1e-3 * np.cos(3.0 * x) * np.exp(-np.abs(x))):
        for dt in (0.01, 0.1):
            assert _takes_window(big, state, dt)
            assert _matches_whole_grid_step(big, state, dt)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(amplitude=st.floats(1e-8, 0.5),
       bumps=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(0.05, 2.0),
                                st.floats(-1.0, 1.0)), min_size=1, max_size=3))
def test_window_step_matches_whole_grid_step_property(setup, amplitude, bumps):
    # any direction of Gaussian bumps and any amplitude; large ones may push
    # a stage past h outside the window, which reruns on the whole grid
    ctx, x = setup["ctx"], setup["ctx"].nodes
    direction = sum(w * np.exp(-((x - c) / s) ** 2) for c, s, w in bumps)
    u = setup["u"].values + amplitude * direction
    assert _matches_whole_grid_step(ctx, u, 0.01)


def test_stage_crossing_outside_window_reruns_on_whole_grid(setup):
    # a saturated plateau, and just outside its step window a stretch that
    # sits 1e-9 below h while T there exceeds h: the second stage fires there
    ctx, h, dt = setup["ctx"], setup["ctx"].params.h, 0.1
    n = ctx.grid.n
    u = np.zeros(n + 1)
    u[n // 2 - 50:n // 2 + 50] = 1.0
    lo, hi = ctx.step_window(u)
    u[hi + 1:hi + 40] = h - 1e-9
    assert ctx.step_window(u) == (lo, hi)
    y2 = u + 0.5 * dt * (ctx.apply_T_values(u) - u)
    assert y2[hi + 1] > h
    assert _matches_whole_grid_step(ctx, u, dt)
    assert _rk4_step(ctx, u, dt, lo, hi) is None


def test_zero_and_nan_states_step_as_on_the_whole_grid(setup):
    ctx = setup["ctx"]
    zero = np.zeros(ctx.grid.n_nodes)
    out = step_values(ctx, zero, SimConfig())
    assert np.array_equal(out, zero)
    assert np.array_equal(out, whole_grid_rk4_step(ctx, zero, 0.01))
    nan = np.full(ctx.grid.n_nodes, np.nan)
    assert np.all(np.isnan(step_values(ctx, nan, SimConfig())))
    assert np.all(np.isnan(whole_grid_rk4_step(ctx, nan, 0.01)))


def test_unperturbed_drift_small(ref_ctx_big, ref_u_tilde):
    # needs the fine reference grid and a small dt: a larger residual seed
    # would be amplified by the unstable mode within t = 10
    traj = simulate(ref_ctx_big, ref_u_tilde, ref_u_tilde,
                    SimConfig(dt=0.01, t_end=10.0))
    assert np.max(traj.deviation_sup) <= 1e-6


def _scheme_errors(setup, scheme, dts, t_end=1.0, amp=1.01):
    ctx, u = setup["ctx"], setup["u"]
    u0 = Profile(ctx.grid, amp * u.values)
    ref = simulate(ctx, u0, u, SimConfig(dt=min(dts) / 16.0, t_end=t_end,
                                         scheme=RK4))
    errs = []
    for dt in dts:
        traj = simulate(ctx, u0, u, SimConfig(dt=dt, t_end=t_end, scheme=scheme))
        errs.append(abs(traj.deviation_sup[-1] - ref.deviation_sup[-1]))
    return errs


def test_rk4_self_convergence(setup):
    e1, e2 = _scheme_errors(setup, RK4, [0.04, 0.02])
    assert e1 / e2 >= 12.0  # fourth order gives 16 per halving


def test_exp_euler_first_order(setup):
    e1, e2 = _scheme_errors(setup, EXP_EULER, [0.04, 0.02])
    assert 1.5 <= e1 / e2 <= 2.5  # first order gives 2 per halving


def test_perturbations_grow_both_ways(setup):
    ctx, u, vec = setup["ctx"], setup["u"], setup["vec"]
    cfg = SimConfig(dt=0.01, t_end=1.0)
    for sign in (+1.0, -1.0):
        u0 = Profile(ctx.grid, u.values + sign * 1e-3 * vec.values)
        traj = simulate(ctx, u0, u, cfg)
        assert traj.deviation_sup[-1] > 2.0 * traj.deviation_sup[0]


def test_growth_rate_matches_spectrum(setup):
    out = instability_experiment(setup["ctx"], setup["u"], setup["vec"],
                                 delta=1e-3, epsilon_ball=0.05,
                                 cfg=SimConfig(dt=0.01, t_end=5.0),
                                 lambda_max=setup["lam"])
    expected = setup["lam"] - 1.0
    assert out["growth_rate"] == pytest.approx(expected, rel=0.1)
    assert out["escape_time"] is not None
    assert out["escape_time"] <= 2.0 * out["predicted_escape"]


def test_experiment_stops_at_escape(setup):
    ctx, u, vec = setup["ctx"], setup["u"], setup["vec"]
    cfg = SimConfig(dt=0.01, t_end=5.0)
    delta, eps = 1e-3, 0.05
    out = instability_experiment(ctx, u, vec, delta=delta, epsilon_ball=eps,
                                 cfg=cfg, lambda_max=setup["lam"])
    traj = out["trajectory"]
    assert traj.deviation_sup[-1] >= eps
    assert np.all(traj.deviation_sup[:-1] < eps)
    # the run to t_end agrees up to the escape sample and yields the same fit
    full = simulate(ctx, Profile(ctx.grid, u.values + delta * vec.values), u, cfg)
    assert len(full.times) > len(traj.times)
    assert np.array_equal(full.times[:len(traj.times)], traj.times)
    assert np.array_equal(full.deviation_sup[:len(traj.times)], traj.deviation_sup)
    window = (full.deviation_sup >= 2.0 * delta) & (full.deviation_sup <= 10.0 * delta)
    growth = float(np.polyfit(full.times[window],
                              np.log(full.deviation_sup[window]), 1)[0])
    assert out["growth_rate"] == growth
    assert out["escape_time"] == full.times[np.argmax(full.deviation_sup >= eps)]


def test_escape_time_shifts_with_delta(setup):
    cfg = SimConfig(dt=0.01, t_end=5.0)
    kwargs = dict(epsilon_ball=0.05, cfg=cfg, lambda_max=setup["lam"])
    t1 = instability_experiment(setup["ctx"], setup["u"], setup["vec"],
                                delta=1e-3, **kwargs)["escape_time"]
    t2 = instability_experiment(setup["ctx"], setup["u"], setup["vec"],
                                delta=1e-4, **kwargs)["escape_time"]
    shift = np.log(10.0) / (setup["lam"] - 1.0)
    assert t2 - t1 == pytest.approx(shift, rel=0.2)


def test_no_escape_raised(setup):
    with pytest.raises(NoEscape):
        instability_experiment(setup["ctx"], setup["u"], setup["vec"],
                               delta=1e-6, epsilon_ball=0.05,
                               cfg=SimConfig(dt=0.01, t_end=0.1),
                               lambda_max=setup["lam"])


def test_experiment_input_validation(setup):
    cfg = SimConfig(dt=0.01, t_end=1.0)
    with pytest.raises(ValueError):
        instability_experiment(setup["ctx"], setup["u"], setup["vec"],
                               delta=0.04, epsilon_ball=0.05, cfg=cfg)
    bad_dir = Profile(setup["ctx"].grid, 0.5 * setup["vec"].values)
    with pytest.raises(ValueError):
        instability_experiment(setup["ctx"], setup["u"], bad_dir,
                               delta=1e-3, epsilon_ball=0.05, cfg=cfg)


class _ExpFiring:
    """Unbounded firing rate: u_t = -u + Tu blows up in finite time."""

    def __call__(self, u):
        return np.exp(u)


def test_overflow_raises_non_finite_with_partial_trajectory(setup):
    ctx = setup["ctx"]
    blowup = OperatorContext(ctx.kernel, _ExpFiring(), ctx.params, ctx.grid)
    g = ctx.grid
    zero = Profile(g, np.zeros(g.n_nodes))
    u0 = Profile(g, np.full(g.n_nodes, 3.0))
    cfg = SimConfig(dt=0.01, t_end=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinite) as info:
            simulate(blowup, u0, zero, cfg)
    partial = info.value.trajectory
    assert 2 <= len(partial.times) < 101
    assert np.array_equal(partial.times, np.arange(len(partial.times)) * cfg.dt)
    assert np.all(np.isfinite(partial.deviation_sup))
    # the first sample is the initial state; the recorded part was growing
    assert partial.deviation_sup[0] == 3.0
    assert np.all(np.diff(partial.deviation_sup) > 0.0)


class _NanFiring:
    def __call__(self, u):
        return np.where(u > 0.0, np.nan, 0.0)


def test_nan_state_raises_non_finite(setup):
    ctx, u = setup["ctx"], setup["u"]
    # a NaN node far below threshold lies outside the bump's window, yet it
    # stays in T's source and spreads over the whole next state
    u0 = u.values.copy()
    u0[0] = np.nan
    assert np.all(np.isnan(step_values(ctx, u0, SimConfig())))
    # a firing rate yielding NaN stops the simulation after its first step
    poisoned = OperatorContext(ctx.kernel, _NanFiring(), ctx.params, ctx.grid)
    with pytest.raises(NonFinite) as info:
        simulate(poisoned, u, u, SimConfig(dt=0.01, t_end=1.0))
    assert len(info.value.trajectory.times) == 1


def test_saturated_constant_decays_monotonically(setup):
    # far above saturation, Tu is fixed, so u relaxes toward it monotonically
    g = setup["ctx"].grid
    u0 = Profile(g, np.full(g.n_nodes, 5.0))
    traj = simulate(setup["ctx"], u0, setup["u"],
                    SimConfig(dt=0.05, t_end=5.0))
    assert np.all(np.diff(traj.deviation_sup) < 0.0)
