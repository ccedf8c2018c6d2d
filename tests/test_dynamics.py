import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neurofield.dynamics import (LineState, SimConfig, _rk4_step,
                                 instability_experiment, simulate, step_values)
from neurofield.errors import ConfigError, NonFinite
from neurofield.fixedpoint import OperatorContext, extend_bump
from neurofield.grids import Grid, Profile, slope
from neurofield.spectral import Linearization, spectral_radius
from oracles import whole_grid_rk4_step, window_simulate


@pytest.fixture(scope="module")
def setup(coarse_setup):
    ctx_big = coarse_setup["ctx_big"]
    u_tilde = coarse_setup["u_tilde"]
    lin = Linearization(ctx_big, u_tilde)
    lam, vec = spectral_radius(lin, *lin.eigensolve(1))
    return {"ctx": ctx_big, "u": u_tilde, "lam": lam, "vec": vec}


def _step(ctx, u, dt=0.01):
    """One RK4 step of a run started from the whole-line values u, as
    whole-line values."""
    return LineState(ctx, u, u).step(dt).values()


def test_sim_config_validation():
    SimConfig(dt=0.05, t_end=10.0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        SimConfig(dt=0.5)
    SimConfig(dt=0.1)
    # t_end / dt overflows, or asks for more steps than a run can afford
    SimConfig(dt=1e-6, t_end=1.0)
    for dt, t_end in ((5e-324, 60.0), (1e-17, 1.0), (1e-6, 1.1)):
        with pytest.raises(ConfigError, match="exceed the affordable 1000000"):
            SimConfig(dt=dt, t_end=t_end)


def test_stage_factors_keep_the_one_sided_guard_sound(setup):
    # the stage check bounds a u off the window by a top, which holds only
    # while every checked stage factor a is positive: SimConfig's dt cap
    # keeps each at 0.9 or above, and the step's factor a_f in (0, 1)
    with pytest.raises(ValueError):
        SimConfig(dt=np.nextafter(0.1, 1.0))
    ctx, u = setup["ctx"], setup["u"].values
    lo, hi = ctx.step_window(u)
    factors = []

    class Top(float):
        def __rmul__(self, a):
            factors.append(a)
            return a * float(self)
    top = Top(np.concatenate([u[:lo], u[hi + 1:]]).max())
    for dt in (1e-6, 0.01, 0.05, float(np.nextafter(0.1, 0.0)), 0.1):
        factors.clear()
        _, a_f, _ = _rk4_step(ctx, u, SimConfig(dt=dt, t_end=dt).dt, lo, hi, top)
        assert len(factors) == 3 and all(0.9 <= a < 1.0 for a in factors), factors
        assert 0.0 < a_f < 1.0


def test_equilibrium_is_stationary(setup):
    out = _step(setup["ctx"], setup["u"].values, 0.05)
    assert np.max(np.abs(out - setup["u"].values)) < 1e-12


def test_zero_stays_zero(setup):
    g = setup["ctx"].grid
    zero = Profile(g, np.zeros(g.n_nodes))
    traj = simulate(setup["ctx"], zero, zero, SimConfig(dt=0.05, t_end=2.0))
    assert np.max(traj.deviation_sup) == 0.0


def _matches_whole_grid_step(ctx, u, dt):
    out = _step(ctx, u, dt)
    ref = whole_grid_rk4_step(ctx, u, dt)
    return np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(u))


def _takes_window(ctx, u, dt):
    window = ctx.step_window(u)
    return (window != (0, ctx.grid.n)
            and _rk4_step(ctx, u, dt, *window) is not None)


def test_window_step_matches_whole_grid_step(kernel_setup):
    # a line of 16 d, [-d, d] with 15 n / 2 nodes of its spacing added on
    # each side, leaves the step window below a sixth of it
    ctx, fp = kernel_setup["ctx"], kernel_setup["fp"]
    extra = 15 * ctx.grid.n // 2
    L = ctx.grid.hi + extra * ctx.grid.dx
    big = OperatorContext(ctx.kernel, ctx.firing, ctx.h,
                          Grid(-L, L, ctx.grid.n + 2 * extra))
    u = extend_bump(big, fp.u_star).values
    x = big.grid.nodes()
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
    ctx, x = setup["ctx"], setup["ctx"].grid.nodes()
    direction = sum(w * np.exp(-((x - c) / s) ** 2) for c, s, w in bumps)
    u = setup["u"].values + amplitude * direction
    assert _matches_whole_grid_step(ctx, u, 0.01)


def test_stage_crossing_outside_window_reruns_on_whole_grid(setup):
    # a saturated plateau, and just outside its step window a stretch that
    # sits 1e-9 below h while T there exceeds h: the second stage fires there
    ctx, h, dt = setup["ctx"], setup["ctx"].h, 0.1
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
    out = _step(ctx, zero)
    assert np.array_equal(out, zero)
    assert np.array_equal(out, whole_grid_rk4_step(ctx, zero, 0.01))
    nan = np.full(ctx.grid.n_nodes, np.nan)
    assert np.all(np.isnan(_step(ctx, nan)))
    assert np.all(np.isnan(whole_grid_rk4_step(ctx, nan, 0.01)))


def test_whole_grid_run_never_builds_the_envelope(coarse_setup):
    # on the [-d, d] grid alone the bump's window covers more than a sixth of
    # it, so every step takes the whole grid and neither the stage check nor
    # the far bound reads the envelope; on the extension line both do
    bb, fp, big = coarse_setup["bb"], coarse_setup["fp"], coarse_setup["ctx_big"]
    whole = OperatorContext(big.kernel, big.firing, big.h, bb.grid)
    line = OperatorContext(big.kernel, big.firing, big.h, big.grid)
    for ctx, u in ((whole, fp.u_star), (line, extend_bump(line, fp.u_star))):
        x = ctx.grid.nodes()
        u0 = Profile(ctx.grid, u.values + 1e-3 * np.exp(-x ** 2))
        simulate(ctx, u0, u, SimConfig(dt=0.01, t_end=0.5))
    assert whole.step_window(fp.u_star.values) == (0, bb.grid.n)
    assert "envelope" not in vars(whole) and "envelope" in vars(line)


@pytest.fixture
def materializations(monkeypatch):
    """Calls of ``LineState.values``, which a run makes only to build the
    whole line."""
    calls, values = [0], LineState.values

    def counted(self):
        calls[0] += 1
        return values(self)
    monkeypatch.setattr(LineState, "values", counted)
    return calls


def _escape_run(ctx, u, vec, delta=1e-3):
    u0 = Profile(ctx.grid, u.values + delta * vec.values)
    return u0, SimConfig(dt=0.01, t_end=5.0), 0.05 * u.sup_norm()


def _matches_oracle(ctx, u0, ref, cfg, stop_at=None, rel=0.0):
    traj = simulate(ctx, u0, ref, cfg, stop_at)
    times, devs = window_simulate(ctx, u0, ref, cfg, stop_at)
    assert np.array_equal(traj.times, times)
    if rel == 0.0:
        assert np.array_equal(traj.deviation_sup, devs)
    else:
        assert np.max(np.abs(traj.deviation_sup - devs) / devs) <= rel
    return traj


def test_escape_run_matches_window_oracle_bit_for_bit(ref_ctx_big, ref_u_tilde,
                                                      ref_power, setup, materializations):
    # the state off the window is never built, yet every recorded deviation
    # is the one the whole-line update of each step gives
    for ctx, u, vec in ((ref_ctx_big, ref_u_tilde, ref_power[1]),
                        (setup["ctx"], setup["u"], setup["vec"])):
        assert ctx.step_window(u.values) != (0, ctx.grid.n)
        u0, cfg, eps = _escape_run(ctx, u, vec)
        traj = _matches_oracle(ctx, u0, u, cfg, stop_at=eps)
        assert traj.deviation_sup[-1] >= eps > traj.deviation_sup[-2]
    assert materializations[0] == 0


def test_escape_run_matches_window_oracle_on_each_family(kernel_setup):
    lin = kernel_setup["lin_big"]
    _, vec = spectral_radius(lin, *lin.eigensolve(1))
    u0, cfg, eps = _escape_run(lin.ctx, lin.u, vec)
    _matches_oracle(lin.ctx, u0, lin.u, cfg, stop_at=eps)


def test_moving_window_matches_window_oracle(setup, materializations):
    # pushed up along the principal mode the bump widens past its step
    # window, which the run follows by building the whole line
    ctx, u = setup["ctx"], setup["u"]
    u0 = Profile(ctx.grid, u.values + 1e-2 * setup["vec"].values)
    cfg = SimConfig(dt=0.01, t_end=4.0)
    traj = _matches_oracle(ctx, u0, u, cfg, rel=1e-12)
    assert len(traj.times) == 401 and materializations[0] >= 2
    line = LineState(ctx, u0.values, u.values)
    lo, hi = line.lo, line.hi
    for _ in range(400):
        line = step_values(ctx, line, cfg)
        # the window is the step window of the whole line at every step, and
        # the stage check's bound holds the state off it, up to the rounding
        # of the guard bands' product
        values = line.values()
        assert (line.lo, line.hi) == ctx.step_window(values)
        rest = np.concatenate([values[:line.lo], values[line.hi + 1:]])
        assert line.top is None or rest.max() <= line.top + 1e-15
    assert line.lo < lo and line.hi > hi and line.deviation == traj.deviation_sup[-1]


@pytest.mark.parametrize("where", [0.5, 2.0], ids=["band", "beyond_bands"])
def test_deviation_off_the_window_builds_the_line(setup, materializations, where):
    # a small bump far below h on a guard band, or beyond both, dominates the
    # deviation and decays there, while the deviation on the window stays
    # below it: every step's deviation comes from the whole line
    ctx, u = setup["ctx"], setup["u"]
    x, (lo, hi) = ctx.grid.nodes(), ctx.step_window(u.values)
    centre = x[hi + int(where * (hi - lo + 1))]
    u0 = Profile(ctx.grid, u.values + 1e-5 * setup["vec"].values
                 + 1e-3 * np.exp(-((x - centre) / 0.3) ** 2))
    traj = _matches_oracle(ctx, u0, u, SimConfig(dt=0.01, t_end=0.5), rel=1e-13)
    assert materializations[0] == 50
    assert traj.deviation_sup[-1] == pytest.approx(1e-3 * np.exp(-0.5), rel=0.05)


def test_reference_source_off_the_window_builds_the_line(ref_ctx_big, ref_u_tilde,
                                                         monkeypatch, materializations):
    # started 0.05 below the bump, the state's step window is narrower than
    # the reference's source, so the far bound cannot be formed: each such
    # step builds the whole line, and the run is still the oracle's
    far_terms, missing = LineState._far_terms, [0]

    def counted(self):
        terms = far_terms(self)
        missing[0] += terms is None
        return terms
    monkeypatch.setattr(LineState, "_far_terms", counted)
    u0 = Profile(ref_ctx_big.grid, ref_u_tilde.values - 0.05)
    traj = _matches_oracle(ref_ctx_big, u0, ref_u_tilde, SimConfig(dt=0.01, t_end=0.2))
    assert len(traj.times) == 21
    assert missing[0] == 17 and materializations[0] == 18


def test_escape_run_builds_the_line_at_most_once(ref_ctx_big, ref_u_tilde, ref_power,
                                                 monkeypatch, materializations):
    # a count, not a timing: the escape experiment on the reference config
    # takes 73 steps and convolves onto the whole line once (the reference's
    # own source), not once per step
    whole, convolve = [0], OperatorContext.convolve
    n = ref_ctx_big.grid.n

    def counted(self, src, lo, hi, out_lo, out_hi):
        whole[0] += out_lo == 0 and out_hi == n
        return convolve(self, src, lo, hi, out_lo, out_hi)
    monkeypatch.setattr(OperatorContext, "convolve", counted)
    out = instability_experiment(ref_ctx_big, ref_u_tilde, ref_power[1],
                                 SimConfig(dt=0.01, t_end=5.0, delta=1e-3),
                                 ref_power[0])
    assert len(out["trajectory"].times) == 74
    assert whole[0] <= 2 and materializations[0] == 0


def test_unperturbed_drift_small(ref_ctx_big, ref_u_tilde):
    # needs the fine reference grid and a small dt: a larger residual seed
    # would be amplified by the unstable mode within t = 10
    traj = simulate(ref_ctx_big, ref_u_tilde, ref_u_tilde,
                    SimConfig(dt=0.01, t_end=10.0))
    assert np.max(traj.deviation_sup) <= 1e-6


def test_rk4_self_convergence(setup):
    ctx, u = setup["ctx"], setup["u"]
    u0 = Profile(ctx.grid, 1.01 * u.values)
    ref = simulate(ctx, u0, u, SimConfig(dt=0.02 / 16.0, t_end=1.0))
    e1, e2 = (abs(simulate(ctx, u0, u, SimConfig(dt=dt, t_end=1.0)).deviation_sup[-1]
                  - ref.deviation_sup[-1]) for dt in (0.04, 0.02))
    assert e1 / e2 >= 12.0  # fourth order gives 16 per halving


def test_perturbations_grow_both_ways(setup):
    ctx, u, vec = setup["ctx"], setup["u"], setup["vec"]
    cfg = SimConfig(dt=0.01, t_end=1.0)
    for sign in (+1.0, -1.0):
        u0 = Profile(ctx.grid, u.values + sign * 1e-3 * vec.values)
        traj = simulate(ctx, u0, u, cfg)
        assert traj.deviation_sup[-1] > 2.0 * traj.deviation_sup[0]


def test_growth_rate_matches_spectrum(setup):
    out = instability_experiment(setup["ctx"], setup["u"], setup["vec"],
                                 SimConfig(dt=0.01, t_end=5.0, delta=1e-3),
                                 lambda_max=setup["lam"])
    expected = setup["lam"] - 1.0
    assert out["growth_rate"] == pytest.approx(expected, rel=0.1)
    assert out["escape_time"] is not None
    assert out["escape_time"] <= 2.0 * out["predicted_escape"]


def test_experiment_stops_at_escape(setup):
    ctx, u, vec = setup["ctx"], setup["u"], setup["vec"]
    delta = 1e-3
    cfg = SimConfig(dt=0.01, t_end=5.0, delta=delta)
    eps = cfg.ball(u)
    out = instability_experiment(ctx, u, vec, cfg, lambda_max=setup["lam"])
    traj = out["trajectory"]
    assert out["epsilon_ball"] == eps
    assert traj.deviation_sup[-1] >= eps
    assert np.all(traj.deviation_sup[:-1] < eps)
    # the run to t_end agrees up to the escape sample and yields the same fit
    full = simulate(ctx, Profile(ctx.grid, u.values + delta * vec.values), u, cfg)
    assert len(full.times) > len(traj.times)
    assert np.array_equal(full.times[:len(traj.times)], traj.times)
    assert np.array_equal(full.deviation_sup[:len(traj.times)], traj.deviation_sup)
    window = (full.deviation_sup >= 2.0 * delta) & (full.deviation_sup <= 10.0 * delta)
    x, y = full.times[window], np.log(full.deviation_sup[window])
    assert out["growth_rate"] == slope(x, y)
    assert out["growth_rate"] == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-13, abs=0.0)
    assert out["escape_time"] == full.times[np.argmax(full.deviation_sup >= eps)]


def test_escape_time_shifts_with_delta(setup):
    t1, t2 = (instability_experiment(setup["ctx"], setup["u"], setup["vec"],
                                     SimConfig(dt=0.01, t_end=5.0, delta=delta),
                                     lambda_max=setup["lam"])["escape_time"]
              for delta in (1e-3, 1e-4))
    shift = np.log(10.0) / (setup["lam"] - 1.0)
    assert t2 - t1 == pytest.approx(shift, rel=0.2)


def test_no_escape_raised(setup):
    # a deviation still inside the ball at t_end raises nothing: the
    # experiment reports a null escape time over the whole trajectory
    out = instability_experiment(setup["ctx"], setup["u"], setup["vec"],
                                 SimConfig(dt=0.01, t_end=0.1, delta=1e-6),
                                 lambda_max=setup["lam"])
    traj = out["trajectory"]
    assert setup["lam"] > 1.0 + 1e-6
    assert out["escape_time"] is None
    assert len(traj.times) == 11 and traj.times[-1] == pytest.approx(0.1)
    assert np.max(traj.deviation_sup) < 0.05 * setup["u"].sup_norm()


def test_experiment_input_validation(setup):
    cfg = SimConfig(dt=0.01, t_end=1.0, delta=0.04)
    with pytest.raises(ConfigError, match=r"^dynamics\.delta: delta = 0\.04 "):
        instability_experiment(setup["ctx"], setup["u"], setup["vec"], cfg, setup["lam"])
    bad_dir = Profile(setup["ctx"].grid, 0.5 * setup["vec"].values)
    with pytest.raises(ValueError):
        instability_experiment(setup["ctx"], setup["u"], bad_dir,
                               SimConfig(dt=0.01, t_end=1.0), setup["lam"])


def test_delta_error_names_the_ball_source(setup, monkeypatch):
    # the ball is 0.05 sup|u_tilde|, and the error says so; the check refuses
    # delta before any step runs
    def refuse(*args, **kwargs):
        raise AssertionError("a step ran")
    monkeypatch.setattr("neurofield.dynamics.step_values", refuse)
    cfg = SimConfig(dt=0.01, t_end=1.0, delta=0.01)
    ball = 0.05 * setup["u"].sup_norm()
    assert cfg.ball(setup["u"]) == ball and ball / 10.0 <= 0.01
    with pytest.raises(ConfigError) as exc:
        instability_experiment(setup["ctx"], setup["u"], setup["vec"], cfg, setup["lam"])
    assert str(exc.value) == (
        f"dynamics.delta: delta = 0.01 is not below epsilon_ball / 10 = {ball / 10.0:.6g} "
        f"(epsilon_ball = {ball:.6g}), so no linear growth window fits inside the ball; "
        "epsilon_ball is the default 0.05 * sup|u_tilde|")


class _ExpFiring:
    """Unbounded firing rate: u_t = -u + Tu blows up in finite time."""

    def __call__(self, u):
        return np.exp(u)


def test_overflow_raises_non_finite_with_partial_trajectory(setup):
    ctx = setup["ctx"]
    blowup = OperatorContext(ctx.kernel, _ExpFiring(), ctx.h, ctx.grid)
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
    assert np.all(np.isnan(_step(ctx, u0)))
    # a firing rate yielding NaN stops the simulation after its first step
    poisoned = OperatorContext(ctx.kernel, _NanFiring(), ctx.h, ctx.grid)
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
