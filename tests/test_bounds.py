import math
import tracemalloc

import numpy as np
import pytest

from conftest import (DELTA_MINUS_EXACT, DELTA_PLUS_EXACT, D_EXACT, H, TAU,
                      W_exp)
from neurofield.assumptions import check_assumptions
from neurofield.bounds import (BISECT_TOL, BumpBounds, _bisect, build_bounds,
                               find_d, solve_delta, solve_sandwich)
from neurofield.errors import BracketFailure, NeurofieldError
from neurofield.grids import Grid, Profile
from neurofield.model import (ExponentialKernel, GaussianKernel,
                              MexicanHatKernel, RatioFiring,
                              TabulatedKernel)
from neurofield.quadrature import CumulativeKernel, indicator_convolution
from oracles import verify_heaviside_stationarity


def _W_and_a(kernel):
    """The cumulative integral and the positivity radius that build_bounds uses."""
    return CumulativeKernel(kernel), solve_sandwich(kernel, H, TAU).a


def test_solve_delta_closed_forms():
    W, a = _W_and_a(ExponentialKernel())
    assert solve_delta(W, H, a) == pytest.approx(DELTA_MINUS_EXACT, abs=1e-10)
    assert solve_delta(W, H + TAU, a) == pytest.approx(DELTA_PLUS_EXACT, abs=1e-10)


def test_solve_delta_round_trip():
    W, a = _W_and_a(GaussianKernel())
    for level in (0.05, 0.2, 0.6):
        delta = solve_delta(W, level, a)
        assert W(2.0 * delta) == pytest.approx(level, abs=1e-10)


def test_solve_delta_monotone_in_level():
    W, a = _W_and_a(GaussianKernel())
    deltas = [solve_delta(W, lv, a) for lv in (0.05, 0.1, 0.3, 0.6)]
    assert np.all(np.diff(deltas) > 0.0)


def test_solve_delta_bracket_failure():
    # exponential kernel mass is 1, so level 1.5 is out of reach
    W, a = _W_and_a(ExponentialKernel())
    with pytest.raises(BracketFailure):
        solve_delta(W, 1.5, a)
    with pytest.raises(BracketFailure):
        solve_delta(W, -0.1, a)


@pytest.mark.parametrize("kernel, params", [
    (ExponentialKernel(), (0.1, 0.2)),
    (GaussianKernel(), (0.1, 0.2)),
    (MexicanHatKernel(3.0, 2.0, 1.0, 1.0), (0.05, 0.05)),
])
def test_bisection_bit_equal_to_scipy(kernel, params):
    h, tau = params
    from scipy.optimize import bisect
    W, a = _W_and_a(kernel)
    xtol = BISECT_TOL / 4.0
    for level in (h, h + tau):
        expected = bisect(lambda s: W(2.0 * s) - level, 0.0, a, xtol=xtol, maxiter=200)
        assert solve_delta(W, level, a) == expected
    delta_plus = solve_delta(W, h + tau, a)
    expected = bisect(lambda x: indicator_convolution(W, delta_plus, x) - h,
                      delta_plus, a, xtol=xtol, maxiter=200)
    assert find_d(W, delta_plus, h, a) == expected


def test_bisection_rejects_non_bracketing_interval():
    with pytest.raises(BracketFailure):
        _bisect(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)


def test_find_d_closed_form():
    W, a = _W_and_a(ExponentialKernel())
    d = find_d(W, DELTA_PLUS_EXACT, H, a)
    assert d == pytest.approx(D_EXACT, abs=1e-10)
    # u_plus(d) = h by construction
    assert W(d + DELTA_PLUS_EXACT) - W(d - DELTA_PLUS_EXACT) == pytest.approx(
        H, abs=1e-10)


def test_find_d_gaussian_cross_check():
    W, a = _W_and_a(GaussianKernel())
    delta_plus = solve_delta(W, H + TAU, a)
    d = find_d(W, delta_plus, H, a)
    # dense-scan cross-check of the root
    xs = np.linspace(delta_plus, 10.0, 2_000_001)
    vals = W(xs + delta_plus) - W(xs - delta_plus)
    d_scan = xs[np.argmin(np.abs(vals - H))]
    assert d == pytest.approx(d_scan, abs=1e-5)


def test_find_d_no_such_d():
    # restrict a so u_plus stays above h on the admitted range
    W = CumulativeKernel(ExponentialKernel())
    with pytest.raises(BracketFailure, match="never falls to h"):
        find_d(W, DELTA_PLUS_EXACT, H, a=0.6)


@pytest.mark.parametrize("tau", [1e-17, 5e-18, 1e-300])
def test_degenerate_sandwich_is_a_failed_solve(tau):
    # h + tau rounds to h, so delta_minus = delta_plus: no order interval
    kernel = ExponentialKernel()
    sw = solve_sandwich(kernel, H, tau)
    assert sw.delta_minus is sw.delta_plus is sw.d is None
    assert str(sw.failure).startswith("degenerate sandwich: ")
    with pytest.raises(NeurofieldError, match="degenerate sandwich"):
        build_bounds(kernel, sw, 200)


def test_build_bounds_reference():
    kernel = ExponentialKernel()
    bb = build_bounds(kernel, solve_sandwich(kernel, H, TAU), 800)
    assert bb.delta_minus == pytest.approx(DELTA_MINUS_EXACT, abs=1e-10)
    assert bb.delta_plus == pytest.approx(DELTA_PLUS_EXACT, abs=1e-10)
    assert bb.d == pytest.approx(D_EXACT, abs=1e-10)
    xs = bb.grid.nodes()
    # u_minus(0) = 1 - e^-delta_minus = 1 - sqrt(0.8)
    i0 = len(xs) // 2
    assert bb.u_minus.values[i0] == pytest.approx(1.0 - math.sqrt(0.8), abs=1e-10)
    assert bb.u_plus.values[i0] == pytest.approx(1.0 - math.sqrt(0.4), abs=1e-10)
    # strict gap at interior nodes, symmetric profiles
    gap = bb.u_plus.values[1:-1] - bb.u_minus.values[1:-1]
    assert np.min(gap) > 0.0
    assert np.max(np.abs(bb.u_minus.values - bb.u_minus.values[::-1])) < 1e-14


def test_tabulated_table_edge_is_not_overrun():
    # 2a is the edge of the kernel's table, and W is constant past it (the
    # check's probe, out to 40, samples the kernel past its edge, where it is 0)
    table = Grid(-12.0, 12.0, 2400)
    kernel = TabulatedKernel(table, GaussianKernel()(table.nodes()))
    h, tau = 0.1, 0.2
    rep = check_assumptions(kernel, RatioFiring(2.0, tau), h)
    bb = build_bounds(kernel, solve_sandwich(kernel, h, tau), 200)
    assert rep.verdict == "pass" and 2.0 * rep.a == 12.0
    assert bb.d == rep.d


@pytest.mark.parametrize("kernel, params", [
    (ExponentialKernel(), (0.1, 0.2)),
    (GaussianKernel(), (0.1, 0.2)),
    (MexicanHatKernel(3.0, 2.0, 1.0, 1.0), (0.05, 0.05)),
])
def test_check_and_bounds_allocate_under_a_megabyte(kernel, params):
    h, tau = params
    # W is a closed form: no table of the cumulative integral is allocated
    tracemalloc.start()
    try:
        rep = check_assumptions(kernel, RatioFiring(2.0, tau), h)
        build_bounds(kernel, rep.sandwich, 800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_build_bounds_rejects_odd_n():
    with pytest.raises(ValueError):
        kernel = ExponentialKernel()
        build_bounds(kernel, solve_sandwich(kernel, H, TAU), 801)


def test_bump_bounds_validation():
    g = Grid(-2.0, 2.0, 10)
    lo = Profile(g, np.full(11, 0.1))
    hi = Profile(g, np.full(11, 0.2))
    with pytest.raises(ValueError):
        BumpBounds(0.5, 0.4, 2.0, lo, hi)
    with pytest.raises(ValueError):
        BumpBounds(0.2, 0.4, 2.0, hi, lo)
    bb = BumpBounds(0.2, 0.4, 2.0, lo, hi)
    assert bb.gap_norm() == pytest.approx(0.1)


@pytest.mark.parametrize("kernel, params", [
    (ExponentialKernel(), (0.1, 0.2)),
    (GaussianKernel(), (0.1, 0.2)),
    (MexicanHatKernel(3.0, 2.0, 1.0, 1.0), (0.05, 0.05)),
])
def test_heaviside_stationarity_battery(kernel, params):
    h, tau = params
    bb = build_bounds(kernel, solve_sandwich(kernel, h, tau), 400)
    probe = Grid(-4.0 * bb.d, 4.0 * bb.d, 8000)
    report = verify_heaviside_stationarity(kernel, bb, probe)
    assert report["ok"], report["checks"]
    assert report["h"] == pytest.approx(h, abs=1e-10)
    assert report["h_plus_tau"] == pytest.approx(h + tau, abs=1e-10)


def test_heaviside_battery_random_feasible_params():
    rng = np.random.default_rng(42)
    k = ExponentialKernel()
    for _ in range(5):
        h = rng.uniform(0.02, 0.2)
        tau = rng.uniform(0.05, 0.5)
        if h + tau >= 0.45:  # keep below the half-line kernel mass W(inf) = 0.5
            continue
        bb = build_bounds(k, solve_sandwich(k, h, tau), 200)
        probe = Grid(-4.0 * bb.d, 4.0 * bb.d, 4000)
        assert verify_heaviside_stationarity(k, bb, probe)["ok"]


def test_heaviside_battery_negative_control():
    # perturbing the claimed delta_minus must break the battery
    k = ExponentialKernel()
    bb = build_bounds(k, solve_sandwich(k, H, TAU), 400)
    probe = Grid(-4.0 * bb.d, 4.0 * bb.d, 8000)
    for factor in (0.9, 1.1):
        fake = BumpBounds(bb.delta_minus * factor, bb.delta_plus, bb.d,
                          bb.u_minus, bb.u_plus)
        report = verify_heaviside_stationarity(k, fake, probe)
        assert not report["ok"]
