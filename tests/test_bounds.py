import math
import warnings

import numpy as np
import pytest

from conftest import (DELTA_MINUS_EXACT, DELTA_PLUS_EXACT, D_EXACT, H, TAU,
                      W_exp)
from neurofield.assumptions import check_assumptions
from neurofield.bounds import (DEFAULT_HORIZON, BumpBounds, _bisect,
                               build_bounds, find_d, solve_delta,
                               verify_heaviside_stationarity)
from neurofield.errors import BracketFailure, NoSuchD, OutOfTableWarning
from neurofield.grids import Grid, Profile
from neurofield.model import (ExponentialKernel, GaussianKernel,
                              MexicanHatKernel, ModelParams, RatioFiring,
                              TabulatedKernel)
from neurofield.quadrature import CumulativeKernel, indicator_convolution


def test_solve_delta_closed_forms():
    k = ExponentialKernel()
    assert solve_delta(k, H) == pytest.approx(DELTA_MINUS_EXACT, abs=1e-10)
    assert solve_delta(k, H + TAU) == pytest.approx(DELTA_PLUS_EXACT, abs=1e-10)


def test_solve_delta_round_trip():
    k = GaussianKernel()
    W = CumulativeKernel(k)
    for level in (0.05, 0.2, 0.6):
        delta = solve_delta(k, level, W=W)
        assert W(2.0 * delta) == pytest.approx(level, abs=1e-10)


def test_solve_delta_monotone_in_level():
    k = GaussianKernel()
    W = CumulativeKernel(k)
    deltas = [solve_delta(k, lv, W=W) for lv in (0.05, 0.1, 0.3, 0.6)]
    assert np.all(np.diff(deltas) > 0.0)


def test_solve_delta_bracket_failure():
    # exponential kernel mass is 1, so level 1.5 is out of reach
    with pytest.raises(BracketFailure):
        solve_delta(ExponentialKernel(), 1.5)
    with pytest.raises(BracketFailure):
        solve_delta(ExponentialKernel(), -0.1)


@pytest.mark.parametrize("kernel, params", [
    (ExponentialKernel(), ModelParams(0.1, 0.2)),
    (GaussianKernel(), ModelParams(0.1, 0.2)),
    (MexicanHatKernel(3.0, 2.0, 1.0, 1.0), ModelParams(0.05, 0.05)),
])
def test_bisection_bit_equal_to_scipy(kernel, params):
    from scipy.optimize import bisect
    W = CumulativeKernel(kernel)
    a = kernel.positive_radius(DEFAULT_HORIZON)
    xtol = 1e-12 / 4.0
    for level in (params.h, params.h + params.tau):
        expected = bisect(lambda s: W(2.0 * s) - level, 0.0, a, xtol=xtol, maxiter=200)
        assert solve_delta(kernel, level, W=W, a=a) == expected
    delta_plus = solve_delta(kernel, params.h + params.tau, W=W, a=a)
    expected = bisect(lambda x: indicator_convolution(W, delta_plus, x) - params.h,
                      delta_plus, a, xtol=xtol, maxiter=200)
    assert find_d(kernel, delta_plus, params.h, W=W, a=a) == expected


def test_bisection_rejects_non_bracketing_interval():
    with pytest.raises(BracketFailure):
        _bisect(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)


def test_find_d_closed_form():
    k = ExponentialKernel()
    d = find_d(k, DELTA_PLUS_EXACT, H)
    assert d == pytest.approx(D_EXACT, abs=1e-10)
    # u_plus(d) = h by construction
    W = CumulativeKernel(k)
    assert W(d + DELTA_PLUS_EXACT) - W(d - DELTA_PLUS_EXACT) == pytest.approx(
        H, abs=1e-10)


def test_find_d_gaussian_cross_check():
    k = GaussianKernel()
    W = CumulativeKernel(k)
    delta_plus = solve_delta(k, H + TAU, W=W)
    d = find_d(k, delta_plus, H, W=W)
    # dense-scan cross-check of the root
    xs = np.linspace(delta_plus, 10.0, 2_000_001)
    vals = W(xs + delta_plus) - W(xs - delta_plus)
    d_scan = xs[np.argmin(np.abs(vals - H))]
    assert d == pytest.approx(d_scan, abs=1e-5)


def test_find_d_no_such_d():
    # restrict the horizon so u_plus stays above h on the admitted range
    k = ExponentialKernel()
    with pytest.raises(NoSuchD):
        find_d(k, DELTA_PLUS_EXACT, H, horizon=1.2)


def test_build_bounds_reference():
    bb = build_bounds(ExponentialKernel(), ModelParams(H, TAU), 800)
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


@pytest.mark.parametrize("kernel, params", [
    (ExponentialKernel(), ModelParams(0.1, 0.2)),
    (GaussianKernel(), ModelParams(0.1, 0.2)),
    (MexicanHatKernel(3.0, 2.0, 1.0, 1.0), ModelParams(0.05, 0.05)),
])
def test_shared_table_matches_fresh_tables(kernel, params):
    # a run builds one table for the check, the grid-size probe and the bounds
    firing = RatioFiring(2.0, params.tau)
    W = CumulativeKernel(kernel)
    shared = [check_assumptions(kernel, firing, params, W=W),
              build_bounds(kernel, params, 2, W=W), build_bounds(kernel, params, 200, W=W)]
    fresh = [check_assumptions(kernel, firing, params),
             build_bounds(kernel, params, 2), build_bounds(kernel, params, 200)]
    assert shared[0].to_dict() == fresh[0].to_dict()
    for got, want in zip(shared[1:], fresh[1:]):
        assert (got.delta_minus, got.delta_plus, got.d) == (
            want.delta_minus, want.delta_plus, want.d)
        assert np.array_equal(got.u_minus.values, want.u_minus.values)
        assert np.array_equal(got.u_plus.values, want.u_plus.values)


def test_tabulated_table_edge_is_not_overrun():
    # 2a is the edge of the kernel's table; the cumulative table stops there
    # (the check gets a probe inside the table: the default one, out to 40,
    # samples the kernel past its edge by design)
    table = Grid(-12.0, 12.0, 2400)
    kernel = TabulatedKernel(table, GaussianKernel()(table.nodes()))
    params = ModelParams(0.1, 0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", OutOfTableWarning)
        rep = check_assumptions(kernel, RatioFiring(2.0, params.tau), params,
                                probe=Grid(0.0, 12.0, 3000))
        bb = build_bounds(kernel, params, 200)
    assert rep.verdict == "pass" and 2.0 * rep.a == 12.0
    assert bb.d == pytest.approx(rep.d, abs=1e-12)


def test_build_bounds_rejects_odd_n():
    with pytest.raises(ValueError):
        build_bounds(ExponentialKernel(), ModelParams(H, TAU), 801)


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


@pytest.mark.parametrize("kernel,params", [
    (ExponentialKernel(), ModelParams(0.1, 0.2)),
    (GaussianKernel(), ModelParams(0.1, 0.2)),
    (MexicanHatKernel(3.0, 2.0, 1.0, 1.0), ModelParams(0.05, 0.05)),
])
def test_heaviside_stationarity_battery(kernel, params):
    bb = build_bounds(kernel, params, 400)
    probe = Grid(-4.0 * bb.d, 4.0 * bb.d, 8000)
    report = verify_heaviside_stationarity(kernel, bb, probe)
    assert report["ok"], report["checks"]
    assert report["h"] == pytest.approx(params.h, abs=1e-10)
    assert report["h_plus_tau"] == pytest.approx(params.h + params.tau, abs=1e-10)


def test_heaviside_battery_random_feasible_params():
    rng = np.random.default_rng(42)
    k = ExponentialKernel()
    for _ in range(5):
        h = rng.uniform(0.02, 0.2)
        tau = rng.uniform(0.05, 0.5)
        if h + tau >= 0.45:  # keep below the half-line kernel mass W(inf) = 0.5
            continue
        bb = build_bounds(k, ModelParams(h, tau), 200)
        probe = Grid(-4.0 * bb.d, 4.0 * bb.d, 4000)
        assert verify_heaviside_stationarity(k, bb, probe)["ok"]


def test_heaviside_battery_negative_control():
    # perturbing the claimed delta_minus must break the battery
    k = ExponentialKernel()
    bb = build_bounds(k, ModelParams(H, TAU), 400)
    probe = Grid(-4.0 * bb.d, 4.0 * bb.d, 8000)
    for factor in (0.9, 1.1):
        fake = BumpBounds(bb.delta_minus * factor, bb.delta_plus, bb.d,
                          bb.u_minus, bb.u_plus)
        report = verify_heaviside_stationarity(k, fake, probe)
        assert not report["ok"]
