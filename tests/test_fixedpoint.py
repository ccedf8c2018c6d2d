import math

import numpy as np
import pytest

from conftest import H, TAU, P
from neurofield.bounds import build_bounds
from neurofield.errors import GridMisaligned, ShiftOutOfRange
from neurofield.fixedpoint import (DENSE_NODE_LIMIT, OperatorContext, apply_T,
                                   apply_T_hat, compute_epsilon, embed_offset,
                                   extend_bump, fast_fft_len,
                                   make_extension_grid, monotone_iterate,
                                   solve_third_fixed_point,
                                   stationary_residual, tail_extension,
                                   verify_translation_family)
from neurofield.grids import Grid, Profile
from neurofield.model import (ExponentialKernel, GaussianKernel,
                              MexicanHatKernel, ModelParams, RatioFiring)
from neurofield.quadrature import apply_integral_operator


def test_apply_T_zero_and_saturated(ref_ctx):
    g = ref_ctx.grid
    zero = Profile(g, np.zeros(g.n_nodes))
    assert np.all(apply_T(ref_ctx, zero).values == 0.0)
    # fully saturated input: T u = int_{-d}^{d} omega(x - y) dy
    sat = Profile(g, np.full(g.n_nodes, 10.0))
    out = apply_T(ref_ctx, sat).values
    d = g.hi
    expect = np.sign(g.nodes() + d) * 0.5 * (1 - np.exp(-np.abs(g.nodes() + d))) \
        - np.sign(g.nodes() - d) * 0.5 * (1 - np.exp(-np.abs(g.nodes() - d)))
    assert np.max(np.abs(out - expect)) < 1e-5


def test_apply_T_monotone(ref_ctx, ref_bounds):
    lo = apply_T(ref_ctx, ref_bounds.u_minus).values
    hi = apply_T(ref_ctx, ref_bounds.u_plus).values
    assert np.all(hi >= lo)


def test_apply_T_grid_mismatch(ref_ctx):
    other = Profile(Grid(-1.0, 1.0, 10), np.zeros(11))
    with pytest.raises(GridMisaligned):
        apply_T(ref_ctx, other)


def test_T_hat_fixes_bounds(ref_ctx, ref_bounds):
    # T pushes past each bound, so the clamp returns the bound itself
    for prof in (ref_bounds.u_minus, ref_bounds.u_plus):
        out = apply_T_hat(ref_ctx, prof, ref_bounds)
        assert np.max(np.abs(out.values - prof.values)) < 1e-12


def test_operator_context_validation(ref_model):
    kernel, firing, params = ref_model
    with pytest.raises(ValueError):
        OperatorContext(kernel, firing, params, Grid(0.0, 1.0, 10))
    with pytest.raises(ValueError):
        OperatorContext(kernel, firing, params, Grid(-1.0, 1.0, 11))


def test_fft_path_matches_dense(ref_model):
    # above DENSE_NODE_LIMIT apply_weighted takes the FFT branch; scipy's
    # fftconvolve is the bit-exact oracle and a chunked direct sum the dense one
    from scipy.signal import fftconvolve
    _, firing, params = ref_model
    g = Grid(-30.0, 30.0, 6000)
    assert g.n_nodes > DENSE_NODE_LIMIT
    rng = np.random.default_rng(3)
    s = rng.normal(size=g.n_nodes)
    lags = np.arange(-g.n, g.n + 1) * g.dx
    x = g.nodes()
    for kernel in (ExponentialKernel(), GaussianKernel(),
                   MexicanHatKernel(3.0, 2.0, 1.0, 1.0)):
        ctx = OperatorContext(kernel, firing, params, g)
        fft = ctx.apply_weighted(s)
        assert np.array_equal(fft, fftconvolve(s, kernel(lags))[g.n:2 * g.n + 1])
        # the second call reuses the cached kernel spectrum
        assert np.array_equal(ctx.apply_weighted(s), fft)
        direct = np.concatenate([kernel(x[i:i + 500, None] - x[None, :]) @ s
                                 for i in range(0, len(x), 500)])
        assert np.max(np.abs(fft - direct)) < 1e-12


def test_fast_fft_len_matches_scipy():
    from scipy.fft import next_fast_len
    for m in list(range(1, 3000)) + [38587, 154327, 1_000_001]:
        assert fast_fft_len(m) == next_fast_len(m, True), m


def test_epsilon_positive_and_stable(ref_epsilon, ref_model, ref_bounds):
    assert ref_epsilon > 0.0
    assert ref_epsilon < ref_bounds.gap_norm()
    # refining the grid moves epsilon by less than 10 percent
    kernel, firing, params = ref_model
    bb2 = build_bounds(kernel, params, 1600)
    ctx2 = OperatorContext(kernel, firing, params, bb2.grid)
    eps2 = compute_epsilon(ctx2, bb2)
    assert abs(eps2 - ref_epsilon) <= 0.1 * ref_epsilon


def test_epsilon_certifies_strict_inequalities(ref_ctx, ref_bounds, ref_epsilon):
    lo = ref_bounds.u_minus.values + ref_epsilon
    hi = ref_bounds.u_plus.values - ref_epsilon
    assert np.min(lo - ref_ctx.apply_T_values(lo)) > 0.0
    assert np.min(ref_ctx.apply_T_values(hi) - hi) > 0.0
    assert np.min(hi - lo) > 0.0


def test_gap_sized_epsilon_rejected(ref_ctx, ref_bounds, ref_epsilon):
    # the full half-gap margin must fail the same certificate
    eps = ref_bounds.gap_norm() / 2.0
    assert eps > ref_epsilon
    lo = ref_bounds.u_minus.values + eps
    hi = ref_bounds.u_plus.values - eps
    ok = (np.min(lo - ref_ctx.apply_T_values(lo)) > 0.0
          and np.min(ref_ctx.apply_T_values(hi) - hi) > 0.0
          and np.min(hi - lo) > 0.0)
    assert not ok


def test_monotone_iteration_from_above(ref_ctx, ref_bounds, ref_epsilon):
    start = Profile(ref_ctx.grid, ref_bounds.u_plus.values - ref_epsilon)
    u, trace = monotone_iterate(ref_ctx, ref_bounds, start, tol=1e-6)
    assert trace.monotone_ok
    assert trace.direction in ("increasing", "stationary")
    assert np.all(u.values <= ref_bounds.u_plus.values + 1e-12)


def test_monotone_iteration_from_below(ref_ctx, ref_bounds, ref_epsilon):
    start = Profile(ref_ctx.grid, ref_bounds.u_minus.values + ref_epsilon)
    u, trace = monotone_iterate(ref_ctx, ref_bounds, start, tol=1e-6)
    assert trace.monotone_ok
    assert np.all(u.values >= ref_bounds.u_minus.values - 1e-12)


def test_third_fixed_point_reference(ref_fp, ref_bounds):
    fp = ref_fp
    assert fp.residual_sup <= 1e-10
    u = fp.u_star.values
    # even symmetry and interior position
    assert np.max(np.abs(u - u[::-1])) < 1e-12
    assert np.all(u >= ref_bounds.u_minus.values - 1e-8)
    assert np.all(u <= ref_bounds.u_plus.values + 1e-8)
    gap = ref_bounds.gap_norm()
    assert fp.dist_to_u_minus >= 1e-2 * gap
    assert fp.dist_to_u_plus >= 1e-2 * gap
    # bump shape: peak above threshold at 0, at or below threshold at the edges
    i0 = len(u) // 2
    assert u[i0] > 0.1
    assert u[0] <= 0.1 + 1e-6 and u[-1] <= 0.1 + 1e-6
    assert u[i0] == pytest.approx(0.2130, abs=5e-4)


def test_third_fixed_point_refinement_order(ref_fp):
    # midpoint value converges at second order in the spacing
    vals = {}
    kernel = ExponentialKernel()
    firing = RatioFiring(P, TAU)
    params = ModelParams(H, TAU)
    for n in (200, 400):
        bb = build_bounds(kernel, params, n)
        ctx = OperatorContext(kernel, firing, params, bb.grid)
        fp = solve_third_fixed_point(ctx, bb, tol=1e-12)
        vals[n] = fp.u_star.values[n // 2]
    ref = ref_fp.u_star.values[400]
    e200 = abs(vals[200] - ref)
    e400 = abs(vals[400] - ref)
    assert e400 < e200 / 3.0


def test_tail_extension_oracle():
    # exponential kernel: omega(x) 2d = 1e-10 at x = ln(d / 1e-10)
    d = 1.5567
    x_tail = tail_extension(ExponentialKernel(), d)
    assert x_tail == pytest.approx(math.log(d / 1e-10), rel=1e-6)


def test_extension_grid_embeds(ref_bounds, ref_big_grid):
    small, big = ref_bounds.grid, ref_big_grid
    assert big.dx == pytest.approx(small.dx, rel=1e-12)
    k = embed_offset(small, big)
    assert big.nodes()[k] == pytest.approx(small.lo, abs=1e-12)
    with pytest.raises(GridMisaligned):
        embed_offset(Grid(-1.0, 1.0, 7), big)


def test_extend_bump_properties(ref_ctx, ref_fp, ref_big_grid, ref_u_tilde,
                                ref_ctx_big):
    u = ref_u_tilde.values
    k = embed_offset(ref_ctx.grid, ref_big_grid)
    # agrees with T u_star on the core nodes
    core = ref_ctx.apply_T_values(ref_fp.u_star.values)
    assert np.max(np.abs(u[k:k + ref_ctx.grid.n_nodes] - core)) < 1e-12
    # even, positive, decaying below the truncation tolerance at the ends
    assert np.max(np.abs(u - u[::-1])) < 1e-12
    assert np.all(u > 0.0)
    assert u[0] < 1e-8 and u[-1] < 1e-8
    # stationary on the big grid
    assert stationary_residual(ref_ctx_big, ref_u_tilde) < 1e-10


def test_extend_bump_matches_direct_sum(ref_ctx, ref_fp, ref_ctx_big, ref_u_tilde,
                                        coarse_setup):
    # the reference big grid takes the FFT branch, the coarse one the dense branch
    c = coarse_setup
    assert c["ctx_big"].grid.n_nodes <= DENSE_NODE_LIMIT < ref_ctx_big.grid.n_nodes
    for ctx, fp, ctx_big, u_tilde in ((ref_ctx, ref_fp, ref_ctx_big, ref_u_tilde),
                                      (c["ctx"], c["fp"], c["ctx_big"], c["u_tilde"])):
        gain = Profile(ctx.grid, ctx.firing(fp.u_star.values - ctx.params.h))
        direct = apply_integral_operator(ctx.kernel, gain, ctx_big.grid)
        assert np.max(np.abs(u_tilde.values - direct.values)) < 1e-12


def test_extend_bump_alignment_guard(ref_model, ref_ctx, ref_fp):
    misaligned = OperatorContext(*ref_model, Grid(-30.0, 30.0, 1000))
    with pytest.raises(GridMisaligned):
        extend_bump(ref_ctx, ref_fp.u_star, misaligned)


def test_make_extension_grid_override(ref_model, ref_bounds):
    kernel, _, _ = ref_model
    big = make_extension_grid(kernel, ref_bounds.grid, L_override=10.0)
    assert big.hi >= 10.0
    assert big.hi - 10.0 < big.dx
    with pytest.raises(ValueError):
        make_extension_grid(kernel, ref_bounds.grid, L_override=1.0)


def test_translation_family(ref_ctx_big, ref_u_tilde):
    base = verify_translation_family(ref_ctx_big, ref_u_tilde, 0.0)
    assert base < 1e-10
    dx = ref_ctx_big.grid.dx
    c = round(0.5 / dx) * dx
    shifted = verify_translation_family(ref_ctx_big, ref_u_tilde, c)
    # edge fill at the truncation boundary adds a tiny extra residual
    assert shifted <= 1e-10
    with pytest.raises(ShiftOutOfRange):
        verify_translation_family(ref_ctx_big, ref_u_tilde, 0.37 * dx)
    with pytest.raises(ShiftOutOfRange):
        verify_translation_family(ref_ctx_big, ref_u_tilde,
                                  round(24.0 / dx) * dx)
