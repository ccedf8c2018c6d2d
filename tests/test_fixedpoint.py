import math

import numpy as np
import pytest

from conftest import H, TAU, P
from neurofield.bounds import build_bounds
from neurofield.errors import GridMisaligned
from neurofield.fixedpoint import (DENSE_NODE_LIMIT, OperatorContext,
                                   compute_epsilon, embed_offset, extend_bump,
                                   fast_fft_len, gmres, make_extension_grid,
                                   newton_step, solve_third_fixed_point,
                                   tail_extension)
from neurofield.grids import Grid, Profile
from neurofield.model import (ExponentialKernel, GaussianKernel,
                              MexicanHatKernel, ModelParams, RatioFiring,
                              TabulatedKernel)
from oracles import (ShiftOutOfRange, apply_T, apply_integral_operator,
                     dense_even_jacobian, monotone_iterate,
                     stationary_residual, verify_translation_family)


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


def test_operator_context_validation(ref_model):
    kernel, firing, params = ref_model
    with pytest.raises(ValueError):
        OperatorContext(kernel, firing, params, Grid(0.0, 1.0, 10))
    with pytest.raises(ValueError):
        OperatorContext(kernel, firing, params, Grid(-1.0, 1.0, 11))


def test_fft_path_matches_dense(ref_model, coarse_setup):
    # apply_weighted is one circular FFT convolution over the source's nonzero
    # window on every grid; its oracles are a chunked direct sum everywhere and
    # the dense kernel matrix on grids small enough to hold it
    _, firing, params = ref_model
    table = Grid(-64.0, 64.0, 6400)
    kernels = (ExponentialKernel(), GaussianKernel(),
               MexicanHatKernel(3.0, 2.0, 1.0, 1.0),
               TabulatedKernel(table, GaussianKernel()(table.nodes())),
               # not even: the negative lags must not mirror the positive ones
               lambda x: np.exp(-np.abs(x)) * (1.0 + 0.5 * np.tanh(x)))
    big, coarse, tiny = (Grid(-30.0, 30.0, 6000), coarse_setup["ctx_big"].grid,
                         Grid(-1.0, 1.0, 10))
    assert big.n_nodes > DENSE_NODE_LIMIT >= coarse.n_nodes
    assert (tiny.n // 2) % 2 == 1
    rng = np.random.default_rng(3)
    for g in (big, coarse, tiny):
        n, mid = g.n, g.n // 2
        # dense, then compactly supported: left edge, right edge, one node,
        # across a multiple of the 64-node window block, both end nodes only
        supports = (slice(0, n + 1), slice(0, n // 8), slice(n - n // 8, n + 1),
                    slice(mid, mid + 1), slice(mid - mid % 64 - 5, mid - mid % 64 + 5),
                    [0, n])
        sources = np.zeros((g.n_nodes, len(supports)))
        for col, support in enumerate(supports):
            sources[support, col] = rng.normal(size=sources[support, col].shape)
        x = g.nodes()
        for kernel in kernels:
            ctx = OperatorContext(kernel, firing, params, g)
            fft = np.column_stack([ctx.apply_weighted(s) for s in sources.T])
            # a second call reuses the cached kernel spectra
            assert np.array_equal(ctx.apply_weighted(sources[:, 1]), fft[:, 1])
            assert np.array_equal(ctx.apply_weighted(np.zeros(g.n_nodes)),
                                  np.zeros(g.n_nodes))
            direct = np.concatenate([kernel(x[i:i + 500, None] - x[None, :]) @ sources
                                     for i in range(0, len(x), 500)])
            assert np.max(np.abs(fft - direct)) < 1e-12
            if g.n_nodes <= DENSE_NODE_LIMIT:
                assert np.max(np.abs(fft - ctx.kernel_matrix() @ sources)) < 1e-12
            if g is big:
                # the narrow windows are transformed at a shorter length
                lengths = [length for length, *_ in ctx._spectra.values()]
                assert min(lengths) < fast_fft_len(2 * n + 1) == max(lengths)


def test_apply_T_values_windows_the_source(ref_ctx_big, ref_u_tilde):
    # firing is evaluated only where u > h; the result equals the convolution
    # of the whole weighted firing vector
    ctx = ref_ctx_big
    x = ctx.nodes
    for values in (ref_u_tilde.values,
                   ref_u_tilde.values + 1e-3 * np.cos(x) * np.exp(-np.abs(x))):
        whole = ctx.apply_weighted(ctx.weights * ctx.firing(values - ctx.params.h))
        assert np.max(np.abs(ctx.apply_T_values(values) - whole)) < 1e-12
    assert np.array_equal(ctx.apply_T_values(np.zeros(ctx.grid.n_nodes)),
                          np.zeros(ctx.grid.n_nodes))
    # a NaN far below threshold still lies inside the window and spreads
    poisoned = ref_u_tilde.values.copy()
    poisoned[0] = np.nan
    assert np.all(np.isnan(ctx.apply_T_values(poisoned)))


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


def test_newton_step_matches_dense_solve(kernel_setup):
    # GMRES on the matrix-free Jacobian against np.linalg.solve on the folded
    # dense one, at a start of the Newton solve and at its fixed point
    ctx, bb, fp = kernel_setup["ctx"], kernel_setup["bb"], kernel_setup["fp"]
    mid = ctx.grid.n // 2
    for u in (0.5 * (bb.u_minus.values + bb.u_plus.values), fp.u_star.values):
        v = u[mid:]
        r = v - ctx.apply_T_values(u)[mid:] + 1e-3 * np.cos(np.arange(mid + 1))
        J = dense_even_jacobian(ctx, v)
        want = np.linalg.solve(J, r)
        step = newton_step(ctx, v, r)
        assert np.max(np.abs(step - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.linalg.norm(J @ step - r) <= 1e-14 * np.linalg.norm(r)


def test_gmres_exact_on_small_systems():
    # the Krylov space fills R^m: the solve is exact, without a restart
    rng = np.random.default_rng(7)
    A = np.eye(6) + 0.3 * rng.normal(size=(6, 6))
    b = rng.normal(size=6)
    calls = []

    def matvec(x):
        calls.append(1)
        return A @ x
    x = gmres(matvec, b)
    assert np.max(np.abs(x - np.linalg.solve(A, b))) < 1e-13
    assert len(calls) <= 7
    assert np.array_equal(gmres(matvec, np.zeros(6)), np.zeros(6))


def test_tail_extension_oracle():
    # exponential kernel: omega(x) 2d = 1e-10 at x = ln(d / 1e-10)
    d = 1.5567
    x_tail = tail_extension(ExponentialKernel(), d)
    assert x_tail == pytest.approx(math.log(d / 1e-10), rel=1e-6)


def test_tail_extension_stops_at_table_edge():
    # past its table a tabulated kernel is 0: a table still above the target
    # at its edge ends the tail there, one below it is bisected inside it
    d, table = 1.5567, Grid(-12.0, 12.0, 2400)
    x = table.nodes()
    assert tail_extension(TabulatedKernel(table, ExponentialKernel()(x)), d) == 12.0
    gaussian = tail_extension(TabulatedKernel(table, GaussianKernel()(x)), d)
    assert gaussian == pytest.approx(tail_extension(GaussianKernel(), d), rel=1e-3)


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
    # the reference big grid lies above the dense-matrix limit, the coarse one
    # below it; apply_weighted takes the same FFT path on both
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
