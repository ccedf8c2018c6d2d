import math
import re
from functools import cache

import numpy as np
import pytest

from conftest import H, TAU, P
from neurofield import fixedpoint
from neurofield.bounds import build_bounds, solve_sandwich
from neurofield.fixedpoint import (DENSE_NODE_LIMIT, NEWTON_TOL, TAIL_TOL,
                                   WINDOW_BLOCK, OperatorContext, compute_epsilon,
                                   extend_bump,
                                   fast_fft_len, gmres, make_extension_grid,
                                   newton_step, solve_third_fixed_point,
                                   tail_extension)
from neurofield.grids import Grid, Profile
from neurofield.model import (ExponentialKernel, GaussianKernel,
                              MexicanHatKernel, RatioFiring,
                              TabulatedKernel)
from neurofield.spectral import Linearization, spectral_radius
from oracles import (ShiftOutOfRange, apply_T, apply_integral_operator,
                     continuous_bump_peak, continuous_bump_profile,
                     continuous_principal_eigenvalue,
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
    with pytest.raises(ValueError, match="operator grid"):
        apply_T(ref_ctx, other)


def test_operator_context_validation(ref_model):
    kernel, firing, h = ref_model
    with pytest.raises(ValueError):
        OperatorContext(kernel, firing, h, Grid(0.0, 1.0, 10))
    with pytest.raises(ValueError):
        OperatorContext(kernel, firing, h, Grid(-1.0, 1.0, 11))
    # the one place h > 0 is checked; the assumption check reports it as a
    # failed sandwich instead
    grid = Grid(-1.0, 1.0, 10)
    assert OperatorContext(kernel, firing, h, grid).h == h
    for bad in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"need h > 0, got h={bad}")):
            OperatorContext(kernel, firing, bad, grid)


def test_fft_path_matches_dense(ref_model, coarse_setup):
    # apply_weighted is one circular FFT convolution over the source's nonzero
    # window on every grid; its oracles are a chunked direct sum everywhere and
    # the dense kernel matrix on grids small enough to hold it
    _, firing, h = ref_model
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
            ctx = OperatorContext(kernel, firing, h, g)
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
    x = ctx.grid.nodes()
    for values in (ref_u_tilde.values,
                   ref_u_tilde.values + 1e-3 * np.cos(x) * np.exp(-np.abs(x))):
        whole = ctx.apply_weighted(ctx.weights * ctx.firing(values - ctx.h))
        assert np.max(np.abs(ctx.apply_T_values(values) - whole)) < 1e-12
    assert np.array_equal(ctx.apply_T_values(np.zeros(ctx.grid.n_nodes)),
                          np.zeros(ctx.grid.n_nodes))
    # a NaN far below threshold still lies inside the window and spreads
    poisoned = ref_u_tilde.values.copy()
    poisoned[0] = np.nan
    assert np.all(np.isnan(ctx.apply_T_values(poisoned)))


def test_envelope_reads_each_former_kernel_maximum(kernel_setup):
    # E[l] = max |omega| at lags of l or more nodes, either sign: E[0] is the
    # largest |omega| on the lag line of a whole-line product from any window,
    # and E[w + 2] the largest |omega| beyond a window of w + 1 nodes and its
    # two bands, bit for bit as the kernel computes them there
    ctx = kernel_setup["lin_big"].ctx
    n, dx, E = ctx.grid.n, ctx.grid.dx, ctx.envelope
    assert len(E) == n + 2 and E[n + 1] == 0.0 and np.all(np.diff(E) <= 0.0)
    assert ctx.envelope is E
    lo, hi = ctx.step_window(kernel_setup["lin_big"].u.values)
    for w_lo, w_hi in ((lo, hi), (0, WINDOW_BLOCK - 1), (n - WINDOW_BLOCK + 1, n)):
        lags = np.arange(-w_hi, n - w_lo + 1)
        assert E[0] == np.max(np.abs(ctx.kernel(lags * dx)))
    for w in (0, 1, WINDOW_BLOCK - 1, min(hi - lo, n - 1), n // 6, n // 2, n - 1):
        lags = np.arange(w + 2, n + 1) * dx
        far = max(float(np.max(np.abs(ctx.kernel(x)), initial=0.0)) for x in (lags, -lags))
        assert E[w + 2] == far, w


def test_fast_fft_len_matches_scipy():
    from scipy.fft import next_fast_len
    for m in list(range(1, 3000)) + [38587, 154327, 1_000_001]:
        assert fast_fft_len(m) == next_fast_len(m, True), m


def test_epsilon_positive_and_stable(ref_epsilon, ref_model, ref_bounds):
    assert ref_epsilon > 0.0
    assert ref_epsilon < ref_bounds.gap_norm()
    # refining the grid moves epsilon by less than 10 percent
    kernel, firing, h = ref_model
    bb2 = build_bounds(kernel, solve_sandwich(kernel, h, firing.tau), 1600)
    ctx2 = OperatorContext(kernel, firing, h, bb2.grid)
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


def test_fixed_point_records_its_newton_tol(ref_ctx, ref_bounds, ref_fp):
    # fixedpoint.json takes the tolerance from the result Newton returned
    assert ref_fp.newton_tol == ref_fp.to_dict()["newton_tol"] == 1e-12
    assert solve_third_fixed_point(ref_ctx, ref_bounds).newton_tol == NEWTON_TOL


def test_third_fixed_point_refinement_order(ref_fp):
    # midpoint value converges at second order in the spacing
    vals = {}
    kernel = ExponentialKernel()
    firing = RatioFiring(P, TAU)
    for n in (200, 400):
        bb = build_bounds(kernel, solve_sandwich(kernel, H, TAU), n)
        ctx = OperatorContext(kernel, firing, H, bb.grid)
        fp = solve_third_fixed_point(ctx, bb, tol=1e-12)
        vals[n] = fp.u_star.values[n // 2]
    ref = ref_fp.u_star.values[400]
    e200 = abs(vals[200] - ref)
    e400 = abs(vals[400] - ref)
    assert e400 < e200 / 3.0


#: the subinterval counts of the exponential ladder
LADDER = (200, 400, 800, 1600, 3200)


@cache
def ladder_rung(tau: float, n: int) -> tuple:
    """(bounds, u*, lambda_n) of the exponential kernel at tau on n
    subintervals; lambda_n is the top eigenvalue of the linearization at u* on
    [-d, d], which holds the whole support."""
    kernel = ExponentialKernel()
    bb = build_bounds(kernel, solve_sandwich(kernel, H, tau), n)
    ctx = OperatorContext(kernel, RatioFiring(P, tau), H, bb.grid)
    u_star = solve_third_fixed_point(ctx, bb, tol=1e-12).u_star
    return bb, u_star, Linearization(ctx, u_star).eigensolve(1)[0][0]


def exponential_ladder(tau: float, ns=LADDER) -> dict:
    """n -> ladder_rung(tau, n) for each n of ns, each solved once per session."""
    return {n: ladder_rung(tau, n) for n in ns}


@pytest.mark.parametrize("tau, U_c, C", [(TAU, 0.21300944813, 0.02),
                                         (0.02, 0.116784034468, 0.05)],
                         ids=["reference", "tau=0.02"])
def test_bump_peak_converges_to_the_continuous_peak(tau, U_c, C):
    # exact truth for the exponential kernel: the discrete peak u*(0) lies
    # within C dx^2 of the continuous bump's U_c at every n (the error over
    # dx^2 is about 0.0127 at the reference and 0.0347 at tau = 0.02), and
    # U_c lies strictly inside the sandwich u_-(0) < U_c < u_+(0)
    peak = continuous_bump_peak(P, tau, H)
    assert peak == pytest.approx(U_c, abs=1e-11)
    for n, (bb, u_star, _) in exponential_ladder(tau).items():
        mid = n // 2
        assert bb.u_minus.values[mid] < peak < bb.u_plus.values[mid]
        assert abs(u_star.values[mid] - peak) <= C * bb.grid.dx ** 2, n


@pytest.mark.parametrize("tau, lam_c, x_h, C", [(TAU, 4.2369126176, 1.0538193223, 0.7),
                                              (0.02, 10.5718557970, 0.2288569489, 120.0)],
                         ids=["reference", "tau=0.02"])
def test_principal_eigenvalue_converges_to_the_continuous_one(tau, lam_c, x_h, C):
    # exact truth for the exponential kernel: lambda_n lies within C dx^2 of
    # the continuous principal eigenvalue lambda_c at every n (the error over
    # dx^2 is 0.47-0.56 at the reference and 48-88 at tau = 0.02, not
    # monotone in n), and the last node x >= 0 with u* > h lies less than one
    # node below the continuous bump's support edge x_h (0.09-0.97 dx below)
    ladder = exponential_ladder(tau)
    lam_n = ladder[3200][2]
    lam, edge = continuous_principal_eigenvalue(P, tau, H, (lam_n - 1e-3, lam_n + 1e-3))
    assert (lam, edge) == pytest.approx((lam_c, x_h), abs=1e-9)
    for n, (bb, u_star, lam_n) in ladder.items():
        dx, x = bb.grid.dx, bb.grid.nodes()
        assert abs(lam_n - lam) <= C * dx ** 2, n
        assert edge - dx < np.max(x[(x >= 0.0) & (u_star.values > H)]) <= edge, n


@pytest.mark.parametrize("tau, ns", [(TAU, LADDER), (0.02, LADDER), (0.002, (800, 3200))],
                         ids=["reference", "tau=0.02", "tau=0.002"])
def test_continuous_bump_lies_in_the_sandwich(tau, ns):
    # exact truth for the exponential kernel on the whole window: the
    # paper's sandwich holds the continuous bump strictly, u_- < u_c < u_+ at
    # every node of [-d, d], its ends included (by 1.1e-3 at least), and u*
    # lies within 0.1 dx^2 of u_c (the error over dx^2 is 0.04-0.06)
    u_c = continuous_bump_profile(P, tau, H)
    for n, (bb, u_star, _) in exponential_ladder(tau, ns).items():
        exact = u_c(bb.grid.nodes())
        assert np.all(bb.u_minus.values < exact) and np.all(exact < bb.u_plus.values), n
        assert np.max(np.abs(u_star.values - exact)) <= 0.1 * bb.grid.dx ** 2, n


def test_newton_limit_outside_the_order_interval_is_rejected():
    # at p = 300 the starts 0.5 and 0.35 diverge and 0.65 converges to the
    # trivial fixed point u = 0, below u_minus; the start 0.25 finds the bump
    kernel = ExponentialKernel()
    bb = build_bounds(kernel, solve_sandwich(kernel, H, TAU), 200)
    ctx = OperatorContext(kernel, RatioFiring(300.0, TAU), H, bb.grid)
    fp = solve_third_fixed_point(ctx, bb)
    u = fp.u_star.values
    assert np.all(bb.u_minus.values <= u) and np.all(u <= bb.u_plus.values)
    assert u[100] == pytest.approx(0.2244, abs=1e-4)
    assert (fp.dist_to_u_minus, fp.dist_to_u_plus) == pytest.approx((0.120, 0.149),
                                                                     abs=1e-3)


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


def test_tail_extension_stops_at_table_edge(monkeypatch):
    # past its table a tabulated kernel is 0: the bisection takes a table
    # still above the target at its edge onto the edge from above, and the
    # line is the one a tail of exactly the edge gives; a table below the
    # target at its edge is bisected inside it
    d, table = 1.5567, Grid(-12.0, 12.0, 2400)
    x = table.nodes()
    exponential = TabulatedKernel(table, ExponentialKernel()(x))
    assert 12.0 < tail_extension(exponential, d) <= math.nextafter(12.0, 13.0)
    grids = [Grid(-d, d, n) for n in (200, 800, 3200)]
    lines = [make_extension_grid(exponential, g) for g in grids]
    monkeypatch.setattr(fixedpoint, "tail_extension", lambda kernel, d: 12.0)
    assert lines == [make_extension_grid(exponential, g) for g in grids]
    gaussian = tail_extension(TabulatedKernel(table, GaussianKernel()(x)), d)
    assert gaussian == pytest.approx(tail_extension(GaussianKernel(), d), rel=1e-3)


def test_tail_extension_bounds_the_kernel_magnitude():
    # beyond x_tail no sample of |omega| exceeds the target, also past the
    # zero of a mexican hat, where its inhibitory lobe is still far above it
    table = Grid(-12.0, 12.0, 2400)
    kernels = (ExponentialKernel(), GaussianKernel(),
               MexicanHatKernel(3.0, 2.0, 1.0, 1.0),
               TabulatedKernel(table, MexicanHatKernel(3.0, 2.0, 1.0, 1.0)(table.nodes())))
    for kernel in kernels:
        for d in (0.3, 1.0, 1.5567, 3.0):
            x_tail = tail_extension(kernel, d)
            beyond = x_tail + np.linspace(0.0, 30.0, 30001)
            assert np.max(np.abs(kernel(beyond))) <= TAIL_TOL / (2.0 * d)


def test_mexican_hat_line_reaches_its_decayed_tail():
    # the whole-line bump and principal vector of a mexican hat have decayed
    # at both ends of the line, past the kernel's inhibitory lobe
    kernel = MexicanHatKernel(3.0, 2.0, 1.0, 1.0)
    bb = build_bounds(kernel, solve_sandwich(kernel, 0.05, 0.05), 200)
    ctx = OperatorContext(kernel, RatioFiring(P, 0.05), 0.05,
                          make_extension_grid(kernel, bb.grid))
    lin = Linearization(ctx, extend_bump(ctx, solve_third_fixed_point(ctx, bb).u_star))
    v = spectral_radius(lin, *lin.eigensolve(1))[1].values
    for profile in (lin.u.values, v):
        assert max(abs(profile[0]), abs(profile[-1])) < 1e-8


def test_whole_line_context_solves_on_the_embedded_window(ref_ctx, ref_ctx_big, ref_bounds,
                                                         ref_epsilon, ref_fp):
    # the margin, Newton and its GMRES product on the [-d, d] nodes of the
    # whole-line context give the [-d, d] context's results
    k = ref_ctx_big.centred(ref_bounds.grid.n)
    u = ref_fp.u_star.values
    window = ref_ctx_big.apply_T_window(u, k)[0]
    assert np.max(np.abs(window - ref_ctx.apply_T_values(u))) <= 1e-15
    assert compute_epsilon(ref_ctx_big, ref_bounds) == ref_epsilon
    fp = solve_third_fixed_point(ref_ctx_big, ref_bounds, tol=1e-12)
    assert fp.u_star.grid == ref_bounds.grid
    assert np.max(np.abs(fp.u_star.values - u)) <= 1e-14
    assert fp.residual_sup <= 1e-12
    v, mid = u[400:], 400
    r = v - ref_ctx.apply_T_values(u)[mid:] + 1e-3 * np.cos(np.arange(mid + 1))
    want = newton_step(ref_ctx, v, r)
    assert np.max(np.abs(newton_step(ref_ctx_big, v, r) - want)) <= 1e-12 * np.max(np.abs(want))


def test_extension_grid_embeds(ref_model):
    # the [-d, d] nodes are the centred window of the line built around them,
    # for every kernel family and several (d, n); a window whose subinterval
    # count differs from the line's in parity, or does not fit, has none
    _, firing, h = ref_model
    table = Grid(-12.0, 12.0, 2400)
    kernels = (ExponentialKernel(), GaussianKernel(),
               MexicanHatKernel(3.0, 2.0, 1.0, 1.0),
               TabulatedKernel(table, ExponentialKernel()(table.nodes())))
    for kernel in kernels:
        for d, n in ((0.3, 2), (1.5567, 200), (1.5567, 800), (4.0, 1000)):
            grid_d = Grid(-d, d, n)
            ctx = OperatorContext(kernel, firing, h, make_extension_grid(kernel, grid_d))
            k = ctx.centred(n)
            assert ctx.grid.dx == pytest.approx(grid_d.dx, rel=1e-12)
            assert (np.max(np.abs(ctx.grid.nodes()[k:k + n + 1] - grid_d.nodes()))
                    <= 1e-12 * ctx.grid.hi)
            for bad in (n - 1, n + 1, ctx.grid.n + 2, -2):
                with pytest.raises(ValueError, match="centred window"):
                    ctx.centred(bad)


def test_extend_bump_properties(ref_ctx, ref_fp, ref_u_tilde, ref_ctx_big):
    u = ref_u_tilde.values
    k = ref_ctx_big.centred(ref_ctx.grid.n)
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
        gain = Profile(ctx.grid, ctx.firing(fp.u_star.values - ctx.h))
        direct = apply_integral_operator(ctx.kernel, gain, ctx_big.grid)
        assert np.max(np.abs(u_tilde.values - direct.values)) < 1e-12


def test_extend_bump_alignment_guard(ref_ctx_big):
    # an odd subinterval count has no centred window in the even line
    u = Profile(Grid(-1.0, 1.0, 7), np.zeros(8))
    with pytest.raises(ValueError, match="centred window"):
        extend_bump(ref_ctx_big, u)


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
