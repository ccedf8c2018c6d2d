"""End-to-end acceptance battery for the reference configuration.

Anchor setup: exponential kernel omega(x) = exp(-|x|)/2, h = 0.1, tau = 0.2,
ratio firing with p = 2, and 800 subintervals on [-d, d].  Each criterion
prints its own pass/fail line.
"""

import math
import time

import numpy as np
import pytest

from conftest import (DELTA_MINUS_EXACT, DELTA_PLUS_EXACT, D_EXACT, H, TAU, P,
                      W_exp)
from neurofield.bounds import (build_bounds, find_d, solve_delta,
                               solve_sandwich)
from neurofield.dynamics import RK4, SimConfig, instability_experiment, simulate
from neurofield.fixedpoint import (OperatorContext, compute_epsilon,
                                   extend_bump, make_extension_grid,
                                   solve_third_fixed_point)
from neurofield.grids import Grid, Profile
from neurofield.model import (ExponentialKernel, GaussianKernel,
                              MexicanHatKernel, ModelParams, RatioFiring)
from neurofield.quadrature import CumulativeKernel
from neurofield.spectral import (Linearization, remainder_exponent_fit,
                                 spectra_equivalence_check, spectral_radius)
from oracles import (dense_eigenvalues, integrate, monotone_iterate, sample,
                     verify_heaviside_stationarity)


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[acceptance] {name}: {tag}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_01_bound_constants():
    t0 = time.perf_counter()
    kernel = ExponentialKernel()
    W, a = CumulativeKernel(kernel), solve_sandwich(kernel, ModelParams(H, TAU)).a
    dm = solve_delta(W, H, a)
    dp = solve_delta(W, H + TAU, a)
    d = find_d(W, dp, H, a)
    elapsed = time.perf_counter() - t0
    errs = (abs(dm - DELTA_MINUS_EXACT), abs(dp - DELTA_PLUS_EXACT),
            abs(d - D_EXACT))
    ok = max(errs) <= 1e-8 and elapsed < 1.0
    report("criterion 1: bound constants vs antiderivative oracle", ok,
           f"max err {max(errs):.2e}, {elapsed:.3f} s")


def test_criterion_02_fixed_point_sandwich(ref_fp, ref_bounds):
    fp = ref_fp
    u = fp.u_star.values
    gap = ref_bounds.gap_norm()
    residual_ok = fp.residual_sup <= 1e-8
    sandwich_ok = (np.all(u >= ref_bounds.u_minus.values - 1e-8)
                   and np.all(u <= ref_bounds.u_plus.values + 1e-8))
    sep_ok = min(fp.dist_to_u_minus, fp.dist_to_u_plus) >= 1e-2 * gap
    report("criterion 2: interior fixed point with sandwich and separation",
           residual_ok and sandwich_ok and sep_ok,
           f"residual {fp.residual_sup:.2e}, separations "
           f"({fp.dist_to_u_minus:.3f}, {fp.dist_to_u_plus:.3f})")


def test_criterion_03_monotone_protocol(ref_ctx, ref_bounds, ref_epsilon):
    eps = ref_epsilon
    lo = ref_bounds.u_minus.values + eps
    hi = ref_bounds.u_plus.values - eps
    strict_ok = (eps > 0.0
                 and np.min(lo - ref_ctx.apply_T_values(lo)) > 0.0
                 and np.min(ref_ctx.apply_T_values(hi) - hi) > 0.0)
    u_lo, tr_lo = monotone_iterate(ref_ctx, ref_bounds,
                                   Profile(ref_ctx.grid, lo), tol=1e-10)
    u_hi, tr_hi = monotone_iterate(ref_ctx, ref_bounds,
                                   Profile(ref_ctx.grid, hi), tol=1e-10)
    to_lo = float(np.max(np.abs(u_lo.values - ref_bounds.u_minus.values)))
    to_hi = float(np.max(np.abs(u_hi.values - ref_bounds.u_plus.values)))
    ok = (strict_ok and tr_lo.monotone_ok and tr_hi.monotone_ok
          and to_lo <= 1e-6 and to_hi <= 1e-6)
    report("criterion 3: strict margin and order-preserving iteration", ok,
           f"epsilon {eps:.4g}, limits within ({to_lo:.1e}, {to_hi:.1e})")


def test_criterion_04_translation_eigenvalue(ref_lin_big):
    kernel = ExponentialKernel()
    firing = RatioFiring(P, TAU)
    params = ModelParams(H, TAU)

    def nearest_one(n):
        bb = build_bounds(kernel, params, n)
        ctx = OperatorContext(kernel, firing, params, bb.grid)
        fp = solve_third_fixed_point(ctx, bb, tol=1e-12)
        ctx_big = OperatorContext(kernel, firing, params,
                                  make_extension_grid(kernel, bb.grid))
        lin = Linearization(ctx_big, extend_bump(ctx, fp.u_star, ctx_big))
        ev = lin.eigenvalues()
        return float(ev[np.argmin(np.abs(ev - 1.0))])

    errs = [abs(nearest_one(n) - 1.0) for n in (200, 400)]
    ev800 = ref_lin_big.eigenvalues()
    err800 = float(np.min(np.abs(ev800 - 1.0)))
    # Lanczos finds the eigenvalue the full dense spectrum has nearest to 1
    dense800 = float(np.min(np.abs(dense_eigenvalues(ref_lin_big) - 1.0)))
    # overall order across the N -> 2N -> 4N ladder
    order = math.log(errs[0] / err800) / math.log(4.0)
    ok = err800 <= 5e-3 and order >= 1.8 and abs(err800 - dense800) <= 1e-12
    report("criterion 4: translation mode eigenvalue 1", ok,
           f"|lambda-1| = {err800:.2e} at N=800, order {order:.2f}")


def test_criterion_05_instability_certificate(ref_power, coarse_setup):
    lam, vec = ref_power
    v = vec.values
    one_signed = float(np.min(v) * np.max(v)) >= -1e-10
    # power iteration vs dense eigensolve on the small setup
    lin_small = Linearization(coarse_setup["ctx_big"], coarse_setup["u_tilde"])
    lam_small, _ = spectral_radius(lin_small, lin_small.eigenvalues(1))
    dense_small = float(dense_eigenvalues(lin_small)[0])
    agree = abs(lam_small - dense_small)
    ok = lam >= 1.01 and one_signed and agree <= 1e-8
    report("criterion 5: spectral radius above one, one-signed mode", ok,
           f"lambda_max {lam:.6f}, power vs dense {agree:.1e}")


def test_criterion_06_spectra_equivalence(ref_lin, ref_lin_big):
    dev, count = spectra_equivalence_check(ref_lin.eigenvalues(),
                                           ref_lin_big.eigenvalues(), 5)
    # the full dense spectra give the same top-5 comparison
    dev_dense, _ = spectra_equivalence_check(dense_eigenvalues(ref_lin),
                                             dense_eigenvalues(ref_lin_big), 5)
    ok = count == 5 and dev <= 1e-6 and abs(dev - dev_dense) <= 1e-12
    report("criterion 6: restricted vs whole-line spectra", ok,
           f"top-{count} relative deviation {dev:.2e}")


def test_criterion_07_remainder_exponent(ref_ctx_big, ref_lin_big, ref_power):
    _, vec = ref_power
    direction = Profile(ref_ctx_big.grid,
                        vec.values / np.max(np.abs(vec.values)))
    slope, _ = remainder_exponent_fit(ref_lin_big, direction, np.logspace(-4, -2, 9))
    ok = slope >= 1.9
    report("criterion 7: superlinear nonlinear remainder", ok,
           f"log-log slope {slope:.3f}")


def test_criterion_08_dynamics_instability(ref_ctx_big, ref_u_tilde, ref_power):
    t0 = time.perf_counter()
    lam, vec = ref_power
    delta = 1e-3
    eps_ball = 0.05 * ref_u_tilde.sup_norm()
    out = instability_experiment(ref_ctx_big, ref_u_tilde, vec, delta,
                                 eps_ball, SimConfig(dt=0.01, t_end=3.0),
                                 lambda_max=lam)
    growth_ok = (out["growth_rate"] is not None
                 and abs(out["growth_rate"] - (lam - 1.0)) <= 0.1 * (lam - 1.0))
    escape_ok = (out["escape_time"] is not None
                 and out["escape_time"] <= 2.0 * out["predicted_escape"])
    drift = np.max(simulate(ref_ctx_big, ref_u_tilde, ref_u_tilde,
                            SimConfig(dt=0.01, t_end=10.0)).deviation_sup)
    elapsed = time.perf_counter() - t0
    ok = growth_ok and escape_ok and drift <= 1e-6 and elapsed < 30.0
    report("criterion 8: perturbation growth and finite-time escape", ok,
           f"growth {out['growth_rate']:.3f} vs {lam - 1.0:.3f}, escape "
           f"{out['escape_time']:.2f} vs predicted {out['predicted_escape']:.2f}, "
           f"drift {drift:.1e}, {elapsed:.1f} s")


def test_criterion_09_comparison_profile_battery():
    cases = [
        (ExponentialKernel(), ModelParams(0.1, 0.2)),
        (GaussianKernel(), ModelParams(0.1, 0.2)),
        (MexicanHatKernel(3.0, 2.0, 1.0, 1.0), ModelParams(0.05, 0.05)),
    ]
    all_ok = True
    for kernel, params in cases:
        bb = build_bounds(kernel, params, 400)
        probe = Grid(-4.0 * bb.d, 4.0 * bb.d, 8000)
        rep = verify_heaviside_stationarity(kernel, bb, probe)
        all_ok = all_ok and rep["ok"]
    report("criterion 9: comparison profiles across the analytic kernels",
           all_ok, f"{len(cases)} kernels")


def test_criterion_10_numerical_substrate(coarse_setup):
    # trapezoid order via Richardson halving on a smooth integrand
    exact = math.sqrt(math.pi) * math.erf(2.0)
    errs = []
    for n in (40, 80):
        p = sample(Grid(-2.0, 2.0, n), lambda x: np.exp(-x * x))
        errs.append(abs(integrate(p) - exact))
    trap_order = math.log2(errs[0] / errs[1])

    # rk4 self-convergence against a dt/16 reference on the coarse bump
    ctx = coarse_setup["ctx_big"]
    u = coarse_setup["u_tilde"]
    u0 = Profile(ctx.grid, 1.01 * u.values)
    ref = simulate(ctx, u0, u, SimConfig(dt=0.0025, t_end=1.0, scheme=RK4))
    es = []
    for dt in (0.04, 0.02):
        traj = simulate(ctx, u0, u, SimConfig(dt=dt, t_end=1.0, scheme=RK4))
        es.append(abs(traj.deviation_sup[-1] - ref.deviation_sup[-1]))
    rk4_order = math.log2(es[0] / es[1])

    ok = trap_order >= 1.9 and rk4_order >= 3.8
    report("criterion 10: quadrature and time-stepper orders", ok,
           f"trapezoid {trap_order:.2f}, rk4 {rk4_order:.2f}")
