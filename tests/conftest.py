"""Shared fixtures: the reference exponential-kernel configuration.

The anchor setup is the exponential kernel omega(x) = exp(-|x|)/2 with
h = 0.1, tau = 0.2, ratio firing with p = 2, and 800 subintervals on [-d, d];
its closed forms (W(b) = (1 - exp(-b))/2 and friends) serve as oracles.
"""

import math

import numpy as np
import pytest

from neurofield.bounds import build_bounds, solve_sandwich
from neurofield.fixedpoint import (OperatorContext, compute_epsilon,
                                   extend_bump, make_extension_grid,
                                   solve_third_fixed_point)
from neurofield.model import (ExponentialKernel, GaussianKernel,
                              MexicanHatKernel, RatioFiring)
from neurofield.spectral import Linearization, spectral_radius

H = 0.1
TAU = 0.2
P = 2.0

# closed-form sandwich constants for the exponential kernel
DELTA_MINUS_EXACT = -0.5 * math.log(0.8)
DELTA_PLUS_EXACT = -0.5 * math.log(0.4)
D_EXACT = math.log(math.sinh(DELTA_PLUS_EXACT) / H)


def W_exp(b):
    """Antiderivative oracle for the exponential kernel: W(b) = (1 - e^-b)/2."""
    b = np.asarray(b, dtype=float)
    out = np.sign(b) * 0.5 * (1.0 - np.exp(-np.abs(b)))
    return out if out.ndim else float(out)


@pytest.fixture(scope="session")
def ref_model():
    return ExponentialKernel(), RatioFiring(P, TAU), H


@pytest.fixture(scope="session")
def ref_bounds(ref_model):
    kernel, _, _ = ref_model
    return build_bounds(kernel, solve_sandwich(kernel, H, TAU), 800)


@pytest.fixture(scope="session")
def ref_ctx(ref_model, ref_bounds):
    return OperatorContext(*ref_model, ref_bounds.grid)


@pytest.fixture(scope="session")
def ref_epsilon(ref_ctx, ref_bounds):
    return compute_epsilon(ref_ctx, ref_bounds)


@pytest.fixture(scope="session")
def ref_fp(ref_ctx, ref_bounds):
    return solve_third_fixed_point(ref_ctx, ref_bounds, tol=1e-12)


@pytest.fixture(scope="session")
def ref_big_grid(ref_model, ref_bounds):
    kernel, _, _ = ref_model
    return make_extension_grid(kernel, ref_bounds.grid)


@pytest.fixture(scope="session")
def ref_ctx_big(ref_model, ref_big_grid):
    return OperatorContext(*ref_model, ref_big_grid)


@pytest.fixture(scope="session")
def ref_u_tilde(ref_fp, ref_ctx_big):
    return extend_bump(ref_ctx_big, ref_fp.u_star)


@pytest.fixture(scope="session")
def ref_lin(ref_ctx, ref_fp):
    return Linearization(ref_ctx, ref_fp.u_star)


@pytest.fixture(scope="session")
def ref_lin_big(ref_ctx_big, ref_u_tilde):
    return Linearization(ref_ctx_big, ref_u_tilde)


@pytest.fixture(scope="session")
def ref_power(ref_lin_big):
    return spectral_radius(ref_lin_big, *ref_lin_big.eigensolve(1))


# coarser twin of the reference setup for the time-stepping tests
@pytest.fixture(scope="session")
def coarse_setup(ref_model):
    kernel, firing, h = ref_model
    bb = build_bounds(kernel, solve_sandwich(kernel, h, firing.tau), 200)
    ctx = OperatorContext(kernel, firing, h, bb.grid)
    fp = solve_third_fixed_point(ctx, bb, tol=1e-12)
    ctx_big = OperatorContext(kernel, firing, h, make_extension_grid(kernel, bb.grid))
    u_tilde = extend_bump(ctx_big, fp.u_star)
    return {"bb": bb, "ctx": ctx, "fp": fp, "ctx_big": ctx_big,
            "u_tilde": u_tilde}


# one feasible (kernel, h, tau) per analytic kernel family, p = 2, N = 200
@pytest.fixture(scope="session", params=[
    (ExponentialKernel(), 0.1, 0.2),
    (GaussianKernel(), 0.1, 0.2),
    (MexicanHatKernel(3.0, 2.0, 1.0, 1.0), 0.05, 0.05),
], ids=["exponential", "gaussian", "mexican_hat"])
def kernel_setup(request):
    kernel, h, tau = request.param
    firing = RatioFiring(P, tau)
    bb = build_bounds(kernel, solve_sandwich(kernel, h, tau), 200)
    ctx = OperatorContext(kernel, firing, h, bb.grid)
    fp = solve_third_fixed_point(ctx, bb, tol=1e-12)
    ctx_big = OperatorContext(kernel, firing, h, make_extension_grid(kernel, bb.grid))
    u_tilde = extend_bump(ctx_big, fp.u_star)
    return {"bb": bb, "ctx": ctx, "fp": fp,
            "lin": Linearization(ctx, fp.u_star),
            "lin_big": Linearization(ctx_big, u_tilde)}
