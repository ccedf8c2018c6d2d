"""Shared fixtures: the reference exponential-kernel configuration.

The anchor setup is the exponential kernel omega(x) = exp(-|x|)/2 with
h = 0.1, tau = 0.2, ratio firing with p = 2, and 800 subintervals on [-d, d];
its closed forms (W(b) = (1 - exp(-b))/2 and friends) serve as oracles.
"""

import math

import numpy as np
import pytest

from neurofield.bounds import build_bounds
from neurofield.fixedpoint import (OperatorContext, compute_epsilon,
                                   extend_bump, make_extension_grid,
                                   solve_third_fixed_point)
from neurofield.model import ExponentialKernel, ModelParams, RatioFiring
from neurofield.spectral import build_linearization, spectral_radius

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
    return ExponentialKernel(), RatioFiring(P, TAU), ModelParams(H, TAU)


@pytest.fixture(scope="session")
def ref_bounds(ref_model):
    kernel, _, params = ref_model
    return build_bounds(kernel, params, 800)


@pytest.fixture(scope="session")
def ref_ctx(ref_model, ref_bounds):
    kernel, firing, params = ref_model
    return OperatorContext(kernel, firing, params, ref_bounds.grid)


@pytest.fixture(scope="session")
def ref_epsilon(ref_ctx, ref_bounds):
    return compute_epsilon(ref_ctx, ref_bounds)


@pytest.fixture(scope="session")
def ref_fp(ref_ctx, ref_bounds, ref_epsilon):
    return solve_third_fixed_point(ref_ctx, ref_bounds, tol=1e-12,
                                   epsilon=ref_epsilon)


@pytest.fixture(scope="session")
def ref_big_grid(ref_model, ref_bounds):
    kernel, _, _ = ref_model
    return make_extension_grid(kernel, ref_bounds.grid)


@pytest.fixture(scope="session")
def ref_ctx_big(ref_model, ref_big_grid):
    kernel, firing, params = ref_model
    return OperatorContext(kernel, firing, params, ref_big_grid)


@pytest.fixture(scope="session")
def ref_u_tilde(ref_ctx, ref_fp, ref_ctx_big):
    return extend_bump(ref_ctx, ref_fp.u_star, ref_ctx_big)


@pytest.fixture(scope="session")
def ref_lin(ref_ctx, ref_fp):
    return build_linearization(ref_ctx, ref_fp.u_star)


@pytest.fixture(scope="session")
def ref_lin_big(ref_ctx_big, ref_u_tilde):
    return build_linearization(ref_ctx_big, ref_u_tilde)


@pytest.fixture(scope="session")
def ref_power(ref_lin_big):
    return spectral_radius(ref_lin_big)


# coarser twin of the reference setup for the time-stepping tests
@pytest.fixture(scope="session")
def coarse_setup(ref_model):
    kernel, firing, params = ref_model
    bb = build_bounds(kernel, params, 200)
    ctx = OperatorContext(kernel, firing, params, bb.grid)
    fp = solve_third_fixed_point(ctx, bb, tol=1e-12)
    ctx_big = OperatorContext(kernel, firing, params,
                              make_extension_grid(kernel, bb.grid))
    u_tilde = extend_bump(ctx, fp.u_star, ctx_big)
    return {"bb": bb, "ctx": ctx, "fp": fp, "ctx_big": ctx_big,
            "u_tilde": u_tilde}
