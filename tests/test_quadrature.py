import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import DELTA_PLUS_EXACT, D_EXACT, W_exp
from neurofield.bounds import solve_sandwich
from neurofield.grids import Grid, Profile
from neurofield.model import (ExponentialKernel, GaussianKernel,
                              MexicanHatKernel, TabulatedKernel)
from neurofield.quadrature import CumulativeKernel, indicator_convolution
from oracles import apply_integral_operator, sample

_TABLE = Grid(-12.0, 12.0, 2400)
_HAT = MexicanHatKernel(3.0, 2.0, 1.0, 1.0)
#: each kernel with its 2a: the probe horizon 40, the first zero, the table edge
KERNELS_2A = [
    (ExponentialKernel(), 40.0),
    (GaussianKernel(), 40.0),
    (_HAT, _HAT.first_zero()),
    (TabulatedKernel(_TABLE, GaussianKernel()(_TABLE.nodes())), 12.0),
]
#: an odd table: 0 lies mid-cell, and the exponential's kink with it
_ODD_TABLE = Grid(-6.0, 6.0, 601)
_ODD_TABULATED = TabulatedKernel(_ODD_TABLE, ExponentialKernel()(_ODD_TABLE.nodes()))


def _two_a(kernel) -> float:
    """2a of the sandwich, which does not depend on the model parameters."""
    return 2.0 * solve_sandwich(kernel, 0.1, 0.1).a


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _mp_antiderivative(kernel, b):
    """W(b) for b >= 0 at 50 digits, from the kernel's closed form."""
    with mpmath.workdps(50):
        b = mpmath.mpf(b)
        if isinstance(kernel, ExponentialKernel):
            return (1 - mpmath.exp(-b)) / 2
        if isinstance(kernel, GaussianKernel):
            return mpmath.sqrt(mpmath.pi) / 2 * mpmath.erf(b)
        K, k, M, m = (mpmath.mpf(v) for v in (kernel.K, kernel.k, kernel.M, kernel.m))
        return (K * mpmath.sqrt(mpmath.pi / k) / 2 * mpmath.erf(mpmath.sqrt(k) * b)
                - M * mpmath.sqrt(mpmath.pi / m) / 2 * mpmath.erf(mpmath.sqrt(m) * b))


def _fraction_antiderivative(kernel, b):
    """W(b) for b >= 0 as the exact rational integral over [0, b] of the
    linear interpolant of a tabulated kernel's samples (0 past the table)."""
    xs = [Fraction(x) for x in kernel.grid.nodes()]
    vs = [Fraction(v) for v in kernel.values]
    lo, hi = Fraction(0), min(Fraction(b), xs[-1])
    total = Fraction(0)
    for x0, x1, v0, v1 in zip(xs, xs[1:], vs, vs[1:]):
        p, q = max(x0, lo), min(x1, hi)
        if p < q:
            slope = (v1 - v0) / (x1 - x0)
            total += (q - p) * (2 * v0 + slope * (p - x0 + q - x0)) / 2
    return total


def _exact_antiderivative(kernel, b):
    if isinstance(kernel, TabulatedKernel):
        return _fraction_antiderivative(kernel, b)
    return _mp_antiderivative(kernel, b)


def _total_mass(kernel):
    if isinstance(kernel, TabulatedKernel):
        return _fraction_antiderivative(kernel, kernel.grid.hi)
    return _mp_antiderivative(kernel, mpmath.inf)


def test_cumulative_zero_at_origin():
    assert CumulativeKernel(ExponentialKernel())(0.0) == 0.0


def test_cumulative_exponential_oracle():
    # W(b) = (1 - e^-b)/2, so W(2 * 0.111572...) = 0.1
    b = 2.0 * 0.111572
    got = CumulativeKernel(ExponentialKernel())(b)
    assert got == pytest.approx(W_exp(b), abs=1e-10)
    assert got == pytest.approx(0.1, abs=1e-6)


def test_cumulative_gaussian_total_mass():
    W = CumulativeKernel(GaussianKernel())
    assert W(12.0) == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-8)


def test_cumulative_table_matches_oracle_everywhere():
    W = CumulativeKernel(ExponentialKernel())
    bs = np.linspace(-6.0, 6.0, 301)
    assert np.max(np.abs(W(bs) - W_exp(bs))) < 1e-12


def test_cumulative_table_odd_extension():
    W = CumulativeKernel(GaussianKernel())
    assert W(-1.3) == -W(1.3)


@pytest.mark.parametrize("kernel,two_a", KERNELS_2A)
def test_scalar_query_bit_equal_to_array_query(kernel, two_a):
    # zero of either sign, negative, 0.75 (a table node), past the table at
    # 10.5 on the probe kernels, and 2a
    bs = [0.0, -0.0, -0.3, -0.7, 0.75, 10.5, two_a]
    W_float, W_np, W_arr = (CumulativeKernel(kernel) for _ in range(3))
    for b in bs:
        want = W_arr(np.array([b]))[0]
        got = W_float(b)
        assert type(got) is float
        assert _bits(got) == _bits(want), b
        assert _bits(W_np(np.float64(b))) == _bits(want), b


#: points on [0, 2a] of every kernel: tiny, around the unit, near and at 2a
_POINTS = [1e-9, 1e-4, 0.003, 0.3, 0.75, 1.0, 1.048147073968205, 2.5, 5.0050021,
           7.3, 11.99, 12.0, 25.0, 40.0]


@pytest.mark.parametrize("kernel", [k for k, _ in KERNELS_2A] + [_ODD_TABULATED])
def test_closed_form_matches_exact_integral(kernel):
    # the analytic kernels against their closed forms at 50 digits, the
    # tabulated ones against the rational integral of their interpolant
    two_a = _two_a(kernel)
    tol = 1e-14 if isinstance(kernel, TabulatedKernel) else 1e-15
    W = CumulativeKernel(kernel)
    bs = [b for b in _POINTS if b <= two_a] + [two_a]
    for b in bs:
        exact = _exact_antiderivative(kernel, b)
        got = W(b)
        assert abs(got - float(exact)) <= tol * abs(float(exact)), b
        assert W(-b) == -got
    assert np.array_equal(W(np.array(bs)), [W(b) for b in bs])


#: a coarse table keeps the piecewise quadrature of the property test short
_COARSE = Grid(-6.0, 6.0, 48)
_PROPERTY_KERNELS = [k for k, _ in KERNELS_2A[:3]] + [
    TabulatedKernel(_COARSE, GaussianKernel()(_COARSE.nodes()))]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(which=st.integers(0, len(_PROPERTY_KERNELS) - 1),
       s=st.floats(0.0, 1.0), t=st.floats(0.0, 1.0))
def test_cumulative_odd_monotone_and_quad_property(which, s, t):
    kernel = _PROPERTY_KERNELS[which]
    two_a = _two_a(kernel)
    a, b = sorted((s * two_a, t * two_a))
    W = CumulativeKernel(kernel)
    assert W(-a) == -W(a) and W(-b) == -W(b)
    assert W(a) <= W(b)
    with mpmath.workdps(30):
        if isinstance(kernel, TabulatedKernel):
            nodes = kernel.grid.nodes()
            inner = [float(x) for x in nodes if a < x < b]
            quad = mpmath.quad(lambda x: kernel(float(x)), [a, *inner, b])
        else:
            quad = mpmath.quad(lambda x: kernel(float(x)), [a, b])
    assert abs((W(b) - W(a)) - float(quad)) <= 2e-15 * float(_total_mass(kernel))


@pytest.mark.parametrize("kernel", [k for k, _ in KERNELS_2A])
def test_huge_and_infinite_queries_give_the_total_mass(kernel):
    # O(1) at any b: no table grows to meet the query
    mass = float(_total_mass(kernel))
    W = CumulativeKernel(kernel)
    tracemalloc.start()
    try:
        got = [W(b) for b in (1e300, math.inf, -1e300, -math.inf)]
        arr = W(np.array([1e300, math.inf, -1e300, -math.inf]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000
    assert abs(got[0] - mass) <= 1e-15 * mass
    assert got == [got[0], got[0], -got[0], -got[0]]
    assert arr.tolist() == got


@pytest.mark.parametrize("kernel", [k for k, _ in KERNELS_2A])
def test_nan_query_gives_nan(kernel):
    W = CumulativeKernel(kernel)
    assert math.isnan(W(math.nan))
    assert math.isnan(W(np.float64(math.nan)))
    out = W(np.array([math.nan, 1.0, -math.nan]))
    assert math.isnan(out[0]) and math.isnan(out[2])
    assert out[1] == W(1.0)


def test_indicator_convolution_symmetric():
    W = CumulativeKernel(GaussianKernel())
    xs = np.linspace(0.0, 3.0, 50)
    left = indicator_convolution(W, 0.7, -xs)
    right = indicator_convolution(W, 0.7, xs)
    assert np.max(np.abs(left - right)) < 1e-14


def test_indicator_convolution_exponential_oracles():
    delta = DELTA_PLUS_EXACT
    W = CumulativeKernel(ExponentialKernel())
    # u_delta(0) = 1 - e^-delta = 1 - sqrt(0.4)
    assert indicator_convolution(W, delta, 0.0) == pytest.approx(
        1.0 - math.sqrt(0.4), abs=1e-10)
    # u_delta(x) = e^-x sinh(delta) for x >= delta; at x = d it equals h = 0.1
    assert indicator_convolution(W, delta, D_EXACT) == pytest.approx(0.1, abs=1e-6)
    x = 2.0
    assert indicator_convolution(W, delta, x) == pytest.approx(
        math.exp(-x) * math.sinh(delta), abs=1e-10)


def test_indicator_convolution_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        indicator_convolution(CumulativeKernel(ExponentialKernel()), 0.0, 1.0)


def test_operator_zero_weight():
    g = Grid(-1.0, 1.0, 50)
    out = apply_integral_operator(ExponentialKernel(),
                                  sample(g, np.zeros_like), Grid(-2.0, 2.0, 20))
    assert np.all(out.values == 0.0)


def test_operator_indicator_reduction():
    d = 1.2
    g = Grid(-d, d, 400)
    out = apply_integral_operator(ExponentialKernel(),
                                  sample(g, np.ones_like), Grid(-3.0, 3.0, 60))
    expect = W_exp(out.grid.nodes() + d) - W_exp(out.grid.nodes() - d)
    # composite trapezoid error on e^{-|x-y|}/2 over a 2.4-long interval
    assert np.max(np.abs(out.values - expect)) < 5e-6


def test_operator_linear():
    g = Grid(-1.0, 1.0, 64)
    tgt = Grid(-2.0, 2.0, 32)
    rng = np.random.default_rng(7)
    w1 = Profile(g, rng.normal(size=65))
    w2 = Profile(g, rng.normal(size=65))
    a, b = 1.7, -0.3
    combo = Profile(g, a * w1.values + b * w2.values)
    k = GaussianKernel()
    lhs = apply_integral_operator(k, combo, tgt).values
    rhs = (a * apply_integral_operator(k, w1, tgt).values
           + b * apply_integral_operator(k, w2, tgt).values)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_operator_monotone():
    g = Grid(-1.0, 1.0, 64)
    tgt = Grid(-1.0, 1.0, 64)
    rng = np.random.default_rng(11)
    lo = rng.uniform(0.0, 1.0, size=65)
    hi = lo + rng.uniform(0.0, 1.0, size=65)
    k = ExponentialKernel()
    out_lo = apply_integral_operator(k, Profile(g, lo), tgt).values
    out_hi = apply_integral_operator(k, Profile(g, hi), tgt).values
    assert np.all(out_hi >= out_lo)


def test_operator_odd_weight_gives_odd_output():
    g = Grid(-1.0, 1.0, 64)
    tgt = Grid(-2.0, 2.0, 64)
    w = sample(g, lambda x: x * np.exp(-x * x))
    out = apply_integral_operator(GaussianKernel(), w, tgt).values
    assert np.max(np.abs(out + out[::-1])) < 1e-14
