import math

import numpy as np
import pytest

from conftest import DELTA_PLUS_EXACT, D_EXACT, W_exp
from neurofield.grids import Grid, Profile, sample
from neurofield.model import ExponentialKernel, GaussianKernel
from neurofield.quadrature import (CumulativeKernel, apply_integral_operator,
                                   indicator_convolution)


def test_cumulative_zero_at_origin():
    assert CumulativeKernel(ExponentialKernel())(0.0) == 0.0


def test_cumulative_exponential_oracle():
    # W(b) = (1 - e^-b)/2, so W(2 * 0.111572...) = 0.1
    b = 2.0 * 0.111572
    got = CumulativeKernel(ExponentialKernel())(b)
    assert got == pytest.approx(W_exp(b), abs=1e-10)
    assert got == pytest.approx(0.1, abs=1e-6)


def test_cumulative_gaussian_total_mass():
    # the query lies beyond the initial table, which must grow to reach it
    W = CumulativeKernel(GaussianKernel(), n_per_unit=8192)
    assert W.b_max < 12.0
    assert W(12.0) == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-8)


def test_cumulative_table_matches_oracle_everywhere():
    W = CumulativeKernel(ExponentialKernel())
    bs = np.linspace(-6.0, 6.0, 301)
    assert np.max(np.abs(W(bs) - W_exp(bs))) < 1e-12


def test_cumulative_table_odd_extension():
    W = CumulativeKernel(GaussianKernel())
    assert W(-1.3) == -W(1.3)


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
