import math
import warnings

import numpy as np
import pytest

from conftest import DELTA_PLUS_EXACT, D_EXACT, W_exp
from neurofield.errors import OutOfTableWarning
from neurofield.grids import Grid, Profile, sample
from neurofield.model import (ExponentialKernel, GaussianKernel,
                              MexicanHatKernel, TabulatedKernel)
from neurofield.quadrature import (DEFAULT_N_PER_UNIT, CumulativeKernel,
                                   apply_integral_operator,
                                   indicator_convolution)

_TABLE = Grid(-12.0, 12.0, 2400)
_HAT = MexicanHatKernel(3.0, 2.0, 1.0, 1.0)
#: each kernel with its 2a: the probe horizon 40, the first zero, the table edge
KERNELS_2A = [
    (ExponentialKernel(), 40.0),
    (GaussianKernel(), 40.0),
    (_HAT, _HAT.first_zero()),
    (TabulatedKernel(_TABLE, GaussianKernel()(_TABLE.nodes())), 12.0),
]


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


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


@pytest.mark.parametrize("kernel,two_a", KERNELS_2A)
def test_scalar_query_bit_equal_to_array_query(kernel, two_a):
    dx = 1.0 / DEFAULT_N_PER_UNIT
    # negative, on a table node, past the initial table end (8), and at 2a;
    # the three tables grow at the same queries
    bs = [0.0, -0.0, -0.3, -0.7, 3072 * dx, 10.5, two_a]
    W_float, W_np, W_arr = (CumulativeKernel(kernel) for _ in range(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error", OutOfTableWarning)
        for b in bs:
            if b == 10.5:
                assert W_float.b_max < b  # this query grows the table
            want = W_arr(np.array([b]))[0]
            got = W_float(b)
            assert type(got) is float
            assert _bits(got) == _bits(want), b
            assert _bits(W_np(np.float64(b))) == _bits(want), b
            assert W_float.b_max == W_np.b_max == W_arr.b_max >= abs(b)


@pytest.mark.parametrize("kernel", [k for k, _ in KERNELS_2A])
def test_two_evaluation_table_bit_equal_to_three(kernel):
    # the table per cell from the three-evaluation Simpson formula, grown in
    # the same steps (to the initial 8, then to 12)
    dx = 1.0 / DEFAULT_N_PER_UNIT
    table = np.zeros(1)
    for b in (8.0, 12.0):
        lo = np.arange(len(table) - 1, math.ceil(b / dx)) * dx
        hi = lo + dx
        cells = (kernel(lo) + 4.0 * kernel(0.5 * (lo + hi)) + kernel(hi)) * (dx / 6.0)
        table = np.concatenate([table, table[-1] + np.cumsum(cells)])
    W = CumulativeKernel(kernel)
    nodes = np.arange(len(table)) * dx
    # at a node the query reads the table entry: the partial cell is empty
    assert np.array_equal(W(nodes), table)
    assert W.b_max == 12.0


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
