import math

import mpmath
import numpy as np
import pytest

from neurofield.errors import NeurofieldError
from neurofield.fixedpoint import OperatorContext
from neurofield.grids import Grid
from neurofield.model import (ExponentialKernel, GaussianKernel,
                              MexicanHatKernel, RatioFiring,
                              TabulatedKernel)


# --------------------------------------------------------------------------
# kernels
# --------------------------------------------------------------------------

def test_exponential_values():
    k = ExponentialKernel()
    assert k(0.0) == 0.5
    assert k(1.0) == pytest.approx(0.5 * math.exp(-1.0), abs=1e-15)
    assert k(-1.0) == k(1.0)


def test_exponential_deriv_oracle():
    k = ExponentialKernel()
    assert k.deriv(1.0) == pytest.approx(-0.5 * math.exp(-1.0), abs=1e-15)
    assert k.deriv(-1.0) == -k.deriv(1.0)
    # the kink at 0 takes the odd-symmetric value 0, as a scalar and in an array
    assert k.deriv(0.0) == 0.0
    assert k.deriv(np.array([0.0]))[0] == 0.0


def test_gaussian_values_and_deriv():
    k = GaussianKernel()
    assert k(0.0) == 1.0
    assert k.deriv(0.5) == pytest.approx(-math.exp(-0.25), abs=1e-15)


def test_mexican_hat_first_zero():
    k = MexicanHatKernel(3.0, 2.0, 1.0, 1.0)
    x0 = k.first_zero()
    assert x0 == pytest.approx(math.sqrt(math.log(3.0)), abs=1e-15)
    assert abs(k(x0)) < 1e-14
    assert k(0.0) == 2.0
    assert k(0.99 * x0) > 0.0 > k(1.5 * x0)
    assert k.positive_radius() == x0 / 2.0


def test_positive_kernels_have_unbounded_radius():
    assert ExponentialKernel().positive_radius() == math.inf
    assert GaussianKernel().positive_radius() == math.inf


def test_mexican_hat_rejects_bad_shape():
    with pytest.raises(ValueError):
        MexicanHatKernel(1.0, 2.0, 3.0, 1.0)
    with pytest.raises(ValueError):
        MexicanHatKernel(3.0, 1.0, 1.0, 2.0)


@pytest.mark.parametrize("kernel", [ExponentialKernel(), GaussianKernel(),
                                    MexicanHatKernel(3.0, 2.0, 1.0, 1.0)])
def test_kernel_deriv_matches_central_difference(kernel):
    xs = np.array([0.3, 0.9, 1.7, -0.6])
    eps = 1e-6
    num = (kernel(xs + eps) - kernel(xs - eps)) / (2.0 * eps)
    assert np.max(np.abs(kernel.deriv(xs) - num)) < 1e-8


def test_tabulated_round_trip():
    g = Grid(-5.0, 5.0, 1000)
    tab = TabulatedKernel(g, GaussianKernel()(g.nodes()))
    xs = np.linspace(-4.0, 4.0, 57)
    assert np.max(np.abs(tab(xs) - GaussianKernel()(xs))) < 1e-4
    assert np.max(np.abs(tab.deriv(xs) - GaussianKernel().deriv(xs))) < 1e-3


def test_tabulated_out_of_range_is_zero():
    g = Grid(-2.0, 2.0, 100)
    tab = TabulatedKernel(g, GaussianKernel()(g.nodes()))
    assert tab(3.0) == 0.0 and tab(-3.0) == 0.0
    assert np.array_equal(tab(np.array([-2.5, 2.5])), [0.0, 0.0])


def test_tabulated_call_matches_interp_of_fresh_nodes(monkeypatch):
    # the nodes are built once, at construction; values are those of
    # np.interp on a fresh linspace, 0 past the table
    g = Grid(-3.0, 3.0, 600)
    nodes = g.nodes()
    tab = TabulatedKernel(g, MexicanHatKernel(3.0, 2.0, 1.0, 1.0)(nodes))
    monkeypatch.setattr(Grid, "nodes", lambda self: pytest.fail("nodes rebuilt"))
    inputs = (0.0, 1.234, -3.0, 3.0, 3.0001, -7.5, np.linspace(-2.9, 2.9, 41),
              np.linspace(-4.0, 4.0, 33), np.array([[0.5, -3.5], [2.0, 1.0]]))
    for x in inputs:
        got = tab(x)
        want = np.interp(np.asarray(x, dtype=float), nodes, tab.values,
                         left=0.0, right=0.0)
        assert np.array_equal(got, want) and np.ndim(got) == np.ndim(x)
        assert type(got) is (float if np.ndim(x) == 0 else np.ndarray)


def test_tabulated_rejects_asymmetric():
    g = Grid(-1.0, 1.0, 100)
    vals = GaussianKernel()(g.nodes())
    vals[3] += 1e-6
    with pytest.raises(ValueError):
        TabulatedKernel(g, vals)
    with pytest.raises(ValueError):
        TabulatedKernel(Grid(0.0, 1.0, 100), np.ones(101))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tabulated_rejects_non_finite(bad):
    # a NaN would pass the symmetry test, as NaN > 1e-12 is False
    g = Grid(-1.0, 1.0, 100)
    vals = GaussianKernel()(g.nodes())
    vals[10] = vals[-11] = bad
    with pytest.raises(ValueError, match="finite"):
        TabulatedKernel(g, vals)


def test_tabulated_positive_radius():
    g = Grid(-4.0, 4.0, 800)
    tab = TabulatedKernel(g, MexicanHatKernel(3.0, 2.0, 1.0, 1.0)(g.nodes()))
    # half the zero of the interpolant, which lies inside the cell where the
    # samples change sign, within O(dx^2) of the kernel's zero
    assert tab.positive_radius() == pytest.approx(
        math.sqrt(math.log(3.0)) / 2.0, abs=1e-4)
    x = 2.0 * tab.positive_radius()
    assert abs(tab(x)) < 1e-15 and tab(x - 1e-9) > 0.0 > tab(x + 1e-9)
    # a table positive everywhere reaches its edge, one zero at 0 gives 0
    assert TabulatedKernel(g, GaussianKernel()(g.nodes())).positive_radius() == 2.0
    flat = np.ones(801)
    flat[400] = 0.0
    assert TabulatedKernel(g, flat).positive_radius() == 0.0


# --------------------------------------------------------------------------
# firing rates
# --------------------------------------------------------------------------

def test_ratio_firing_values():
    f = RatioFiring(2.0, 0.2)
    assert f(-1.0) == 0.0
    assert f(0.0) == 0.0
    assert f(0.1) == pytest.approx(0.5, abs=1e-15)
    assert f(0.2) == 1.0
    assert f(5.0) == 1.0


def _ratio_firing_by_where(f, u):
    """The rate with both ends set by np.where, as before the plain-division path."""
    u = np.asarray(u, dtype=float)
    uc = np.clip(u, 0.0, f.tau)
    with np.errstate(invalid="ignore", over="ignore"):
        a = np.power(uc, f.p)
        b = np.power(f.tau - uc, f.p)
        mid = a / (a + b)
    return np.where(u <= 0.0, 0.0, np.where(u >= f.tau, 1.0, mid))


def _ratio_firing_by_mpmath(f, u, deriv=False):
    """f(u), or f'(u), in 60-digit arithmetic, rounded to the nearest double."""
    def one(x):
        if not math.isfinite(x) or not 0.0 < x < f.tau:
            return x if math.isnan(x) else float(x >= f.tau and not deriv)
        with mpmath.workdps(60):
            x, p, tau = mpmath.mpf(x), mpmath.mpf(f.p), mpmath.mpf(f.tau)
            a, b = x ** p, (tau - x) ** p
            if deriv:
                return float(p * tau * (x * (tau - x)) ** (p - 1) / (a + b) ** 2)
            return float(a / (a + b))
    return np.array([one(float(x)) for x in np.ravel(u)])


@pytest.mark.parametrize("p", [0.5, 1.5, 2.0, 3.0, 500.0, 800.0])
@pytest.mark.parametrize("tau", [0.2, 0.1, 3.0])
def test_ratio_firing_matches_where_formula(p, tau):
    # bit for bit where the plain quotient holds; at p = 500 and 800 tau^p
    # underflows or overflows, the where formula reads NaN inside (0, tau),
    # and mpmath is the oracle
    f = RatioFiring(p, tau)
    assert f._plain == (p < 500.0)
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, tau, np.inf, -np.inf, np.nan, 1e300, -1e300, 5e-324,
               np.nextafter(tau, 0.0)]
    u = np.concatenate([rng.uniform(-0.5 * tau, 1.5 * tau, 400), special])
    got = f(u)
    if f._plain:
        want = _ratio_firing_by_where(f, u)
        assert np.array_equal(got, want, equal_nan=True)
    else:
        # relatively exact down to the subnormal range
        want = _ratio_firing_by_mpmath(f, u)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)
    # no -0.0 from u = -0.0 at odd integer p (or p = 0.5)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    for x, y in zip(special, want[400:]):
        fx = f(x)
        assert type(fx) is float
        assert np.array_equal(fx, y, equal_nan=True) and np.signbit(fx) == np.signbit(y)


@pytest.mark.parametrize("p", [160.0, 200.0, 500.0, 800.0])
@pytest.mark.parametrize("tau", [0.2, 3.0, 1e-300])
def test_ratio_firing_finite_at_large_p(p, tau):
    # (a + b)^2 underflows from p = 170 at tau = 0.2 and a / (a + b) is 0/0
    # from p = 330: f and f' come from r = ((tau - u)/u)^p there
    f = RatioFiring(p, tau)
    u = np.concatenate([np.linspace(0.0, tau, 201),
                        np.random.default_rng(4).uniform(0.0, tau, 200)])
    values, slopes = f(u), f.deriv(u)
    assert np.all(np.isfinite(values)) and np.all(np.isfinite(slopes))
    np.testing.assert_allclose(values, _ratio_firing_by_mpmath(f, u),
                               rtol=1e-12, atol=1e-300)
    # f' to 1e-12 of its peak p / tau, at which f' is relatively exact
    want = _ratio_firing_by_mpmath(f, u, deriv=True)
    np.testing.assert_allclose(slopes, want, rtol=1e-12, atol=1e-12 * p / tau)
    assert f.deriv(0.5 * tau) == pytest.approx(p / tau, rel=1e-13)


def test_ratio_firing_monotone():
    f = RatioFiring(2.0, 0.2)
    us = np.linspace(-0.1, 0.3, 400)
    assert np.all(np.diff(f(us)) >= 0.0)


def test_ratio_firing_deriv_oracle():
    # f'(tau/2) = p / tau = 10 for p = 2, tau = 0.2
    f = RatioFiring(2.0, 0.2)
    assert f.deriv(0.1) == pytest.approx(10.0, abs=1e-12)
    assert f.deriv(0.0) == 0.0
    assert f.deriv(0.2) == 0.0
    eps = 1e-7
    num = (f(0.05 + eps) - f(0.05 - eps)) / (2.0 * eps)
    assert f.deriv(0.05) == pytest.approx(num, abs=1e-6)


def test_ratio_firing_symmetry_about_midpoint():
    f = RatioFiring(3.0, 0.2)
    us = np.linspace(0.0, 0.2, 101)
    assert np.max(np.abs(f(us) + f(0.2 - us) - 1.0)) < 1e-14


def test_ratio_firing_holder_exponent():
    assert RatioFiring(2.0, 0.2).holder_exponent == 1.0
    assert RatioFiring(1.5, 0.2).holder_exponent == pytest.approx(0.5)
    with pytest.raises(NeurofieldError, match=r"is not C\^1"):
        RatioFiring(1.0, 0.2).holder_exponent


def test_ratio_firing_p_le_one_not_differentiable():
    f = RatioFiring(0.5, 0.2)
    assert f(0.1) == pytest.approx(0.5)
    with pytest.raises(NeurofieldError, match=r"is not C\^1"):
        f.deriv(0.1)


def test_ratio_firing_rejects_bad_params():
    with pytest.raises(ValueError):
        RatioFiring(0.0, 0.2)
    with pytest.raises(ValueError):
        RatioFiring(2.0, -1.0)


def test_model_params_validation():
    # each model setting is validated by its one owner: tau by RatioFiring,
    # h by OperatorContext
    kernel, grid = ExponentialKernel(), Grid(-1.0, 1.0, 10)
    OperatorContext(kernel, RatioFiring(2.0, 0.2), 0.1, grid)
    with pytest.raises(ValueError):
        OperatorContext(kernel, RatioFiring(2.0, 0.2), 0.0, grid)
    with pytest.raises(ValueError):
        RatioFiring(2.0, 0.0)
