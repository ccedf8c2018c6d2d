import math

import numpy as np
import pytest

from neurofield.grids import Grid, Profile
from oracles import integrate, sample


def test_grid_nodes_increasing():
    g = Grid(-1.0, 2.0, 6)
    assert np.all(np.diff(g.nodes()) > 0)
    assert g.dx == pytest.approx(0.5)
    assert not g.symmetric
    assert Grid(-3.0, 3.0, 4).symmetric


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 0)


def test_grid_equality_is_by_value():
    # Linearization's grid guard compares grids built apart
    a, b = Grid(-1.5, 1.5, 8), Grid(-3.0 / 2.0, 1.5, 4 * 2)
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != Grid(-1.5, 1.5, 10) and a != Grid(-1.5, 2.0, 8)
    assert a != (-1.5, 1.5, 8) and (-1.5, 1.5, 8) != a


def test_profile_validation():
    g = Grid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        Profile(g, np.zeros(4))
    with pytest.raises(ValueError):
        Profile(g, np.array([0.0, 1.0, np.inf, 0.0, 0.0]))


def test_integrate_constant_exact():
    p = sample(Grid(0.0, 2.0, 10), lambda x: np.ones_like(x))
    assert integrate(p) == pytest.approx(2.0, abs=1e-15)


def test_integrate_odd_function_zero():
    p = sample(Grid(-1.0, 1.0, 100), lambda x: x)
    assert integrate(p) == pytest.approx(0.0, abs=1e-15)


def test_integrate_exponential_kernel_oracle():
    # antiderivative oracle: int_0^6 e^{-x}/2 dx = (1 - e^-6)/2
    p = sample(Grid(0.0, 6.0, 600), lambda x: 0.5 * np.exp(-np.abs(x)))
    assert integrate(p) == pytest.approx((1.0 - math.exp(-6.0)) / 2.0, abs=1e-5)


def _errors(ns):
    exact = math.sqrt(math.pi) * math.erf(2.0)
    errs = []
    for n in ns:
        p = sample(Grid(-2.0, 2.0, n), lambda x: np.exp(-x * x))
        errs.append(abs(integrate(p) - exact))
    return errs


def test_trapezoid_richardson_order():
    errs = _errors([40, 80, 160])
    assert errs[0] / errs[1] >= 3.8
    assert errs[1] / errs[2] >= 3.8
