import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neurofield.assumptions import check_assumptions
from neurofield.bounds import build_bounds, solve_sandwich
from neurofield.errors import InfeasibleModel, NoSuchD
from neurofield.grids import Grid
from neurofield.model import (ExponentialKernel, GaussianKernel,
                              MexicanHatKernel, ModelParams, RatioFiring,
                              TabulatedKernel)
from neurofield.quadrature import CumulativeKernel
from oracles import check_lemma1_equivalence


FEASIBLE = [
    (ExponentialKernel(), ModelParams(0.1, 0.2)),
    (GaussianKernel(), ModelParams(0.1, 0.2)),
    (GaussianKernel(), ModelParams(0.3, 0.4)),
    (MexicanHatKernel(3.0, 2.0, 1.0, 1.0), ModelParams(0.05, 0.05)),
    (MexicanHatKernel(3.0, 2.0, 1.0, 1.0), ModelParams(0.08, 0.08)),
]


@pytest.mark.parametrize("kernel,params", FEASIBLE)
def test_feasible_models_pass(kernel, params):
    rep = check_assumptions(kernel, RatioFiring(2.0, params.tau), params)
    assert rep.verdict == "pass"
    assert rep.d is not None and 0.0 < rep.d < rep.a
    assert rep.condition("B_v_mass_exceeds_h_plus_tau").margin > 0.0


def test_reference_report_contents():
    rep = check_assumptions(ExponentialKernel(), RatioFiring(2.0, 0.2),
                            ModelParams(0.1, 0.2))
    assert rep.condition("B_iii_symmetric").status == "pass"
    assert rep.condition("B_vii_decreasing_dominated").status == "pass"
    # d for the exponential reference setup
    assert rep.d == pytest.approx(1.556757, abs=1e-4)
    data = rep.to_dict()
    assert data["verdict"] == "pass"
    assert data["h"] == 0.1
    assert len(data["conditions"]) == 10


@pytest.mark.parametrize("kernel,params", [
    (ExponentialKernel(), ModelParams(0.3, 0.3)),
    (GaussianKernel(), ModelParams(0.5, 0.4)),
])
def test_infeasible_mass_raises(kernel, params):
    with pytest.raises(InfeasibleModel) as exc:
        check_assumptions(kernel, RatioFiring(2.0, params.tau), params)
    rep = exc.value.report
    assert rep.condition("B_v_mass_exceeds_h_plus_tau").status == "fail"
    assert rep.verdict == "fail"


def test_nonsmooth_firing_flagged():
    rep = check_assumptions(ExponentialKernel(), RatioFiring(1.0, 0.2),
                            ModelParams(0.1, 0.2))
    assert rep.condition("thmB_iii_firing_smooth").status == "fail"
    assert rep.verdict == "fail"


@pytest.mark.parametrize("kernel,d", [
    (ExponentialKernel(), 1.556757),
    (GaussianKernel(), 1.0),
    (MexicanHatKernel(3.0, 2.0, 1.0, 1.0), 0.4),
])
def test_lemma1_formulations_agree_positive(kernel, d):
    out = check_lemma1_equivalence(kernel, d)
    assert out["vii_holds"] and out["eq_cond_holds"] and out["agree"]


def test_lemma1_formulations_agree_negative():
    # Gaussian plus a secondary bump near x = 6 violates both formulations.
    g = Grid(-20.0, 20.0, 4000)
    xs = g.nodes()
    vals = np.exp(-np.square(xs)) + 0.3 * np.exp(-4.0 * np.square(np.abs(xs) - 6.0))
    vals = 0.5 * (vals + vals[::-1])
    kernel = TabulatedKernel(g, vals)
    out = check_lemma1_equivalence(kernel, 1.0, probe=Grid(0.0, 18.0, 4000))
    assert not out["vii_holds"]
    assert not out["eq_cond_holds"]
    assert out["agree"]
    assert out["worst_violation"] > 0.1


def test_lemma1_rejects_nonpositive_d():
    with pytest.raises(ValueError):
        check_lemma1_equivalence(ExponentialKernel(), 0.0)


def test_tabulated_kernel_probed_past_its_table():
    # the exponential table on [-12, 12] ends at omega = e^-12, well above the
    # decay threshold 1e-6 sup omega; past the table the kernel is 0 by
    # definition, so decay and tail pass there, and a stops at the table edge
    g = Grid(-12.0, 12.0, 2400)
    kernel = TabulatedKernel(g, ExponentialKernel()(g.nodes()))
    rep = check_assumptions(kernel, RatioFiring(2.0, 0.2), ModelParams(0.1, 0.2))
    assert rep.verdict == "pass"
    assert rep.condition("thmB_ii_vanishes_at_infinity").witness == 0.0
    assert rep.condition("B_i_integrable").status == "pass"
    assert rep.horizon == 40.0
    assert rep.a == kernel.positive_radius() == 6.0
    assert rep.d == pytest.approx(1.556757, abs=1e-4)


_HAT = MexicanHatKernel(3.0, 2.0, 1.0, 1.0)
_HAT_TABLE = Grid(-6.0, 6.0, 1200)
#: one kernel of each family; the table samples the mexican hat, so the zero
#: of its interpolant falls inside a cell
SANDWICH_KERNELS = [ExponentialKernel(), GaussianKernel(), _HAT,
                    TabulatedKernel(_HAT_TABLE, _HAT(_HAT_TABLE.nodes()))]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(which=st.integers(0, len(SANDWICH_KERNELS) - 1),
       level=st.floats(0.05, 0.95), split=st.floats(0.05, 0.95))
def test_check_and_bounds_share_one_sandwich(which, level, split):
    # feasible draws: h + tau is a share `level` of the kernel mass W(2a)
    kernel = SANDWICH_KERNELS[which]
    a = solve_sandwich(kernel, ModelParams(0.1, 0.1)).a
    h_plus_tau = level * CumulativeKernel(kernel)(2.0 * a)
    params = ModelParams(split * h_plus_tau, (1.0 - split) * h_plus_tau)
    rep = check_assumptions(kernel, RatioFiring(2.0, params.tau), params)
    assert rep.a == a
    if rep.d is None:
        assert rep.condition("B_vi_d_exists").status == "fail"
        with pytest.raises(NoSuchD):
            build_bounds(kernel, params, 200)
    else:
        assert rep.d == build_bounds(kernel, params, 200).d
    iv = rep.condition("B_iv_positive_range")
    assert iv.status == "pass" and iv.margin >= 0.0
    if kernel is _HAT:
        assert iv.margin > 0.0
