"""Machine-checkable verification of the model hypotheses.

Conditions phrased "almost everywhere" or "essentially bounded" are checked by
dense sampling and reported with margins; the report distinguishes pass, fail,
and unknown rather than claiming a proof.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .bounds import DEFAULT_HORIZON, Sandwich, solve_sandwich
from .grids import Grid
from .model import Firing, Kernel
from .quadrature import CumulativeKernel

DEFAULT_PROBE = Grid(0.0, DEFAULT_HORIZON, 10_000)


class ConditionRecord(NamedTuple):
    name: str
    status: str  # "pass" | "fail" | "unknown"
    witness: float | None = None
    margin: float | None = None
    note: str = ""


class AssumptionReport(NamedTuple):
    conditions: tuple[ConditionRecord, ...]
    sandwich: Sandwich
    horizon: float
    extras: dict

    @property
    def a(self) -> float:
        return self.sandwich.a

    @property
    def d(self) -> float | None:
        return self.sandwich.d

    @property
    def verdict(self) -> str:
        return "pass" if all(c.status == "pass" for c in self.conditions) else "fail"

    def condition(self, name: str) -> ConditionRecord:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "a": self.a,
            "d": self.d,
            "horizon": self.horizon,
            "conditions": [c._asdict() for c in self.conditions],
            **self.extras,
        }


def _vii_violation(kernel: Kernel, xs: np.ndarray, vals: np.ndarray, d: float) -> float:
    """Largest violation of condition (vii) on the samples vals = omega(xs):
    the largest rise of omega between samples on [0, 2d], or the largest
    excess over omega(2d) of a sample at x >= 2d, whichever is greater."""
    on = xs <= 2.0 * d
    incr = float(np.max(np.diff(vals[on]))) if np.sum(on) > 1 else 0.0
    beyond = xs >= 2.0 * d
    excess = float(np.max(vals[beyond] - kernel(2.0 * d))) if beyond.any() else -np.inf
    return max(incr, excess)


def check_assumptions(kernel: Kernel, firing: Firing, h: float) -> AssumptionReport:
    """Run the full hypothesis battery at the threshold h and the firing
    rate's tau, and return a per-condition report that keeps the sandwich it
    solved; a failed condition, h <= 0 included, is a fail verdict."""
    xs = DEFAULT_PROBE.nodes()
    vals = kernel(xs)
    horizon, dx = DEFAULT_HORIZON, DEFAULT_PROBE.dx
    records: list[ConditionRecord] = []

    # (i) integrability: truncated integral of |omega| plus a sampled tail proxy
    with np.errstate(over="ignore"):  # an overflowing mass is inf: unknown
        mass = float(np.trapezoid(np.abs(vals), xs)) * 2.0
    tail = float(np.abs(vals[-1])) * horizon
    records.append(ConditionRecord(
        "B_i_integrable", "pass" if np.isfinite(mass) and tail < 0.01 * (mass + 1e-300)
        else "unknown",
        witness=mass, margin=0.01 * mass - tail,
        note="truncated L1 mass; margin compares the sampled tail proxy"))

    # (ii) bounded and continuous: finite values, small jumps between samples
    sup = float(np.max(np.abs(vals)))
    jump = float(np.max(np.abs(np.diff(vals))))
    records.append(ConditionRecord(
        "B_ii_bounded_continuous",
        "pass" if np.isfinite(sup) and jump <= 100.0 * sup * dx + 1e-8 else "unknown",
        witness=sup, margin=100.0 * sup * dx + 1e-8 - jump,
        note="sampled boundedness and modulus of continuity"))

    # (iii) symmetry, up to rounding relative to max|omega|
    sym_dev = float(np.max(np.abs(kernel(-xs) - vals)))
    sym_tol = 1e-12 * max(1.0, sup)
    records.append(ConditionRecord(
        "B_iii_symmetric", "pass" if sym_dev <= sym_tol else "fail",
        witness=sym_dev, margin=sym_tol - sym_dev))

    # (iv) the sandwich's positivity radius a; margin: least sampled omega on [0, 2a]
    sw = solve_sandwich(kernel, h, firing.tau)
    a = sw.a
    min_on_range = float(np.min(vals[xs <= 2.0 * a]))
    records.append(ConditionRecord(
        "B_iv_positive_range", "pass" if a > 0.0 and min_on_range >= 0.0 else "fail",
        witness=a, margin=min_on_range))

    # (v) kernel mass exceeds h + tau
    mass_2a = float(CumulativeKernel(kernel)(2.0 * a))
    margin_v = mass_2a - (h + firing.tau)
    records.append(ConditionRecord(
        "B_v_mass_exceeds_h_plus_tau", "pass" if margin_v > 0.0 else "fail",
        witness=mass_2a, margin=margin_v))

    # (vi) existence of d with u_plus(d) = h, from the sandwich's solve
    d = sw.d
    if d is not None:
        records.append(ConditionRecord("B_vi_d_exists", "pass", witness=d, margin=a - d))
    else:
        note = str(sw.failure) if margin_v > 0.0 else "skipped: condition (v) already fails"
        records.append(ConditionRecord("B_vi_d_exists", "fail", note=note))

    # (vii) omega decreasing on [0, 2d], dominated by omega(2d) beyond
    if d is not None:
        # 2d <= 2a <= horizon, so the last sample lies beyond 2d
        violation = _vii_violation(kernel, xs, vals, d)
        records.append(ConditionRecord(
            "B_vii_decreasing_dominated", "pass" if violation <= 1e-12 else "fail",
            witness=2.0 * d, margin=-violation,
            note=f"tail checked up to the probe horizon {horizon}"))
    else:
        records.append(ConditionRecord(
            "B_vii_decreasing_dominated", "unknown", note="no d available"))

    # smoothness and decay extras: (i) essentially bounded derivative
    with np.errstate(over="ignore"):  # an overflowing quotient is inf: unknown
        deriv_sup = float(np.max(np.abs(np.diff(vals)) / dx))
    records.append(ConditionRecord(
        "thmB_i_deriv_bounded", "pass" if np.isfinite(deriv_sup) else "unknown",
        witness=deriv_sup,
        note="sampled difference quotients; kinks on a null set are admissible"))

    # (ii) decay at infinity, judged at the probe horizon
    records.append(ConditionRecord(
        "thmB_ii_vanishes_at_infinity",
        "pass" if abs(vals[-1]) <= 1e-6 * max(sup, 1e-300) else "unknown",
        witness=float(vals[-1]), margin=1e-6 * sup - abs(vals[-1]),
        note=f"judged at the probe horizon {horizon}"))

    # (iii) f continuously differentiable with Holder derivative
    if firing.p > 1.0:
        records.append(ConditionRecord(
            "thmB_iii_firing_smooth", "pass", witness=firing.holder_exponent,
            note=f"ratio family with p={firing.p}: C^1 with mu=min(1, p-1)"))
    else:
        records.append(ConditionRecord(
            "thmB_iii_firing_smooth", "fail", witness=firing.p,
            note="ratio family needs p > 1 for a continuous derivative"))

    return AssumptionReport(tuple(records), sw, horizon, {"h": h, "tau": firing.tau})
