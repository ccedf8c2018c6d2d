"""Machine-checkable verification of the model hypotheses.

Conditions phrased "almost everywhere" or "essentially bounded" are checked by
dense sampling and reported with margins; the report distinguishes pass, fail,
and unknown rather than claiming a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import DEFAULT_HORIZON, solve_sandwich
from .errors import InfeasibleModel
from .grids import Grid
from .model import Firing, Kernel, ModelParams
from .quadrature import CumulativeKernel

DEFAULT_PROBE = Grid(0.0, DEFAULT_HORIZON, 10_000)


@dataclass(frozen=True)
class ConditionRecord:
    name: str
    status: str  # "pass" | "fail" | "unknown"
    witness: float | None = None
    margin: float | None = None
    note: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    conditions: tuple[ConditionRecord, ...]
    a: float
    d: float | None
    horizon: float
    extras: dict = field(default_factory=dict)

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
            "conditions": [dict(vars(c)) for c in self.conditions],
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


def check_assumptions(kernel: Kernel, firing: Firing,
                      params: ModelParams) -> AssumptionReport:
    """Run the full hypothesis battery and return a per-condition report.

    Raises InfeasibleModel (with the report attached) when the kernel mass
    condition W(2a) > h + tau fails: no bump regime exists for these h, tau.
    """
    xs = DEFAULT_PROBE.nodes()
    vals = kernel(xs)
    horizon, dx = DEFAULT_HORIZON, DEFAULT_PROBE.dx
    records: list[ConditionRecord] = []

    # (i) integrability: truncated integral of |omega| plus a sampled tail proxy
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

    # (iii) symmetry
    sym_dev = float(np.max(np.abs(kernel(-xs) - vals)))
    records.append(ConditionRecord(
        "B_iii_symmetric", "pass" if sym_dev <= 1e-12 else "fail",
        witness=sym_dev, margin=1e-12 - sym_dev))

    # (iv) the sandwich's positivity radius a; margin: least sampled omega on [0, 2a]
    sw = solve_sandwich(kernel, params)
    a = sw.a
    min_on_range = float(np.min(vals[xs <= 2.0 * a]))
    records.append(ConditionRecord(
        "B_iv_positive_range", "pass" if a > 0.0 and min_on_range >= 0.0 else "fail",
        witness=a, margin=min_on_range))

    # (v) kernel mass exceeds h + tau
    mass_2a = float(CumulativeKernel(kernel)(2.0 * a))
    margin_v = mass_2a - (params.h + params.tau)
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
    diffs = np.abs(np.diff(vals)) / dx
    deriv_sup = float(np.max(diffs))
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

    report = AssumptionReport(tuple(records), a=a, d=d, horizon=horizon,
                              extras={"h": params.h, "tau": params.tau})
    if margin_v <= 0.0:
        raise InfeasibleModel(
            f"kernel mass W(2a) = {mass_2a:.6g} does not exceed h + tau = "
            f"{params.h + params.tau:.6g}", report=report)
    return report
