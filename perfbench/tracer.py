"""In-memory span and counter recording around neurofield's public calls.

The tracer never edits the package: it replaces, for the life of one process,

* the names that ``neurofield.cli`` bound with ``from .x import y`` at import
  (the stage commands look them up as module globals at call time),
* the methods of ``OperatorContext``, ``Linearization``, ``CumulativeKernel``
  and the kernel classes,
* ``neurofield.dynamics.step_values``, which ``simulate`` looks up per step,

with wrappers that record a span (name, start, end, parent) per call and the
counters named in ``README.md``.  Spans stay in memory until ``write``.

Run as a script it traces one CLI invocation and writes the trace at exit::

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json certify --config C --out D
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from pathlib import Path

#: span name for each function that neurofield.cli binds at import
CLI_SPANS = {
    "cmd_check": "cli.stage.check",
    "cmd_bounds": "cli.stage.bounds",
    "cmd_solve": "cli.stage.solve",
    "cmd_spectrum": "cli.stage.spectrum",
    "cmd_simulate": "cli.stage.simulate",
    "write_csv": "cli.io",
    "write_json": "cli.io",
    "read_profile_csv": "cli.io",
    "check_assumptions": "assumptions.check",
    "build_bounds": "bounds.build",
    "compute_epsilon": "fixedpoint.epsilon",
    "solve_third_fixed_point": "fixedpoint.newton",
    "extend_bump": "fixedpoint.extend",
    "spectral_radius": "spectral.power",
    "translation_mode_check": "spectral.translation",
    "spectra_equivalence_check": "spectral.equivalence",
    "remainder_exponent_fit": "spectral.remainder",
    "instability_experiment": "dynamics.simulate",
}

STAGES = ("check", "bounds", "solve", "spectrum", "simulate")


class Tracer:
    """Spans and counters of one process; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self._small_d: set[float] = set()
        self._dense_seen: weakref.WeakSet = weakref.WeakSet()

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, fn, name, before=None, after=None):
        """Wrapper recording a span named ``name`` (a string, or a function of
        the call's arguments); a call nested directly inside a span of the same
        name is folded into it."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            if stack[-1] >= 0 and spans[stack[-1]][0] == label:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = len(spans)
            span = [label, 0.0, 0.0, stack[-1]]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr, wrapper_factory):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    # -- hooks -------------------------------------------------------------

    def _after_bounds(self, args, bb):
        self._small_d.add(bb.d)

    def _grid_label(self, args):
        # the [-d, d] grid ends exactly at a d returned by build_bounds
        small = args[0].grid.hi in self._small_d
        return "fixedpoint.apply_T.small" if small else "fixedpoint.apply_T.big"

    def _after_kernel_matrix(self, args, matrix):
        ctx = args[0]
        if ctx not in self._dense_seen:
            self._dense_seen.add(ctx)
            self.count("fixedpoint.dense_bytes", matrix.nbytes)

    def _count_points(self, args):
        self.count("model.kernel_points", self._np.size(args[1]))

    def _after_experiment(self, args, result):
        times = result["trajectory"].times
        steps = len(times) - 1
        escape = result["escape_time"]
        useful = steps if escape is None else int(self._np.searchsorted(times, escape))
        self.count("dynamics.useful_steps", useful)

    # -- install -----------------------------------------------------------

    def install(self) -> None:
        """Patch neurofield in this process; import ``neurofield.cli`` first."""
        import numpy as np

        from neurofield import cli, dynamics, fixedpoint, model, quadrature, spectral

        self._np = np
        after = {"build_bounds": self._after_bounds,
                 "instability_experiment": self._after_experiment}
        for attr, name in CLI_SPANS.items():
            self._patch(cli, attr, lambda fn, name=name, attr=attr:
                        self._wrap(fn, name, after=after.get(attr)))

        ctx_cls = fixedpoint.OperatorContext
        self._patch(ctx_cls, "apply_T_values",
                    lambda fn: self._wrap(fn, self._grid_label))
        self._patch(ctx_cls, "kernel_matrix",
                    lambda fn: self._counting(fn, self._after_kernel_matrix))

        lin_cls = spectral.Linearization
        self._patch(lin_cls, "matvec", lambda fn: self._wrap(fn, "spectral.matvec"))
        self._patch(lin_cls, "eigenvalues", lambda fn: self._wrap(fn, "spectral.eig_dense"))

        for cls in (model.ExponentialKernel, model.GaussianKernel,
                    model.MexicanHatKernel, model.TabulatedKernel):
            for attr in ("__call__", "deriv"):
                self._patch(cls, attr, lambda fn: self._wrap(
                    fn, "model.kernel", before=self._count_points))

        for attr in ("__init__", "__call__"):
            self._patch(quadrature.CumulativeKernel, attr,
                        lambda fn: self._wrap(fn, "quadrature.cumkernel"))

        self._patch(dynamics, "step_values", lambda fn: self._wrap(fn, "dynamics.step"))

    @staticmethod
    def _counting(fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result
        return wrapper

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def to_dict(self, **extra) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans],
                "counters": self.counters, **extra}

    def write(self, path: Path, **extra) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(**extra)))


def summarize(traces: list[dict]) -> dict:
    """Per-name span totals and counts, and summed counters, over trace dicts."""
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, float] = {}
    for tr in traces:
        names = tr["names"]
        for idx, start, end, _parent in tr["spans"]:
            name = names[idx]
            totals[name] = totals.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
        for key, val in tr["counters"].items():
            counters[key] = counters.get(key, 0) + val
    return {"seconds": totals, "calls": calls, "counters": counters}


def layer_metrics(summary: dict, ops: int) -> dict:
    """Per-layer metrics per operation (run totals divided by ``ops``)."""
    sec, calls, ctr = summary["seconds"], summary["calls"], summary["counters"]

    def per_op_s(name):
        return sec.get(name, 0.0) / ops

    def per_op_calls(name):
        return calls.get(name, 0) / ops

    def mean_call(name, scale):
        n = calls.get(name, 0)
        return sec.get(name, 0.0) / n * scale if n else 0.0

    steps = calls.get("dynamics.step", 0)
    m = {f"cli.stage_s.{s}": (per_op_s(f"cli.stage.{s}"), "s") for s in STAGES}
    m.update({
        "cli.io_s": (per_op_s("cli.io"), "s"),
        "assumptions.check_s": (per_op_s("assumptions.check"), "s"),
        "assumptions.check_calls": (per_op_calls("assumptions.check"), "count"),
        "bounds.build_s": (per_op_s("bounds.build"), "s"),
        "bounds.build_calls": (per_op_calls("bounds.build"), "count"),
        "quadrature.cumkernel_s": (per_op_s("quadrature.cumkernel"), "s"),
        "model.kernel_s": (per_op_s("model.kernel"), "s"),
        "model.kernel_points": (ctr.get("model.kernel_points", 0) / ops, "count"),
        "fixedpoint.epsilon_s": (per_op_s("fixedpoint.epsilon"), "s"),
        "fixedpoint.newton_s": (per_op_s("fixedpoint.newton"), "s"),
        "fixedpoint.newton_calls": (per_op_calls("fixedpoint.newton"), "count"),
        "fixedpoint.extend_s": (per_op_s("fixedpoint.extend"), "s"),
        "fixedpoint.extend_calls": (per_op_calls("fixedpoint.extend"), "count"),
        "fixedpoint.dense_bytes": (ctr.get("fixedpoint.dense_bytes", 0) / ops, "bytes"),
        "spectral.power_s": (per_op_s("spectral.power"), "s"),
        "spectral.matvec_calls": (per_op_calls("spectral.matvec"), "count"),
        "spectral.eig_dense_s": (per_op_s("spectral.eig_dense"), "s"),
        "spectral.eig_dense_calls": (per_op_calls("spectral.eig_dense"), "count"),
        "spectral.translation_s": (per_op_s("spectral.translation"), "s"),
        "spectral.equivalence_s": (per_op_s("spectral.equivalence"), "s"),
        "spectral.remainder_s": (per_op_s("spectral.remainder"), "s"),
        "dynamics.simulate_s": (per_op_s("dynamics.simulate"), "s"),
        "dynamics.steps": (steps / ops, "count"),
        "dynamics.step_ms": (mean_call("dynamics.step", 1e3), "ms"),
        "dynamics.useful_step_frac": (
            ctr.get("dynamics.useful_steps", 0) / steps if steps else 0.0, "frac"),
    })
    for grid in ("small", "big"):
        name = f"fixedpoint.apply_T.{grid}"
        m[f"fixedpoint.apply_T_calls.{grid}"] = (per_op_calls(name), "count")
        m[f"fixedpoint.apply_T_us.{grid}"] = (mean_call(name, 1e6), "us")
    return m


def main(argv: list[str]) -> int:
    trace_path, cli_args = Path(argv[0]), argv[1:]
    start = time.perf_counter()
    import neurofield.cli as cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.write(trace_path, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
