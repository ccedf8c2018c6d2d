"""Benchmark of the neurofield certify pipeline (check -> bounds -> solve ->
spectrum -> simulate -> certify), measured from outside the package.

Run from the repository root::

    python3 perfbench/run.py --workload certify-ref --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (README.md lists both).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Per-operation records with the environment, and the traces, are
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from tracer import Tracer, layer_metrics, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))

#: a run stops starting work this many seconds after it began
DEADLINE_S = 150.0
#: fresh interpreters started per run to time set-up, spread over the run;
#: the median is reported
SETUP_PROBES = 11

REF_H, REF_TAU, REF_P = 0.1, 0.2, 2.0
REF_CONFIG = {
    "kernel": {"type": "exponential"},
    "firing": {"p": REF_P, "tau": REF_TAU},
    "model": {"h": REF_H},
    "grid": {"n": 800},
    "solver": {"newton_tol": 1e-12},
    "dynamics": {"dt": 0.01, "t_end": 5.0, "delta": 1e-3},
}
#: spectral radius of the reference config at the seed commit
REF_SPECTRAL_RADIUS = 4.236904862477228
REF_ESCAPE_TIME = 0.73
# closed forms for the exponential kernel, as in tests/conftest.py
REF_DELTA_MINUS = -0.5 * math.log(1.0 - 2.0 * REF_H)
REF_DELTA_PLUS = -0.5 * math.log(1.0 - 2.0 * (REF_H + REF_TAU))
REF_D = math.log(math.sinh(REF_DELTA_PLUS) / REF_H)

WORKLOADS = ("certify-ref", "sweep-coarse")

SWEEP_KERNELS = (
    {"type": "exponential"},
    {"type": "gaussian"},
    {"type": "mexican_hat", "K": 3, "k": 2, "M": 1, "m": 1},
)
SWEEP_RANGES = {"h": (0.03, 0.3), "tau": (0.03, 0.4), "p": (1.5, 3.0)}
#: jitter of a sweep point around its cell centre, as a share of the cell width
SWEEP_JITTER = 0.05


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class ChildTimeout(Exception):
    pass


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["NEUROFIELD_THREADS"] = str(NPROC)
    return env


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": NPROC,
        "NEUROFIELD_THREADS": str(NPROC),
        "git_commit": git_commit(),
        "platform": platform.platform(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _on_alarm(signum, frame):
    raise ChildTimeout


def run_child(args: list[str], log_path: Path, deadline: float) -> dict:
    """Run one child; its wall time, its own peak RSS and its exit code.

    The child is killed at ``deadline`` (a time.monotonic value).
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        signal.alarm(max(1, int(deadline - time.monotonic())))
        timed_out = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            timed_out = True
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "rc": proc.returncode, "timed_out": timed_out}


class SetupProbes:
    """Wall times of fresh interpreters importing neurofield.cli, taken between
    a run's operations.

    Probe k is due once k / count of the run's ``seconds`` have gone to
    operations, so the probes sample the whole run instead of its first
    seconds.  Time spent in probes does not count towards ``seconds``.  A
    traced run takes no probes (count 0).
    """

    def __init__(self, work: Path, seconds: float, deadline: float, count: int):
        self.work, self.seconds, self.deadline, self.count = work, seconds, deadline, count
        self.start = time.monotonic()
        self.spent = 0.0
        self.times: list[float] = []

    def elapsed(self) -> float:
        """Seconds of the run spent on operations so far."""
        return time.monotonic() - self.start - self.spent

    def poll(self) -> None:
        due = min(self.count, 1 + int(self.elapsed() / max(self.seconds, 1e-9) * self.count))
        while len(self.times) < due:
            self.take()

    def finish(self) -> list[float]:
        while len(self.times) < self.count:
            self.take()
        return self.times

    def take(self) -> None:
        began = time.monotonic()
        log = self.work / f"setup{len(self.times)}.log"
        res = run_child([sys.executable, "-m", "neurofield.cli", "--version"],
                        log, self.deadline)
        if res["rc"] != 0:
            raise BenchError("`python -m neurofield.cli --version` failed: "
                             + log.read_text()[-2000:])
        log.unlink()
        self.times.append(res["wall_s"])
        self.spent += time.monotonic() - began


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def verdicts_passed(out: Path) -> int:
    """Aggregate verdicts that pass in out/run_report.json (0 when absent)."""
    path = out / "run_report.json"
    if not path.exists():
        return 0
    report = json.loads(path.read_text())
    return sum(bool(report[k]["value"])
               for k in ("stationary_bump_verified", "instability_verified"))


# ---------------------------------------------------------------------------
# certify-ref: one `neurofield certify` process per operation
# ---------------------------------------------------------------------------

def certify_checks(rc: int, out: Path) -> list[str]:
    """Failed correctness checks of one certify operation (empty when correct)."""
    if rc != 0:
        return [f"exit code {rc}"]
    path = out / "run_report.json"
    if not path.exists():
        return ["missing run_report.json"]
    rep = json.loads(path.read_text())
    errors = [f"{key} is not pass"
              for key in ("stationary_bump_verified", "instability_verified")
              if rep[key]["value"] is not True]
    lam = rep["certificate"]["spectral_radius"]
    if not abs(lam - REF_SPECTRAL_RADIUS) <= 1e-9 * REF_SPECTRAL_RADIUS:
        errors.append(f"spectral_radius {lam!r} != {REF_SPECTRAL_RADIUS!r}")
    esc = rep["dynamics"]["escape_time"]
    if esc is None or abs(esc - REF_ESCAPE_TIME) > 1e-9:
        errors.append(f"escape_time {esc!r} != {REF_ESCAPE_TIME}")
    for key, exact in (("delta_minus", REF_DELTA_MINUS),
                       ("delta_plus", REF_DELTA_PLUS), ("d", REF_D)):
        if not abs(rep["bounds"][key] - exact) <= 1e-10:
            errors.append(f"{key} {rep['bounds'][key]!r} != {exact!r}")
    return errors


def certify_op(op_dir: Path, deadline: float, traced: bool) -> dict:
    """One certify process in a fresh output directory, checked and timed."""
    op_dir.mkdir(parents=True)
    cfg = op_dir / "config.json"
    cfg.write_text(json.dumps(REF_CONFIG))
    out = op_dir / "out"
    cli_args = ["certify", "--config", str(cfg), "--out", str(out), "--quiet"]
    trace_path = op_dir / "trace.json"
    if traced:
        args = [sys.executable, str(HERE / "tracer.py"), str(trace_path)] + cli_args
    else:
        args = [sys.executable, "-m", "neurofield.cli"] + cli_args
    res = run_child(args, op_dir / "log.txt", deadline)
    errors = ["timed out"] if res["timed_out"] else certify_checks(res["rc"], out)
    op = {**res, "errors": errors, "failed": bool(errors),
          # exit code 0 with a wrong answer is an incorrect output, not just a failure
          "incorrect": res["rc"] == 0 and bool(errors)}
    if traced:
        op["trace"] = json.loads(trace_path.read_text()) if trace_path.exists() else None
        op["artifact_bytes"] = artifact_bytes(out) if out.exists() else 0
        op["verdicts_passed"] = verdicts_passed(out)
    shutil.rmtree(op_dir)
    return op


def certify_repetitions(work: Path, probes: SetupProbes, deadline: float,
                        trace: bool) -> tuple[list[list[dict]], list[list[dict]]]:
    """Untraced (and, with ``trace``, alternating traced) operations for the
    run's seconds, with set-up probes between them."""
    plain, traced = [], []
    while not plain or (probes.elapsed() < probes.seconds and time.monotonic() < deadline):
        i = len(plain)
        probes.poll()
        plain.append([certify_op(work / f"op{i}", deadline, traced=False)])
        if trace:
            traced.append([certify_op(work / f"traced{i}", deadline, traced=True)])
        if any(op["timed_out"] for op in plain[-1] + (traced[-1] if trace else [])):
            break
    return plain, traced


# ---------------------------------------------------------------------------
# sweep-coarse: seeded draws run in-process through neurofield.cli.main
# ---------------------------------------------------------------------------

def sweep_pass(rng: random.Random) -> list[dict]:
    """Configs of one pass over a stratified design of the sweep ranges.

    Each kernel gets the 2 x 2 cells of the (h, tau) rectangle; p takes one of
    four strata per cell, Latin-square style, so every kernel sees every p
    stratum.  Each point is its cell centre moved by a seeded jitter of up to
    SWEEP_JITTER / 2 of the cell width.  Independent uniform draws made the
    time per draw differ by tens of percent between seeds, because one draw
    costs from 0.02 s to over 20 s; the fixed design keeps the mix of problem
    sizes, outcomes and operator branches the same in every run.
    """
    def coord(key, cell, strata):
        lo, hi = SWEEP_RANGES[key]
        width = (hi - lo) / strata
        return lo + width * (cell + 0.5 + SWEEP_JITTER * (rng.random() - 0.5))

    draws = []
    for c, (i, j) in enumerate((i, j) for i in range(2) for j in range(2)):
        for k, kernel in enumerate(SWEEP_KERNELS):
            draws.append({
                "kernel": kernel,
                "firing": {"p": coord("p", (c + k) % 4, 4), "tau": coord("tau", j, 2)},
                "model": {"h": coord("h", i, 2)},
                "grid": {"n": 200},
                "dynamics": {"dt": 0.01, "t_end": 10.0, "delta": 1e-3},
            })
    return draws


def classify_draw(rc: int | None, exc: BaseException | None, out: Path) -> tuple[str, str]:
    """(outcome, detail).

    The outcome is pass, infeasible, certificate-fail, failed (a loud failure)
    or contradiction (a report that contradicts its exit code).
    """
    if exc is not None:
        return "failed", f"uncaught {type(exc).__name__}: {exc}"
    if rc == 1:
        return "failed", "exit code 1"
    run_report = out / "run_report.json"
    if run_report.exists():
        passed = verdicts_passed(out)
        if rc == 0 and passed == 2:
            return "pass", ""
        if rc == 2 and passed < 2:
            return "certificate-fail", f"{passed} of 2 verdicts pass"
        return "contradiction", f"run_report.json with exit code {rc}"
    # certify stops after an infeasible check, leaving only the check's report
    check_report = out / "report.json"
    if rc == 2 and check_report.exists():
        if json.loads(check_report.read_text())["verdict"] == "fail":
            return "infeasible", ""
        return "contradiction", "report.json passes with exit code 2"
    return "failed", "missing run_report.json"


def sweep_draw(cli, cfg: dict, op_dir: Path, traced: bool) -> dict:
    op_dir.mkdir(parents=True)
    cfg_path = op_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = op_dir / "out"
    rc, exc, tb = None, None, None
    start = time.perf_counter()
    try:
        rc = cli.main(["certify", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    except Exception as err:  # an uncaught exception is a failed draw, not a crash
        exc, tb = err, traceback.format_exc()
    wall = time.perf_counter() - start
    outcome, detail = classify_draw(rc, exc, out)
    op = {"wall_s": wall, "rc": rc, "outcome": outcome, "detail": detail,
          "traceback": tb, "config": cfg,
          "failed": outcome in ("failed", "contradiction"),
          "incorrect": outcome == "contradiction"}
    if traced:
        op["artifact_bytes"] = artifact_bytes(out) if out.exists() else 0
        op["verdicts_passed"] = verdicts_passed(out)
    shutil.rmtree(op_dir)
    return op


def import_cli():
    """Import neurofield.cli in this process; (module, seconds the import took)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import neurofield.cli as cli
    return cli, time.perf_counter() - start


def sweep_repetitions(cli, seed: int, work: Path, probes: SetupProbes, deadline: float,
                      tracer: Tracer | None) -> tuple[list[list[dict]], list[list[dict]]]:
    """Whole design passes for the run's seconds, with set-up probes between
    draws; with a tracer, each pass is repeated traced right after it runs
    untraced."""
    plain_rng, traced_rng = random.Random(seed), random.Random(seed)
    plain, traced = [], []
    while not plain or (probes.elapsed() < probes.seconds and time.monotonic() < deadline):
        i = len(plain)
        plain.append([])
        for j, cfg in enumerate(sweep_pass(plain_rng)):
            probes.poll()
            plain[-1].append(sweep_draw(cli, cfg, work / f"pass{i}-draw{j}", traced=False))
        if tracer is not None:
            tracer.install()
            try:
                traced.append([sweep_draw(cli, cfg, work / f"traced{i}-draw{j}", traced=True)
                               for j, cfg in enumerate(sweep_pass(traced_rng))])
            finally:
                tracer.uninstall()
    return plain, traced


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def succeeded(reps: list[list[dict]]) -> list[dict]:
    """The operations that did not fail; a run without one has no metrics."""
    ops = [op for rep in reps for op in rep if not op["failed"]]
    if not ops:
        raise BenchError("every operation failed: "
                         + json.dumps([op.get("errors") or op.get("detail")
                                       for rep in reps for op in rep])[:2000])
    return ops


def wall_per_op(workload: str, reps: list[list[dict]]) -> float:
    """Wall time per operation that did not fail.

    For the sweep: total time of all passes, failed draws included, divided by
    the draws that did not fail.  For certify: the median over the operations
    that did not fail.
    """
    ok = succeeded(reps)
    if workload == "sweep-coarse":
        return sum(op["wall_s"] for rep in reps for op in rep) / len(ok)
    return statistics.median(op["wall_s"] for op in ok)


def end_to_end(workload: str, reps: list[list[dict]], setup: list[float]) -> dict:
    if workload == "sweep-coarse":
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss = statistics.median(op["peak_rss_mb"] for op in succeeded(reps))
    return {
        "wall_s": {"value": wall_per_op(workload, reps), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def per_layer(workload: str, plain: list[list[dict]], traced: list[list[dict]],
              traces: list[dict], import_s: list[float]) -> dict:
    ops = [op for rep in traced for op in rep]
    n = len(ops)
    values = layer_metrics(summarize(traces), n)
    values.update({
        "cli.import_s": (statistics.median(import_s), "s"),
        "cli.artifact_bytes": (sum(op["artifact_bytes"] for op in ops) / n, "bytes"),
        "cli.verdict_pass": (sum(op["verdicts_passed"] for op in ops) / n, "count"),
        "trace.overhead_s": (wall_per_op(workload, traced) - wall_per_op(workload, plain),
                             "s"),
    })
    return {name: {"value": v, "unit": u} for name, (v, u) in sorted(values.items())}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    work = OUT / "work" / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if trace else None
    probes = SetupProbes(work, seconds, deadline, 0 if trace else SETUP_PROBES)
    if workload == "sweep-coarse":
        cli, import_s = import_cli()
        plain, traced = sweep_repetitions(cli, seed, work, probes, deadline, tracer)
        traces, import_times = ([tracer.to_dict()] if trace else []), [import_s]
    else:
        plain, traced = certify_repetitions(work, probes, deadline, trace)
        traces = [op.pop("trace") for rep in traced for op in rep if op.get("trace")]
        import_times = [tr["import_s"] for tr in traces]
    setup = probes.finish()
    shutil.rmtree(work, ignore_errors=True)

    measured = [op for rep in (traced if trace else plain) for op in rep]
    if trace:
        if not traces:
            raise BenchError("no traced operation wrote a trace")
        metrics = per_layer(workload, plain, traced, traces, import_times)
        (OUT / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(traces))
    else:
        metrics = end_to_end(workload, plain, setup)
    failed = sum(op["failed"] for op in measured)
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(seed),
        "correct": not any(op["incorrect"] for op in measured),
        "attempted": len(measured), "failed": failed,
        "failed_frac": failed / len(measured),
        "metrics": metrics,
        "setup_probes_s": setup,
        "operations": plain, "traced_operations": traced,
    }
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1))
    return result


def report(result: dict) -> None:
    wl = result["workload"]
    for name, m in result["metrics"].items():
        print(f"{wl:13s} {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{wl:13s} {'failed_frac':34s} {result['failed_frac']:.6g} frac "
          f"({result['failed']} of {result['attempted']} operations)")
    tally: dict[str, int] = {}
    for rep in result["traced_operations"] or result["operations"]:
        for op in rep:
            key = op.get("outcome", "failed" if op["failed"] else "pass")
            tally[key] = tally.get(key, 0) + 1
    print(f"{wl:13s} outcomes {json.dumps(tally, sort_keys=True)} correct={result['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "neurofield" / "cli.py").is_file():
        print(f"perfbench: no neurofield sources under {SRC}", file=sys.stderr)
        return 2
    # the BLAS thread cap must be in the environment before numpy is imported
    os.environ["NEUROFIELD_THREADS"] = str(NPROC)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(workloads)
    trace = bool(args.trace)
    OUT.mkdir(parents=True, exist_ok=True)
    results = [run_workload(wl, args.seed, args.seconds, trace, deadline)
               for wl in workloads]
    for result in results:
        report(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
