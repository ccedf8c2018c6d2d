"""Batch command-line front end: check, bounds, solve, spectrum, simulate, certify.

One ``Run`` per invocation computes each pipeline stage at most once; the
commands write its results as JSON + CSV artifacts stamped with a hash of the
config sections they depend on.  Exit codes: 0 pass, 2 model infeasible or
certificate failure, 1 usage or internal error.
"""

from __future__ import annotations

import os

# honor the thread cap before any numerics get imported
_threads = os.environ.get("NEUROFIELD_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import hashlib
import json
import sys
import tempfile
from functools import cache, cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .assumptions import AssumptionReport, check_assumptions
from .bounds import BISECT_TOL, BumpBounds, build_bounds, solve_sandwich
from .dynamics import SimConfig, instability_experiment
from .errors import (ConfigError, InfeasibleModel, NeurofieldError, NoEscape,
                     NotDifferentiable, PerturbationTooLarge, StageDependencyError)
from .fixedpoint import (FixedPointResult, OperatorContext, compute_epsilon,
                         extend_bump, make_extension_grid, solve_third_fixed_point)
from .grids import Grid, Profile
from .model import (ExponentialKernel, GaussianKernel, MexicanHatKernel,
                    ModelParams, RatioFiring, TabulatedKernel)
from .spectral import (Linearization, instability_certificate,
                       remainder_exponent_fit, spectra_equivalence_check,
                       spectral_radius, translation_mode_check)

SCHEMA_PATH = Path(__file__).with_name("config_schema.json")

_STAGE_SECTIONS = {
    "check": ("kernel", "firing", "model"),
    "bounds": ("kernel", "firing", "model", "grid"),
    "solve": ("kernel", "firing", "model", "grid", "solver"),
    "spectrum": ("kernel", "firing", "model", "grid", "solver", "spectral"),
    "simulate": ("kernel", "firing", "model", "grid", "solver", "spectral", "dynamics"),
}


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    # imported here, as --version, --help and usage errors validate nothing;
    # the shipped schema is checked against its metaschema by the tests, not
    # on every run; best_match picks the error jsonschema.validate would raise
    from jsonschema import Draft202012Validator
    from jsonschema.exceptions import best_match

    schema = json.loads(SCHEMA_PATH.read_text())
    error = best_match(Draft202012Validator(schema).iter_errors(cfg))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"{path}: at {where}: {error.message}")
    model_tau = cfg["model"].get("tau")
    if model_tau is not None and model_tau != cfg["firing"]["tau"]:
        raise ConfigError(
            f"{path}: model.tau ({model_tau}) must equal firing.tau "
            f"({cfg['firing']['tau']})")
    ktype = cfg["kernel"]["type"]
    if ktype == "mexican_hat":
        missing = [p for p in ("K", "k", "M", "m") if p not in cfg["kernel"]]
        if missing:
            raise ConfigError(f"{path}: mexican_hat kernel needs {missing}")
    if ktype == "tabulated" and "csv" not in cfg["kernel"]:
        raise ConfigError(f"{path}: tabulated kernel needs a csv path")
    return cfg


def build_kernel(cfg: dict, base: Path):
    spec = cfg["kernel"]
    ktype = spec["type"]
    if ktype == "exponential":
        return ExponentialKernel()
    if ktype == "gaussian":
        return GaussianKernel()
    if ktype == "mexican_hat":
        try:
            return MexicanHatKernel(spec["K"], spec["k"], spec["M"], spec["m"])
        except ValueError as exc:
            raise ConfigError(f"mexican_hat kernel: {exc}") from exc
    path = base / spec["csv"]
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read kernel.csv: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"kernel.csv {path} is not a numeric table: {exc}") from exc
    if data.shape[0] < 2 or data.shape[1] < 2:
        raise ConfigError(f"kernel.csv {path} needs at least two rows of x, value")
    xs, vals = data[:, 0], data[:, 1]
    try:
        grid = Grid(float(xs[0]), float(xs[-1]), len(xs) - 1)
        if not np.max(np.abs(grid.nodes() - xs)) <= 1e-9 * max(1.0, abs(xs[-1])):
            raise ValueError("the x column must sample a uniform grid")
        return TabulatedKernel(grid, vals)
    except ValueError as exc:
        raise ConfigError(f"kernel.csv {path}: {exc}") from exc


def build_objects(cfg: dict, base: Path):
    kernel = build_kernel(cfg, base)
    firing = RatioFiring(cfg["firing"]["p"], cfg["firing"]["tau"])
    params = ModelParams(cfg["model"]["h"], cfg["firing"]["tau"])
    return kernel, firing, params


# ---------------------------------------------------------------------------
# artifact io
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, header: list[str], columns: list[np.ndarray],
              precision: int = 17) -> None:
    row_fmt = ",".join([f"%.{precision}g"] * len(columns)) + "\n"
    values = np.column_stack(columns).ravel().tolist()
    body = (row_fmt * len(columns[0])) % tuple(values)
    _atomic_write(path, ",".join(header) + "\n" + body)


def read_profile_csv(path: Path) -> Profile:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    xs = data[:, 0]
    grid = Grid(float(xs[0]), float(xs[-1]), len(xs) - 1)
    return Profile(grid, data[:, 1])


# ---------------------------------------------------------------------------
# the pipeline of one invocation
# ---------------------------------------------------------------------------

class Solved(NamedTuple):
    ctx: OperatorContext
    ctx_big: OperatorContext
    fp: FixedPointResult
    u_tilde: Profile


class Spectrum(NamedTuple):
    lam: float
    v: Profile
    eigs: np.ndarray
    cert: dict


class Run:
    """Config, model objects and stage results of one invocation.

    Each stage (``check``, ``bounds``, ``solve``, ``spectrum``) is computed on
    first use and kept, so ``certify`` computes every stage once and a single
    command computes only the stages it needs.
    """

    def __init__(self, cfg: dict, base: Path):
        self.cfg = cfg
        self.base = base

    def computed(self, stage: str) -> bool:
        """Whether this run already holds the result of ``stage``."""
        return stage in vars(self)

    def config_hash(self, stage: str) -> str:
        """Hash of the config sections ``stage`` depends on; a tabulated
        kernel contributes the bytes of its CSV, not just its path."""
        payload = {s: self.cfg.get(s, {}) for s in _STAGE_SECTIONS[stage]}
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
        if self.cfg["kernel"]["type"] == "tabulated":
            digest.update((self.base / self.cfg["kernel"]["csv"]).read_bytes())
        return digest.hexdigest()[:16]

    @cached_property
    def model(self):
        return build_objects(self.cfg, self.base)

    @cached_property
    def check(self) -> AssumptionReport:
        return check_assumptions(*self.model)

    @cached_property
    def bounds(self) -> BumpBounds:
        kernel, _, params = self.model
        gsec = self.cfg.get("grid", {})
        if "n" in gsec:
            n = int(gsec["n"])
        else:
            # d does not depend on n, so the sandwich alone gives it
            d = solve_sandwich(kernel, params).solved().d
            n = int(round(2.0 * d * gsec.get("n_per_unit", 256)))
        return build_bounds(kernel, params, n + (n % 2))

    @cached_property
    def solve(self) -> Solved:
        kernel, firing, params = self.model
        bb = self.bounds
        if firing.p <= 1.0:
            raise NotDifferentiable(
                "the fixed-point solve linearizes the firing rate; it requires a "
                f"continuously differentiable rate (p > 1), got p={firing.p}")
        ssec = self.cfg.get("solver", {})
        ctx = OperatorContext(kernel, firing, params, bb.grid)
        eps = compute_epsilon(ctx, bb)
        fp = solve_third_fixed_point(
            ctx, bb,
            tol=ssec.get("newton_tol", 1e-10),
            max_iter=ssec.get("max_iter", 60),
            degeneracy_threshold=ssec.get("degeneracy_threshold", 1e-2),
            epsilon=eps)
        big = make_extension_grid(kernel, bb.grid,
                                  L_override=self.cfg.get("grid", {}).get("L_override"))
        ctx_big = OperatorContext(kernel, firing, params, big)
        u_tilde = extend_bump(ctx, fp.u_star, ctx_big)
        return Solved(ctx, ctx_big, fp, u_tilde)

    @cached_property
    def spectrum(self) -> Spectrum:
        ctx, ctx_big, fp, u_tilde = self.solve
        psec = self.cfg.get("spectral", {})
        top_k = psec.get("top_k", 5)
        lin = Linearization(ctx, fp.u_star)
        lin_big = Linearization(ctx_big, u_tilde)
        if lin_big.support.size == 0:
            zero = Profile(ctx_big.grid, np.zeros(ctx_big.grid.n_nodes))
            cert = instability_certificate(0.0, zero, np.inf, 0.0, 0.0, np.inf)
            return Spectrum(0.0, zero, np.zeros(0), cert)
        # each Lanczos eigensolve runs once: the power iteration's cross-check
        # and the spectra comparison share the big grid's eigenvalues
        eigs_big = lin_big.eigenvalues(top_k)
        lam, v = spectral_radius(lin_big, eigs_big, tol=psec.get("power_tol", 1e-13))
        eigs = lin.eigenvalues(top_k)
        trans = translation_mode_check(ctx, fp.u_star, lin)
        equiv_dev, _ = spectra_equivalence_check(eigs, eigs_big, top_k)
        slope, _ = remainder_exponent_fit(lin_big, v, np.logspace(-4, -2, 9))
        cert = instability_certificate(lam, v, trans, slope, ctx.firing.holder_exponent,
                                       equiv_dev, power_vs_dense=abs(lam - float(eigs[0])))
        return Spectrum(lam, v, eigs, cert)


def run_dynamics(cfg: dict, ctx_big, u_tilde, v_principal, lam):
    dsec = cfg.get("dynamics", {})
    sim = SimConfig(dt=dsec.get("dt", 0.01), t_end=dsec.get("t_end", 60.0),
                    scheme=dsec.get("scheme", "rk4"))
    delta = dsec.get("delta", 1e-3)
    eps_ball = dsec.get("epsilon_ball")
    source = "dynamics.epsilon_ball"
    if eps_ball is None:
        eps_ball = 0.05 * u_tilde.sup_norm()
        source = "the default 0.05 * sup|u_tilde|"
    try:
        result = instability_experiment(ctx_big, u_tilde, v_principal, delta,
                                        eps_ball, sim, lambda_max=lam)
    except PerturbationTooLarge as exc:
        raise ConfigError(f"dynamics.delta: {exc}; epsilon_ball is {source}") from exc
    result["epsilon_ball"] = eps_ball
    result["delta"] = delta
    return result


def _load_stage_json(out: Path, name: str, run: Run, stage: str) -> dict:
    path = out / name
    if not path.exists():
        raise StageDependencyError(
            f"missing artifact {name}: run the '{stage}' stage first")
    payload = json.loads(path.read_text())
    if payload.get("config_hash") != run.config_hash(stage):
        raise StageDependencyError(
            f"cached {name} was produced with a different config; rerun '{stage}'")
    return payload


# ---------------------------------------------------------------------------
# commands: each writes its own artifacts and returns (exit code, payload)
# ---------------------------------------------------------------------------

def cmd_check(run: Run, out: Path, precision: int, quiet: bool):
    try:
        report = run.check
        message = f"assumptions: {report.verdict}"
    except InfeasibleModel as exc:
        report, message = exc.report, f"infeasible: {exc}"
    payload = None
    if report is not None:
        payload = dict(report.to_dict(), config_hash=run.config_hash("check"))
        write_json(out / "report.json", payload)
    if not quiet:
        print(message)
    return (0 if payload is not None and payload["verdict"] == "pass" else 2), payload


def cmd_bounds(run: Run, out: Path, precision: int, quiet: bool):
    _, _, params = run.model
    bb = run.bounds
    write_csv(out / "profiles.csv", ["x", "u_minus", "u_plus"],
              [bb.grid.nodes(), bb.u_minus.values, bb.u_plus.values], precision)
    payload = {
        "config_hash": run.config_hash("bounds"),
        "delta_minus": bb.delta_minus, "delta_plus": bb.delta_plus, "d": bb.d,
        "h": params.h, "tau": params.tau, "n": bb.grid.n,
        "tolerance": BISECT_TOL,
    }
    write_json(out / "bounds.json", payload)
    if not quiet:
        print(f"delta_minus={bb.delta_minus:.9g} delta_plus={bb.delta_plus:.9g} "
              f"d={bb.d:.9g}")
    return 0, payload


def cmd_solve(run: Run, out: Path, precision: int, quiet: bool):
    ctx, ctx_big, fp, u_tilde = run.solve
    write_csv(out / "u_star.csv", ["x", "value"],
              [ctx.grid.nodes(), fp.u_star.values], precision)
    write_csv(out / "u_tilde.csv", ["x", "value"],
              [ctx_big.grid.nodes(), u_tilde.values], precision)
    payload = fp.to_dict()
    payload.update({
        "config_hash": run.config_hash("solve"),
        "L": ctx_big.grid.hi,
        "newton_tol": run.cfg.get("solver", {}).get("newton_tol", 1e-10),
    })
    write_json(out / "fixedpoint.json", payload)
    if not quiet:
        print(f"residual_sup={fp.residual_sup:.3e} separations="
              f"({fp.dist_to_u_minus:.3e}, {fp.dist_to_u_plus:.3e})")
    return 0, payload


def cmd_spectrum(run: Run, out: Path, precision: int, quiet: bool):
    ctx_big = run.solve.ctx_big
    lam, v, eigs, cert = run.spectrum
    write_csv(out / "spectrum.csv", ["index", "eigenvalue_real", "eigenvalue_imag"],
              [np.arange(len(eigs), dtype=float), eigs, np.zeros(len(eigs))],
              precision)
    write_csv(out / "principal.csv", ["x", "value"],
              [ctx_big.grid.nodes(), v.values], precision)
    payload = dict(cert, config_hash=run.config_hash("spectrum"))
    write_json(out / "certificate.json", payload)
    if not quiet:
        print(f"spectral_radius={lam:.9g} certificate={payload['verdict']}")
    return (0 if payload["verdict"] == "pass" else 2), payload


def cmd_simulate(run: Run, out: Path, precision: int, quiet: bool):
    """The escape experiment.  Inside certify the run already holds the bump
    and the principal vector; a standalone simulate reads them from the
    artifacts of earlier solve and spectrum commands, refusing missing or
    stale ones."""
    if run.computed("spectrum"):
        ctx_big, u_tilde = run.solve.ctx_big, run.solve.u_tilde
        lam, v = run.spectrum.lam, run.spectrum.v
    else:
        lam = _load_stage_json(out, "certificate.json", run, "spectrum")["spectral_radius"]
        _load_stage_json(out, "fixedpoint.json", run, "solve")
        u_tilde = read_profile_csv(out / "u_tilde.csv")
        v = read_profile_csv(out / "principal.csv")
        ctx_big = OperatorContext(*run.model, u_tilde.grid)
    result = run_dynamics(run.cfg, ctx_big, u_tilde, v, lam)
    traj = result["trajectory"]
    write_csv(out / "trajectory.csv", ["t", "deviation_sup"],
              [traj.times, traj.deviation_sup], precision)
    payload = {
        "config_hash": run.config_hash("simulate"),
        "growth_rate": result["growth_rate"],
        "escape_time": result["escape_time"],
        "predicted_escape": result["predicted_escape"],
        "epsilon_ball": result["epsilon_ball"],
        "delta": result["delta"],
    }
    write_json(out / "dynamics.json", payload)
    if not quiet:
        print(f"growth_rate={result['growth_rate']} escape_time={result['escape_time']}")
    return 0, payload


def cmd_certify(run: Run, out: Path, precision: int, quiet: bool):
    rc, report = cmd_check(run, out, precision, True)
    if rc != 0:
        if not quiet:
            print("certify: model infeasible")
        return rc, None
    _, bounds = cmd_bounds(run, out, precision, True)
    _, fixedpoint = cmd_solve(run, out, precision, True)
    _, certificate = cmd_spectrum(run, out, precision, True)
    _, dyn = cmd_simulate(run, out, precision, True)

    newton_tol = fixedpoint["newton_tol"]
    bump_ok = (report["verdict"] == "pass"
                 and fixedpoint["residual_sup"] <= 10.0 * newton_tol
                 and fixedpoint["epsilon_used"] is not None
                 and fixedpoint["epsilon_used"] > 0.0)
    lam = certificate["spectral_radius"]
    growth_ok = (dyn["growth_rate"] is not None and lam > 1.0
                 and abs(dyn["growth_rate"] - (lam - 1.0)) <= 0.1 * (lam - 1.0))
    instability_ok = (certificate["verdict"] == "pass"
                 and dyn["escape_time"] is not None and growth_ok)
    run_report = {
        "config_hash": run.config_hash("simulate"),
        "assumptions": report,
        "bounds": bounds,
        "fixedpoint": fixedpoint,
        "certificate": certificate,
        "dynamics": dyn,
        "stationary_bump_verified": {"value": bool(bump_ok),
                                     "tolerance": 10.0 * newton_tol},
        "instability_verified": {"value": bool(instability_ok),
                                 "growth_rate_rel_tolerance": 0.1},
    }
    write_json(out / "run_report.json", run_report)
    ok = bump_ok and instability_ok
    if not quiet:
        print(f"stationary bump: {'pass' if bump_ok else 'fail'}; "
              f"instability: {'pass' if instability_ok else 'fail'}")
    return (0 if ok else 2), run_report


_COMMANDS = {
    "check": cmd_check,
    "bounds": cmd_bounds,
    "solve": cmd_solve,
    "spectrum": cmd_spectrum,
    "simulate": cmd_simulate,
    "certify": cmd_certify,
}


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="neurofield",
        description="Construct and certify unstable bump solutions of a 1D "
                    "neural field equation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None,
                       help="output directory (default: config output.directory)")
        p.add_argument("--grid-n", type=int, default=None,
                       help="override the subinterval count on [-d, d]")
        p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.grid_n is not None:
            cfg.setdefault("grid", {})["n"] = args.grid_n
        base = Path(args.config).resolve().parent
        osec = cfg.get("output", {})
        out = Path(args.out) if args.out else base / osec.get("directory", "out")
        precision = osec.get("precision", 17)
        rc, _ = _COMMANDS[args.command](Run(cfg, base), out, precision, args.quiet)
        return rc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except StageDependencyError as exc:
        print(f"stage dependency: {exc}", file=sys.stderr)
        return 1
    except NoEscape as exc:
        # the dynamic half of the certificate failed
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NeurofieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
