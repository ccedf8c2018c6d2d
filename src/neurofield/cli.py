"""Batch command-line front end: check, bounds, solve, spectrum, simulate, certify.

Stages cache their artifacts in the output directory as JSON + CSV, keyed by a
hash of the config sections they depend on.  Exit codes: 0 pass, 2 model
infeasible or certificate failure, 1 usage or internal error.
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
from pathlib import Path

import numpy as np
from jsonschema import ValidationError, validate

from . import __version__
from .assumptions import check_assumptions
from .bounds import build_bounds
from .dynamics import SimConfig, instability_experiment
from .errors import (ConfigError, InfeasibleModel, NeurofieldError,
                     NotDifferentiable, PerturbationTooLarge,
                     StageDependencyError)
from .fixedpoint import (OperatorContext, compute_epsilon, extend_bump,
                         make_extension_grid, monotone_iterate,
                         solve_third_fixed_point)
from .grids import Grid, Profile
from .model import (ExponentialKernel, GaussianKernel, MexicanHatKernel,
                    ModelParams, RatioFiring, TabulatedKernel)
from .spectral import (build_linearization, instability_certificate,
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
    schema = json.loads(SCHEMA_PATH.read_text())
    try:
        validate(cfg, schema)
    except ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"{path}: at {where}: {exc.message}") from exc
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
        return MexicanHatKernel(spec["K"], spec["k"], spec["M"], spec["m"])
    data = np.loadtxt(base / spec["csv"], delimiter=",")
    xs, vals = data[:, 0], data[:, 1]
    grid = Grid(float(xs[0]), float(xs[-1]), len(xs) - 1)
    if np.max(np.abs(grid.nodes() - xs)) > 1e-9 * max(1.0, abs(xs[-1])):
        raise ConfigError("tabulated kernel CSV must sample a uniform grid")
    return TabulatedKernel(grid, vals)


def build_objects(cfg: dict, base: Path):
    kernel = build_kernel(cfg, base)
    firing = RatioFiring(cfg["firing"]["p"], cfg["firing"]["tau"])
    params = ModelParams(cfg["model"]["h"], cfg["firing"]["tau"])
    return kernel, firing, params


def section_hash(cfg: dict, stage: str) -> str:
    payload = {s: cfg.get(s, {}) for s in _STAGE_SECTIONS[stage]}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


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
    fmt = f"%.{precision}g"
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(fmt % v for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_profile_csv(path: Path) -> Profile:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    xs = data[:, 0]
    grid = Grid(float(xs[0]), float(xs[-1]), len(xs) - 1)
    return Profile(grid, data[:, 1])


def _load_stage_json(out: Path, name: str, cfg: dict, stage: str) -> dict:
    path = out / name
    if not path.exists():
        raise StageDependencyError(
            f"missing artifact {name}: run the '{stage}' stage first")
    payload = json.loads(path.read_text())
    if payload.get("config_hash") != section_hash(cfg, stage):
        raise StageDependencyError(
            f"cached {name} was produced with a different config; rerun '{stage}'")
    return payload


# ---------------------------------------------------------------------------
# pipeline stages (pure computation, shared by the commands and certify)
# ---------------------------------------------------------------------------

def _grid_n(cfg: dict, d: float) -> int:
    gsec = cfg.get("grid", {})
    if "n" in gsec:
        n = int(gsec["n"])
    else:
        n = int(round(2.0 * d * gsec.get("n_per_unit", 256)))
    return n + (n % 2)


def run_check(cfg: dict, base: Path):
    kernel, firing, params = build_objects(cfg, base)
    return check_assumptions(kernel, firing, params)


def run_bounds(cfg: dict, base: Path):
    kernel, firing, params = build_objects(cfg, base)
    probe = build_bounds(kernel, params, 2)
    n = _grid_n(cfg, probe.d)
    return kernel, firing, params, build_bounds(kernel, params, n)


def run_solve(cfg: dict, base: Path):
    kernel, firing, params, bb = run_bounds(cfg, base)
    if firing.p <= 1.0:
        raise NotDifferentiable(
            "the fixed-point solve linearizes the firing rate; it requires a "
            f"continuously differentiable rate (p > 1), got p={firing.p}")
    ssec = cfg.get("solver", {})
    ctx = OperatorContext(kernel, firing, params, bb.grid)
    eps = compute_epsilon(ctx, bb)
    fp = solve_third_fixed_point(
        ctx, bb,
        tol=ssec.get("newton_tol", 1e-10),
        max_iter=ssec.get("max_iter", 60),
        degeneracy_threshold=ssec.get("degeneracy_threshold", 1e-2),
        epsilon=eps)
    big = make_extension_grid(kernel, bb.grid,
                              L_override=cfg.get("grid", {}).get("L_override"))
    u_tilde = extend_bump(ctx, fp.u_star, big)
    ctx_big = OperatorContext(kernel, firing, params, big)
    return ctx, ctx_big, bb, fp, u_tilde


def run_spectrum(cfg: dict, ctx, ctx_big, fp, u_tilde):
    psec = cfg.get("spectral", {})
    top_k = psec.get("top_k", 5)
    power_tol = psec.get("power_tol", 1e-13)
    lin = build_linearization(ctx, fp.u_star)
    lin_big = build_linearization(ctx_big, u_tilde)
    if lin_big.support.size == 0:
        zero = Profile(ctx_big.grid, np.zeros(ctx_big.grid.n_nodes))
        cert = instability_certificate(0.0, zero, np.inf, 0.0, 0.0, np.inf)
        return lin, lin_big, 0.0, zero, np.zeros(0), cert
    lam, v = spectral_radius(lin_big, tol=power_tol)
    eigs = lin.eigenvalues()
    dense_top = float(eigs[0])
    trans = translation_mode_check(ctx, fp.u_star, lin)
    equiv_dev, _ = spectra_equivalence_check(lin, lin_big, top_k)
    mu = ctx.firing.holder_exponent
    slope, _ = remainder_exponent_fit(ctx_big, u_tilde, v, np.logspace(-4, -2, 9))
    cert = instability_certificate(lam, v, trans, slope, mu, equiv_dev,
                                   power_vs_dense=abs(lam - dense_top))
    return lin, lin_big, lam, v, eigs, cert


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


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_check(cfg: dict, base: Path, out: Path, precision: int, quiet: bool) -> int:
    try:
        report = run_check(cfg, base)
    except InfeasibleModel as exc:
        if exc.report is not None:
            payload = exc.report.to_dict()
            payload["config_hash"] = section_hash(cfg, "check")
            write_json(out / "report.json", payload)
        if not quiet:
            print(f"infeasible: {exc}")
        return 2
    payload = report.to_dict()
    payload["config_hash"] = section_hash(cfg, "check")
    write_json(out / "report.json", payload)
    if not quiet:
        print(f"assumptions: {report.verdict}")
    return 0 if report.verdict == "pass" else 2


def cmd_bounds(cfg: dict, base: Path, out: Path, precision: int, quiet: bool) -> int:
    _, _, params, bb = run_bounds(cfg, base)
    write_csv(out / "profiles.csv", ["x", "u_minus", "u_plus"],
              [bb.grid.nodes(), bb.u_minus.values, bb.u_plus.values], precision)
    write_json(out / "bounds.json", {
        "config_hash": section_hash(cfg, "bounds"),
        "delta_minus": bb.delta_minus, "delta_plus": bb.delta_plus, "d": bb.d,
        "h": params.h, "tau": params.tau, "n": bb.grid.n,
        "tolerance": 1e-12,
    })
    if not quiet:
        print(f"delta_minus={bb.delta_minus:.9g} delta_plus={bb.delta_plus:.9g} "
              f"d={bb.d:.9g}")
    return 0


def cmd_solve(cfg: dict, base: Path, out: Path, precision: int, quiet: bool) -> int:
    ctx, ctx_big, bb, fp, u_tilde = run_solve(cfg, base)
    write_csv(out / "u_star.csv", ["x", "value"],
              [ctx.grid.nodes(), fp.u_star.values], precision)
    write_csv(out / "u_tilde.csv", ["x", "value"],
              [ctx_big.grid.nodes(), u_tilde.values], precision)
    payload = fp.to_dict()
    payload.update({
        "config_hash": section_hash(cfg, "solve"),
        "L": ctx_big.grid.hi,
        "newton_tol": cfg.get("solver", {}).get("newton_tol", 1e-10),
    })
    write_json(out / "fixedpoint.json", payload)
    if not quiet:
        print(f"residual_sup={fp.residual_sup:.3e} separations="
              f"({fp.dist_to_u_minus:.3e}, {fp.dist_to_u_plus:.3e})")
    return 0


def cmd_spectrum(cfg: dict, base: Path, out: Path, precision: int, quiet: bool) -> int:
    ctx, ctx_big, bb, fp, u_tilde = run_solve(cfg, base)
    lin, lin_big, lam, v, eigs, cert = run_spectrum(cfg, ctx, ctx_big, fp, u_tilde)
    write_csv(out / "spectrum.csv", ["index", "eigenvalue_real", "eigenvalue_imag"],
              [np.arange(len(eigs), dtype=float), eigs, np.zeros(len(eigs))],
              precision)
    write_csv(out / "principal.csv", ["x", "value"],
              [ctx_big.grid.nodes(), v.values], precision)
    cert = dict(cert)
    cert["config_hash"] = section_hash(cfg, "spectrum")
    write_json(out / "certificate.json", cert)
    if not quiet:
        print(f"spectral_radius={lam:.9g} certificate={cert['verdict']}")
    return 0 if cert["verdict"] == "pass" else 2


def cmd_simulate(cfg: dict, base: Path, out: Path, precision: int, quiet: bool) -> int:
    cert = _load_stage_json(out, "certificate.json", cfg, "spectrum")
    _load_stage_json(out, "fixedpoint.json", cfg, "solve")
    u_tilde = read_profile_csv(out / "u_tilde.csv")
    v = read_profile_csv(out / "principal.csv")
    kernel, firing, params = build_objects(cfg, base)
    ctx_big = OperatorContext(kernel, firing, params, u_tilde.grid)
    result = run_dynamics(cfg, ctx_big, u_tilde, v, cert["spectral_radius"])
    traj = result["trajectory"]
    write_csv(out / "trajectory.csv", ["t", "deviation_sup"],
              [traj.times, traj.deviation_sup], precision)
    write_json(out / "dynamics.json", {
        "config_hash": section_hash(cfg, "simulate"),
        "growth_rate": result["growth_rate"],
        "escape_time": result["escape_time"],
        "predicted_escape": result["predicted_escape"],
        "epsilon_ball": result["epsilon_ball"],
        "delta": result["delta"],
    })
    if not quiet:
        print(f"growth_rate={result['growth_rate']} escape_time={result['escape_time']}")
    return 0


def cmd_certify(cfg: dict, base: Path, out: Path, precision: int, quiet: bool) -> int:
    rc = cmd_check(cfg, base, out, precision, quiet=True)
    if rc != 0:
        if not quiet:
            print("certify: model infeasible")
        return rc
    report = json.loads((out / "report.json").read_text())
    cmd_bounds(cfg, base, out, precision, quiet=True)
    cmd_solve(cfg, base, out, precision, quiet=True)
    cmd_spectrum(cfg, base, out, precision, quiet=True)
    cmd_simulate(cfg, base, out, precision, quiet=True)

    bounds = json.loads((out / "bounds.json").read_text())
    fixedpoint = json.loads((out / "fixedpoint.json").read_text())
    certificate = json.loads((out / "certificate.json").read_text())
    dyn = json.loads((out / "dynamics.json").read_text())

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
        "config_hash": section_hash(cfg, "simulate"),
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
    return 0 if ok else 2


_COMMANDS = {
    "check": cmd_check,
    "bounds": cmd_bounds,
    "solve": cmd_solve,
    "spectrum": cmd_spectrum,
    "simulate": cmd_simulate,
    "certify": cmd_certify,
}


def main(argv=None) -> int:
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
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.grid_n is not None:
            cfg.setdefault("grid", {})["n"] = args.grid_n
        base = Path(args.config).resolve().parent
        osec = cfg.get("output", {})
        out = Path(args.out) if args.out else base / osec.get("directory", "out")
        precision = osec.get("precision", 17)
        return _COMMANDS[args.command](cfg, base, out, precision, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except StageDependencyError as exc:
        print(f"stage dependency: {exc}", file=sys.stderr)
        return 1
    except NeurofieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
