"""Batch command-line front end: check, bounds, solve, spectrum, simulate, certify.

Every command is a prefix of ``certify``: one ``Run`` per invocation computes
the stages up to the command's own, each at most once and in memory, and
stops where ``certify`` stops.  The commands write their results as JSON, CSV
and ``.npy`` artifacts, each JSON stamped with the run's one hash of its
config; no artifact is read back.  Exit codes: 0 pass, 2 model
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
import io
import json
import math
import operator
import sys
import warnings
from functools import cache, cached_property
from pathlib import Path
from typing import NamedTuple

try:  # CPython's own SHA-256: hashlib would load OpenSSL's libcrypto for it
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from . import __version__
from .assumptions import AssumptionReport, check_assumptions
from .bounds import BISECT_TOL, BumpBounds, build_bounds
from .dynamics import SimConfig, instability_experiment
from .errors import ConfigError, InfeasibleModel, NeurofieldError
from .fixedpoint import (NEWTON_TOL, FixedPointResult, OperatorContext,
                         compute_epsilon, extend_bump, make_extension_grid,
                         solve_third_fixed_point)
from .grids import Grid, Profile
from .model import (ExponentialKernel, GaussianKernel, MexicanHatKernel,
                    RatioFiring, TabulatedKernel)
from .spectral import (Linearization, instability_certificate,
                       remainder_exponent_fit, spectra_equivalence_check,
                       spectral_radius, translation_mode_check)

SCHEMA_PATH = Path(__file__).with_name("config_schema.json")

#: certify's stationary bump needs residual_sup <= min(10 newton_tol, this)
BUMP_TOL_CEILING = 1e-6
#: and its escape run a growth rate within this share of lam - 1
GROWTH_REL_TOL = 0.1

#: length past which a config error's message, which may echo a value whole, is cut
CONFIG_MESSAGE_CAP = 300

#: subintervals per unit length of [-d, d] when the config sets no grid.n
N_PER_UNIT = 256

#: the most nodes of the whole working line a run may ask for: about 2 GB, as a
#: certify peaks at 137 MB on 514,409 nodes and 257 MB on 1,028,815 (grid.n = 32,000, 64,000)
MAX_LINE_NODES = 2**23


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _finite_object(pairs: list) -> dict:
    """A JSON object whose numbers are finite (json reads NaN, Infinity and
    1e999 as floats that pass every schema bound)."""
    for key, value in pairs:
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"at {key}: {value} is not a finite number")
    return dict(pairs)


def _parse_int(literal: str) -> int | float:
    """A JSON integer, or an infinity past the float range, as json reads 1e999;
    float() reads any number of digits, so int() never sees more than 309."""
    value = float(literal)
    return int(literal) if math.isfinite(value) else value


#: JSON Schema 2020-12 types by name: a bool is no number, and 2.0 is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}
#: each bound keyword: the test a number fails it by, and jsonschema's words
_BOUNDS = {"exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
           "minimum": (operator.lt, "less than the minimum of"),
           "maximum": (operator.gt, "greater than the maximum of")}


@cache
def _schema() -> dict:
    """The shipped schema, parsed once per process."""
    return json.loads(SCHEMA_PATH.read_text())


def _errors(value, schema: dict, path: tuple = ()):
    """Each (path, message) where value fails schema, in jsonschema's words and
    order: JSON Schema 2020-12 read for the eight keywords below only, in the forms
    config_schema.json writes them (a ``type`` of one name, an enum of strings and
    ``additionalProperties: false``); annotations such as ``title`` are skipped."""
    for keyword, arg in schema.items():
        if keyword == "type" and not _TYPES[arg](value):
            yield path, f"{value!r} is not of type {arg!r}"
        elif keyword == "enum" and value not in arg:
            yield path, f"{value!r} is not one of {arg!r}"
        elif keyword in _BOUNDS and _TYPES["number"](value) and _BOUNDS[keyword][0](value, arg):
            yield path, f"{value!r} is {_BOUNDS[keyword][1]} {arg!r}"
        elif not isinstance(value, dict):
            continue
        elif keyword == "required":
            yield from ((path, f"{key!r} is a required property")
                        for key in arg if key not in value)
        elif keyword == "additionalProperties" and (
                extras := sorted(value.keys() - schema.get("properties", {}).keys())):
            yield path, "Additional properties are not allowed (%s %s unexpected)" % (
                ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were")
        elif keyword == "properties":
            for key, sub in arg.items():
                if key in value:
                    yield from _errors(value[key], sub, path + (key,))


def load_config(path: str | Path) -> dict:
    """The config at path, validated."""
    try:
        text = Path(path).read_text(encoding="utf-8")  # as RFC 8259 has it
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text, object_pairs_hook=_finite_object, parse_int=_parse_int)
        # jsonschema's best_match: the shallowest, then largest path, then the first
        error = max(_errors(cfg, _schema()), key=lambda e: (-len(e[0]), e[0]), default=None)
        if error is not None:
            raise ConfigError(f"at {'/'.join(error[0]) or '<root>'}: {error[1]}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ConfigError, RecursionError) as exc:
        # json, and the repr in a schema message, recurse once per nesting level
        message = str(exc)
        if len(message) > CONFIG_MESSAGE_CAP:
            message = message[:CONFIG_MESSAGE_CAP] + "..."
        raise ConfigError(f"{path}: {message}") from exc
    ktype = cfg["kernel"]["type"]
    if ktype == "mexican_hat":
        missing = [p for p in ("K", "k", "M", "m") if p not in cfg["kernel"]]
        if missing:
            raise ConfigError(f"{path}: mexican_hat kernel needs {missing}")
    if ktype == "tabulated" and "csv" not in cfg["kernel"]:
        raise ConfigError(f"{path}: tabulated kernel needs a csv path")
    return cfg


def build_kernel(cfg: dict, base: Path, csv: bytes):
    """The kernel of cfg; a tabulated one is parsed from csv, its table's bytes."""
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
        # universal newlines, as loadtxt reads a file opened by path
        with warnings.catch_warnings():  # a table without rows is refused below
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(io.StringIO(csv.decode(), newline=None), delimiter=",", ndmin=2)
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


# ---------------------------------------------------------------------------
# artifact io
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, data: str | bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # a fresh name, created with the mode open() gives: the OS applies the
    # umask, which this process never changes
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _strict(value):
    """value with each non-finite float as None: JSON has no Infinity or NaN."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, json.dumps(_strict(payload), indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    row_fmt = ",".join(["%.17g"] * len(columns)) + "\n"
    values = np.column_stack(columns).ravel().tolist()
    body = (row_fmt * len(columns[0])) % tuple(values)
    _atomic_write(path, ",".join(header) + "\n" + body)


def write_npy(path: Path, values: np.ndarray) -> None:
    """values as exact .npy; a whole-line profile's x is np.linspace(-L, L, values.size)."""
    buf = io.BytesIO()
    np.save(buf, values, allow_pickle=False)
    _atomic_write(path, buf.getvalue())


def read_profile_csv(path: Path) -> Profile:
    """The profile in a two-column artifact CSV; no command reads one back."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    xs = data[:, 0]
    grid = Grid(float(xs[0]), float(xs[-1]), len(xs) - 1)
    return Profile(grid, data[:, 1])


# ---------------------------------------------------------------------------
# the pipeline of one invocation
# ---------------------------------------------------------------------------

class Solved(NamedTuple):
    """The run's one whole-line context, u* on its [-d, d] window, and epsilon."""
    ctx: OperatorContext
    fp: FixedPointResult
    u_tilde: Profile
    epsilon: float


class Spectrum(NamedTuple):
    lam: float
    v: Profile
    eigs: np.ndarray
    cert: dict


class Run:
    """Config, model objects and stage results of one invocation.

    Each stage (``check``, ``bounds``, ``solve``, ``spectrum``) is computed on
    first use from the stages before it and kept, so ``certify`` computes
    every stage once and a single command computes only the stages it needs.
    """

    def __init__(self, cfg: dict, base: Path):
        self.cfg = cfg
        self.base = base

    @cached_property
    def config_hash(self) -> str:
        """The run's one stamp: a hash of every config section; a tabulated
        kernel contributes the bytes of its CSV, not just its path."""
        payload = {s: self.cfg.get(s, {}) for s in _schema()["properties"]}
        return sha256(json.dumps(payload, sort_keys=True).encode()
                      + self.kernel_csv).hexdigest()[:16]

    @cached_property
    def kernel_csv(self) -> bytes:
        """A tabulated kernel's CSV (b"" for an analytic one), read once: the
        kernel is parsed from these bytes and the stamp hashes them."""
        if self.cfg["kernel"]["type"] != "tabulated":
            return b""
        try:
            return (self.base / self.cfg["kernel"]["csv"]).read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read kernel.csv: {exc}") from exc

    @cached_property
    def model(self):
        """The kernel, the firing rate (which owns tau) and the threshold h."""
        cfg = self.cfg
        return (build_kernel(cfg, self.base, self.kernel_csv),
                RatioFiring(cfg["firing"]["p"], cfg["firing"]["tau"]), cfg["model"]["h"])

    @cached_property
    def check(self) -> AssumptionReport:
        return check_assumptions(*self.model)

    @cached_property
    def bounds(self) -> BumpBounds:
        # the one gate: every stage after the check, certify's included
        report = self.check
        if report.verdict != "pass":
            failed = [c.name for c in report.conditions if c.status != "pass"]
            raise InfeasibleModel(f"assumptions not met: {', '.join(failed)}")
        gsec = self.cfg.get("grid", {})
        if "n" in gsec:
            n = int(gsec["n"])
        else:
            # d <= a <= 20, so the count is finite
            n = int(round(2.0 * report.d * N_PER_UNIT))
            if n == 0:
                raise ConfigError(f"the default grid of {N_PER_UNIT} subintervals per "
                                  f"unit leaves none on [-d, d], d = {report.d:.9g}; "
                                  f"set grid.n")
        n += n % 2
        # the whole working line, counted before anything is allocated; solve runs on it
        self.line = make_extension_grid(self.model[0], Grid(-report.d, report.d, n))
        if self.line.n_nodes > MAX_LINE_NODES:
            raise ConfigError(f"grid.n: {n} subintervals of [-d, d] make a line of "
                              f"{self.line.n_nodes} nodes, above the affordable {MAX_LINE_NODES}")
        return build_bounds(self.model[0], report.sandwich, n)

    @cached_property
    def solve(self) -> Solved:
        bb = self.bounds
        kernel, firing, h = self.model
        ctx = OperatorContext(kernel, firing, h, self.line)
        eps = compute_epsilon(ctx, bb)
        fp = solve_third_fixed_point(
            ctx, bb, tol=self.cfg.get("solver", {}).get("newton_tol", NEWTON_TOL))
        return Solved(ctx, fp, extend_bump(ctx, fp.u_star), eps)

    @cached_property
    def spectrum(self) -> Spectrum:
        # one linearization and one Lanczos solve, at the whole-line bump
        ctx, fp, u_tilde, _ = self.solve
        lin = Linearization(ctx, u_tilde)
        margins = spectra_equivalence_check(lin, fp.u_star)
        if lin.support.size == 0:
            zero = Profile(ctx.grid, np.zeros(ctx.grid.n_nodes))
            cert = instability_certificate(0.0, zero, lin.support, np.inf, 0.0, 0.0,
                                           *margins)
            return Spectrum(0.0, zero, np.zeros(0), cert)
        eigs, y = lin.eigensolve()
        lam, v = spectral_radius(lin, eigs, y)
        trans = translation_mode_check(lin, fp.u_star)
        slope, _ = remainder_exponent_fit(lin, v)
        cert = instability_certificate(lam, v, lin.support, trans, slope,
                                       ctx.firing.holder_exponent, *margins)
        return Spectrum(lam, v, eigs, cert)


# ---------------------------------------------------------------------------
# commands: each writes its own artifacts and returns (exit code, payload)
# ---------------------------------------------------------------------------

def cmd_check(run: Run, out: Path, quiet: bool):
    payload = dict(run.check.to_dict(), config_hash=run.config_hash)
    write_json(out / "report.json", payload)
    if not quiet:
        print(f"assumptions: {payload['verdict']}")
    return (0 if payload["verdict"] == "pass" else 2), payload


def cmd_bounds(run: Run, out: Path, quiet: bool):
    _, firing, h = run.model
    bb = run.bounds
    write_csv(out / "profiles.csv", ["x", "u_minus", "u_plus"],
              [bb.grid.nodes(), bb.u_minus.values, bb.u_plus.values])
    payload = {
        "config_hash": run.config_hash,
        "delta_minus": bb.delta_minus, "delta_plus": bb.delta_plus, "d": bb.d,
        "h": h, "tau": firing.tau, "n": bb.grid.n,
        "tolerance": BISECT_TOL,
    }
    write_json(out / "bounds.json", payload)
    if not quiet:
        print(f"delta_minus={bb.delta_minus:.9g} delta_plus={bb.delta_plus:.9g} "
              f"d={bb.d:.9g}")
    return 0, payload


def cmd_solve(run: Run, out: Path, quiet: bool):
    ctx, fp, u_tilde, eps = run.solve
    write_csv(out / "u_star.csv", ["x", "value"],
              [fp.u_star.grid.nodes(), fp.u_star.values])
    write_npy(out / "u_tilde.npy", u_tilde.values)
    payload = dict(fp.to_dict(), config_hash=run.config_hash, epsilon_used=eps,
                   L=ctx.grid.hi)
    write_json(out / "fixedpoint.json", payload)
    if not quiet:
        print(f"residual_sup={fp.residual_sup:.3e} separations="
              f"({fp.dist_to_u_minus:.3e}, {fp.dist_to_u_plus:.3e})")
    return 0, payload


def cmd_spectrum(run: Run, out: Path, quiet: bool):
    ctx = run.solve.ctx
    lam, v, eigs, cert = run.spectrum
    write_csv(out / "spectrum.csv", ["index", "eigenvalue_real", "eigenvalue_imag"],
              [np.arange(len(eigs), dtype=float), eigs, np.zeros(len(eigs))])
    write_npy(out / "principal.npy", v.values)
    payload = dict(cert, config_hash=run.config_hash, L=ctx.grid.hi)
    write_json(out / "certificate.json", payload)
    if not quiet:
        print(f"spectral_radius={lam:.9g} certificate={payload['verdict']}")
    return (0 if payload["verdict"] == "pass" else 2), payload


def cmd_simulate(run: Run, out: Path, quiet: bool):
    """The escape experiment from the bump and the principal vector of the
    run: its trajectory.csv, and its numbers with delta in dynamics.json; a
    deviation that never leaves the epsilon ball fails it (exit 2)."""
    sim = SimConfig(**run.cfg.get("dynamics", {}))
    u_tilde = run.solve.u_tilde
    if run.spectrum.cert["applicable"]:
        result = instability_experiment(run.solve.ctx, u_tilde, run.spectrum.v, sim,
                                        run.spectrum.lam)
        traj = result.pop("trajectory")
        write_csv(out / "trajectory.csv", ["t", "deviation_sup"],
                  [traj.times, traj.deviation_sup])
    else:
        # f'(u_tilde - h) vanishes on the whole line, so no principal mode
        # exists to perturb along: the experiment fails without a step
        result = dict(dict.fromkeys(("growth_rate", "escape_time", "predicted_escape")),
                      epsilon_ball=sim.ball(u_tilde))
    payload = dict(result, config_hash=run.config_hash, delta=sim.delta)
    write_json(out / "dynamics.json", payload)
    if not quiet:
        print(f"growth_rate={result['growth_rate']} escape_time={result['escape_time']}")
    return (2 if result["escape_time"] is None else 0), payload


def cmd_certify(run: Run, out: Path, quiet: bool):
    _, report = cmd_check(run, out, True)
    _, bounds = cmd_bounds(run, out, True)
    _, fixedpoint = cmd_solve(run, out, True)
    _, certificate = cmd_spectrum(run, out, True)
    _, dyn = cmd_simulate(run, out, True)

    # cmd_solve returned, so the check passed and the sandwich margin exists
    # a loose newton_tol cannot loosen the stationarity check past its ceiling
    bump_tol = min(10.0 * fixedpoint["newton_tol"], BUMP_TOL_CEILING)
    bump_ok = fixedpoint["residual_sup"] <= bump_tol
    lam = certificate["spectral_radius"]
    # a passing certificate has lam > 1 (spectral_radius_above_one)
    growth_ok = (dyn["growth_rate"] is not None
                 and abs(dyn["growth_rate"] - (lam - 1.0)) <= GROWTH_REL_TOL * (lam - 1.0))
    instability_ok = (certificate["verdict"] == "pass"
                 and dyn["escape_time"] is not None and growth_ok)
    run_report = {
        "config_hash": run.config_hash,
        "assumptions": report,
        "bounds": bounds,
        "fixedpoint": fixedpoint,
        "certificate": certificate,
        "dynamics": dyn,
        "stationary_bump_verified": {"value": bool(bump_ok),
                                     "tolerance": bump_tol},
        "instability_verified": {"value": bool(instability_ok),
                                 "growth_rate_rel_tolerance": GROWTH_REL_TOL},
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1: exit code 2 means an
    infeasible model or a failed certificate."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = _Parser(
        prog="neurofield",
        description="Construct and certify unstable bump solutions of a 1D "
                    "neural field equation.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", help="output directory (default: out beside the config)")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.config)
        base = Path(args.config).resolve().parent
        out = Path(args.out) if args.out else base / "out"
        # a run that stops early leaves no verdict of an earlier run behind
        (out / "run_report.json").unlink(missing_ok=True)
        rc, _ = _COMMANDS[args.command](Run(cfg, base), out, args.quiet)
        return rc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleModel as exc:
        # every command after check stops at Run.bounds, as certify does
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (NeurofieldError, MemoryError, OSError) as exc:
        # numpy's MemoryError names the size it could not allocate, and an
        # OSError the output path it could not create or write
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
