import collections
import hashlib
import importlib.util
import json
import math
import os
import re
import resource
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import neurofield
import neurofield.dynamics
from neurofield import cli
from neurofield.cli import BUMP_TOL_CEILING, CONFIG_MESSAGE_CAP, Run, load_config, main
from neurofield.errors import NoConvergence
from neurofield.fixedpoint import (DEGENERACY_THRESHOLD, SPECTRUM_CACHE_SIZE,
                                   STEP_WINDOW_SHARE, WINDOW_BLOCK, FixedPointResult,
                                   OperatorContext, compute_epsilon)
from neurofield.model import ExponentialKernel, GaussianKernel
from neurofield.spectral import Linearization

BASE_CFG = {
    "kernel": {"type": "exponential"},
    "firing": {"p": 2.0, "tau": 0.2},
    "model": {"h": 0.1},
    "grid": {"n": 200},
    "solver": {"newton_tol": 1e-12},
    "dynamics": {"dt": 0.01, "t_end": 5.0, "delta": 1e-3},
}


def write_cfg(tmp_path, overrides=None, name="cfg.json"):
    cfg = json.loads(json.dumps(BASE_CFG))
    for key, val in (overrides or {}).items():
        if val is None:
            cfg.pop(key, None)
        elif isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run(args):
    return main([str(a) for a in args])


def test_check_pass(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run(["check", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "pass"


def test_out_defaults_to_out_beside_the_config(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path)
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    assert run(["check", "--config", cfg, "--quiet"]) == 0
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["report.json"]
    assert not (tmp_path / "cwd" / "out").exists()


def test_check_infeasible_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, {"model": {"h": 0.3}, "firing": {"p": 2.0, "tau": 0.3}})
    out = tmp_path / "out"
    assert run(["check", "--config", cfg, "--out", out, "--quiet"]) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "fail"


def test_bounds_artifacts(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run(["bounds", "--config", cfg, "--out", out, "--quiet"]) == 0
    payload = json.loads((out / "bounds.json").read_text())
    assert payload["delta_minus"] == pytest.approx(0.11157177565710485, abs=1e-9)
    assert (out / "profiles.csv").exists()


def test_solve_and_spectrum(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run(["solve", "--config", cfg, "--out", out, "--quiet"]) == 0
    fp = json.loads((out / "fixedpoint.json").read_text())
    assert fp["residual_sup"] <= 1e-11
    assert run(["spectrum", "--config", cfg, "--out", out, "--quiet"]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "pass"
    assert cert["spectral_radius"] == pytest.approx(4.237, abs=0.01)


def test_fixedpoint_json_records_the_runs_sandwich_margin(tmp_path):
    pipeline = cli.Run(cli.load_config(write_cfg(tmp_path)), tmp_path)
    assert cli.cmd_solve(pipeline, tmp_path / "out", True)[0] == 0
    fp = json.loads((tmp_path / "out" / "fixedpoint.json").read_text())
    assert fp["epsilon_used"] == compute_epsilon(pipeline.solve.ctx, pipeline.bounds) > 0.0


def test_fixedpoint_json_lists_the_records_fields(tmp_path):
    # FixedPointResult.to_dict names no field, so the record and the JSON
    # cannot drift apart: every field but the profile, and the run's stamp,
    # margin and line length
    cfg = write_cfg(tmp_path)
    assert run(["solve", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 0
    fp = json.loads((tmp_path / "out" / "fixedpoint.json").read_text())
    assert fp.keys() == (set(FixedPointResult._fields) - {"u_star"}
                         | {"config_hash", "epsilon_used", "L"})


def same_files(staged, certified):
    """Names of the files in staged, each byte-identical to certify's."""
    names = sorted(p.name for p in staged.iterdir())
    for name in names:
        assert (staged / name).read_bytes() == (certified / name).read_bytes(), name
    return names


def test_simulate_requires_cached_stages(tmp_path):
    # simulate computes the stages before it itself: an empty directory will do
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["dynamics.json", "trajectory.csv"]


def test_simulate_rejects_stale_cache(tmp_path):
    # the artifacts of another config in the directory change nothing
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run(["spectrum", "--config", cfg, "--out", out, "--quiet"]) == 0
    cfg2 = write_cfg(tmp_path, {"grid": {"n": 300}}, name="cfg2.json")
    assert run(["simulate", "--config", cfg2, "--out", out, "--quiet"]) == 0
    assert run(["certify", "--config", cfg2, "--out", tmp_path / "c2", "--quiet"]) == 0
    for name in ("dynamics.json", "trajectory.csv"):
        assert (out / name).read_bytes() == (tmp_path / "c2" / name).read_bytes()


def test_certify_full_pipeline(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run(["certify", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = json.loads((out / "run_report.json").read_text())
    assert report["stationary_bump_verified"]["value"]
    assert report["instability_verified"]["value"]
    for name in ("report.json", "bounds.json", "fixedpoint.json",
                 "certificate.json", "dynamics.json", "trajectory.csv",
                 "u_star.csv", "u_tilde.npy", "principal.npy", "spectrum.csv"):
        assert (out / name).exists()
    # the trajectory ends at the first sample outside the epsilon ball
    eps = report["dynamics"]["epsilon_ball"]
    rows = [[float(v) for v in r.split(",")]
            for r in (out / "trajectory.csv").read_text().splitlines()[1:]]
    assert rows[-1][0] == report["dynamics"]["escape_time"]
    assert rows[-1][1] >= eps
    assert all(dev < eps for _, dev in rows[:-1])


def test_certify_deterministic(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["certify", "--config", cfg, "--out", out1, "--quiet"]) == 0
    assert run(["certify", "--config", cfg, "--out", out2, "--quiet"]) == 0
    for name in ("u_star.csv", "u_tilde.npy", "principal.npy", "trajectory.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_certify_delta_too_large_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"dynamics": {"delta": 0.01}})
    assert run(["certify", "--config", cfg, "--out", tmp_path / "out",
                "--quiet"]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: dynamics.delta: delta = 0.01 is not below ")
    assert err.endswith("epsilon_ball is the default 0.05 * sup|u_tilde|")


@pytest.mark.parametrize("overrides, rc", [({"model": {"h": 0.45}}, 2),
                                           ({"dynamics": {"delta": 0.01}}, 1)],
                         ids=["infeasible", "delta too large"])
def test_rerun_that_stops_early_leaves_no_earlier_verdict(tmp_path, capsys, overrides, rc):
    # a passing certify, then one into the same directory that stops before
    # its verdicts: the first run's run_report.json does not survive it
    out = tmp_path / "out"
    assert run(["certify", "--config", write_cfg(tmp_path), "--out", out, "--quiet"]) == 0
    assert (out / "run_report.json").exists()
    cfg = write_cfg(tmp_path, overrides, name="rerun.json")
    assert run(["certify", "--config", cfg, "--out", out, "--quiet"]) == rc
    assert not (out / "run_report.json").exists()
    assert len(capsys.readouterr().err.splitlines()) == 1


def child_env():
    """The environment with this neurofield first on PYTHONPATH."""
    src = str(Path(neurofield.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_loads_no_scipy():
    # scipy is a test oracle and jsonschema the tests' referee on config
    # errors; the command line words its own rejections without either
    code = ("import sys, neurofield.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'jsonschema')))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_nonsmooth_firing_exit_1(tmp_path):
    # p <= 1 fails the check's thmB_iii_firing_smooth, so solve stops with
    # exit 2 where certify stops (the name predates that exit code)
    cfg = write_cfg(tmp_path, {"firing": {"p": 0.5, "tau": 0.2}})
    assert run(["solve", "--config", cfg, "--out", tmp_path / "out",
                "--quiet"]) == 2


def test_malformed_json_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run(["check", "--config", bad, "--quiet"]) == 1


def test_unknown_key_exit_1(tmp_path):
    cfg = write_cfg(tmp_path, {"grid": {"spacing": 0.1}})
    assert run(["check", "--config", cfg, "--quiet"]) == 1


def test_tau_mismatch_exit_1(tmp_path):
    cfg = write_cfg(tmp_path, {"model": {"h": 0.1, "tau": 0.3}})
    assert run(["check", "--config", cfg, "--quiet"]) == 1


def test_missing_config_exit_1(tmp_path):
    assert run(["check", "--config", tmp_path / "nope.json", "--quiet"]) == 1


def test_config_that_is_not_utf8_exit_1(tmp_path, capsys):
    # JSON text is UTF-8 (RFC 8259): a 0xff byte in a string cannot be read
    cfg = write_cfg(tmp_path)
    cfg.write_bytes(cfg.read_bytes().replace(b"exponential", b"expo\xffnential"))
    assert run(["check", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {cfg}: 'utf-8' codec ")
    assert err.count("\n") == 1 and "Traceback" not in err, err


def nested(depth: int, form: str) -> str:
    return ("[" * depth + "]" * depth if form == "arrays"
            else '{"a": ' * depth + "1" + "}" * depth)


@pytest.mark.parametrize("where, depth, form", [
    ("x", 100_000, "arrays"), ("x", 100_000, "objects"),
    ("kernel.type", 980, "arrays")], ids=["arrays", "objects", "kernel.type"])
def test_deeply_nested_config_exit_1(tmp_path, capsys, where, depth, form):
    # json's decoder recurses once per level and gives up about 1,000 deep
    cfg = write_cfg(tmp_path)
    text = cfg.read_text()
    if where == "x":
        cfg.write_text(text[:-1] + f', "x": {nested(depth, form)}}}')
    else:
        cfg.write_text(text.replace('"exponential"', nested(depth, form)))
    assert run(["check", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: ") and err.count("\n") == 1, err[-300:]


@pytest.mark.parametrize("form", ["arrays", "objects"])
def test_config_nested_near_the_decoders_limit_exit_1(tmp_path, capsys, form):
    # just inside json's depth limit the config parses, and the schema's
    # message for kernel.type holds the repr of the value, which may recurse
    # past the limit in turn; every depth around it gives one line
    limit = 0
    for step in (1 << k for k in range(14, -1, -1)):
        try:
            json.loads(nested(limit + step, form))
            limit += step
        except RecursionError:
            pass
    cfg = write_cfg(tmp_path)
    text = cfg.read_text()
    for depth in range(max(limit - 40, 1), limit + 3):
        cfg.write_text(text.replace('"exponential"', nested(depth, form)))
        assert run(["check", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {cfg}: ") and err.count("\n") == 1, depth


LONG = "x" * 20_000


@pytest.mark.parametrize("old, new", [
    ('"exponential"', f'"{LONG}"'),
    ('"kernel"', f'"{LONG}": 1, "kernel"'),
    ('"kernel"', f'"{LONG}": NaN, "kernel"'),
    ('"h": 0.1', f'"h": "{LONG}"'),
    ('"exponential"', nested(980, "arrays")),
], ids=["kernel.type", "unknown key", "NaN under a long key", "string as h", "nested"])
def test_config_error_shortens_a_long_echoed_value(tmp_path, capsys, old, new):
    # the schema's and the finite-number check's messages hold the rejected
    # key or value whole (20,000 characters, or a repr of 2,000 for the nested
    # one); the one line keeps the first CONFIG_MESSAGE_CAP characters
    cfg = write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace(old, new, 1))
    assert run(["check", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 1
    err = capsys.readouterr().err
    prefix = f"config error: {cfg}: "
    assert err.startswith(prefix) and err.count("\n") == 1, err[-300:]
    assert len(err) <= len(prefix) + CONFIG_MESSAGE_CAP + len("...\n")


@pytest.mark.parametrize("overrides", [{}, {"firing": {"p": 1e300, "tau": 0.2},
                                            "grid": {"n": 40},
                                            "solver": {"newton_tol": 1e300}}],
                         ids=["escape run", "no principal mode"])
def test_simulate_sizes_the_epsilon_ball_once(tmp_path, monkeypatch, overrides):
    # dynamics.json takes the ball that the escape experiment ran with
    calls, ball = [], neurofield.dynamics.SimConfig.ball

    def counted(self, u_tilde):
        calls.append(ball(self, u_tilde))
        return calls[-1]
    monkeypatch.setattr(neurofield.dynamics.SimConfig, "ball", counted)
    cfg = write_cfg(tmp_path, overrides)
    out = tmp_path / "out"
    run(["certify", "--config", cfg, "--out", out, "--quiet"])
    u_tilde = np.load(out / "u_tilde.npy")
    assert calls == [0.05 * np.max(np.abs(u_tilde))]
    assert json.loads((out / "dynamics.json").read_text())["epsilon_ball"] == calls[0]


def test_certify_computes_each_stage_once(tmp_path, monkeypatch):
    calls = {}
    for name in ("build_bounds", "compute_epsilon", "solve_third_fixed_point",
                 "extend_bump", "read_profile_csv"):
        def counted(*args, _fn=getattr(cli, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    cfg = write_cfg(tmp_path)
    assert run(["certify", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 0
    assert calls == {"build_bounds": 1, "compute_epsilon": 1,
                     "solve_third_fixed_point": 1, "extend_bump": 1}


@pytest.mark.parametrize("grid", [{"n": 200}, None], ids=["grid.n", "no grid"])
def test_certify_solves_the_sandwich_once(tmp_path, monkeypatch, grid):
    # the check solves it, and the bounds take it and their n from the report
    import neurofield.assumptions
    import neurofield.bounds
    calls = []
    for module in (neurofield.assumptions, neurofield.bounds, cli):
        if hasattr(module, "solve_sandwich"):
            def counted(*args, _fn=module.solve_sandwich):
                calls.append(args)
                return _fn(*args)
            monkeypatch.setattr(module, "solve_sandwich", counted)
    cfg = write_cfg(tmp_path, {"grid": grid})
    assert run(["certify", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 0
    assert len(calls) == 1


def test_certify_without_grid_section(tmp_path):
    # with no grid section the bounds take n = round(2 d 256), made even, and
    # the check and the bounds find the same d
    cfg = write_cfg(tmp_path, {"grid": None})
    out = tmp_path / "out"
    assert run(["certify", "--config", cfg, "--out", out, "--quiet"]) == 0
    bounds = json.loads((out / "bounds.json").read_text())
    n = round(2.0 * bounds["d"] * 256)
    assert bounds["n"] == n + n % 2 and bounds["n"] % 2 == 0
    pipeline = cli.Run(cli.load_config(cfg), tmp_path)
    assert pipeline.check.d == pipeline.bounds.d


@pytest.mark.parametrize("grid_n", [200, 100])
def test_certify_runs_each_dense_eigensolve_once(tmp_path, monkeypatch, grid_n):
    # one operator context, on the whole-line grid, and one Lanczos eigensolve
    # on it: the principal pair and spectrum.csv come from the same solve
    solved, contexts = [], []
    eigensolve, init = Linearization.eigensolve, OperatorContext.__init__

    def counted(self, *args):
        solved.append(self.grid.n_nodes)
        return eigensolve(self, *args)

    def counted_init(self, *args):
        contexts.append(args[-1].n)
        init(self, *args)
    monkeypatch.setattr(Linearization, "eigensolve", counted)
    monkeypatch.setattr(OperatorContext, "__init__", counted_init)
    cfg = write_cfg(tmp_path, {"grid": {"n": grid_n}})
    out = tmp_path / "out"
    assert run(["certify", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert len(contexts) == 1 and contexts[0] > grid_n
    assert solved == [contexts[0] + 1]
    eigs = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)[:, 1]
    cert = json.loads((out / "certificate.json").read_text())
    assert eigs[0] == cert["spectral_radius"]


def test_certify_builds_one_big_grid_spectrum(tmp_path, monkeypatch):
    # the bump feeds T through its supra-threshold window only; every T onto
    # the whole extension grid (extend, principal vector, remainder fit and
    # the escape run's one whole-line product) shares it, the RK4 stages add
    # one spectrum onto their step
    # window and the state's guard bands one onto the window and a window's
    # width on each side; the margin, Newton and the translation check
    # output the [-d, d] nodes only
    built, contexts = [], []
    spectrum = OperatorContext._spectrum

    def counted(self, key):
        if key not in self._spectra:
            built.append((self.grid.n, key))
        contexts.append(self)
        return spectrum(self, key)
    monkeypatch.setattr(OperatorContext, "_spectrum", counted)
    cfg = write_cfg(tmp_path, {"grid": {"n": 800}})
    assert run(["certify", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 0
    big_n = max(n for n, _ in built)
    # one context, on the whole extension grid
    assert {n for n, _ in built} == {big_n} and len(set(map(id, contexts))) == 1
    whole = [key for n, key in built if n == big_n and key[2] == big_n]
    assert len(whole) == 1
    lo, hi, _ = whole[0]
    # the bump's window, not widened to the whole grid
    assert 3 * (hi - lo + 1) <= big_n + 1
    # every Newton and epsilon spectrum outputs the n + 1 = 801 nodes of
    # [-d, d], never the whole line
    assert any(key[2] == 800 for _, key in built)
    stages = [key for n, key in built if key[2] not in (big_n, 800)]
    assert len(stages) == 2
    # the same source window onto the step window, the bump's window widened
    # by a block on each side, counted from the step window's first node,
    # and onto the step window and its two bands, counted from the first band
    width = hi - lo + 2 * WINDOW_BLOCK
    assert stages[0] == (WINDOW_BLOCK, hi - lo + WINDOW_BLOCK, width)
    assert stages[1] == (width + 1 + WINDOW_BLOCK, width + 1 + hi - lo + WINDOW_BLOCK,
                         3 * (width + 1) - 1)
    assert STEP_WINDOW_SHARE * (width + 1) <= big_n + 1
    assert all(len(ctx._spectra) <= SPECTRUM_CACHE_SIZE for ctx in contexts)


def test_stage_commands_match_certify(tmp_path):
    # the five stage commands in one directory write certify's eleven files
    cfg = write_cfg(tmp_path)
    staged, certified = tmp_path / "staged", tmp_path / "certified"
    for command in ("check", "bounds", "solve", "spectrum", "simulate"):
        assert run([command, "--config", cfg, "--out", staged, "--quiet"]) == 0
    assert run(["certify", "--config", cfg, "--out", certified, "--quiet"]) == 0
    assert len(same_files(staged, certified)) == 11


REFERENCE_CFG = dict(BASE_CFG, grid={"n": 800})
PREFIX_CFGS = {
    "reference": ({}, 0),
    # a smaller delta than the reference's fits the epsilon ball of these bumps
    "gaussian": ({"kernel": {"type": "gaussian"},
                  "dynamics": {"delta": 1e-4}}, 0),
    # the principal vector is negative only off the support of f'(u - h)
    "mexican_hat": ({"kernel": {"type": "mexican_hat", "K": 3, "k": 2, "M": 1, "m": 1},
                     "model": {"h": 0.05}, "firing": {"p": 2.0, "tau": 0.05},
                     "dynamics": {"delta": 1e-4}}, 0),
    # on 200 subintervals Newton's third start converges to u = 0, outside
    # [u_minus, u_plus]; the fourth finds the bump, whose certificate fails
    "p=300": ({"firing": {"p": 300.0, "tau": 0.2}, "grid": {"n": 200}}, 2),
}
STAGE_FILES = {
    "check": ["report.json"],
    "bounds": ["bounds.json", "profiles.csv"],
    "solve": ["fixedpoint.json", "u_star.csv", "u_tilde.npy"],
    "spectrum": ["certificate.json", "principal.npy", "spectrum.csv"],
    "simulate": ["dynamics.json", "trajectory.csv"],
}


@pytest.mark.parametrize("name", PREFIX_CFGS)
def test_every_command_is_a_prefix_of_certify(tmp_path, name):
    # each command, alone in a fresh directory, writes the bytes certify writes
    overrides, certify_rc = PREFIX_CFGS[name]
    cfg = write_cfg(tmp_path, {**REFERENCE_CFG, **overrides})
    certified = tmp_path / "certify"
    assert run(["certify", "--config", cfg, "--out", certified, "--quiet"]) == certify_rc
    for command, files in STAGE_FILES.items():
        staged = tmp_path / command
        run([command, "--config", cfg, "--out", staged, "--quiet"])
        assert same_files(staged, certified) == files, command


def assert_line_npy(path, L, values, nodes):
    """Assert that the .npy at path holds values exactly, and that L places it
    on nodes bit for bit."""
    got = np.load(path, allow_pickle=False)
    assert got.dtype == np.float64 and got.ndim == 1
    assert got.tobytes() == values.tobytes()
    assert np.linspace(-L, L, got.size).tobytes() == nodes.tobytes()


@pytest.mark.parametrize("name", ["reference", "mexican_hat"])
def test_whole_line_npy_is_exact(tmp_path, name):
    # certify's u_tilde.npy and principal.npy, placed by fixedpoint.json's L
    cfg = cli.load_config(write_cfg(tmp_path, {**REFERENCE_CFG, **PREFIX_CFGS[name][0]}))
    certified, alone = cli.Run(cfg, tmp_path), cli.Run(cfg, tmp_path)
    assert cli.cmd_certify(certified, tmp_path / "certify", True)[0] == 0
    nodes = certified.solve.ctx.grid.nodes()
    L = json.loads((tmp_path / "certify" / "fixedpoint.json").read_text())["L"]
    for file, values in (("u_tilde.npy", certified.solve.u_tilde.values),
                         ("principal.npy", certified.spectrum.v.values)):
        assert_line_npy(tmp_path / "certify" / file, L, values, nodes)
    # spectrum alone in a fresh directory: certificate.json's L places it
    assert cli.cmd_spectrum(alone, tmp_path / "spectrum", True)[0] == 0
    L = json.loads((tmp_path / "spectrum" / "certificate.json").read_text())["L"]
    assert_line_npy(tmp_path / "spectrum" / "principal.npy", L, alone.spectrum.v.values,
                    alone.solve.ctx.grid.nodes())


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask 022", "umask 077"])
def test_artifacts_take_their_mode_from_the_umask(tmp_path, umask, mode):
    # as open() would create them, not mkstemp's 0600; a rewrite too
    cfg = write_cfg(tmp_path, {"grid": {"n": 100}})
    old = os.umask(umask)
    try:
        for _ in range(2):
            assert run(["solve", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 0
            names = {p.name: stat.S_IMODE(p.stat().st_mode)
                     for p in (tmp_path / "out").iterdir()}
            assert names == dict.fromkeys(STAGE_FILES["solve"], mode)
    finally:
        os.umask(old)


def test_certify_never_changes_the_umask(tmp_path, monkeypatch):
    # another thread of the process may be creating files meanwhile
    def umask(mask):
        raise AssertionError("os.umask called")
    monkeypatch.setattr(os, "umask", umask)
    cfg = write_cfg(tmp_path, {"grid": {"n": 100}})
    assert run(["certify", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 0


INFEASIBLE_CFGS = {
    "h=0.4": {"model": {"h": 0.4}},
    "p=0.5": {"firing": {"p": 0.5, "tau": 0.2}},
    "h=tau=0.3": {"model": {"h": 0.3}, "firing": {"p": 2.0, "tau": 0.3}},
    "p=1": {"firing": {"p": 1.0, "tau": 0.2}},
    # h + tau rounds to h, so delta_minus = delta_plus
    "tau=1e-17": {"firing": {"p": 2.0, "tau": 1e-17}},
    "tau=5e-18": {"firing": {"p": 2.0, "tau": 5e-18}},
    "tau=1e-300": {"firing": {"p": 2.0, "tau": 1e-300}},
}


@pytest.mark.parametrize("name", INFEASIBLE_CFGS)
def test_commands_after_check_stop_where_certify_stops(tmp_path, capsys, name):
    # check answers fail; every later command prints one infeasible line
    cfg = write_cfg(tmp_path, INFEASIBLE_CFGS[name])
    assert run(["check", "--config", cfg, "--out", tmp_path / "check"]) == 2
    assert capsys.readouterr() == ("assumptions: fail\n", "")
    report = json.loads((tmp_path / "check" / "report.json").read_text())
    failed = [c["name"] for c in report["conditions"] if c["status"] != "pass"]
    if name.startswith("tau="):
        vi, = (c for c in report["conditions"] if c["name"] == "B_vi_d_exists")
        assert vi["status"] == "fail" and vi["note"].startswith("degenerate sandwich: ")
    line = f"infeasible: assumptions not met: {', '.join(failed)}\n"
    for command in ("bounds", "solve", "spectrum", "simulate", "certify"):
        assert run([command, "--config", cfg, "--out", tmp_path / command]) == 2
        assert capsys.readouterr() == ("", line), command
    for command in ("bounds", "solve", "spectrum", "simulate"):
        assert not (tmp_path / command).exists()
    # certify writes the check's report, and nothing after it
    assert same_files(tmp_path / "check", tmp_path / "certify") == ["report.json"]
    assert [p.name for p in (tmp_path / "certify").iterdir()] == ["report.json"]


@pytest.mark.parametrize("argv", [[], ["bogus"], ["check"],
                                  ["check", "--config", "cfg.json", "--grid-n", "abc"]],
                         ids=["no command", "unknown command", "no --config", "--grid-n abc"])
def test_usage_error_exit_1(capsys, argv):
    # exit code 2 is kept for an infeasible model or a failed certificate
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 1
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_uncreatable_output_directory_exit_1(tmp_path, capsys, out):
    # mkdir fails on an existing file or below one: one line, no traceback
    (tmp_path / "file").write_text("")
    cfg = write_cfg(tmp_path)
    assert run(["certify", "--config", cfg, "--out", tmp_path / out, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(tmp_path / "file") in err


@pytest.mark.parametrize("grid, start", [
    ({"n": 10**15}, "config error: grid.n: 1000000000000000 subintervals of [-d, d] make "
                    "a line of 16075214881594651 nodes, above the affordable 8388608"),
    ({"n": 10**20}, "error: Unable to allocate "),
], ids=["n", "n=1e20"])
def test_allocation_failure_exit_1(tmp_path, capsys, grid, start):
    # a line past MAX_LINE_NODES is refused before anything is allocated; a
    # grid past numpy's largest array fails at once too, where numpy would
    # raise a ValueError
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(BASE_CFG, grid=grid)))
    assert run(["certify", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(start) and err.count("\n") == 1


def test_grid_past_the_memory_exit_1(tmp_path):
    # grid.n = 1e9 asks for a line of 5.6e9 nodes: the child, held to 2 GB of
    # address space, refuses it before any allocation fails
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    cfg = write_cfg(tmp_path, {"kernel": {"type": "gaussian"}, "grid": {"n": 1e9}})
    proc = subprocess.run([sys.executable, "-m", "neurofield.cli", "bounds", "--config",
                           str(cfg), "--out", str(tmp_path / "out")], preexec_fn=limit,
                          env=dict(child_env(), NEUROFIELD_THREADS="1"),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("config error: grid.n: 1000000000 subintervals of [-d, d] make "
                           f"a line of 5567211265 nodes, above the affordable "
                           f"{cli.MAX_LINE_NODES}\n")


@pytest.mark.parametrize("tau, n", [(0.2, 32_000), (0.002, 3200)])
def test_largest_documented_lines_are_affordable(tmp_path, tau, n):
    # the README's reference run at grid.n = 32,000 (514,409 line nodes) and
    # tau = 0.002 at grid.n = 3200 (505,501) stay below MAX_LINE_NODES
    cfg = write_cfg(tmp_path, {"firing": {"p": 2.0, "tau": tau}, "grid": {"n": n}})
    assert run(["bounds", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 0


@pytest.mark.parametrize("dynamics", [{"dt": 5e-324}, {"dt": 1e-17, "t_end": 1.0}],
                         ids=["dt=5e-324", "dt=1e-17"])
def test_unaffordable_step_count_exit_1(tmp_path, capsys, monkeypatch, dynamics):
    # refused before the first step, with one line naming dt and t_end
    def refuse(*args, **kwargs):
        raise AssertionError("a step ran")
    monkeypatch.setattr(neurofield.dynamics, "step_values", refuse)
    cfg = write_cfg(tmp_path, {"grid": {"n": 100}, "dynamics": dynamics})
    assert run(["certify", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: dynamics.dt: t_end / dt = ") and err.count("\n") == 1
    assert "exceed the affordable 1000000" in err


def test_certify_no_escape_exit_2(tmp_path, capsys):
    # the perturbation stays inside the ball up to t_end: a failed instability
    # verdict that run_report.json explains, with a passing certificate
    cfg = write_cfg(tmp_path, {"dynamics": {"t_end": 0.1}})
    out = tmp_path / "out"
    assert run(["certify", "--config", cfg, "--out", out, "--quiet"]) == 2
    assert capsys.readouterr() == ("", "")
    report = json.loads((out / "run_report.json").read_text())
    assert report["dynamics"] == json.loads((out / "dynamics.json").read_text())
    assert report["dynamics"]["escape_time"] is None
    assert report["certificate"]["verdict"] == "pass"
    assert report["certificate"]["spectral_radius"] > 1.0 + 1e-6
    assert report["stationary_bump_verified"]["value"] is True
    assert report["instability_verified"]["value"] is False
    # standalone simulate fails the same experiment with the same bytes
    sim = tmp_path / "sim"
    assert run(["simulate", "--config", cfg, "--out", sim, "--quiet"]) == 2
    for name in ("dynamics.json", "trajectory.csv"):
        assert (sim / name).read_bytes() == (out / name).read_bytes()


def test_certify_without_principal_mode_exit_2(tmp_path, capsys):
    # at p = 1e300 f'(u - h) vanishes on the whole line: the certificate is
    # not applicable and the escape experiment, with no mode to perturb
    # along, fails without a step instead of raising
    cfg = write_cfg(tmp_path, {"firing": {"p": 1e300, "tau": 0.2}, "grid": {"n": 40},
                               "solver": {"newton_tol": 1e300}})
    out = tmp_path / "out"
    assert run(["certify", "--config", cfg, "--out", out, "--quiet"]) == 2
    assert capsys.readouterr() == ("", "")
    report = json.loads((out / "run_report.json").read_text())
    assert report["certificate"]["verdict"] == "not-applicable"
    assert report["dynamics"]["escape_time"] is None
    assert report["instability_verified"]["value"] is False
    assert not (out / "trajectory.csv").exists()


def strict_json(path: Path):
    """The JSON document at path, refusing NaN, Infinity and -Infinity."""
    def refuse(constant):
        raise AssertionError(f"{path.name} holds {constant}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_certificate_without_principal_mode_writes_null_margins(tmp_path):
    # its support margin and translation residual are infinite in memory
    cfg = write_cfg(tmp_path, {"firing": {"p": 1e300, "tau": 0.2}, "grid": {"n": 40},
                               "solver": {"newton_tol": 1e300}})
    out = tmp_path / "out"
    assert run(["certify", "--config", cfg, "--out", out, "--quiet"]) == 2
    docs = {p.name: strict_json(p) for p in out.glob("*.json")}
    assert len(docs) == 6
    for cert in (docs["certificate.json"], docs["run_report.json"]["certificate"]):
        assert cert["support_margin"] is None and cert["translation_residual"] is None


def test_loose_newton_tol_cannot_verify_an_unmoved_bump(tmp_path):
    # newton_tol 1e300 accepts Newton's start (0 iterations, residual_sup
    # about 0.06), which verified the bump at the tolerance 1e301; the check
    # caps its tolerance at 1e-6, while a tight newton_tol keeps 10 newton_tol
    cfg = write_cfg(tmp_path, {"firing": {"p": 1e300, "tau": 0.2}, "grid": {"n": 40},
                               "solver": {"newton_tol": 1e300}})
    out = tmp_path / "loose"
    assert run(["certify", "--config", cfg, "--out", out, "--quiet"]) == 2
    report = json.loads((out / "run_report.json").read_text())
    assert report["fixedpoint"]["iterations"] == 0
    assert report["fixedpoint"]["residual_sup"] > 1e-2
    assert report["stationary_bump_verified"] == {"value": False, "tolerance": 1e-6}
    assert BUMP_TOL_CEILING == 1e-6
    cfg = write_cfg(tmp_path, {"grid": {"n": 40}, "dynamics": {"t_end": 1.5}})
    out = tmp_path / "tight"
    assert run(["certify", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = json.loads((out / "run_report.json").read_text())
    assert report["stationary_bump_verified"] == {"value": True, "tolerance": 1e-11}


def test_certify_large_grid_without_dense_blocks(tmp_path, monkeypatch):
    # 4,201 nodes on [-d, d]: Newton, the eigensolves and the kernel
    # derivative run matrix-free, so no dense block or n-sized solve is built
    def refuse(*args, **kwargs):
        raise AssertionError("dense operator requested")
    monkeypatch.setattr(OperatorContext, "kernel_matrix", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    cfg = write_cfg(tmp_path, {"grid": {"n": 4200}})
    out = tmp_path / "out"
    assert run(["certify", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = json.loads((out / "run_report.json").read_text())
    assert report["bounds"]["n"] == 4200
    assert report["stationary_bump_verified"]["value"]
    assert report["instability_verified"]["value"]


def test_certify_imports_no_scipy(tmp_path):
    # the footprint of a certify, and of a check the schema rejects, in a
    # fresh interpreter: no jsonschema, since load_config words a rejection
    # itself, no dataclasses, which no record is built with, and no _hashlib,
    # whose OpenSSL the config hash does without where CPython has its own SHA-256
    cfg = write_cfg(tmp_path, {"grid": {"n": 100}})
    bad = write_cfg(tmp_path, {"firing": {"p": "two"}}, name="bad.json")
    script = ("import sys\n"
              "from neurofield.cli import main\n"
              f"rcs = [main([command, '--config', cfg, '--out', {str(tmp_path / 'out')!r}, "
              f"'--quiet']) for command, cfg in (('certify', {str(cfg)!r}), "
              f"('check', {str(bad)!r}))]\n"
              "print(*rcs, *sorted(m for m in sys.modules "
              "if m.split('.')[0] in ('scipy', 'jsonschema', 'dataclasses', '_hashlib')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env(), check=True)
    rc, rc_bad, *loaded = proc.stdout.split()
    if not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
        loaded = [m for m in loaded if m != "_hashlib"]
    assert (rc, rc_bad, loaded) == ("0", "1", [])
    assert proc.stderr.splitlines() == [
        f"config error: {bad}: at firing/p: 'two' is not of type 'number'"]


def test_certify_tabulated_kernel_stays_in_its_table(tmp_path):
    # the Gaussian table ends at 2a = 12: the check probes inside it.  The
    # exponential table still reads 3e-6 at its edge, so the tail search stops
    # there and the extension grid's lag lines reach past it, where the table
    # is 0 by definition.  Neither certify process warns, and both pass.
    x = np.linspace(-12.0, 12.0, 2401)
    for kernel, dynamics in ((GaussianKernel(), {"delta": 1e-4}),
                             (ExponentialKernel(), {})):
        work = tmp_path / type(kernel).__name__
        work.mkdir()
        np.savetxt(work / "kernel.csv", np.column_stack([x, kernel(x)]),
                   delimiter=",", fmt="%.17g")
        cfg = write_cfg(work, {"kernel": {"type": "tabulated", "csv": "kernel.csv"},
                               "dynamics": dynamics})
        proc = subprocess.run([sys.executable, "-m", "neurofield.cli", "certify",
                               "--config", str(cfg), "--out", str(work / "out")],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0 and proc.stderr == ""
        report = json.loads((work / "out" / "report.json").read_text())
        table = cli.Run(cli.load_config(cfg), work).model[0]
        assert report["a"] == table.positive_radius() == 6.0
        run_report = json.loads((work / "out" / "run_report.json").read_text())
        assert run_report["stationary_bump_verified"]["value"] is True
        assert run_report["instability_verified"]["value"] is True


def test_simulate_rejects_edited_kernel_csv(tmp_path):
    # the table ends at 2a = 12; no stage after the check reads beyond it
    x = np.linspace(-12.0, 12.0, 2401)
    table = np.column_stack([x, GaussianKernel()(x)])
    np.savetxt(tmp_path / "kernel.csv", table, delimiter=",", fmt="%.17g")
    cfg = write_cfg(tmp_path, {"kernel": {"type": "tabulated", "csv": "kernel.csv"},
                               "dynamics": {"delta": 1e-4}})
    out = tmp_path / "out"
    for command in ("solve", "spectrum", "simulate"):
        assert run([command, "--config", cfg, "--out", out, "--quiet"]) == 0
    before = (out / "dynamics.json").read_bytes()
    # same path, new content: simulate follows the table, not the old artifacts
    table[:, 1] *= 1.2
    np.savetxt(tmp_path / "kernel.csv", table, delimiter=",", fmt="%.17g")
    assert run(["simulate", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert run(["certify", "--config", cfg, "--out", tmp_path / "fresh", "--quiet"]) == 0
    assert (out / "dynamics.json").read_bytes() != before
    for name in ("dynamics.json", "trajectory.csv"):
        assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


#: the config sections config_hash covers: every section of the schema
HASHED_SECTIONS = ("kernel", "firing", "model", "grid", "solver", "dynamics")


def expected_hash(cfg: dict, csv: bytes = b"") -> str:
    """SHA-256 over the six sections as sorted-key JSON, then a table's bytes."""
    sections = {s: cfg.get(s, {}) for s in HASHED_SECTIONS}
    return hashlib.sha256(json.dumps(sections, sort_keys=True).encode()
                          + csv).hexdigest()[:16]


def stamps(out: Path) -> dict:
    """The config_hash of each JSON in out, and of each stage's copy nested
    in run_report.json."""
    found = {p.name: json.loads(p.read_text())["config_hash"] for p in out.glob("*.json")}
    report = json.loads((out / "run_report.json").read_text())
    found.update({f"run_report.json/{key}": value["config_hash"]
                  for key, value in report.items() if isinstance(value, dict)
                  and "config_hash" in value})
    return found


@pytest.mark.parametrize("kernel", ["exponential", "tabulated"])
def test_every_json_of_a_certify_carries_the_one_config_hash(tmp_path, kernel):
    spec, csv = {"type": kernel}, b""
    if kernel == "tabulated":
        x = np.linspace(-12.0, 12.0, 481)
        np.savetxt(tmp_path / "kernel.csv", np.column_stack([x, ExponentialKernel()(x)]),
                   delimiter=",", fmt="%.17g")
        spec["csv"], csv = "kernel.csv", (tmp_path / "kernel.csv").read_bytes()
    cfg = write_cfg(tmp_path, {"kernel": spec, "grid": {"n": 40},
                               "dynamics": {"t_end": 1.5}})
    out = tmp_path / "out"
    assert run(["certify", "--config", cfg, "--out", out, "--quiet"]) == 0
    found = stamps(out)
    assert len(found) == 11
    assert set(found.values()) == {expected_hash(json.loads(cfg.read_text()), csv)}
    assert tuple(cli._schema()["properties"]) == HASHED_SECTIONS


def test_a_dynamics_setting_changes_the_check_stamp(tmp_path):
    # the check reads no dynamics setting, yet the run's one stamp covers it
    out = tmp_path / "out"
    hashes = []
    for dt in (0.01, 0.02):
        cfg = write_cfg(tmp_path, {"dynamics": {"dt": dt}})
        assert run(["check", "--config", cfg, "--out", out, "--quiet"]) == 0
        hashes.append(json.loads((out / "report.json").read_text())["config_hash"])
        assert hashes[-1] == expected_hash(json.loads(cfg.read_text()))
    assert hashes[0] != hashes[1]


def test_tabulated_kernel_csv_is_read_once_per_run(tmp_path):
    # the kernel is built from the bytes every stamp hashes, even if the file
    # changes during the run
    x = np.linspace(-12.0, 12.0, 2401)
    table = np.column_stack([x, GaussianKernel()(x)])
    np.savetxt(tmp_path / "kernel.csv", table, delimiter=",", fmt="%.17g")
    cfg = write_cfg(tmp_path, {"kernel": {"type": "tabulated", "csv": "kernel.csv"},
                               "dynamics": {"delta": 1e-4}})
    original = (tmp_path / "kernel.csv").read_bytes()
    config = cli.load_config(cfg)
    expected = expected_hash(config, original)
    pipeline = cli.Run(config, tmp_path)
    pipeline.model  # builds the table from the CSV as it is now
    table[:, 1] *= 1.2
    np.savetxt(tmp_path / "kernel.csv", table, delimiter=",", fmt="%.17g")
    out = tmp_path / "out"
    assert cli.cmd_certify(pipeline, out, True)[0] == 0
    found = stamps(out)
    assert len(found) == 11 and set(found.values()) == {expected}
    assert cli.Run(cli.load_config(cfg), tmp_path).config_hash != expected


TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_span_names_are_bound_in_cli():
    # the benchmark tracer wraps these neurofield.cli globals by name
    tracer = load_tracer()
    missing = [name for name in tracer.CLI_SPANS if not callable(getattr(cli, name, None))]
    assert missing == []


def test_tracer_traces_a_certify(tmp_path):
    # the benchmark's --trace 1 runs the tracer script around a certify: each
    # hook it patches must still exist, and every RK4 step must still pass
    # through the patched dynamics.step_values
    tracer = load_tracer()
    installed = tracer.Tracer()
    installed.install()  # fails on a hook that no longer exists
    try:
        assert all(callable(original) for _, _, original in installed._patched)
    finally:
        installed.uninstall()
    cfg = write_cfg(tmp_path, {"grid": {"n": 100}})
    trace, out = tmp_path / "trace.json", tmp_path / "out"
    proc = subprocess.run([sys.executable, str(TRACER_PATH), str(trace), "certify",
                           "--config", str(cfg), "--out", str(out), "--quiet"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0 and proc.stderr == ""
    data = json.loads(trace.read_text())
    names = [data["names"][index] for index, *_ in data["spans"]]
    # a header and the initial state come before the first step's row
    steps = len((out / "trajectory.csv").read_text().splitlines()) - 2
    assert steps > 0 and names.count("dynamics.step") == steps
    assert set(tracer.CLI_SPANS.values()) <= set(names)


def test_config_schema_is_valid():
    # load_config trusts the shipped schema instead of re-checking it per run
    from jsonschema import Draft202012Validator
    Draft202012Validator.check_schema(json.loads(cli.SCHEMA_PATH.read_text()))


@pytest.mark.parametrize("overrides", [
    {"grid": {"spacing": 0.1}},
    {"firing": {"p": "two"}},
    {"model": None},
    {"kernel": {"type": "cauchy"}},
    {"dynamics": {"dt": -0.01, "scheme": "euler"}},
    {"dynamics": {"dt": 0.5}},
    {"grid": {"n": 1}},
    {"dynamics": {"epsilon_ball": 0.05}},
    {"output": {"directory": "out"}},
    {"grid": {"spacing": 0.1, "n": 1.5, "cells": 3}},
])
def test_invalid_config_message_matches_jsonschema_validate(tmp_path, capsys, monkeypatch,
                                                            overrides):
    # jsonschema words the expected line; the command line words its own
    # without it
    from jsonschema import ValidationError, validate
    cfg = write_cfg(tmp_path, overrides)
    try:
        validate(json.loads(cfg.read_text()), json.loads(cli.SCHEMA_PATH.read_text()))
    except ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        expected = f"config error: {cfg}: at {where}: {exc.message}"
    else:
        pytest.fail("config unexpectedly valid")
    monkeypatch.setitem(sys.modules, "jsonschema", None)
    assert run(["check", "--config", cfg, "--quiet"]) == 1
    assert capsys.readouterr().err.splitlines() == [expected]


#: the keywords cli._errors reads, in jsonschema's words
KEYWORDS = {"type", "enum", "required", "additionalProperties", "properties", *cli._BOUNDS}


def unhandled_keywords(schema: dict, where: str = "<root>") -> list[str]:
    """Where schema uses a keyword, type or form that cli._errors does not read."""
    found = [f"{where}: {key}" for key in sorted(schema.keys() - KEYWORDS
                                                 - {"$schema", "title", "description"})]
    types = schema.get("type")
    if types is not None and not (isinstance(types, str) and types in cli._TYPES):
        found.append(f"{where}: type {types}")
    if schema.get("additionalProperties", False) is not False:
        found.append(f"{where}: additionalProperties other than false")
    if not all(isinstance(e, str) for e in schema.get("enum", [])):
        found.append(f"{where}: enum of non-strings")
    for key, sub in schema.get("properties", {}).items():
        found += unhandled_keywords(sub, f"{where}/{key}")
    return found


def test_schema_uses_only_keywords_valid_decides():
    assert unhandled_keywords(cli._schema()) == []
    # and the walk sees what it must refuse
    assert unhandled_keywords({"properties": {"a": {
        "type": ["boolean", "number"], "pattern": "x", "enum": [1],
        "additionalProperties": {"type": "number"}}, "b": {"type": "boolean"}}}) == [
        "<root>/a: pattern", "<root>/a: type ['boolean', 'number']",
        "<root>/a: additionalProperties other than false", "<root>/a: enum of non-strings",
        "<root>/b: type boolean"]


#: a config that sets every key of the schema
FULL_CFG = {
    "kernel": {"type": "mexican_hat", "K": 3, "k": 2, "M": 1, "m": 1, "csv": "kernel.csv"},
    "firing": {"p": 2.0, "tau": 0.2},
    "model": {"h": 0.1},
    "grid": {"n": 800},
    "solver": {"newton_tol": 1e-12},
    "dynamics": {"dt": 0.01, "t_end": 5.0, "delta": 1e-3},
}
#: wrong types, bools, integer-valued floats, zero, bounds and their neighbours
MUTANT_VALUES = [None, True, False, "rk4", "gaussian", "x", [], [1], {}, {"n": 2},
                 0, 1, 2, 17, 18, -1, 10**400, -10**400,
                 0.0, -0.0, 1.0, 2.0, 17.0, 18.0, 2.5, -1.0, 0.1, 0.1 + 2**-56,
                 5e-324, -5e-324, 1e300, -1e300]


@st.composite
def mutated_configs(draw):
    cfg = json.loads(json.dumps(FULL_CFG))
    sections = list(cli._schema()["properties"])
    for _ in range(draw(st.integers(1, 4))):
        section = draw(st.sampled_from(sections + ["extra"]))
        body = cfg.get(section)
        if isinstance(body, dict) and draw(st.booleans()):
            # one key of the section: an unknown one, or a known one
            # dropped (required or not) or set to a mutant value
            key = draw(st.sampled_from(sorted(FULL_CFG.get(section, {})) + ["extra"]))
            if draw(st.booleans()):
                body.pop(key, None)
            else:
                body[key] = draw(st.sampled_from(MUTANT_VALUES))
        elif draw(st.booleans()):
            cfg.pop(section, None)
        else:
            cfg[section] = draw(st.sampled_from(MUTANT_VALUES))
    return draw(st.sampled_from([cfg, cfg, cfg, [cfg], None]))


def pick(cfg, schema: dict):
    """The (where, message) load_config words for cfg, or None where it is valid."""
    error = max(cli._errors(cfg, schema), key=lambda e: (-len(e[0]), e[0]), default=None)
    return error and ("/".join(error[0]) or "<root>", error[1])


def test_valid_agrees_with_jsonschema():
    # the verdict and the words of each mutant are best_match's
    from jsonschema import Draft202012Validator
    from jsonschema.exceptions import best_match
    schema = cli._schema()
    validator = Draft202012Validator(schema)
    verdicts = []

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(mutated_configs())
    def agree(cfg):
        error = best_match(validator.iter_errors(cfg))
        verdicts.append(error is None)
        assert pick(cfg, schema) == (error and (
            "/".join(map(str, error.absolute_path)) or "<root>", error.message))

    agree()
    assert pick(FULL_CFG, schema) is None
    # both verdicts are common among the mutants
    assert 0.05 * len(verdicts) < sum(verdicts) < 0.95 * len(verdicts)


def test_integer_valued_float_runs_like_the_int(tmp_path):
    # JSON Schema counts 800.0 as an integer, and the run reads it as 800
    outs = []
    for spelled in (800, 800.0):
        cfg = write_cfg(tmp_path, {"grid": {"n": spelled}}, name=f"{spelled!r}.json")
        outs.append(tmp_path / repr(spelled))
        assert run(["certify", "--config", cfg, "--out", outs[-1], "--quiet"]) == 0
    # config_hash hashes the config as written, where 800.0 is not 800
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        texts = [re.sub(rb'"config_hash": "[0-9a-f]{16}"', b"", (out / name).read_bytes())
                 for out in outs]
        assert texts[0] == texts[1], name


@pytest.mark.parametrize("n, overrides, threshold, message", [
    (10, {"firing": {"p": 8.0, "tau": 0.3}}, DEGENERACY_THRESHOLD, "error: Newton from mix "),
    (20, {"solver": {"newton_tol": 5e-324}}, DEGENERACY_THRESHOLD, "error: damping exhausted "),
    (2, {"firing": {"p": 2.0, "tau": 0.01}}, DEGENERACY_THRESHOLD,
     "error: no strictly positive sandwich margin "),
    # every Newton limit is the interior bump, nearer a bound than 0.9 gap norms
    (800, {}, 0.9, "error: Newton from mix 0.75 collapsed onto a bounding profile "
     "(separations 1.136e-01, 1.545e-01)"),
], ids=["order interval", "damping", "epsilon", "collapsed"])
def test_solver_failure_names_the_grid(tmp_path, capsys, monkeypatch, n, overrides,
                                       threshold, message):
    # the check passes, and the sandwich margin or Newton fails on n
    # subintervals of [-d, d]
    monkeypatch.setattr("neurofield.fixedpoint.DEGENERACY_THRESHOLD", threshold)
    cfg = write_cfg(tmp_path, {**overrides, "grid": {"n": n}})
    out = tmp_path / "out"
    assert run(["certify", "--config", cfg, "--out", out, "--quiet"]) == 1
    d = json.loads((out / "report.json").read_text())["d"]
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert err.endswith(f" on the [-d, d] grid of n = {n}, dx = {2.0 * d / n:.6g}\n")
    # in process the same failure is a NoConvergence, whatever the solver step
    with pytest.raises(NoConvergence) as info:
        Run(load_config(cfg), tmp_path).solve
    assert f"error: {info.value}\n" == err


#: one config per kernel family that certifies on a coarse grid, in 1.5 time units
FUZZ_BASES = [
    {"kernel": {"type": "exponential"}, "firing": {"p": 2.0, "tau": 0.2},
     "model": {"h": 0.1}, "grid": {"n": 40}, "dynamics": {"t_end": 1.5}},
    {"kernel": {"type": "gaussian"}, "firing": {"p": 2.0, "tau": 0.2},
     "model": {"h": 0.1}, "grid": {"n": 18},
     "dynamics": {"t_end": 1.5, "delta": 1e-4}},
    {"kernel": {"type": "mexican_hat", "K": 3, "k": 2, "M": 1, "m": 1},
     "firing": {"p": 2.0, "tau": 0.05}, "model": {"h": 0.05}, "grid": {"n": 40},
     "dynamics": {"t_end": 1.5, "delta": 1e-4}},
    {"kernel": {"type": "tabulated", "csv": "kernel.csv"}, "firing": {"p": 2.0, "tau": 0.2},
     "model": {"h": 0.1}, "grid": {"n": 40}, "dynamics": {"t_end": 1.5}},
]
#: log10 ranges of the usual values of each number key of the schema
FUZZ_LOG10 = {"K": (0.0, 1.0), "k": (0.0, 1.0), "M": (-0.5, 0.5), "m": (-0.5, 0.5),
              "p": (0.05, 0.6), "tau": (-2.0, -0.5), "h": (-2.0, -0.5),
              "newton_tol": (-14.0, -6.0),
              "dt": (-2.3, -1.0), "t_end": (-1.0, 0.3), "delta": (-5.0, -2.0)}
#: small ranges of the integer keys, drawn as ints and integer-valued floats
FUZZ_INTS = {"n": (2, 40)}
FUZZ_EDGES = [5e-324, 1e300, 1.0, 2.0, 3.0]
#: RK4 steps a fuzz case may take before it is cut short
FUZZ_STEP_BUDGET = 600


def fuzz_value(key: str, spec: dict):
    """A usual value of the key, or an edge value one draw in four."""
    if "enum" in spec:
        return st.sampled_from(spec["enum"])
    if key == "csv":
        return st.sampled_from(["kernel.csv", "missing.csv"])
    if key in FUZZ_INTS:
        ints = st.integers(*FUZZ_INTS[key])
        usual = ints | ints.map(float)
    else:
        usual = st.floats(*FUZZ_LOG10[key]).map(lambda e: 10.0 ** e)
    return st.integers(0, 3).flatmap(lambda i: usual if i else st.sampled_from(FUZZ_EDGES))


@st.composite
def fuzz_configs(draw):
    """A base config with up to four keys of the schema redrawn."""
    cfg = json.loads(json.dumps(draw(st.sampled_from(FUZZ_BASES))))
    keys = [(section, key, spec) for section, sspec in cli._schema()["properties"].items()
            for key, spec in sspec["properties"].items()]
    for section, key, spec in draw(st.lists(st.sampled_from(keys), max_size=4)):
        cfg.setdefault(section, {})[key] = draw(fuzz_value(key, spec))
    return cfg


class StepBudgetSpent(Exception):
    """A fuzz case asked for more RK4 steps than FUZZ_STEP_BUDGET."""


def test_certify_exit_code_contract(tmp_path, monkeypatch, capsys):
    # every config exits 0, 1 or 2 with no escaping exception; 0 with both
    # verdicts passed, 2 with run_report.json or one line naming why, and 1
    # with one line; a case's cost is bounded by counting its RK4 steps.  Each
    # exit path is reached by some config
    step_values, steps = neurofield.dynamics.step_values, [0]

    def counted(*args):
        steps[0] += 1
        if steps[0] > FUZZ_STEP_BUDGET:
            raise StepBudgetSpent
        return step_values(*args)
    monkeypatch.setattr(neurofield.dynamics, "step_values", counted)
    xs = np.linspace(-12.0, 12.0, 481).tolist()
    (tmp_path / "kernel.csv").write_text(
        "".join(f"{x!r},{0.5 * math.exp(-abs(x))!r}\n" for x in xs))
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
    paths = collections.Counter()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(fuzz_configs())
    def contract(cfg):
        steps[0] = 0
        shutil.rmtree(out, ignore_errors=True)
        cfg_path.write_text(json.dumps(cfg))
        try:
            rc = run(["certify", "--config", cfg_path, "--out", out, "--quiet"])
        except StepBudgetSpent:
            paths["cut"] += 1
            capsys.readouterr()
            return
        stdout, err = capsys.readouterr()
        lines = err.splitlines()
        report = out / "run_report.json"
        assert stdout == ""
        if rc == 0:
            verdicts = json.loads(report.read_text())
            assert err == ""
            assert verdicts["stationary_bump_verified"]["value"]
            assert verdicts["instability_verified"]["value"]
            paths["0"] += 1
        elif rc == 2 and err == "":
            assert report.exists()
            paths["2 run_report.json"] += 1
        elif rc == 2:
            assert len(lines) == 1 and lines[0].startswith("infeasible: "), err
            paths["2 infeasible"] += 1
        else:
            assert rc == 1 and len(lines) == 1, err
            assert lines[0].startswith(("config error: ", "error: ")), err
            delta = lines[0].startswith("config error: dynamics.delta")
            paths["1 dynamics.delta" if delta else "1 other"] += 1

    contract()
    assert all(paths[p] for p in ("0", "2 run_report.json", "2 infeasible",
                                  "1 dynamics.delta", "1 other")), paths


def test_write_csv_matches_per_value_formatting(tmp_path):
    rng = np.random.default_rng(5)
    columns = [np.linspace(-12.0, 12.0, 301),
               rng.normal(size=301) * 10.0 ** rng.integers(-300, 300, size=301),
               np.arange(301, dtype=float), np.zeros(301)]
    columns[1][:4] = [0.0, -0.0, 1e-320, 2.0 ** 53 + 1]
    # and the shape of spectrum.csv: index, eigenvalue, zero imaginary part
    spectrum = [np.arange(541, dtype=float), np.sort(rng.normal(size=541))[::-1],
                np.zeros(541)]
    for header, cols in ((["x", "a", "b", "c"], columns),
                         (["index", "eigenvalue_real", "eigenvalue_imag"], spectrum)):
        cli.write_csv(tmp_path / "t.csv", header, cols)
        lines = [",".join(header)] + [",".join("%.17g" % v for v in row) for row in zip(*cols)]
        assert (tmp_path / "t.csv").read_text() == "\n".join(lines) + "\n"


def test_parser_built_once_answers_like_a_fresh_one(capsys):
    assert cli._parser() is cli._parser()
    outputs = []
    for parser in (cli._parser(), cli._parser(), cli._parser.__wrapped__()):
        for argv in (["--version"], ["--help"], ["certify"], ["bogus"], []):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            out = capsys.readouterr()
            outputs.append((exc.value.code, out.out, out.err))
    assert outputs[:5] == outputs[5:10] == outputs[10:]
    assert outputs[0] == (0, neurofield.__version__ + "\n", "")


@pytest.mark.parametrize("content", [
    None, "", "\n\n\n", "x,value\n0.0,abc\n", "0.0,1.0\n",
    # tables the model rejects: x decreasing, samples asymmetric or not finite
    "1.0,0.5\n0.0,1.0\n-1.0,0.5\n", "-1.0,0.5\n0.0,1.0\n1.0,0.6\n",
    "-1.0,nan\n0.0,1.0\n1.0,nan\n",
])
def test_unreadable_kernel_csv_exit_1(tmp_path, capsys, content):
    if content is not None:
        (tmp_path / "kernel.csv").write_text(content)
    cfg = write_cfg(tmp_path, {"kernel": {"type": "tabulated", "csv": "kernel.csv"}})
    assert run(["check", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("config error:") and str(tmp_path / "kernel.csv") in err


def test_kernel_tail_without_end_exit_1(tmp_path, capsys):
    # a table that passes the check but whose |omega| stays above the
    # truncation target out to the tail search limit: one config error line
    x = np.linspace(-1.2e4, 1.2e4, 24001)
    w = np.exp(-(x / 5.0) ** 2) + 1e-7
    np.savetxt(tmp_path / "kernel.csv", np.column_stack([x, 0.5 * (w + w[::-1])]),
               fmt="%.17g", delimiter=",")
    cfg = write_cfg(tmp_path, {"kernel": {"type": "tabulated", "csv": "kernel.csv"},
                               "firing": {"p": 2.0, "tau": 0.1}})
    assert run(["check", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 0
    assert run(["certify", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "config error: kernel: |omega| * 2d stays above 1e-10 out to x = 10000, "
        "so the working line has no end\n")


@pytest.mark.parametrize("shape, message", [
    ({"K": 1, "k": 2, "M": 3, "m": 1}, "need K > M > 0"),
    ({"K": 3, "k": 1, "M": 1, "m": 2}, "need k > m > 0"),
    ({"K": 3, "k": 2, "M": 3, "m": 1}, "need K > M > 0"),
])
def test_bad_mexican_hat_exit_1(tmp_path, capsys, shape, message):
    cfg = write_cfg(tmp_path, {"kernel": {"type": "mexican_hat", **shape}})
    assert run(["check", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 1
    err = capsys.readouterr().err.strip()
    assert err.splitlines() == [err]
    assert err.startswith("config error: mexican_hat kernel: " + message)


#: no grid section, and d = 5.1e-4: the default grid rounds to no subinterval
TINY_D_CFG = {"kernel": {"type": "exponential"}, "firing": {"p": 2.0, "tau": 5e-9},
              "model": {"h": 1e-5}}


def test_grid_the_model_cannot_use_exit_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TINY_D_CFG))
    assert run(["certify", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 1
    assert capsys.readouterr().err == (
        f"config error: the default grid of {cli.N_PER_UNIT} subintervals per unit "
        "leaves none on [-d, d], d = 0.000509880846; set grid.n\n")


def test_bounds_on_the_default_grid_keeps_the_exit_code_contract(tmp_path, capsys):
    # without a grid section the bounds take n = round(2 d 256): 0, 1 or 2,
    # and at most one line on stderr, however small d is
    cfg = tmp_path / "cfg.json"

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(kernel=st.sampled_from([{"type": "exponential"}, {"type": "gaussian"},
                                   _HAT]),
           p=st.sampled_from([1.5, 2.0, 3.0, 50.0]),
           tau=st.floats(-10.0, 0.0).map(lambda e: 10.0 ** e),
           h=st.floats(-8.0, 0.0).map(lambda e: 10.0 ** e))
    @example(kernel={"type": "exponential"}, p=2.0, tau=5e-9, h=1e-5)
    def contract(kernel, p, tau, h):
        cfg.write_text(json.dumps({"kernel": kernel, "firing": {"p": p, "tau": tau},
                                   "model": {"h": h}}))
        rc = run(["bounds", "--config", cfg, "--out", tmp_path / "out", "--quiet"])
        err = capsys.readouterr().err
        assert rc in (0, 1, 2) and err.count("\n") <= 1, err

    contract()


_HAT = {"type": "mexican_hat", "K": 3, "k": 2, "M": 1, "m": 1}


@pytest.mark.parametrize("overrides, rc, start", [
    ({"kernel": dict(_HAT, K=1e308)}, 2, "infeasible: assumptions not met: B_i_integrable"),
    ({"kernel": dict(_HAT, K=1.7e308)}, 2, "infeasible: assumptions not met: B_i_integrable"),
    ({"kernel": dict(_HAT, k=1e308)}, 2, "infeasible: assumptions not met: B_ii_bounded"),
], ids=["K=1e308", "K=1.7e308", "k=1e308"])
def test_overflowing_config_prints_one_line(tmp_path, capsys, overrides, rc, start):
    # kernel samples whose mass, difference quotients or exponents overflow:
    # one line, no traceback and no numpy warning
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**REFERENCE_CFG, "grid": {}, **overrides}))
    assert run(["bounds", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == rc
    err = capsys.readouterr().err
    assert err.startswith(start) and err.count("\n") == 1, err


def test_overflowing_table_prints_one_line(tmp_path, capsys):
    # a finite table whose neighbouring samples sum past the float maximum:
    # its mass is inf, as the check's own, and no numpy warning is printed
    (tmp_path / "kernel.csv").write_text("-1,1e308\n0,1.7e308\n1,1e308\n")
    cfg = write_cfg(tmp_path, {"kernel": {"type": "tabulated", "csv": "kernel.csv"}})
    assert run(["certify", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible: assumptions not met: ") and err.count("\n") == 1, err


_INF_B_I = {"B_i_integrable": ("margin", "witness"), "B_ii_bounded_continuous": ("margin",)}


@pytest.mark.parametrize("K, nulls", [
    (1e308, _INF_B_I),
    (1.7e308, dict(_INF_B_I, B_v_mass_exceeds_h_plus_tau=("margin", "witness"),
                   thmB_i_deriv_bounded=("witness",))),
], ids=["K=1e308", "K=1.7e308"])
def test_report_writes_infinite_values_as_null(tmp_path, capsys, K, nulls):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**REFERENCE_CFG, "grid": {}, "kernel": dict(_HAT, K=K)}))
    out = tmp_path / "out"
    assert run(["certify", "--config", cfg, "--out", out, "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("infeasible: ")
    assert [p.name for p in out.glob("*.json")] == ["report.json"]
    conditions = {c["name"]: c for c in strict_json(out / "report.json")["conditions"]}
    assert all(conditions[name][key] is None for name, keys in nulls.items() for key in keys)


@pytest.mark.parametrize("number, literal, key", [
    ('"h": 0.1', '"h": NaN', "at h: nan"),
    ('"t_end": 5.0', '"t_end": Infinity', "at t_end: inf"),
    ('"delta": 0.001', '"delta": 1e999', "at delta: inf"),
    ('"h": 0.1', '"h": 1' + "0" * 399, "at h: inf"),
    ('"t_end": 5.0', '"t_end": -1' + "0" * 4999, "at t_end: -inf"),
], ids=["NaN", "Infinity", "overflow", "400-digit int", "5000-digit int"])
def test_non_finite_number_exit_1(tmp_path, capsys, number, literal, key):
    cfg = write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace(number, literal))
    assert run(["certify", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 1
    assert capsys.readouterr().err == f"config error: {cfg}: {key} is not a finite number\n"
    assert not (tmp_path / "out").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_config_certifies(tmp_path):
    # the first JSON block after the CLI heading
    cli_section = README.read_text().split("\n## CLI\n", 1)[1]
    example = re.search(r"```json\n(.*?)```", cli_section, re.S).group(1)
    cfg = tmp_path / "run.json"
    cfg.write_text(example)
    out = tmp_path / "out"
    assert run(["certify", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = json.loads((out / "run_report.json").read_text())
    assert report["stationary_bump_verified"]["value"]
    assert report["instability_verified"]["value"]


def test_readme_names_only_schema_keys():
    # every backticked section.key with a lower-case key is a key of the
    # schema, or a former key the README says is unknown now
    text = README.read_text()
    former = re.search(r"The former keys .*? are unknown keys now\.", text, re.S).group(0)
    former_keys = set(re.findall(r"`(\w+\.\w+)`", former))
    schema = cli._schema()["properties"]
    keys = {f"{s}.{k}" for s, spec in schema.items() for k in spec["properties"]}
    sections = set(schema) | {key.split(".")[0] for key in former_keys}
    named = {f"{s}.{k}" for span in re.findall(r"`([^`\n]+)`", text)
             for s, k in re.findall(r"\b(\w+)\.(\w+)\b", span)
             if s in sections and k.islower() and k != "json"}
    assert len(named) > 10
    assert named <= keys | former_keys, sorted(named - keys - former_keys)


def test_readme_artifact_table_lists_each_commands_files():
    # the table's rows are STAGE_FILES, plus certify's own run_report.json
    text = README.read_text().split("\n### Artifacts\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([\w.]+)` \|", text, re.M)
    files = [(command, name) for command, names in STAGE_FILES.items() for name in names]
    assert rows == files + [("certify", "run_report.json")]
