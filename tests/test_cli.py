import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import neurofield
from neurofield import cli
from neurofield.cli import main
from neurofield.fixedpoint import (SPECTRUM_CACHE_SIZE, STEP_WINDOW_SHARE,
                                   WINDOW_BLOCK, OperatorContext)
from neurofield.model import ExponentialKernel, GaussianKernel
from neurofield.spectral import Linearization
from oracles import dense_eigenvalues

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


def test_simulate_requires_cached_stages(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", out, "--quiet"]) == 1


def test_simulate_rejects_stale_cache(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run(["spectrum", "--config", cfg, "--out", out, "--quiet"]) == 0
    # different grid invalidates the cached spectrum
    cfg2 = write_cfg(tmp_path, {"grid": {"n": 300}}, name="cfg2.json")
    assert run(["simulate", "--config", cfg2, "--out", out, "--quiet"]) == 1


def test_certify_full_pipeline(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run(["certify", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = json.loads((out / "run_report.json").read_text())
    assert report["stationary_bump_verified"]["value"]
    assert report["instability_verified"]["value"]
    for name in ("report.json", "bounds.json", "fixedpoint.json",
                 "certificate.json", "dynamics.json", "trajectory.csv",
                 "u_star.csv", "u_tilde.csv", "principal.csv", "spectrum.csv"):
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
    for name in ("u_star.csv", "u_tilde.csv", "trajectory.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_certify_delta_too_large_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"dynamics": {"delta": 0.01, "epsilon_ball": 0.05}})
    assert run(["certify", "--config", cfg, "--out", tmp_path / "out",
                "--quiet"]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "dynamics.delta" in err
    assert "epsilon_ball = 0.05" in err


def child_env():
    """The environment with this neurofield first on PYTHONPATH."""
    src = str(Path(neurofield.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_loads_no_scipy():
    # jsonschema is imported by load_config, which --version and --help skip
    code = ("import sys, neurofield.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'jsonschema')))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_nonsmooth_firing_exit_1(tmp_path):
    cfg = write_cfg(tmp_path, {"firing": {"p": 0.5, "tau": 0.2}})
    assert run(["solve", "--config", cfg, "--out", tmp_path / "out",
                "--quiet"]) == 1


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


def test_grid_n_override(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run(["bounds", "--config", cfg, "--out", out, "--grid-n", "100",
                "--quiet"]) == 0
    payload = json.loads((out / "bounds.json").read_text())
    assert payload["n"] == 100


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
    # one Lanczos eigensolve per grid: the power iteration's cross-check and
    # the spectra comparison share the big grid's eigenvalues
    solved = []
    eigenvalues = Linearization.eigenvalues

    def counted(self, *args):
        solved.append(self.grid.n_nodes)
        return eigenvalues(self, *args)
    monkeypatch.setattr(Linearization, "eigenvalues", counted)
    cfg = write_cfg(tmp_path, {"grid": {"n": grid_n}})
    assert run(["certify", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 0
    assert len(solved) == 2 and solved[0] != solved[1]


def test_certify_builds_one_big_grid_spectrum(tmp_path, monkeypatch):
    # the bump feeds T through its supra-threshold window only; every T on the
    # whole extension grid (extend, power iteration, remainder fit, the RK4
    # step's one whole-line convolution and its exactness bound) shares it,
    # and the RK4 stages add one spectrum onto their step window
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
    whole = [key for n, key in built if n == big_n and key[2] == big_n]
    assert len(whole) == 1
    lo, hi, _ = whole[0]
    # the bump's window, not widened to the whole grid
    assert 3 * (hi - lo + 1) <= big_n + 1
    stages = [key for n, key in built if n == big_n and key[2] != big_n]
    assert len(stages) == 1
    # the same source window onto the step window, the bump's window widened
    # by a block on each side, counted from the step window's first node
    width = hi - lo + 2 * WINDOW_BLOCK
    assert stages[0] == (WINDOW_BLOCK, hi - lo + WINDOW_BLOCK, width)
    assert STEP_WINDOW_SHARE * (width + 1) <= big_n + 1
    # on [-d, d] the window covers most of the grid, which keeps one spectrum
    assert [key for n, key in built if n == 800] == [(0, 800, 800)]
    assert all(len(ctx._spectra) <= SPECTRUM_CACHE_SIZE for ctx in contexts)


def test_stage_commands_match_certify(tmp_path):
    # the standalone simulate reads u_tilde and the principal vector back from
    # CSV; certify passes them in memory; both must write the same bytes
    cfg = write_cfg(tmp_path)
    staged, certified = tmp_path / "staged", tmp_path / "certified"
    for command in ("check", "bounds", "solve", "spectrum", "simulate"):
        assert run([command, "--config", cfg, "--out", staged, "--quiet"]) == 0
    assert run(["certify", "--config", cfg, "--out", certified, "--quiet"]) == 0
    names = sorted(p.name for p in staged.iterdir())
    assert len(names) == 11
    for name in names:
        assert (staged / name).read_bytes() == (certified / name).read_bytes(), name


def test_certify_no_escape_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"dynamics": {"t_end": 0.1}})
    assert run(["certify", "--config", cfg, "--out", tmp_path / "out", "--quiet"]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("error: deviation never reached")


def test_certify_large_grid_without_dense_blocks(tmp_path, monkeypatch):
    # 4,201 nodes on [-d, d]: Newton, the eigensolves and the kernel
    # derivative run matrix-free, so no dense block or n-sized solve is built
    def refuse(*args, **kwargs):
        raise AssertionError("dense operator requested")
    monkeypatch.setattr(OperatorContext, "kernel_matrix", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run(["certify", "--config", cfg, "--out", out, "--grid-n", "4200",
                "--quiet"]) == 0
    report = json.loads((out / "run_report.json").read_text())
    assert report["bounds"]["n"] == 4200
    assert report["stationary_bump_verified"]["value"]
    assert report["instability_verified"]["value"]


def test_certify_top_k_above_support_lists_whole_spectrum(tmp_path, coarse_setup):
    # top_k is capped at the support size: spectrum.csv holds every support
    # eigenvalue of the linearization on [-d, d]
    cfg = write_cfg(tmp_path, {"spectral": {"top_k": 10**6}})
    out = tmp_path / "out"
    assert run(["certify", "--config", cfg, "--out", out, "--quiet"]) == 0
    got = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=1)[:, 1]
    want = dense_eigenvalues(Linearization(coarse_setup["ctx"],
                                           coarse_setup["fp"].u_star))
    assert got.shape == want.shape
    assert np.max(np.abs(np.sort(got) - np.sort(want))) <= 1e-12 * want[0]


def test_certify_imports_no_scipy(tmp_path):
    cfg = write_cfg(tmp_path, {"grid": {"n": 100}})
    script = ("import sys\n"
              "from neurofield.cli import main\n"
              f"rc = main(['certify', '--config', {str(cfg)!r}, '--out', "
              f"{str(tmp_path / 'out')!r}, '--quiet'])\n"
              "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=child_env(), check=True)
    assert proc.stdout.split() == ["0", "[]"]


def test_certify_tabulated_kernel_stays_in_its_table(tmp_path):
    # the Gaussian table ends at 2a = 12: the check probes inside it.  The
    # exponential table still reads 3e-6 at its edge, so the tail search stops
    # there and the extension grid's lag lines reach past it, where the table
    # is 0 by definition.  Neither certify process warns, and both pass.
    x = np.linspace(-12.0, 12.0, 2401)
    for kernel, dynamics in ((GaussianKernel(), {"epsilon_ball": 0.05}),
                             (ExponentialKernel(), {})):
        work = tmp_path / kernel.tag
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
        table = cli.build_kernel(cli.load_config(cfg), work)
        assert report["a"] == table.positive_radius() == 6.0
        run_report = json.loads((work / "out" / "run_report.json").read_text())
        assert run_report["stationary_bump_verified"]["value"] is True
        assert run_report["instability_verified"]["value"] is True


def test_simulate_rejects_edited_kernel_csv(tmp_path, capsys):
    # the table ends at 2a = 12; no stage after the check reads beyond it
    x = np.linspace(-12.0, 12.0, 2401)
    table = np.column_stack([x, GaussianKernel()(x)])
    np.savetxt(tmp_path / "kernel.csv", table, delimiter=",", fmt="%.17g")
    cfg = write_cfg(tmp_path, {"kernel": {"type": "tabulated", "csv": "kernel.csv"},
                               "dynamics": {"epsilon_ball": 0.05}})
    out = tmp_path / "out"
    for command in ("solve", "spectrum", "simulate"):
        assert run([command, "--config", cfg, "--out", out, "--quiet"]) == 0
    # same path, new content: the cached u_tilde and principal vector are stale
    table[:, 1] *= 1.2
    np.savetxt(tmp_path / "kernel.csv", table, delimiter=",", fmt="%.17g")
    assert run(["simulate", "--config", cfg, "--out", out, "--quiet"]) == 1
    assert "stage dependency" in capsys.readouterr().err


def test_config_hash_of_analytic_kernels_covers_sections_only(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run(["check", "--config", cfg, "--out", out, "--quiet"]) == 0
    sections = {s: BASE_CFG[s] for s in ("kernel", "firing", "model")}
    expected = hashlib.sha256(json.dumps(sections, sort_keys=True).encode()).hexdigest()[:16]
    assert json.loads((out / "report.json").read_text())["config_hash"] == expected


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
    {"output": {"precision": 2.5}},
])
def test_invalid_config_message_matches_jsonschema_validate(tmp_path, capsys, overrides):
    from jsonschema import ValidationError, validate
    cfg = write_cfg(tmp_path, overrides)
    try:
        validate(json.loads(cfg.read_text()), json.loads(cli.SCHEMA_PATH.read_text()))
    except ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        expected = f"config error: {cfg}: at {where}: {exc.message}"
    else:
        pytest.fail("config unexpectedly valid")
    assert run(["check", "--config", cfg, "--quiet"]) == 1
    assert capsys.readouterr().err.splitlines() == [expected]


@pytest.mark.parametrize("precision", [17, 6])
def test_write_csv_matches_per_value_formatting(tmp_path, precision):
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
        cli.write_csv(tmp_path / "t.csv", header, cols, precision)
        fmt = f"%.{precision}g"
        lines = [",".join(header)] + [",".join(fmt % v for v in row) for row in zip(*cols)]
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
    None, "x,value\n0.0,abc\n", "0.0,1.0\n",
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
