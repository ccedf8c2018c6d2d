import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import neurofield
from neurofield.cli import main

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


def test_cli_import_loads_no_scipy():
    src = str(Path(neurofield.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, neurofield.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
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
