"""The length symmetry of the neural field equation as an exact oracle.

Stretching the kernel by s, omega_s(x) = omega(x / s) / s, stretches the bump,
u_s(x) = u(x / s), and keeps its spectrum.  On a fixed ``grid.n`` the discrete
problem keeps the symmetry too, up to rounding and the absolute bisection
tolerance: a certify of the twin must give the same verdicts and eigenvalue,
and lengths s times as long.  The mexican hat is closed under the stretch,
(K, k, M, m) -> (K/s, k/s^2, M/s, m/s^2), and so is a table whose x column is
scaled by s and whose values by 1/s.
"""

import json

import numpy as np
import pytest

from neurofield.bounds import BISECT_TOL
from neurofield.cli import main

#: the stretches each family is certified at, beside s = 1
SCALES = (0.25, 4.0)

#: the sections every twin shares: h = tau = 0.1, p = 2, n = 200, delta = 1e-4
COMMON = {"firing": {"p": 2.0, "tau": 0.1}, "model": {"h": 0.1}, "grid": {"n": 200},
          "dynamics": {"delta": 1e-4}}


def mexican_hat(tmp_path, s: float) -> dict:
    return {"type": "mexican_hat", "K": 3.0 / s, "k": 2.0 / s ** 2,
            "M": 1.0 / s, "m": 1.0 / s ** 2}


def gaussian_table(tmp_path, s: float) -> dict:
    """exp(-x^2) on 1,201 rows of [-6, 6], stretched by s."""
    x = np.linspace(-6.0, 6.0, 1201)
    name = f"gaussian-{s}.csv"
    np.savetxt(tmp_path / name, np.column_stack([s * x, np.exp(-x ** 2) / s]),
               fmt="%.17g", delimiter=",")
    return {"type": "tabulated", "csv": name}


def certify(tmp_path, family, s: float) -> tuple[int, dict]:
    """certify's exit code and run_report.json for the family's kernel stretched by s."""
    cfg = tmp_path / f"twin-{s}.json"
    cfg.write_text(json.dumps(dict(COMMON, kernel=family(tmp_path, s))))
    out = tmp_path / f"out-{s}"
    rc = main(["certify", "--config", str(cfg), "--out", str(out), "--quiet"])
    return rc, json.loads((out / "run_report.json").read_text())


@pytest.mark.parametrize("family", [mexican_hat, gaussian_table])
def test_length_twins_certify_alike(tmp_path, family):
    # measured: lambda agrees within 3.5e-15 relative and the growth rate
    # within 1.3e-13; delta_pm is off by at most 7.2e-13 absolute, and d and
    # L by at most 2.9e-12 relative.  BISECT_TOL bounds delta_pm absolutely,
    # so its error at s = 1/4 is up to 2.9e-11 relative
    rc, base = certify(tmp_path, family, 1.0)
    assert rc == 0
    for s in SCALES:
        rc_s, twin = certify(tmp_path, family, s)
        assert rc_s == rc, s
        assert twin["certificate"]["items"] == base["certificate"]["items"], s
        for verified in ("stationary_bump_verified", "instability_verified"):
            assert twin[verified]["value"] == base[verified]["value"], (s, verified)
        assert twin["certificate"]["spectral_radius"] == pytest.approx(
            base["certificate"]["spectral_radius"], rel=1e-10, abs=0), s
        assert twin["dynamics"]["growth_rate"] == pytest.approx(
            base["dynamics"]["growth_rate"], rel=1e-10, abs=0), s
        for delta in ("delta_minus", "delta_plus"):
            assert twin["bounds"][delta] == pytest.approx(
                s * base["bounds"][delta], rel=0, abs=(1 + s) * BISECT_TOL), (s, delta)
        assert twin["bounds"]["d"] == pytest.approx(s * base["bounds"]["d"], rel=1e-11, abs=0), s
        assert twin["fixedpoint"]["L"] == pytest.approx(
            s * base["fixedpoint"]["L"], rel=1e-11, abs=0), s
