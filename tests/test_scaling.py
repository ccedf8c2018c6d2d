"""The length and amplitude symmetries of the neural field equation as exact oracles.

Stretching the kernel by s, omega_s(x) = omega(x / s) / s, stretches the bump,
u_s(x) = u(x / s), and keeps its spectrum.  Scaling the kernel, h, tau and
delta by c scales the bump by c and keeps the spectrum and the escape run.  On
a fixed ``grid.n`` the discrete problem keeps both symmetries too, up to
rounding and the absolute tolerances: a certify of the twin must give the same
verdicts and eigenvalue, and lengths s times as long.  The mexican hat is
closed under both, (K, k, M, m) -> (cK/s, k/s^2, cM/s, m/s^2), and so is a
table whose x column is scaled by s and whose values by c/s.
"""

import json

import numpy as np
import pytest

from neurofield.bounds import BISECT_TOL
from neurofield.cli import main
from neurofield.grids import Grid
from neurofield.model import TabulatedKernel

#: the stretches each family is certified at, beside s = 1
SCALES = (0.25, 4.0)

#: the amplitudes each family is certified at, beside c = 1; c <= 0.1 turns
#: exit 0 into exit 2 on the remainder fit's absolute amplitudes
AMPLITUDES = (0.5, 2.0, 10.0)

def mexican_hat(tmp_path, s: float, c: float) -> dict:
    return {"type": "mexican_hat", "K": 3.0 * c / s, "k": 2.0 / s ** 2,
            "M": 1.0 * c / s, "m": 1.0 / s ** 2}


def gaussian_table(tmp_path, s: float, c: float, half_width: float = 6.0) -> dict:
    """exp(-x^2) on 200 rows per unit of [-half_width, half_width] (1,201 rows
    by default), stretched by s and scaled by c."""
    x = np.linspace(-half_width, half_width, int(200 * half_width) + 1)
    name = f"gaussian-{half_width}-{s}-{c}.csv"
    np.savetxt(tmp_path / name, np.column_stack([s * x, c * np.exp(-x ** 2) / s]),
               fmt="%.17g", delimiter=",")
    return {"type": "tabulated", "csv": name}


def wide_gaussian_table(tmp_path, s: float, c: float) -> dict:
    """exp(-x^2) on 2,401 rows of [-12, 12], stretched by s and scaled by c."""
    return gaussian_table(tmp_path, s, c, half_width=12.0)


def certify(tmp_path, family, s: float = 1.0, c: float = 1.0) -> tuple[int, dict]:
    """certify's exit code and run_report.json for the family's kernel
    stretched by s and scaled by c, at p = 2, n = 200 and h = tau = 0.1 c,
    delta = 1e-4 c."""
    cfg = tmp_path / f"twin-{s}-{c}.json"
    cfg.write_text(json.dumps({
        "kernel": family(tmp_path, s, c), "firing": {"p": 2.0, "tau": c * 0.1},
        "model": {"h": c * 0.1}, "grid": {"n": 200}, "dynamics": {"delta": c * 1e-4}}))
    out = tmp_path / f"out-{s}-{c}"
    rc = main(["certify", "--config", str(cfg), "--out", str(out), "--quiet"])
    return rc, json.loads((out / "run_report.json").read_text())


def assert_same_spectrum(twin: dict, base: dict, key, rel: float = 1e-10,
                         growth_rel: float = 1e-10) -> None:
    """Equal items and verdicts, lambda within rel and the growth rate within growth_rel."""
    assert twin["certificate"]["items"] == base["certificate"]["items"], key
    for verified in ("stationary_bump_verified", "instability_verified"):
        assert twin[verified]["value"] == base[verified]["value"], (key, verified)
    assert twin["certificate"]["spectral_radius"] == pytest.approx(
        base["certificate"]["spectral_radius"], rel=rel, abs=0), key
    assert twin["dynamics"]["growth_rate"] == pytest.approx(
        base["dynamics"]["growth_rate"], rel=growth_rel, abs=0), key


@pytest.mark.parametrize("family", [mexican_hat, gaussian_table])
def test_length_twins_certify_alike(tmp_path, family):
    # measured: lambda agrees within 3.5e-15 relative and the growth rate
    # within 1.3e-13; delta_pm is off by at most 7.2e-13 absolute, and d and
    # L by at most 2.9e-12 relative.  BISECT_TOL bounds delta_pm absolutely,
    # so its error at s = 1/4 is up to 2.9e-11 relative
    rc, base = certify(tmp_path, family)
    assert rc == 0
    for s in SCALES:
        rc_s, twin = certify(tmp_path, family, s=s)
        assert rc_s == rc, s
        assert_same_spectrum(twin, base, s)
        for delta in ("delta_minus", "delta_plus"):
            assert twin["bounds"][delta] == pytest.approx(
                s * base["bounds"][delta], rel=0, abs=(1 + s) * BISECT_TOL), (s, delta)
        assert twin["bounds"]["d"] == pytest.approx(s * base["bounds"]["d"], rel=1e-11, abs=0), s
        assert twin["fixedpoint"]["L"] == pytest.approx(
            s * base["fixedpoint"]["L"], rel=1e-11, abs=0), s


@pytest.mark.parametrize("family", [mexican_hat, gaussian_table])
def test_amplitude_twins_certify_alike(tmp_path, family):
    # measured: lambda agrees within 2.8e-15 relative and the growth rate
    # within 2.5e-13; delta_pm and d are equal.  L is not compared: the
    # absolute TAIL_TOL on omega * 2d lengthens the line with c (on the
    # mexican hat from 5.25 at c = 0.5 to 5.56 at c = 10)
    rc, base = certify(tmp_path, family)
    assert rc == 0
    for c in AMPLITUDES:
        rc_c, twin = certify(tmp_path, family, c=c)
        assert rc_c == rc, c
        assert_same_spectrum(twin, base, c)
        for key in ("delta_minus", "delta_plus", "d"):
            assert twin["bounds"][key] == pytest.approx(
                base["bounds"][key], rel=0, abs=BISECT_TOL), (c, key)


def test_table_a_thousand_times_taller_certifies_alike(tmp_path):
    # x[i] and -x[-1 - i] of the x column differ in the last bit, so the
    # samples of exp(-x^2) times 1e3 are mirror images only within 1.6e-12,
    # and symmetry is judged up to 1e-12 * max(1, max|omega|).  Measured:
    # lambda agrees within 3.7e-10 relative, limited by the absolute
    # NEWTON_TOL, and the growth rate within 2.2e-8
    rc, base = certify(tmp_path, wide_gaussian_table)
    rc_c, twin = certify(tmp_path, wide_gaussian_table, c=1e3)
    assert rc == rc_c == 0
    assert_same_spectrum(twin, base, 1e3, rel=1e-9, growth_rel=1e-7)
    # one sample off by ten times that tolerance is still refused
    x = np.linspace(-12.0, 12.0, 2401)
    values = 1e3 * np.exp(-x ** 2)
    values[1000] += 1e-8
    with pytest.raises(ValueError, match="not symmetric about 0"):
        TabulatedKernel(Grid(-12.0, 12.0, 2400), values)
