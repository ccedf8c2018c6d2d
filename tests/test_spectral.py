import math

import numpy as np
import pytest

from conftest import H, TAU, P
from neurofield.bounds import build_bounds, solve_sandwich
from neurofield.errors import NoConvergence
from neurofield.fixedpoint import (OperatorContext, extend_bump, make_extension_grid,
                                   solve_third_fixed_point)
from neurofield.grids import Grid, Profile
from neurofield.model import ExponentialKernel, GaussianKernel, MexicanHatKernel, RatioFiring
from neurofield.spectral import (Linearization, instability_certificate, lanczos,
                                 remainder_exponent_fit,
                                 spectra_equivalence_check, spectral_radius,
                                 translation_mode_check)
from oracles import (dense_eigenvalues, dense_linearization,
                     kernel_derivative_profile, power_iteration, spectra_deviation)


def test_linearization_zero_profile(ref_ctx):
    # below-threshold profile has zero gain everywhere
    lin = Linearization(ref_ctx, Profile(ref_ctx.grid,
                                         np.zeros(ref_ctx.grid.n_nodes)))
    assert lin.support.size == 0
    assert np.all(dense_linearization(lin) == 0.0)
    assert lin.eigenvalues().size == 0


def test_linearization_structure(ref_lin, ref_fp):
    assert np.all(ref_lin.gains >= 0.0)
    M = dense_linearization(ref_lin)
    # columns off the supra-threshold support vanish
    off = np.setdiff1d(np.arange(M.shape[1]), ref_lin.support)
    if off.size:
        assert np.max(np.abs(M[:, off])) == 0.0
    rng = np.random.default_rng(5)
    v = rng.normal(size=M.shape[1])
    assert np.max(np.abs(ref_lin.matvec(v) - M @ v)) < 1e-12


def test_eigenvalues_match_dense(ref_lin):
    # the symmetrized support block has the spectrum of the full matrix, and
    # Lanczos finds its top eigenvalues
    ev_sym = dense_eigenvalues(ref_lin)
    ev_dense = np.linalg.eigvals(dense_linearization(ref_lin))
    ev_dense = np.sort(ev_dense.real[np.abs(ev_dense) > 1e-8])[::-1]
    top = ev_sym[:len(ev_dense)]
    assert np.max(np.abs(top - ev_dense) / np.abs(ev_dense)) < 1e-8
    ev = ref_lin.eigenvalues()
    assert len(ev) == 5
    assert np.max(np.abs(ev - ev_dense[:5]) / np.abs(ev_dense[:5])) < 1e-8


def test_rank_one_oracle(ref_model):
    # constant kernel stub: M = m * ones weighted, single eigenvalue = total mass
    class FlatKernel:
        def __call__(self, x):
            return np.full_like(np.asarray(x, dtype=float), 0.25)

        def deriv(self, x):
            return np.zeros_like(np.asarray(x, dtype=float))

        def positive_radius(self):
            return math.inf

    _, firing, h = ref_model
    g = Grid(-1.0, 1.0, 100)
    ctx = OperatorContext(FlatKernel(), firing, h, g)
    u = Profile(g, np.full(g.n_nodes, H + TAU / 2.0))  # gain p/tau = 10
    lin = Linearization(ctx, u)
    # rank one: single nonzero eigenvalue 0.25 * 10 * 2; Lanczos breaks down
    # after one step and finds the repeated zero from new start vectors
    for ev in (lin.eigenvalues(), dense_eigenvalues(lin)):
        assert ev[0] == pytest.approx(5.0, rel=1e-12)
        assert np.max(np.abs(ev[1:])) < 1e-10
    assert len(lin.eigenvalues()) == 5


def test_lanczos_top_k_matches_eigvalsh(kernel_setup):
    # the top 5 by magnitude of the full dense spectrum, on [-d, d] and on the
    # whole working line
    for lin in (kernel_setup["lin"], kernel_setup["lin_big"]):
        full = dense_eigenvalues(lin)
        want = np.sort(full[np.argsort(np.abs(full))[::-1][:5]])[::-1]
        got = lin.eigenvalues(5)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_top_k_above_support_lists_whole_spectrum(coarse_setup):
    # k is capped at the support size: every support eigenvalue of the
    # linearization at the whole-line bump
    lin = Linearization(coarse_setup["ctx_big"], coarse_setup["u_tilde"])
    got = lin.eigenvalues(10**6)
    want = dense_eigenvalues(lin)
    assert got.shape == want.shape
    assert np.max(np.abs(np.sort(got) - np.sort(want))) <= 1e-12 * want[0]


def test_top_k_includes_odd_translation_eigenvalue(kernel_setup, ref_lin, ref_lin_big):
    # u' is odd, so its eigenvalue 1 is missed by Lanczos from an even start
    # vector: the support and s = sqrt(w g) are mirror-symmetric
    for lin in (kernel_setup["lin"], kernel_setup["lin_big"], ref_lin, ref_lin_big):
        ev = lin.eigenvalues(2)
        full = dense_eigenvalues(lin)
        assert abs(ev[1] - 1.0) < 1e-3
        assert abs(ev[1] - full[np.argmin(np.abs(full - 1.0))]) <= 1e-12


def test_lanczos_breakdown_and_repeated_eigenvalues():
    # 2 P + 0.5 e e^T with P a rank-3 projector and e orthogonal to its range:
    # eigenvalues 2, 2, 2, 0.5, then zeros; each Krylov block breaks down
    # after finding 2, 0.5 and 0 once
    rng = np.random.default_rng(11)
    basis, _ = np.linalg.qr(rng.normal(size=(40, 4)))
    A = 2.0 * basis[:, :3] @ basis[:, :3].T + 0.5 * np.outer(basis[:, 3], basis[:, 3])
    got = lanczos(lambda x: A @ x, 40, 6)[0]
    assert np.allclose(got, [2.0, 2.0, 2.0, 0.5, 0.0, 0.0], atol=1e-12)
    # an exact breakdown (a zero Lanczos residual) at every step
    assert np.array_equal(lanczos(lambda x: 0.0 * x, 8, 3)[0], np.zeros(3))
    # more steps than the first block of 64 basis rows holds
    diag = np.linspace(2.0, -1.0, 80)
    assert np.allclose(lanczos(lambda x: diag * x, 80, 80)[0], diag, atol=1e-12)
    # k above the dimension returns the whole spectrum
    small = np.diag([3.0, -1.0, 2.0])
    values, top = lanczos(lambda x: small @ x, 3, 5)
    assert np.allclose(values, [3.0, 2.0, -1.0], atol=1e-14)
    # the top Ritz vector is the unit vector of the diagonal entry 3
    assert np.allclose(np.abs(top), [1.0, 0.0, 0.0], atol=1e-14)


def test_lanczos_large_k_solves_few_tridiagonals(monkeypatch):
    # Ritz pairs are computed from step k on, every k // 4 steps, so a k near
    # the dimension costs a few dense eigensolves of the tridiagonal
    eigh = np.linalg.eigh
    sizes = []

    def counted(a):
        sizes.append(len(a))
        return eigh(a)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    diag = np.linspace(3.0, -1.0, 200)
    for k, most in ((10**6, 1), (200, 1), (100, 5)):
        sizes.clear()
        got = lanczos(lambda x: diag * x, 200, k)[0]
        want = diag[np.argsort(np.abs(diag))[::-1][:k]]
        assert np.allclose(got, np.sort(want)[::-1], atol=1e-12)
        assert len(sizes) <= most and min(sizes) >= min(k, 200)


def test_spectral_radius_reference(ref_power):
    lam, vec = ref_power
    assert lam == pytest.approx(4.2369, abs=1e-3)
    v = vec.values
    assert np.max(np.abs(v)) == pytest.approx(1.0)
    assert np.min(v) * np.max(v) >= -1e-10


def test_power_iteration_matches_dense_small(coarse_setup):
    ctx = coarse_setup["ctx"]
    fp = coarse_setup["fp"]
    lin = Linearization(ctx, fp.u_star)
    lam, _ = spectral_radius(lin, *lin.eigensolve(1))
    assert abs(lam - dense_eigenvalues(lin)[0]) <= 1e-8 * lam


def test_power_iteration_stall_on_zero(ref_ctx):
    lin = Linearization(ref_ctx, Profile(ref_ctx.grid,
                                         np.zeros(ref_ctx.grid.n_nodes)))
    with pytest.raises(NoConvergence):
        spectral_radius(lin, *lin.eigensolve(1))


def test_spectral_radius_matches_power_iteration(kernel_setup):
    # the top Ritz pair extended to the whole line is the pair that power
    # iteration from the constant vector settles on
    lin = kernel_setup["lin_big"]
    lam, vec = spectral_radius(lin, *lin.eigensolve(5))
    lam_power, vec_power = power_iteration(lin)
    assert abs(lam - lam_power) <= 1e-12 * lam_power
    assert np.max(np.abs(vec.values - vec_power.values)) <= 1e-12


def test_spectral_radius_meets_the_residual_gate(kernel_setup):
    lin = kernel_setup["lin_big"]
    eigs, y = lin.eigensolve(5)
    lam, vec = spectral_radius(lin, eigs, y)
    v = vec.values
    assert lam == eigs[0] and v[np.argmax(np.abs(v))] == 1.0 == np.max(np.abs(v))
    assert np.max(np.abs(lin.matvec(v) - lam * v)) <= 1e-10 * max(lam, 1.0)
    # an eigenvalue off by 1e-8 relative fails the gate
    with pytest.raises(NoConvergence, match="residual"):
        spectral_radius(lin, eigs * (1.0 + 1e-8), y)
    # so does a top eigenvalue that a negative one outweighs
    with pytest.raises(NoConvergence, match="dominates"):
        spectral_radius(lin, np.array([eigs[0], -2.0 * eigs[0]]), y)


def test_translation_mode(ref_ctx_big, ref_u_tilde, ref_lin_big, ref_fp, ref_lin):
    resid = translation_mode_check(ref_lin_big, ref_u_tilde)
    assert resid <= 5e-3
    # eigenvalue 1 sits in the spectrum
    ev = ref_lin_big.eigenvalues()
    assert np.min(np.abs(ev - 1.0)) < 1e-6
    # certify's check on the embedded [-d, d] nodes reads the whole-line
    # value, and the value of the context on [-d, d] itself
    window = translation_mode_check(ref_lin_big, ref_fp.u_star)
    assert abs(window - resid) <= 1e-13
    assert abs(window - translation_mode_check(ref_lin, ref_fp.u_star)) <= 1e-13


@pytest.mark.parametrize("kernel", [ExponentialKernel(), GaussianKernel(),
                                    MexicanHatKernel(3.0, 2.0, 1.0, 1.0)],
                         ids=["exponential", "gaussian", "mexican_hat"])
def test_translation_mode_derivative(kernel):
    # the u' that the check sends through the linearization is odd, and the
    # central difference of the whole-line bump is within dx^2 / 2 of the
    # exact omega' * w f(u - h) on the interior nodes of [-d, d]
    firing, h = RatioFiring(P, 0.1), 0.1
    sandwich = solve_sandwich(kernel, h, firing.tau)
    for n in (200, 800, 3200):
        bb = build_bounds(kernel, sandwich, n)
        ctx = OperatorContext(kernel, firing, h, make_extension_grid(kernel, bb.grid))
        u_star = solve_third_fixed_point(ctx, bb, tol=1e-12).u_star
        lin = Linearization(ctx, extend_bump(ctx, u_star))
        sources = []

        def spy(v, lo):
            sources.append(v)
            return Linearization.matvec(lin, v, lo)
        lin.matvec = spy
        assert translation_mode_check(lin, u_star) <= 5e-3
        (source,) = sources
        up = source[1:-1]
        assert source[0] == source[-1] == 0.0 and len(up) == n - 1
        assert np.max(np.abs(up + up[::-1])) <= 1e-12
        exact = kernel_derivative_profile(ctx, u_star).values[1:-1]
        assert np.max(np.abs(up - exact)) <= 0.5 * bb.grid.dx ** 2


def test_spectra_equivalence(ref_lin, ref_lin_big):
    dev, count = spectra_deviation(ref_lin.eigenvalues(),
                                   ref_lin_big.eigenvalues(), 5)
    assert count == 5
    assert dev <= 1e-6


def test_spectra_equivalence_oversized_k(ref_lin, ref_lin_big):
    dev, count = spectra_deviation(ref_lin.eigenvalues(),
                                   ref_lin_big.eigenvalues(), 10_000)
    assert count <= ref_lin.support.size
    assert count > 0


def test_spectra_equivalence_premises(ref_lin, ref_lin_big, ref_fp):
    # the support of f'(u - h) is nodes 130-670 of the 0-800 embedded ones,
    # and u* - h = -0.0395 at +-d; a context on [-d, d] itself reads the same
    support_margin, edge_margin = spectra_equivalence_check(ref_lin_big, ref_fp.u_star)
    assert support_margin == 130.0
    assert edge_margin == pytest.approx(0.0395, abs=1e-4)
    assert spectra_equivalence_check(ref_lin, ref_fp.u_star) == (support_margin,
                                                                  edge_margin)


def test_spectra_equivalence_premises_can_fail(ref_ctx_big, ref_u_tilde, ref_lin_big,
                                               ref_fp, ref_power):
    lam, vec = ref_power

    def premise_item(lin, u_star):
        margins = spectra_equivalence_check(lin, u_star)
        cert = instability_certificate(lam, vec, lin.support, 1e-5, 1.96, 1.0, *margins)
        return margins, cert["items"]["spectra_equivalence"]
    # raised by 0.05, the bump's support reaches past +-d, and u* > h there
    raised = Linearization(ref_ctx_big, Profile(ref_ctx_big.grid, ref_u_tilde.values + 0.05))
    u_raised = Profile(ref_fp.u_star.grid, ref_fp.u_star.values + 0.05)
    (support_margin, edge_margin), ok = premise_item(raised, u_raised)
    assert support_margin <= 0.0 and edge_margin < 0.0 and not ok
    # saturated at +-d, where f' vanishes again: the support stays inside
    saturated = ref_fp.u_star.values.copy()
    saturated[[0, -1]] = 1.0
    (support_margin, edge_margin), ok = premise_item(
        ref_lin_big, Profile(ref_fp.u_star.grid, saturated))
    assert support_margin == 130.0 and edge_margin < 0.0 and not ok


def test_remainder_exponent(ref_ctx_big, ref_lin_big, ref_power):
    _, vec_small = ref_power
    direction = Profile(ref_ctx_big.grid,
                        ref_power[1].values / np.max(np.abs(ref_power[1].values)))
    slope, norms = remainder_exponent_fit(ref_lin_big, direction)
    # p = 2 gives mu = 1, so the remainder is quadratic
    assert slope == pytest.approx(2.0, abs=0.1)
    assert np.all(np.diff(norms) > 0.0)


def test_certificate_pass(ref_power, ref_lin_big):
    lam, vec = ref_power
    cert = instability_certificate(lam, vec, ref_lin_big.support, 1e-5, 1.96, 1.0,
                                   130.0, 0.04)
    assert cert["verdict"] == "pass"
    assert all(cert["items"].values())
    assert cert["instability_margin"] == pytest.approx(lam - 1.0)
    assert (cert["support_margin"], cert["edge_margin"]) == (130.0, 0.04)


def test_certificate_fail_modes(ref_power, ref_lin_big):
    _, vec = ref_power
    support = ref_lin_big.support
    assert instability_certificate(0.9, vec, support, 1e-5, 1.96, 1.0,
                                   130.0, 0.04)["verdict"] == "fail"
    assert instability_certificate(4.0, vec, support, 0.1, 1.96, 1.0,
                                   130.0, 0.04)["verdict"] == "fail"
    assert instability_certificate(4.0, vec, support, 1e-5, 1.2, 1.0,
                                   130.0, 0.04)["verdict"] == "fail"
    # a support that reaches +-d, or u* above h there
    for margins in ((0.0, 0.04), (130.0, -1e-3)):
        cert = instability_certificate(4.0, vec, support, 1e-5, 1.96, 1.0, *margins)
        assert cert["verdict"] == "fail"
        assert not cert["items"]["spectra_equivalence"]
    # sin changes sign inside the support
    mixed = Profile(vec.grid, np.sin(vec.grid.nodes()))
    assert not instability_certificate(4.0, mixed, support, 1e-5, 1.96, 1.0, 130.0,
                                       0.04)["items"]["principal_vector_one_signed"]
    # negative only off the support, as an inhibitory lobe pulls it: one-signed
    lobed = vec.values.copy()
    lobed[np.setdiff1d(np.arange(len(lobed)), support)] = -0.1
    assert instability_certificate(4.0, Profile(vec.grid, lobed), support, 1e-5, 1.96,
                                   1.0, 130.0, 0.04)["items"]["principal_vector_one_signed"]


def test_certificate_not_applicable(ref_ctx):
    zero = Profile(ref_ctx.grid, np.zeros(ref_ctx.grid.n_nodes))
    cert = instability_certificate(0.0, zero, np.zeros(0, dtype=int), 0.0, 0.0, 1.0,
                                   0.0, 0.0)
    assert cert["verdict"] == "not-applicable"


def test_certificate_json_round_trip(ref_power, ref_lin_big):
    import json
    lam, vec = ref_power
    cert = instability_certificate(lam, vec, ref_lin_big.support, 1e-5, 1.96, 1.0,
                                   130.0, 0.04)
    again = json.loads(json.dumps(cert))
    assert again["verdict"] == cert["verdict"]
