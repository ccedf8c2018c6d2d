"""Nystrom linearization of the Hammerstein operator at a profile, dominant
eigenpair, translation-mode certificate, and the nonlinear remainder exponent."""

from __future__ import annotations

import numpy as np

from .errors import GridMisaligned, PowerIterationStall
from .fixedpoint import OperatorContext, embed_offset
from .grids import Grid, Profile

#: relative threshold below which a discrete eigenvalue counts as "zero"
#: (compact-operator spectra accumulate only at 0)
ZERO_EIG_REL = 1e-10


class Linearization:
    """The linear integral operator with kernel omega(x - y) f'(u(y) - h).

    Discretized as M[i, j] = w_j omega(x_i - x_j) g_j with g_j = f'(u_j - h)
    >= 0.  Columns with g_j = 0 vanish, so the nonzero spectrum lives on the
    support submatrix; that submatrix is similar to a symmetric one via
    conjugation with diag(sqrt(w g)), which the eigensolvers exploit.
    """

    def __init__(self, ctx: OperatorContext, u: Profile):
        if u.grid != ctx.grid:
            raise GridMisaligned("profile does not live on the operator grid")
        self.ctx = ctx
        self.grid = ctx.grid
        self.weights = ctx.weights
        self.gains = np.asarray(ctx.firing.deriv(u.values - ctx.params.h), dtype=float)
        self.support = np.nonzero(self.gains > 0.0)[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.ctx.apply_weighted(self.weights * self.gains * v)

    def dense(self) -> np.ndarray:
        """Full matrix; only for moderate grids."""
        K = self.ctx.kernel_matrix()
        return K * (self.weights * self.gains)[None, :]

    def eigenvalues(self) -> np.ndarray:
        """All nonzero-support eigenvalues, descending.  Real by symmetrizability."""
        idx = self.support
        if idx.size == 0:
            return np.zeros(0)
        x = self.ctx.nodes[idx]
        K = np.asarray(self.ctx.kernel(x[:, None] - x[None, :]))
        s = np.sqrt(self.weights[idx] * self.gains[idx])
        sym = K * s[None, :] * s[:, None]
        return np.linalg.eigvalsh(sym)[::-1]


def build_linearization(ctx: OperatorContext, u: Profile) -> Linearization:
    """Fréchet-derivative matrix of T at u (requires a differentiable firing rate)."""
    return Linearization(ctx, u)


def spectral_radius(lin: Linearization, tol: float = 1e-13,
                    max_iter: int = 100_000) -> tuple[float, Profile]:
    """Dominant eigenvalue by power iteration from the constant-1 vector.

    The eigenvector is normalized to sup-norm 1 with its largest entry
    positive.  When the grid is small enough the result is cross-checked
    against a dense eigensolve of the support block.
    """
    n = lin.grid.n_nodes
    v = np.ones(n)
    lam = 0.0
    for it in range(max_iter):
        w = lin.matvec(v)
        norm = float(np.max(np.abs(w)))
        if norm == 0.0:
            raise PowerIterationStall("operator annihilated the start vector")
        w /= norm
        lam_new = norm
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1.0):
            resid = float(np.max(np.abs(lin.matvec(w) - lam_new * w)))
            if resid <= 1e-10 * max(lam_new, 1.0):
                v = w
                lam = lam_new
                break
        v = w
        lam = lam_new
    else:
        raise PowerIterationStall(
            f"dominant eigenvalue did not settle in {max_iter} iterations "
            "(near-degenerate dominant pair?)")
    if v[np.argmax(np.abs(v))] < 0.0:
        v = -v
    if n <= 2000:
        dense_top = float(lin.eigenvalues()[0]) if lin.support.size else 0.0
        if abs(dense_top - lam) > 1e-7 * max(abs(dense_top), 1.0):
            raise PowerIterationStall(
                f"power iteration ({lam:.12g}) disagrees with the dense "
                f"eigensolve ({dense_top:.12g})")
    return lam, Profile(lin.grid, v)


def derivative_profile(ctx: OperatorContext, u: Profile) -> Profile:
    """u'(x) through the kernel derivative: integral of omega'(x - y) f(u(y) - h).

    The analytic route (not finite differences of u) matches the
    integration-by-parts identity that makes u' a translation eigenfunction.
    """
    gain = ctx.firing(u.values - ctx.params.h)
    wv = ctx.weights * gain
    x = ctx.nodes
    block = np.asarray(ctx.kernel.deriv(x[:, None] - x[None, :]))
    return Profile(ctx.grid, block @ wv)


def translation_mode_check(ctx: OperatorContext, u_star: Profile,
                           lin: Linearization) -> float:
    """Relative sup-residual of the eigenvalue-1 identity on the bump derivative."""
    up = derivative_profile(ctx, u_star).values
    scale = float(np.max(np.abs(up)))
    return float(np.max(np.abs(lin.matvec(up) - up))) / scale


def spectra_equivalence_check(lin_small: Linearization, lin_big: Linearization,
                              k: int) -> tuple[float, int]:
    """Max relative deviation of the top-k nonzero eigenvalues of the two
    linearizations (restricted interval vs whole working line).

    Returns (deviation, count actually compared); fewer than k nonzero
    eigenvalues simply shortens the comparison.
    """
    embed_offset(lin_small.grid, lin_big.grid)
    ev_s = lin_small.eigenvalues()
    ev_b = lin_big.eigenvalues()
    if ev_s.size == 0 or ev_b.size == 0:
        return 0.0, 0
    cut = ZERO_EIG_REL * max(float(np.max(np.abs(ev_s))), 1e-300)
    top_s = np.sort(np.abs(ev_s[np.abs(ev_s) > cut]))[::-1]
    top_b = np.sort(np.abs(ev_b[np.abs(ev_b) > cut]))[::-1]
    count = min(k, len(top_s), len(top_b))
    if count == 0:
        return 0.0, 0
    dev = np.abs(top_s[:count] - top_b[:count]) / top_s[:count]
    return float(np.max(dev)), count


def remainder_exponent_fit(ctx_big: OperatorContext, u_tilde: Profile,
                           direction: Profile, amplitudes) -> tuple[float, np.ndarray]:
    """Least-squares slope of log ||T(u+dv) - Tu - T'(u) d v|| against log d.

    The direction must have sup-norm 1 and the amplitudes should span at least
    two decades; the slope estimates 1 + mu of the remainder bound.
    """
    amplitudes = np.asarray(sorted(amplitudes), dtype=float)
    if np.any(amplitudes <= 0.0):
        raise ValueError("amplitudes must be positive")
    if amplitudes[-1] / amplitudes[0] < 99.0:
        raise ValueError("amplitudes should span at least two decades")
    lin = Linearization(ctx_big, u_tilde)
    base = ctx_big.apply_T_values(u_tilde.values)
    norms = np.empty(len(amplitudes))
    for i, delta in enumerate(amplitudes):
        v = delta * direction.values
        rem = ctx_big.apply_T_values(u_tilde.values + v) - base - lin.matvec(v)
        norms[i] = np.max(np.abs(rem))
    slope = float(np.polyfit(np.log(amplitudes), np.log(norms), 1)[0])
    return slope, norms


def instability_certificate(spectral_radius_value: float,
                            principal_vector: Profile,
                            translation_residual: float,
                            remainder_exponent: float,
                            mu: float,
                            equivalence_deviation: float,
                            power_vs_dense: float | None = None,
                            translation_tol: float = 5e-3,
                            equivalence_tol: float = 1e-6) -> dict:
    """Aggregate the spectral checks into a pass/fail verdict record.

    Passing certifies, at the discrete level, the chain: spectral radius above
    one, one-signed principal mode, translation eigenvalue one, superlinear
    nonlinear remainder, and agreement of the restricted and whole-line
    spectra.
    """
    v = principal_vector.values
    applicable = float(np.max(np.abs(v))) > 0.0
    one_signed = float(np.min(v) * np.max(v)) >= -1e-10
    items = {
        "spectral_radius_above_one": spectral_radius_value > 1.0,
        "principal_vector_one_signed": bool(one_signed),
        "translation_mode": translation_residual <= translation_tol,
        "remainder_superlinear": remainder_exponent >= 1.0 + mu - 0.1,
        "spectra_equivalence": equivalence_deviation <= equivalence_tol,
    }
    if power_vs_dense is not None:
        items["power_vs_dense_agreement"] = power_vs_dense <= 1e-8
    record = {
        "applicable": applicable,
        "items": items,
        "spectral_radius": spectral_radius_value,
        "instability_margin": spectral_radius_value - 1.0,
        "translation_residual": translation_residual,
        "remainder_exponent": remainder_exponent,
        "equivalence_deviation": equivalence_deviation,
        "verdict": "pass" if applicable and all(items.values()) else
                   ("not-applicable" if not applicable else "fail"),
    }
    return record
