"""Nystrom linearization of the Hammerstein operator at a profile, dominant
eigenpair, translation-mode certificate, and the nonlinear remainder exponent."""

from __future__ import annotations

import random

import numpy as np

from .errors import GridMisaligned, PowerIterationStall
from .fixedpoint import OperatorContext, orthogonalize
from .grids import Profile

#: relative threshold below which a discrete eigenvalue counts as "zero"
#: (compact-operator spectra accumulate only at 0)
ZERO_EIG_REL = 1e-10

#: seed of the Lanczos start vectors
LANCZOS_SEED = 20111212

#: Lanczos stops once every wanted Ritz pair has a residual estimate of at most
#: LANCZOS_TOL times the largest Ritz value
LANCZOS_TOL = 1e-13

#: power iteration gives up after this many products
POWER_MAX_ITER = 100_000

#: certificate thresholds: the translation-mode residual and the relative
#: deviation of the restricted from the whole-line spectrum
TRANSLATION_TOL = 5e-3
EQUIVALENCE_TOL = 1e-6


def lanczos(matvec, m: int, k: int) -> np.ndarray:
    """The min(k, m) eigenvalues of largest magnitude, descending, of the
    symmetric m x m operator given by ``matvec``, by Lanczos with full
    reorthogonalization.

    The start vector is seeded pseudo-random: a mirror-symmetric one, such as
    the constant, spans only the even modes of a mirror-symmetric operator.
    Iteration stops once each of the k Ritz pairs has the residual estimate
    beta |s_last| <= LANCZOS_TOL * (largest |Ritz value|), or when the Krylov
    space fills R^m.  Ritz pairs are computed from step k on, every
    max(1, k // 4) steps, so a k near m costs a few dense eigensolves of the
    tridiagonal, not one per step.  A breakdown (an invariant Krylov space)
    restarts from a new seeded vector orthogonal to the basis, which finds
    the further copies of a repeated eigenvalue, such as the zero of a
    finite-rank operator.
    """
    k = min(k, m)
    stride = max(1, k // 4)
    rng = random.Random(LANCZOS_SEED)

    def seeded_unit(basis):
        w = np.array([rng.random() - 0.5 for _ in range(m)])
        orthogonalize(basis, w)
        return w / np.linalg.norm(w)

    Q = np.empty((min(m, 64), m))
    Q[0] = seeded_unit(Q[:0])
    T = np.zeros((len(Q), len(Q)))  # the tridiagonal Q A Q^T
    scale = 0.0  # largest entry of T, within a factor 3 of its norm
    for j in range(m):
        w = matvec(Q[j])
        T[j, j] = orthogonalize(Q[:j + 1], w)[j]
        b = np.linalg.norm(w)
        scale = max(scale, abs(T[j, j]))
        if j + 1 == m or (j + 1 >= k and (j + 1 - k) % stride == 0):
            theta, S = np.linalg.eigh(T[:j + 1, :j + 1])
            top = np.argsort(np.abs(theta))[::-1][:k]
            tol = LANCZOS_TOL * np.max(np.abs(theta))
            if j + 1 == m or np.all(b * np.abs(S[-1, top]) <= tol):
                break
        if j + 1 == len(Q):
            Q = np.concatenate([Q, np.empty((min(len(Q), m - len(Q)), m))])
            T = np.pad(T, (0, len(Q) - len(T)))
        if b <= LANCZOS_TOL * scale:  # breakdown
            Q[j + 1] = seeded_unit(Q[:j + 1])
        else:
            Q[j + 1] = w / b
            T[j, j + 1] = T[j + 1, j] = b
            scale = max(scale, b)
    return np.sort(theta[top])[::-1]


class Linearization:
    """The linear integral operator with kernel omega(x - y) f'(u(y) - h).

    Discretized as M[i, j] = w_j omega(x_i - x_j) g_j with g_j = f'(u_j - h)
    >= 0.  Columns with g_j = 0 vanish, so the nonzero spectrum lives on the
    support block; that block is similar to the symmetric s K s with
    s = sqrt(w g), which the Lanczos eigensolver uses.  Every product is an
    FFT convolution; no dense block is formed.
    """

    def __init__(self, ctx: OperatorContext, u: Profile):
        if u.grid != ctx.grid:
            raise GridMisaligned("profile does not live on the operator grid")
        self.ctx = ctx
        self.u = u
        self.grid = ctx.grid
        self.weights = ctx.weights
        self.gains = np.asarray(ctx.firing.deriv(u.values - ctx.params.h), dtype=float)
        self.support = np.nonzero(self.gains > 0.0)[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.ctx.apply_weighted(self.weights * self.gains * v)

    def eigenvalues(self, k: int = 5) -> np.ndarray:
        """The k support eigenvalues of largest magnitude, descending (all of
        them if the support has fewer nodes).  Real by symmetrizability."""
        idx = self.support
        if idx.size == 0:
            return np.zeros(0)
        s = np.sqrt(self.weights[idx] * self.gains[idx])
        # the support block couples only the nodes idx[0]..idx[-1]
        block = self.ctx.block_operator(int(idx[0]), int(idx[-1]))
        pos = idx - idx[0]
        src = np.zeros(pos[-1] + 1)

        def sym(x):
            src[pos] = s * x
            return s * block(src)[pos]
        return lanczos(sym, idx.size, k)


def spectral_radius(lin: Linearization, eigs: np.ndarray,
                    tol: float = 1e-13) -> tuple[float, Profile]:
    """Dominant eigenvalue by power iteration from the constant-1 vector.

    The eigenvector is normalized to sup-norm 1 with its largest entry
    positive.  The result is cross-checked against ``eigs``, the top Lanczos
    eigenvalues ``lin.eigenvalues(k)`` of the support block.
    """
    v = np.ones(lin.grid.n_nodes)
    lam = 0.0
    for _ in range(POWER_MAX_ITER):
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
            f"dominant eigenvalue did not settle in {POWER_MAX_ITER} iterations "
            "(near-degenerate dominant pair?)")
    if v[np.argmax(np.abs(v))] < 0.0:
        v = -v
    top = float(eigs[0]) if eigs.size else 0.0
    if abs(top - lam) > 1e-7 * max(abs(top), 1.0):
        raise PowerIterationStall(
            f"power iteration ({lam:.12g}) disagrees with the Lanczos "
            f"eigensolve ({top:.12g})")
    return lam, Profile(lin.grid, v)


def derivative_profile(ctx: OperatorContext, u: Profile) -> Profile:
    """u'(x) through the kernel derivative: integral of omega'(x - y) f(u(y) - h).

    The analytic route (not finite differences of u) matches the
    integration-by-parts identity that makes u' a translation eigenfunction.
    """
    wv = ctx.weights * ctx.firing(u.values - ctx.params.h)
    return Profile(ctx.grid, ctx.block_operator(0, ctx.grid.n, ctx.kernel.deriv)(wv))


def translation_mode_check(ctx: OperatorContext, u_star: Profile,
                           lin: Linearization) -> float:
    """Relative sup-residual of the eigenvalue-1 identity on the bump derivative."""
    up = derivative_profile(ctx, u_star).values
    scale = float(np.max(np.abs(up)))
    return float(np.max(np.abs(lin.matvec(up) - up))) / scale


def spectra_equivalence_check(ev_s: np.ndarray, ev_b: np.ndarray,
                              k: int) -> tuple[float, int]:
    """Max relative deviation of the top-k nonzero eigenvalues of two
    linearizations (restricted interval vs whole working line), given as the
    ``eigenvalues()`` of each.

    Returns (deviation, count actually compared); fewer than k nonzero
    eigenvalues simply shortens the comparison.
    """
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


def remainder_exponent_fit(lin: Linearization, direction: Profile,
                           amplitudes) -> tuple[float, np.ndarray]:
    """Least-squares slope of log ||T(u+dv) - Tu - T'(u) d v|| against log d
    for the linearization T'(u) = ``lin`` at its profile u.

    The direction must have sup-norm 1 and the amplitudes should span at least
    two decades; the slope estimates 1 + mu of the remainder bound.
    """
    amplitudes = np.asarray(sorted(amplitudes), dtype=float)
    if np.any(amplitudes <= 0.0):
        raise ValueError("amplitudes must be positive")
    if amplitudes[-1] / amplitudes[0] < 99.0:
        raise ValueError("amplitudes should span at least two decades")
    u = lin.u.values
    base = lin.ctx.apply_T_values(u)
    norms = np.empty(len(amplitudes))
    for i, delta in enumerate(amplitudes):
        v = delta * direction.values
        rem = lin.ctx.apply_T_values(u + v) - base - lin.matvec(v)
        norms[i] = np.max(np.abs(rem))
    slope = float(np.polyfit(np.log(amplitudes), np.log(norms), 1)[0])
    return slope, norms


def instability_certificate(spectral_radius_value: float,
                            principal_vector: Profile,
                            translation_residual: float,
                            remainder_exponent: float,
                            mu: float,
                            equivalence_deviation: float,
                            power_vs_dense: float | None = None) -> dict:
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
        "translation_mode": translation_residual <= TRANSLATION_TOL,
        "remainder_superlinear": remainder_exponent >= 1.0 + mu - 0.1,
        "spectra_equivalence": equivalence_deviation <= EQUIVALENCE_TOL,
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
