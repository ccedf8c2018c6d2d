"""Nystrom linearization of the Hammerstein operator at a profile, dominant
eigenpair, translation-mode certificate, the premises of Lemma 1, and the
nonlinear remainder exponent."""

from __future__ import annotations

import random

import numpy as np

from .errors import NoConvergence
from .fixedpoint import OperatorContext, orthogonalize
from .grids import Profile

#: seed of the Lanczos start vectors
LANCZOS_SEED = 20111212

#: Lanczos stops once every wanted Ritz pair has a residual estimate of at most
#: LANCZOS_TOL times the largest Ritz value
LANCZOS_TOL = 1e-13

#: eigenvalues a spectrum lists, the rows of spectrum.csv
TOP_K = 5

#: certificate threshold of the translation-mode residual
TRANSLATION_TOL = 5e-3

#: amplitudes of the remainder-exponent fit, two decades
REMAINDER_AMPLITUDES = np.logspace(-4, -2, 9)


def lanczos(matvec, m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The min(k, m) eigenvalues of largest magnitude, descending, of the
    symmetric m x m operator given by ``matvec``, and the unit Ritz vector of
    the first of them, by Lanczos with full reorthogonalization.

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
    top = top[np.argsort(theta[top])[::-1]]
    return theta[top], S[:, top[0]] @ Q[:j + 1]


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
            raise ValueError("profile does not live on the operator grid")
        self.ctx = ctx
        self.u = u
        self.grid = ctx.grid
        self.weights = ctx.weights
        self.gains = np.asarray(ctx.firing.deriv(u.values - ctx.h), dtype=float)
        self.support = np.nonzero(self.gains > 0.0)[0]

    def matvec(self, v: np.ndarray, lo: int = 0) -> np.ndarray:
        """The operator at the nodes from lo on that v covers (by default
        all), for v given there and zero elsewhere."""
        hi = lo + len(v) - 1
        return self.ctx.apply_weighted(self.weights[lo:hi + 1] * self.gains[lo:hi + 1] * v,
                                       lo, lo, hi)

    def eigenvalues(self, k: int = TOP_K) -> np.ndarray:
        """The k support eigenvalues of largest magnitude, descending (all of
        them if the support has fewer nodes).  Real by symmetrizability."""
        return self.eigensolve(k)[0]

    def eigensolve(self, k: int = TOP_K) -> tuple[np.ndarray, np.ndarray]:
        """``eigenvalues(k)`` and the unit Ritz vector y of the first of them
        for the symmetrized support block s K s, s = sqrt(w g) on the support."""
        idx = self.support
        if idx.size == 0:
            return np.zeros(0), np.zeros(0)
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
                    y: np.ndarray) -> tuple[float, Profile]:
    """Dominant eigenpair on the whole grid from the top Ritz pair of
    ``lin.eigensolve(k)``, given as its ``eigs`` and ``y``.

    The top eigenvalue lam must be positive and exceed the magnitude of every
    other one in ``eigs``, as the Krein-Rutman theorem has it for a positive
    kernel.  Its Ritz vector y of the symmetrized support block s K s extends
    to the eigenvector x = K (s y) / lam of the whole-grid operator, one
    product.  x is normalized to sup-norm 1 with its largest entry positive
    and must meet |M x - lam x| <= 1e-10 max(lam, 1) at every node.
    """
    if eigs.size == 0 or eigs[0] <= -eigs[-1]:
        raise NoConvergence("no positive eigenvalue dominates the spectrum")
    lam = float(eigs[0])
    idx = lin.support
    src = np.zeros(lin.grid.n_nodes)
    src[idx] = np.sqrt(lin.weights[idx] * lin.gains[idx]) * y
    v = lin.ctx.apply_weighted(src)
    v /= v[np.argmax(np.abs(v))]
    resid = float(np.max(np.abs(lin.matvec(v) - lam * v)))
    if not resid <= 1e-10 * max(lam, 1.0):
        raise NoConvergence(f"the top Ritz pair ({lam:.12g}) has the whole-grid "
                            f"residual {resid:.3e}")
    return lam, Profile(lin.grid, v)


def translation_mode_check(lin: Linearization, u: Profile) -> float:
    """Relative sup-residual of the eigenvalue-1 identity on the bump
    derivative u', the central difference of lin's profile, both sides on the
    interior nodes of u's grid, a window of lin's."""
    k = lin.ctx.centred(u.grid.n)
    v = lin.u.values[k:k + u.grid.n + 1]
    up = (v[2:] - v[:-2]) / (2.0 * lin.grid.dx)
    # padded to u's grid, the source shares the spectrum of Newton's products
    image = lin.matvec(np.pad(up, 1), k)[1:-1]
    return float(np.max(np.abs(image - up))) / float(np.max(np.abs(up)))


def spectra_equivalence_check(lin: Linearization, u_star: Profile) -> tuple[float, float]:
    """(support_margin, edge_margin) of Lemma 1's premises, which carry the
    spectrum of ``lin`` between [-d, d] (u_star's grid) and the whole line:
    >= 1 node between the support of f'(u - h) and +-d (inf if empty) keeps
    one support block, and h - max u_star(+-d) >= 0 leaves +-d no source."""
    k = lin.ctx.centred(u_star.grid.n)
    idx = lin.support
    support_margin = (float(min(idx[0] - k, k + u_star.grid.n - idx[-1]))
                      if idx.size else np.inf)
    return support_margin, float(lin.ctx.h - max(u_star.values[0], u_star.values[-1]))


def remainder_exponent_fit(lin: Linearization, direction: Profile) -> tuple[float, np.ndarray]:
    """Least-squares slope of log ||T(u+dv) - Tu - T'(u) d v|| against log d
    over the d of REMAINDER_AMPLITUDES, for the linearization T'(u) = ``lin``
    at its profile u, and the norms.

    The direction must have sup-norm 1; the slope estimates 1 + mu of the
    remainder bound.  By linearity of K the remainder is
    K w (f(u + dv - h) - f(u - h) - f'(u - h) dv), one product per amplitude
    of a source that cancels before the transform.
    """
    ctx, arg = lin.ctx, lin.u.values - lin.ctx.h
    norms = np.empty(len(REMAINDER_AMPLITUDES))
    for i, delta in enumerate(REMAINDER_AMPLITUDES):
        v = delta * direction.values
        # the source vanishes where both u and u + dv are at most h
        fires = np.flatnonzero((arg > 0.0) | (arg + v > 0.0))
        src = np.zeros(len(arg))
        if fires.size:
            lo, hi = fires[0], fires[-1] + 1
            x, dv = arg[lo:hi], v[lo:hi]
            src[lo:hi] = lin.weights[lo:hi] * (ctx.firing(x + dv) - ctx.firing(x)
                                               - lin.gains[lo:hi] * dv)
        norms[i] = np.max(np.abs(ctx.apply_weighted(src)))
    slope = float(np.polyfit(np.log(REMAINDER_AMPLITUDES), np.log(norms), 1)[0])
    return slope, norms


def instability_certificate(spectral_radius_value: float, principal_vector: Profile,
                            support: np.ndarray, translation_residual: float,
                            remainder_exponent: float, mu: float,
                            support_margin: float, edge_margin: float) -> dict:
    """Aggregate the spectral checks into a pass/fail verdict record.

    Passing certifies, at the discrete level, the chain: spectral radius above
    one, a principal mode one-signed on ``support`` (where f'(u - h) > 0, the
    Krein-Rutman cone), translation eigenvalue one, superlinear nonlinear
    remainder, and the premises of Lemma 1 (``spectra_equivalence_check``).
    """
    v = principal_vector.values
    applicable = float(np.max(np.abs(v))) > 0.0
    cone = v[support]
    one_signed = cone.size == 0 or float(np.min(cone) * np.max(cone)) >= -1e-10
    items = {
        "spectral_radius_above_one": spectral_radius_value > 1.0,
        "principal_vector_one_signed": bool(one_signed),
        "translation_mode": translation_residual <= TRANSLATION_TOL,
        "remainder_superlinear": remainder_exponent >= 1.0 + mu - 0.1,
        "spectra_equivalence": support_margin >= 1.0 and edge_margin >= 0.0,
    }
    return {
        "applicable": applicable,
        "items": items,
        "spectral_radius": spectral_radius_value,
        "instability_margin": spectral_radius_value - 1.0,
        "translation_residual": translation_residual,
        "remainder_exponent": remainder_exponent,
        "support_margin": support_margin,
        "edge_margin": edge_margin,
        "verdict": "pass" if applicable and all(items.values()) else
                   ("not-applicable" if not applicable else "fail"),
    }
