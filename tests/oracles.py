"""Dense reference implementations that only the tests use.

They build the full matrix that the package applies through FFT products, so
they serve moderate grids only.
"""

from __future__ import annotations

import numpy as np


def dense_linearization(lin):
    """The matrix w_j omega(x_i - x_j) g_j of a ``Linearization``."""
    return lin.ctx.kernel_matrix() * (lin.weights * lin.gains)[None, :]


def dense_eigenvalues(lin):
    """Every support eigenvalue of a ``Linearization``, descending, by
    ``eigvalsh`` on the symmetrized support block s K s, s = sqrt(w g)."""
    idx = lin.support
    if idx.size == 0:
        return np.zeros(0)
    x = lin.ctx.nodes[idx]
    K = np.asarray(lin.ctx.kernel(x[:, None] - x[None, :]))
    s = np.sqrt(lin.weights[idx] * lin.gains[idx])
    return np.linalg.eigvalsh(K * s[None, :] * s[:, None])[::-1]


def dense_even_jacobian(ctx, v):
    """Jacobian at v of the even-subspace residual v - T(mirror v)[x >= 0]:
    the kernel block of the x >= 0 rows with the mirrored columns folded onto
    the x >= 0 unknowns."""
    n = ctx.grid.n
    mid = n // 2
    full = np.concatenate([v[:0:-1], v])
    gain = ctx.firing.deriv(full - ctx.params.h) * ctx.weights
    M = ctx.kernel_matrix()[mid:, :] * gain[None, :]
    folded = M[:, mid:].copy()
    folded[:, 1:] += M[:, mid - 1::-1]
    return np.eye(mid + 1) - folded
