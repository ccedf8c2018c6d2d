"""Discretized Hammerstein operator on [-d, d], sandwich verification, and the
third fixed point between the bounding profiles, extended to the whole line."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import BumpBounds
from .errors import (DegenerateFixedPoint, EpsilonNotFound, GridMisaligned,
                     NewtonDivergence)
from .grids import Grid, Profile, quadrature_weights
from .model import Firing, Kernel, ModelParams, TabulatedKernel

#: largest grid for which ``OperatorContext.kernel_matrix``, a test oracle that
#: no pipeline stage calls, builds its dense block
DENSE_NODE_LIMIT = 4096

#: a source window is rounded outward to whole blocks of this many nodes, so
#: that nearby windows share one kernel spectrum
WINDOW_BLOCK = 64

#: a time step computes its stages on the supra-threshold window widened by
#: one WINDOW_BLOCK on each side while that covers at most 1/STEP_WINDOW_SHARE
#: of the grid, and on the whole grid past that
STEP_WINDOW_SHARE = 6

#: kernel spectra an ``OperatorContext`` keeps; beyond this the oldest is dropped
SPECTRUM_CACHE_SIZE = 8

#: GMRES stops at a residual of GMRES_RTOL * |b|_2, restarting its Krylov
#: space every GMRES_RESTART steps, at most GMRES_MAX_RESTARTS times
GMRES_RTOL = 1e-14
GMRES_RESTART = 60
GMRES_MAX_RESTARTS = 5

#: compute_epsilon halves its margin at most this many times
EPSILON_HALVINGS = 60

#: Newton starts lam * u_minus + (1 - lam) * u_plus, tried in this order
NEWTON_MIXES = (0.5, 0.35, 0.65, 0.25, 0.75)

#: the extension grid ends where the kernel's reach from [-d, d], omega * 2d,
#: is at most TAIL_TOL; the tail search gives up past TAIL_SEARCH_LIMIT
TAIL_TOL = 1e-10
TAIL_SEARCH_LIMIT = 1e4


def fast_fft_len(m: int) -> int:
    """Smallest 5-smooth integer 2^a 3^b 5^c >= m (scipy.fft.next_fast_len(m, True))."""
    best = 1 << max(m - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest power of two lifting p35 to at least m
            quotient = -(-m // p35)
            candidate = p35 << max(quotient - 1, 0).bit_length()
            best = min(best, candidate)
            p35 *= 3
        p5 *= 5
    return best


class OperatorContext:
    """Kernel, firing rate, parameters, and a symmetric grid carrying T.

    The Nystrom sum (Tu)(x_i) = sum_j w_j omega(x_i - x_j) f(u(x_j) - h) is a
    discrete convolution on the uniform grid.  Its source vanishes wherever
    u <= h, so it is evaluated by one circular FFT convolution of the source
    on the node window [lo, hi] that holds its nonzero values, rounded outward
    to blocks of ``WINDOW_BLOCK`` nodes (the whole grid once it covers more
    than a third).  The firing rate is evaluated on that window only.
    ``apply_T_window`` writes only the m + 1 nodes of an output window, at
    transform length fast_fft_len(m + hi - lo + 1) however large the grid.

    Each kernel spectrum is cached under the key (lo, hi, last) of
    ``_line_spectrum``, the source window and the last output node counted
    from the first output node, with the largest |omega| on its lag line;
    at most ``SPECTRUM_CACHE_SIZE`` of them.  The dense kernel matrix serves
    only as a test oracle.
    """

    def __init__(self, kernel: Kernel, firing: Firing, params: ModelParams,
                 grid: Grid):
        if not grid.symmetric:
            raise ValueError("operator grid must be symmetric about 0")
        if grid.n % 2 != 0:
            raise ValueError("operator grid needs an even subinterval count")
        self.kernel = kernel
        self.firing = firing
        self.params = params
        self.grid = grid
        self.weights = quadrature_weights(grid)
        self._nodes = grid.nodes()
        self._dense: np.ndarray | None = None
        # (lo, hi, last) -> (transform length, rfft of the lag line, max |line|)
        self._spectra: dict[tuple[int, int, int], tuple[int, np.ndarray, float]] = {}

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes

    def kernel_matrix(self) -> np.ndarray:
        """Dense block omega(x_i - x_j), a test oracle; only for moderate grids."""
        if self._dense is None:
            if self.grid.n_nodes > DENSE_NODE_LIMIT:
                raise MemoryError(
                    f"dense kernel matrix refused for {self.grid.n_nodes} nodes")
            x = self._nodes
            self._dense = np.asarray(self.kernel(x[:, None] - x[None, :]))
        return self._dense

    def apply_weighted(self, s: np.ndarray, lo: int = 0) -> np.ndarray:
        """sum_j s_j omega(x_i - x_j) at every node i for an already weighted
        source s on the nodes from lo on (by default all) and 0 elsewhere."""
        window = self._window(s == 0.0, lo)
        if window is None:
            return np.zeros(self.grid.n_nodes)
        w_lo, w_hi = window
        return self._convolve(s[w_lo - lo:w_hi - lo + 1], w_lo, w_hi)

    def weighted_bound(self, s: np.ndarray, lo: int = 0) -> float:
        """A bound on |apply_weighted(s, lo)| at every node, NaN for a NaN s:
        |s|_1 times the largest |omega| on the lag line apply_weighted(s, lo)
        transforms, read from its cached spectrum without a kernel call."""
        window = self._window(s == 0.0, lo)
        if window is None:
            return 0.0
        return float(np.sum(np.abs(s))) * self._spectrum((*window, self.grid.n))[2]

    def block_operator(self, lo: int, hi: int, line=None):
        """The product x -> sum_j x_j line(x_i - x_j) over the nodes i, j in
        [lo, hi], with the kernel as the default line, by FFT at length
        fast_fft_len(2 (hi - lo) + 1) however large the grid; the returned
        function holds its spectrum, which the context does not cache."""
        m = hi - lo
        length, spectrum, _ = self._line_spectrum(line or self.kernel, 0, m, m)
        return lambda x: _circular(x, length, spectrum, m + 1)

    def apply_T_values(self, values: np.ndarray) -> np.ndarray:
        return self.apply_T_window(values, 0)[0]

    def apply_T_window(self, values: np.ndarray,
                       lo: int) -> tuple[np.ndarray, np.ndarray]:
        """Tu at the nodes i = lo, lo + 1, ... that ``values`` covers, for a
        profile u that is ``values`` there and at most h elsewhere, and T's
        weighted source w_j f(u_j - h) on the same nodes."""
        # every firing rate vanishes at arguments <= 0, so the source is zero
        # outside the window where u > h; a NaN node is not <= h, so it stays in
        s = np.zeros(len(values))
        window = self._window(values <= self.params.h, lo)
        if window is None:
            return np.zeros(len(values)), s
        w_lo, w_hi = window
        src = s[w_lo - lo:w_hi - lo + 1] = self.weights[w_lo:w_hi + 1] * self.firing(
            values[w_lo - lo:w_hi - lo + 1] - self.params.h)
        return self._convolve(src, w_lo, w_hi, lo, lo + len(values) - 1), s

    def step_window(self, values: np.ndarray) -> tuple[int, int]:
        """The nodes [lo, hi] where a time step from ``values`` computes its
        stages: T's source window widened by a ``WINDOW_BLOCK`` on each side,
        or the whole grid past 1/STEP_WINDOW_SHARE of it or if no u > h."""
        window = self._window(values <= self.params.h, 0, WINDOW_BLOCK,
                              STEP_WINDOW_SHARE)
        return (0, self.grid.n) if window is None else window

    def _window(self, outside: np.ndarray, offset: int = 0, pad: int = 0,
                share: int = 3) -> tuple[int, int] | None:
        """Node range [lo, hi] enclosing every node where ``outside``, which
        covers the nodes from ``offset`` on, is False, widened by ``pad``
        nodes on each side and kept within the covered nodes; None if
        ``outside`` is True everywhere.

        Whole blocks let nearby windows share a spectrum; past 1/share of the
        grid a window saves little transform length, so it takes all the
        covered nodes (on the whole grid, its one spectrum).
        """
        lo = int(outside.argmin())
        if outside[lo]:
            return None
        last = offset + len(outside) - 1
        hi = last - int(outside[::-1].argmin()) + pad
        lo = offset + lo - pad
        lo = max(offset, lo - lo % WINDOW_BLOCK)
        hi = min(last, hi + WINDOW_BLOCK - 1 - hi % WINDOW_BLOCK)
        if share * (hi - lo + 1) > self.grid.n + 1:
            return offset, last
        return lo, hi

    def _convolve(self, src: np.ndarray, lo: int, hi: int, out_lo: int = 0,
                  out_hi: int | None = None) -> np.ndarray:
        """sum_j src_j omega(x_i - x_j) at the nodes i in [out_lo, out_hi]
        (by default every node) for the source that is ``src`` on the nodes
        [lo, hi] among them and zero elsewhere."""
        out_hi = self.grid.n if out_hi is None else out_hi
        key = (lo - out_lo, hi - out_lo, out_hi - out_lo)
        length, spectrum, _ = self._spectrum(key)
        return _circular(src, length, spectrum, key[2] + 1)

    def _spectrum(self, key: tuple[int, int, int]) -> tuple[int, np.ndarray, float]:
        """The kernel's ``_line_spectrum`` for key = (lo, hi, last), cached."""
        cached = self._spectra.get(key)
        if cached is None:
            if len(self._spectra) >= SPECTRUM_CACHE_SIZE:
                del self._spectra[next(iter(self._spectra))]
            cached = self._spectra[key] = self._line_spectrum(self.kernel, *key)
        return cached

    def _line_spectrum(self, line, lo: int, hi: int,
                       n: int) -> tuple[int, np.ndarray, float]:
        """Transform length, rfft and largest magnitude of the lag line of
        ``line`` for the source window [lo, hi] and the outputs at nodes 0..n.

        The circular convolution of the source, placed at slot 0, with a line
        holding lag l in slot (l + lo) mod length for the lags -hi..n-lo that
        reach the outputs; a length of at least n + hi - lo + 1 keeps them
        apart, so none of the n + 1 outputs wraps.  The whole grid (lo = 0,
        hi = n) puts lags 0..n in slots [0, n] and lags -n..-1 in the last n,
        at fast_fft_len(2n + 1).
        """
        length = fast_fft_len(n + hi - lo + 1)
        lags = np.arange(-hi, n - lo + 1)
        values = np.zeros(length)
        values[lags + lo] = line(lags * self.grid.dx)
        return length, np.fft.rfft(values), float(np.max(np.abs(values)))


def _circular(src: np.ndarray, length: int, spectrum: np.ndarray,
              count: int) -> np.ndarray:
    """The first ``count`` values of the circular convolution, at ``length``,
    of ``src`` with the line whose rfft is ``spectrum``."""
    return np.fft.irfft(np.fft.rfft(src, length) * spectrum, length)[:count]


def compute_epsilon(ctx: OperatorContext, bb: BumpBounds) -> float:
    """Largest margin in the ladder eps0 * 2^-k certifying the strict sandwich.

    Requires, on the grid: T(u_minus + eps) stays strictly below u_minus + eps,
    T(u_plus - eps) strictly above u_plus - eps, and the shifted profiles stay
    strictly ordered.
    """
    eps = bb.gap_norm() / 4.0
    for _ in range(EPSILON_HALVINGS):
        lo = bb.u_minus.values + eps
        hi = bb.u_plus.values - eps
        ok = (np.min(lo - ctx.apply_T_values(lo)) > 0.0
              and np.min(ctx.apply_T_values(hi) - hi) > 0.0
              and np.min(hi - lo) > 0.0)
        if ok:
            return eps
        eps /= 2.0
    raise EpsilonNotFound(
        "no strictly positive sandwich margin found; the discretization may be "
        "too coarse or the hypotheses marginal")


@dataclass(frozen=True)
class FixedPointResult:
    u_star: Profile = field(repr=False)
    residual_sup: float
    iterations: int
    dist_to_u_minus: float
    dist_to_u_plus: float
    epsilon_used: float | None = None

    def to_dict(self) -> dict:
        return {
            "residual_sup": self.residual_sup,
            "iterations": self.iterations,
            "dist_to_u_minus": self.dist_to_u_minus,
            "dist_to_u_plus": self.dist_to_u_plus,
            "epsilon_used": self.epsilon_used,
        }


def orthogonalize(Q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Remove from w, in place, its components along the orthonormal rows of
    Q by classical Gram-Schmidt applied twice; returns the coefficients."""
    c1 = Q @ w
    w -= c1 @ Q
    c2 = Q @ w
    w -= c2 @ Q
    return c1 + c2


def gmres(matvec, b: np.ndarray) -> np.ndarray:
    """Solution x of A x = b by restarted GMRES, A given by ``matvec``.

    Givens rotations keep the Arnoldi Hessenberg matrix triangular, so each
    step knows its residual norm without a least-squares solve.  A cycle
    stops once that norm is at most GMRES_RTOL * |b|_2 (as it is when the
    Krylov space stops growing) or after GMRES_RESTART steps; the solve stops
    when the true residual meets the target or after GMRES_MAX_RESTARTS cycles.
    """
    x = np.zeros_like(b)
    target = GMRES_RTOL * np.linalg.norm(b)
    m = min(GMRES_RESTART, len(b))
    Q, H = np.empty((m + 1, len(b))), np.empty((m, m))
    r = b
    for _ in range(GMRES_MAX_RESTARTS):
        g = np.zeros(m + 1)
        g[0] = np.linalg.norm(r)
        if g[0] <= target:
            break
        Q[0] = r / g[0]
        rotations = []
        for j in range(m):
            w = matvec(Q[j])
            H[:j + 1, j] = orthogonalize(Q[:j + 1], w)
            h_next = np.linalg.norm(w)
            for i, (c, s) in enumerate(rotations):
                H[i, j], H[i + 1, j] = (c * H[i, j] + s * H[i + 1, j],
                                        c * H[i + 1, j] - s * H[i, j])
            rho = math.hypot(H[j, j], h_next)
            c, s = H[j, j] / rho, h_next / rho
            rotations.append((c, s))
            H[j, j] = rho
            g[j], g[j + 1] = c * g[j], -s * g[j]
            if abs(g[j + 1]) <= target:
                break
            Q[j + 1] = w / h_next
        k = j + 1
        y = np.zeros(k)
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - H[i, i + 1:k] @ y[i + 1:]) / H[i, i]
        x += y @ Q[:k]
        r = b - matvec(x)
    return x


def _mirror(v: np.ndarray) -> np.ndarray:
    """Grid values of the even profile whose values at x >= 0 are ``v``."""
    return np.concatenate([v[:0:-1], v])


def newton_step(ctx: OperatorContext, v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solution s of J s = r for the Jacobian J at v of the even-subspace
    residual v - T(mirror v)[x >= 0], by GMRES on the matrix-free product
    J s = s - apply_weighted(w f'(mirror v - h) mirror s)[x >= 0]."""
    mid = ctx.grid.n // 2
    gain = ctx.firing.deriv(_mirror(v) - ctx.params.h) * ctx.weights
    return gmres(lambda s: s - ctx.apply_weighted(gain * _mirror(s))[mid:], r)


def _newton_even(ctx: OperatorContext, u0: np.ndarray, tol: float,
                 max_iter: int) -> tuple[np.ndarray, int]:
    """Damped Newton for u = Tu on the even-symmetric subspace.

    Unknowns are the node values at x >= 0; the mirror image fixes the rest and
    removes the near-singular translation mode of the unsymmetrized Jacobian.
    """
    mid = ctx.grid.n // 2

    def residual(v):
        return v - ctx.apply_T_values(_mirror(v))[mid:]

    v = u0[mid:].copy()
    r = residual(v)
    rnorm = float(np.max(np.abs(r)))
    for it in range(1, max_iter + 1):
        if rnorm <= tol:
            return _mirror(v), it - 1
        step = newton_step(ctx, v, r)
        lam = 1.0
        for _ in range(40):
            v_try = v - lam * step
            r_try = residual(v_try)
            rnorm_try = float(np.max(np.abs(r_try)))
            if rnorm_try < rnorm:
                break
            lam /= 2.0
        else:
            raise NewtonDivergence(
                f"damping exhausted at residual {rnorm:.3e} (iteration {it})")
        v, r, rnorm = v_try, r_try, rnorm_try
    if rnorm <= tol:
        return _mirror(v), max_iter
    raise NewtonDivergence(f"no convergence in {max_iter} Newton steps "
                           f"(residual {rnorm:.3e})")


def solve_third_fixed_point(ctx: OperatorContext, bb: BumpBounds,
                            tol: float = 1e-10, max_iter: int = 60,
                            degeneracy_threshold: float = 1e-2,
                            epsilon: float | None = None) -> FixedPointResult:
    """Find the interior fixed point separated from both bounding profiles.

    Starts Newton from convex combinations lam*u_minus + (1-lam)*u_plus and
    rejects runs that collapse onto either bound (degeneracy threshold is
    relative to the gap norm).
    """
    gap = bb.gap_norm()
    sep_min = degeneracy_threshold * gap
    last_exc: Exception | None = None
    for lam in NEWTON_MIXES:
        u0 = lam * bb.u_minus.values + (1.0 - lam) * bb.u_plus.values
        try:
            u, iters = _newton_even(ctx, u0, tol, max_iter)
        except NewtonDivergence as exc:
            last_exc = exc
            continue
        d_lo = float(np.max(np.abs(u - bb.u_minus.values)))
        d_hi = float(np.max(np.abs(u - bb.u_plus.values)))
        if min(d_lo, d_hi) < sep_min:
            last_exc = DegenerateFixedPoint(
                f"Newton from mix {lam} collapsed onto a bounding profile "
                f"(separations {d_lo:.3e}, {d_hi:.3e})")
            continue
        resid = float(np.max(np.abs(u - ctx.apply_T_values(u))))
        return FixedPointResult(Profile(ctx.grid, u), resid, iters,
                                d_lo, d_hi, epsilon_used=epsilon)
    raise last_exc


def tail_extension(kernel: Kernel, d: float) -> float:
    """Smallest x_tail with sup_{y in [-d,d]} omega(x - y) * 2d <= TAIL_TOL for x >= d + x_tail.

    For a kernel decreasing in |x| beyond its core the supremum sits at y = d,
    so x_tail solves omega(x_tail) * 2d = TAIL_TOL on the decreasing branch.  A
    tabulated kernel is 0 past its table, so the search ends at the table's
    edge and never evaluates beyond it.
    """
    target = TAIL_TOL / (2.0 * d)
    edge = kernel.grid.hi if isinstance(kernel, TabulatedKernel) else math.inf
    x = d
    while float(kernel(min(x, edge))) > target:
        if x >= edge:
            return edge
        x *= 2.0
        if x > TAIL_SEARCH_LIMIT:
            raise ValueError("kernel tail does not decay below the truncation target")
    lo, hi = x / 2.0, min(x, edge)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(kernel(mid)) > target:
            lo = mid
        else:
            hi = mid
    return hi


def make_extension_grid(kernel: Kernel, grid_d: Grid,
                        L_override: float | None = None) -> Grid:
    """Grid on [-L, L] with the same spacing, embedding the [-d, d] nodes.

    L defaults to d plus the certified tail length, rounded up to a node.
    """
    d = grid_d.hi
    dx = grid_d.dx
    x_tail = (L_override - d) if L_override is not None else tail_extension(kernel, d)
    if x_tail <= 0.0:
        raise ValueError("extension length must be positive")
    extra = int(math.ceil(x_tail / dx - 1e-12))
    L = d + extra * dx
    return Grid(-L, L, grid_d.n + 2 * extra)


def embed_offset(small: Grid, big: Grid) -> int:
    """Index of the small grid's first node inside the big grid."""
    if abs(small.dx - big.dx) > 1e-9 * big.dx:
        raise GridMisaligned(f"spacings differ: {small.dx} vs {big.dx}")
    off = (small.lo - big.lo) / big.dx
    k = round(off)
    if abs(off - k) > 1e-6 or k < 0 or k + small.n > big.n:
        raise GridMisaligned("small grid nodes are not embedded in the big grid")
    return k


def extend_bump(ctx: OperatorContext, u_star: Profile,
                ctx_big: OperatorContext) -> Profile:
    """Whole-line bump on the grid of ctx_big: the kernel convolved with
    f(u_star - h) over [-d, d], i.e. T on ctx_big applied to a source that is
    zero outside the embedded [-d, d] nodes."""
    k = embed_offset(ctx.grid, ctx_big.grid)
    src = np.zeros(ctx_big.grid.n_nodes)
    src[k:k + ctx.grid.n_nodes] = ctx.weights * ctx.firing(u_star.values - ctx.params.h)
    return Profile(ctx_big.grid, ctx_big.apply_weighted(src))
