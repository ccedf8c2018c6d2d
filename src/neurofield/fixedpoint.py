"""Discretized Hammerstein operator on the whole-line grid; the sandwich
margin and the third fixed point on its [-d, d] window at O(window) per
product, weighing +-d by dx, not dx / 2 (equal while u <= h at +-d)."""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bounds import BumpBounds
from .errors import ConfigError, NoConvergence
from .grids import Grid, Profile, quadrature_weights
from .model import Firing, Kernel

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

#: Newton's sup-norm residual target unless solver.newton_tol sets one
NEWTON_TOL = 1e-10
#: Newton's step budget, and the separation from each bounding profile,
#: relative to the gap norm, below which a fixed point counts as collapsed onto it
NEWTON_MAX_ITER = 60
DEGENERACY_THRESHOLD = 1e-2

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
    """Kernel, firing rate, threshold h > 0, and a symmetric grid carrying T.

    The Nystrom sum (Tu)(x_i) = sum_j w_j omega(x_i - x_j) f(u(x_j) - h) is a
    discrete convolution on the uniform grid.  Its source vanishes wherever
    u <= h, so it is evaluated by one circular FFT convolution of the source
    on the node window [lo, hi] that holds its nonzero values, rounded outward
    to blocks of ``WINDOW_BLOCK`` nodes.  The firing rate is evaluated on that
    window only.
    ``apply_T_window`` writes only the m + 1 nodes of an output window, at
    transform length fast_fft_len(m + hi - lo + 1) however large the grid.

    Each kernel spectrum is cached under the key (lo, hi, last) of
    ``_line_spectrum``, the source window and the last output node counted
    from the first output node; at most ``SPECTRUM_CACHE_SIZE`` of them.
    The dense kernel matrix serves only as a test oracle.
    """

    def __init__(self, kernel: Kernel, firing: Firing, h: float, grid: Grid):
        if not h > 0.0:
            raise ValueError(f"need h > 0, got h={h}")
        if not grid.symmetric:
            raise ValueError("operator grid must be symmetric about 0")
        if grid.n % 2 != 0:
            raise ValueError("operator grid needs an even subinterval count")
        self.kernel = kernel
        self.firing = firing
        self.h = h
        self.grid = grid
        self.weights = quadrature_weights(grid)
        self._dense: np.ndarray | None = None
        # (lo, hi, last) -> (transform length, rfft of the lag line)
        self._spectra: dict[tuple[int, int, int], tuple[int, np.ndarray]] = {}

    def centred(self, n: int) -> int:
        """First node of the centred window of n subintervals: where the
        [-d, d] grid of n subintervals and this grid's spacing lies in the line
        ``make_extension_grid`` builds around it."""
        if not 0 <= n <= self.grid.n or (self.grid.n - n) % 2:
            raise ValueError(f"no centred window of {n} subintervals in a grid "
                             f"of {self.grid.n}")
        return (self.grid.n - n) // 2

    def kernel_matrix(self) -> np.ndarray:
        """Dense block omega(x_i - x_j), a test oracle; only for moderate grids."""
        if self._dense is None:
            if self.grid.n_nodes > DENSE_NODE_LIMIT:
                raise MemoryError(
                    f"dense kernel matrix refused for {self.grid.n_nodes} nodes")
            x = self.grid.nodes()
            self._dense = np.asarray(self.kernel(x[:, None] - x[None, :]))
        return self._dense

    def apply_weighted(self, s: np.ndarray, lo: int = 0, out_lo: int = 0,
                       out_hi: int | None = None) -> np.ndarray:
        """sum_j s_j omega(x_i - x_j) at the nodes i in [out_lo, out_hi] (by
        default every node) for an already weighted source s on the nodes
        from lo on (by default all) and 0 elsewhere."""
        out_hi = self.grid.n if out_hi is None else out_hi
        window = self._window(s == 0.0, lo)
        if window is None:
            return np.zeros(out_hi - out_lo + 1)
        w_lo, w_hi = window
        return self._convolve(s[w_lo - lo:w_hi - lo + 1], w_lo, w_hi, out_lo, out_hi)

    @cached_property
    def envelope(self) -> np.ndarray:
        """E[l], the largest |omega| at lags of l or more nodes, either sign,
        for l = 0..n, and E[n + 1] = 0: |s|_1 E[l] bounds sum_j s_j
        omega(x_i - x_j) at every node i at least l nodes from the s_j != 0."""
        lags = np.arange(self.grid.n + 1) * self.grid.dx
        line = np.maximum(np.abs(self.kernel(lags)), np.abs(self.kernel(-lags)))
        return np.append(np.maximum.accumulate(line[::-1])[::-1], 0.0)

    def block_operator(self, lo: int, hi: int):
        """x -> sum_j x_j omega(x_i - x_j) over the nodes i, j in [lo, hi] by
        FFT at length fast_fft_len(2 (hi - lo) + 1) however large the grid;
        the function holds its spectrum, which the context does not cache."""
        m = hi - lo
        length, spectrum = self._line_spectrum(0, m, m)
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
        window = self._window(values <= self.h, lo)
        if window is None:
            return np.zeros(len(values)), s
        w_lo, w_hi = window
        src = s[w_lo - lo:w_hi - lo + 1] = self.weights[w_lo:w_hi + 1] * self.firing(
            values[w_lo - lo:w_hi - lo + 1] - self.h)
        return self._convolve(src, w_lo, w_hi, lo, lo + len(values) - 1), s

    def step_window(self, values: np.ndarray, lo: int = 0) -> tuple[int, int]:
        """The nodes [lo', hi'] where a time step computes its stages from a
        profile that is ``values`` on the nodes from lo on (by default all)
        and at most h elsewhere: T's source window widened by a
        ``WINDOW_BLOCK`` on each side, or the whole grid past
        1/STEP_WINDOW_SHARE of it or if no u > h."""
        whole = 0, self.grid.n
        lo, hi = self._window(values <= self.h, lo, WINDOW_BLOCK, whole) or whole
        # past that share a window saves little transform length, and on the
        # whole grid every step shares its one spectrum
        if STEP_WINDOW_SHARE * (hi - lo + 1) > self.grid.n + 1:
            return whole
        return lo, hi

    def _window(self, outside: np.ndarray, offset: int = 0, pad: int = 0,
                span: tuple[int, int] | None = None) -> tuple[int, int] | None:
        """Node range [lo, hi] enclosing every node where ``outside``, which
        covers the nodes from ``offset`` on, is False, widened by ``pad``
        nodes on each side and rounded outward to whole blocks, so that nearby
        windows share a spectrum, within ``span`` (by default the covered
        nodes); None if ``outside`` is True everywhere."""
        lo = int(outside.argmin())
        if outside[lo]:
            return None
        first, last = span or (offset, offset + len(outside) - 1)
        hi = offset + len(outside) - 1 - int(outside[::-1].argmin()) + pad
        lo = offset + lo - pad
        return (max(first, lo - lo % WINDOW_BLOCK),
                min(last, hi + WINDOW_BLOCK - 1 - hi % WINDOW_BLOCK))

    def _convolve(self, src: np.ndarray, lo: int, hi: int, out_lo: int,
                  out_hi: int) -> np.ndarray:
        """sum_j src_j omega(x_i - x_j) at the nodes i in [out_lo, out_hi]
        for the source that is ``src`` on the nodes [lo, hi] among them and
        zero elsewhere."""
        key = (lo - out_lo, hi - out_lo, out_hi - out_lo)
        length, spectrum = self._spectrum(key)
        return _circular(src, length, spectrum, key[2] + 1)

    def _spectrum(self, key: tuple[int, int, int]) -> tuple[int, np.ndarray]:
        """The kernel's ``_line_spectrum`` for key = (lo, hi, last), cached."""
        cached = self._spectra.get(key)
        if cached is None:
            if len(self._spectra) >= SPECTRUM_CACHE_SIZE:
                del self._spectra[next(iter(self._spectra))]
            cached = self._spectra[key] = self._line_spectrum(*key)
        return cached

    def _line_spectrum(self, lo: int, hi: int, n: int) -> tuple[int, np.ndarray]:
        """Transform length and rfft of the kernel's lag line for the
        source window [lo, hi] and the outputs at nodes 0..n.

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
        values[lags + lo] = self.kernel(lags * self.grid.dx)
        return length, np.fft.rfft(values)


def _circular(src: np.ndarray, length: int, spectrum: np.ndarray,
              count: int) -> np.ndarray:
    """The first ``count`` values of the circular convolution, at ``length``,
    of ``src`` with the line whose rfft is ``spectrum``."""
    return np.fft.irfft(np.fft.rfft(src, length) * spectrum, length)[:count]


def compute_epsilon(ctx: OperatorContext, bb: BumpBounds) -> float:
    """Largest margin in the ladder eps0 * 2^-k certifying the strict sandwich.

    Requires, on the [-d, d] window: T(u_minus + eps) stays strictly below
    u_minus + eps, T(u_plus - eps) strictly above u_plus - eps, and the
    shifted profiles stay strictly ordered.
    """
    k = ctx.centred(bb.grid.n)
    eps = bb.gap_norm() / 4.0
    for _ in range(EPSILON_HALVINGS):
        lo = bb.u_minus.values + eps
        hi = bb.u_plus.values - eps
        ok = (np.min(lo - ctx.apply_T_window(lo, k)[0]) > 0.0
              and np.min(ctx.apply_T_window(hi, k)[0] - hi) > 0.0
              and np.min(hi - lo) > 0.0)
        if ok:
            return eps
        eps /= 2.0
    raise NoConvergence(
        "no strictly positive sandwich margin found; the discretization may be "
        "too coarse or the hypotheses marginal on the [-d, d] grid of "
        f"n = {bb.grid.n}, dx = {bb.grid.dx:.6g}")


class FixedPointResult(NamedTuple):
    u_star: Profile
    residual_sup: float
    iterations: int
    dist_to_u_minus: float
    dist_to_u_plus: float
    newton_tol: float

    def to_dict(self) -> dict:
        """Every field but the profile."""
        fields = self._asdict()
        del fields["u_star"]
        return fields


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
    residual v - T(mirror v)[x >= 0] on the 2 len(v) - 1 middle nodes, by GMRES
    on the matrix-free product J s = s - K(w f'(mirror v - h) mirror s)[x >= 0]."""
    mid = len(v) - 1
    lo = ctx.centred(2 * mid)
    gain = ctx.firing.deriv(_mirror(v) - ctx.h) * ctx.weights[lo:lo + 2 * mid + 1]
    return gmres(lambda s: s - ctx.apply_weighted(gain * _mirror(s), lo, lo,
                                                  lo + 2 * mid)[mid:], r)


def _newton_even(ctx: OperatorContext, u0: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """Damped Newton for u = Tu on the even-symmetric subspace of u0's middle nodes.

    Unknowns are the node values at x >= 0; the mirror image fixes the rest and
    removes the near-singular translation mode of the unsymmetrized Jacobian.
    """
    mid = len(u0) // 2
    lo = ctx.centred(2 * mid)

    def residual(v):
        return v - ctx.apply_T_window(_mirror(v), lo)[0][mid:]

    v = u0[mid:].copy()
    r = residual(v)
    rnorm = float(np.max(np.abs(r)))
    for it in range(1, NEWTON_MAX_ITER + 1):
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
            raise NoConvergence(
                f"damping exhausted at residual {rnorm:.3e} (iteration {it})")
        v, r, rnorm = v_try, r_try, rnorm_try
    if rnorm <= tol:
        return _mirror(v), NEWTON_MAX_ITER
    raise NoConvergence(f"no convergence in {NEWTON_MAX_ITER} Newton steps "
                        f"(residual {rnorm:.3e})")


def solve_third_fixed_point(ctx: OperatorContext, bb: BumpBounds,
                            tol: float = NEWTON_TOL) -> FixedPointResult:
    """Find the interior fixed point on [-d, d] separated from both bounding profiles.

    Starts Newton from convex combinations lam*u_minus + (1-lam)*u_plus and
    rejects a limit that leaves the order interval [u_minus, u_plus] at some
    node or collapses onto either bound (DEGENERACY_THRESHOLD is relative to
    the gap norm).
    """
    k = ctx.centred(bb.grid.n)
    gap = bb.gap_norm()
    sep_min = DEGENERACY_THRESHOLD * gap
    last_exc: NoConvergence | None = None
    for lam in NEWTON_MIXES:
        u0 = lam * bb.u_minus.values + (1.0 - lam) * bb.u_plus.values
        try:
            u, iters = _newton_even(ctx, u0, tol)
        except NoConvergence as exc:
            last_exc = exc
            continue
        d_lo = float(np.max(np.abs(u - bb.u_minus.values)))
        d_hi = float(np.max(np.abs(u - bb.u_plus.values)))
        if not np.all((bb.u_minus.values <= u) & (u <= bb.u_plus.values)):
            last_exc = NoConvergence(
                f"Newton from mix {lam} left the order interval [u_minus, u_plus] "
                f"(separations {d_lo:.3e}, {d_hi:.3e})")
            continue
        if min(d_lo, d_hi) < sep_min:
            last_exc = NoConvergence(
                f"Newton from mix {lam} collapsed onto a bounding profile "
                f"(separations {d_lo:.3e}, {d_hi:.3e})")
            continue
        resid = float(np.max(np.abs(u - ctx.apply_T_window(u, k)[0])))
        return FixedPointResult(Profile(bb.grid, u), resid, iters,
                                d_lo, d_hi, tol)
    # a coarse grid is the usual cause, so the message names it
    raise NoConvergence(f"{last_exc} on the [-d, d] grid of n = {bb.grid.n}, "
                        f"dx = {bb.grid.dx:.6g}")


def tail_extension(kernel: Kernel, d: float) -> float:
    """Smallest x_tail with sup_{y in [-d,d]} |omega(x - y)| * 2d <= TAIL_TOL for x >= d + x_tail.

    For a kernel whose |omega| decreases in |x| beyond its core the supremum
    sits at y = d, so x_tail solves |omega(x_tail)| * 2d = TAIL_TOL.  The
    search doubles x from d up to TAIL_SEARCH_LIMIT (a ConfigError if |omega|
    still exceeds the target there) and bisects from the last doubling point
    where it does towards the next one, so a kernel that changes sign is
    followed past its zero to the end of its inhibitory lobe.
    """
    target = TAIL_TOL / (2.0 * d)

    def above(x):
        return abs(float(kernel(x))) > target

    x, last = d, None
    while True:
        if above(x):
            last = x
        if 2.0 * x > TAIL_SEARCH_LIMIT:
            break
        x *= 2.0
    if last == x:
        raise ConfigError(f"kernel: |omega| * 2d stays above {TAIL_TOL:g} out to "
                          f"x = {TAIL_SEARCH_LIMIT:g}, so the working line has no end")
    lo = d / 2.0 if last is None else last
    hi = 2.0 * lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
    return hi


def make_extension_grid(kernel: Kernel, grid_d: Grid) -> Grid:
    """The whole working line: ``grid_d`` on [-d, d] with ``extra`` nodes of
    the same spacing added on each side, so that [-d, d] is its centred
    window (``OperatorContext.centred``).  The line ends at d plus the
    certified tail length, rounded up to a node."""
    extra = int(math.ceil(tail_extension(kernel, grid_d.hi) / grid_d.dx - 1e-12))
    L = grid_d.hi + extra * grid_d.dx
    return Grid(-L, L, grid_d.n + 2 * extra)


def extend_bump(ctx: OperatorContext, u_star: Profile) -> Profile:
    """Whole-line bump: T on ctx's grid applied to a source that is
    f(u_star - h) on the [-d, d] window and zero elsewhere."""
    k = ctx.centred(u_star.grid.n)
    src = ctx.weights[k:k + u_star.grid.n_nodes] * ctx.firing(u_star.values - ctx.h)
    return Profile(ctx.grid, ctx.apply_weighted(src, k))
