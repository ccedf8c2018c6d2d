"""Reference implementations that only the tests use.

The dense ones build the full matrix that the package applies through FFT
products, so they serve moderate grids only.  The rest are the plain form of
a step the package computes more cheaply (the whole-grid RK4 step, the
windowed RK4 step that builds the whole line every step, power iteration for
the principal eigenpair, the tail search's bisection of a fixed 200 steps), the exact form of one it approximates (the bump
derivative through omega'), or checks that no certify stage runs (the
clamped iteration, the translation family, the Heaviside stationarity of
u_minus and u_plus, the two formulations of condition (vii), and the
comparison of the restricted and whole-line spectra whose premises certify
checks instead).  ``continuous_bump_peak``,
``continuous_bump_profile`` and ``continuous_principal_eigenvalue`` are exact
truth for the continuous equation, which no discrete result enters beyond
bracketing a root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from neurofield.assumptions import DEFAULT_PROBE, _vii_violation
from neurofield.errors import NeurofieldError, NoConvergence
from neurofield.fixedpoint import TAIL_SEARCH_LIMIT, TAIL_TOL
from neurofield.grids import Grid, Profile, quadrature_weights
from neurofield.quadrature import CumulativeKernel, indicator_convolution


class ShiftOutOfRange(NeurofieldError):
    """Requested translation pushes the profile support outside the working interval."""


def dense_linearization(lin):
    """The matrix w_j omega(x_i - x_j) g_j of a ``Linearization``."""
    return lin.ctx.kernel_matrix() * (lin.weights * lin.gains)[None, :]


def sample(grid: Grid, fn) -> Profile:
    """Sample a vectorized callable on the grid nodes."""
    return Profile(grid, np.asarray(fn(grid.nodes()), dtype=float))


def integrate(p: Profile) -> float:
    """Composite trapezoid approximation of the integral of p over its interval."""
    return float(np.dot(quadrature_weights(p.grid), p.values))


def apply_integral_operator(kernel, weight: Profile, targets: Grid) -> Profile:
    """Nystrom application: x -> integral of omega(x - y) weight(y) dy at the target nodes.

    Direct quadrature-weighted summation, chunked over target nodes to bound the
    size of the kernel-difference block.
    """
    w = quadrature_weights(weight.grid)
    src = weight.grid.nodes()
    wv = w * weight.values
    tgt = targets.nodes()
    out = np.empty(len(tgt))
    chunk = max(1, 16_000_000 // max(len(src), 1))
    for start in range(0, len(tgt), chunk):
        block = tgt[start:start + chunk, None] - src[None, :]
        out[start:start + chunk] = kernel(block) @ wv
    return Profile(targets, out)


#: power iteration gives up after this many products
POWER_MAX_ITER = 100_000


def kernel_derivative_profile(ctx, u: Profile) -> Profile:
    """u'(x) of the bump K w f(u - h) through the kernel derivative: the
    integral of omega'(x - y) f(u(y) - h) over u's grid, at its nodes.  The
    exact counterpart of the central difference that the translation check
    takes of the whole-line bump."""
    return apply_integral_operator(ctx.kernel.deriv,
                                   Profile(u.grid, ctx.firing(u.values - ctx.h)), u.grid)


def power_iteration(lin, tol: float = 1e-13) -> tuple[float, Profile]:
    """Dominant eigenvalue of a ``Linearization`` by power iteration from the
    constant-1 vector, on the whole grid.

    The eigenvector is normalized to sup-norm 1 with its largest entry
    positive.
    """
    v = np.ones(lin.grid.n_nodes)
    lam = 0.0
    for _ in range(POWER_MAX_ITER):
        w = lin.matvec(v)
        norm = float(np.max(np.abs(w)))
        if norm == 0.0:
            raise NoConvergence("operator annihilated the start vector")
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
        raise NoConvergence(
            f"dominant eigenvalue did not settle in {POWER_MAX_ITER} iterations "
            "(near-degenerate dominant pair?)")
    if v[np.argmax(np.abs(v))] < 0.0:
        v = -v
    return lam, Profile(lin.grid, v)


def dense_eigenvalues(lin):
    """Every support eigenvalue of a ``Linearization``, descending, by
    ``eigvalsh`` on the symmetrized support block s K s, s = sqrt(w g)."""
    idx = lin.support
    if idx.size == 0:
        return np.zeros(0)
    x = lin.ctx.grid.nodes()[idx]
    K = np.asarray(lin.ctx.kernel(x[:, None] - x[None, :]))
    s = np.sqrt(lin.weights[idx] * lin.gains[idx])
    return np.linalg.eigvalsh(K * s[None, :] * s[:, None])[::-1]


#: relative threshold below which a discrete eigenvalue counts as "zero"
#: (compact-operator spectra accumulate only at 0)
ZERO_EIG_REL = 1e-10


def spectra_deviation(ev_s: np.ndarray, ev_b: np.ndarray, k: int) -> tuple[float, int]:
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


def dense_even_jacobian(ctx, v):
    """Jacobian at v of the even-subspace residual v - T(mirror v)[x >= 0]:
    the kernel block of the x >= 0 rows with the mirrored columns folded onto
    the x >= 0 unknowns."""
    n = ctx.grid.n
    mid = n // 2
    full = np.concatenate([v[:0:-1], v])
    gain = ctx.firing.deriv(full - ctx.h) * ctx.weights
    M = ctx.kernel_matrix()[mid:, :] * gain[None, :]
    folded = M[:, mid:].copy()
    folded[:, 1:] += M[:, mid - 1::-1]
    return np.eye(mid + 1) - folded


def window_rk4_step(ctx, u, dt):
    """One RK4 step with the stages on ``ctx.step_window(u)`` and the new
    state off it built by one whole-line convolution, or with every stage on
    the whole grid if a stage state may exceed h off the window."""
    lo, hi = ctx.step_window(u)
    out = _window_rk4_step(ctx, u, dt, lo, hi)
    return _window_rk4_step(ctx, u, dt, 0, ctx.grid.n) if out is None else out


def _window_rk4_step(ctx, u, dt, lo, hi):
    inside, rest = u[lo:hi + 1], np.concatenate([u[:lo], u[hi + 1:]])
    top = rest.max() if rest.size else 0.0
    y, a, c, slopes, a_f, c_f = inside, 1.0, 0.0, 0.0, 1.0, 0.0
    for offset, weight in ((0.5, 1.0), (0.5, 2.0), (1.0, 2.0), (0.0, 1.0)):
        Ty, s = ctx.apply_T_window(y, lo)
        k = Ty - y
        slopes = slopes + weight * k
        y = inside + offset * dt * k
        if rest.size:
            s = s - c
            a_f -= dt / 6.0 * weight * a
            c_f = c_f + dt / 6.0 * weight * s
            a, c = 1.0 - offset * dt * a, offset * dt * s
            if offset and not (a * (top if a >= 0.0 else rest.min())
                               + float(np.sum(np.abs(c))) * ctx.envelope[0] <= ctx.h):
                return None
    new = inside + (dt / 6.0) * slopes
    if not rest.size:
        return new
    out = a_f * u + ctx.apply_weighted(c_f, lo)
    out[lo:hi + 1] = new
    return out


def window_simulate(ctx, u0, u_ref, cfg, stop_at=None):
    """``dynamics.simulate`` stepping the whole line by ``window_rk4_step``:
    (times, sup deviations from u_ref), or the partial pair once a state is
    not finite."""
    u, ref = u0.values.copy(), u_ref.values
    times, devs = [0.0], [float(np.max(np.abs(u - ref)))]
    for i in range(1, int(round(cfg.t_end / cfg.dt)) + 1):
        if stop_at is not None and devs[-1] >= stop_at:
            break
        u = window_rk4_step(ctx, u, cfg.dt)
        if not np.all(np.isfinite(u)):
            break
        times.append(i * cfg.dt)
        devs.append(float(np.max(np.abs(u - ref))))
    return np.asarray(times), np.asarray(devs)


def whole_grid_rk4_step(ctx, u, dt):
    """The classical RK4 step of u_t = -u + Tu with every stage on the whole grid."""
    def rhs(y):
        return -y + ctx.apply_T_values(y)
    k1 = rhs(u)
    k2 = rhs(u + 0.5 * dt * k1)
    k3 = rhs(u + 0.5 * dt * k2)
    k4 = rhs(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def full_bisection_tail(kernel, d: float) -> float:
    """``fixedpoint.tail_extension`` bisecting its bracket a fixed 200 times,
    on past the step after which the bracket can shrink no more."""
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
    lo = d / 2.0 if last is None else last
    hi = 2.0 * lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
    return hi


def apply_T(ctx, u: Profile) -> Profile:
    """One application of the Hammerstein operator on the context grid."""
    if u.grid != ctx.grid:
        raise ValueError("profile does not live on the operator grid")
    return Profile(ctx.grid, ctx.apply_T_values(u.values))


@dataclass(frozen=True)
class MonotoneTrace:
    """Record of a clamped-operator iteration run."""

    iterations: int
    sup_steps: tuple[float, ...]
    monotone_ok: bool
    direction: str  # "decreasing" | "increasing" | "stationary"


def monotone_iterate(ctx, bb, start: Profile, tol: float = 1e-10,
                     max_iter: int = 10_000) -> tuple[Profile, MonotoneTrace]:
    """Iterate the clamped operator and record order preservation per step."""
    u = start.values.copy()
    steps: list[float] = []
    direction = "stationary"
    monotone_ok = True
    for it in range(1, max_iter + 1):
        v = np.maximum(np.minimum(ctx.apply_T_values(u), bb.u_plus.values),
                       bb.u_minus.values)
        diff = v - u
        step = float(np.max(np.abs(diff)))
        steps.append(step)
        if step > 0.0:
            if np.all(diff <= 1e-14):
                step_dir = "decreasing"
            elif np.all(diff >= -1e-14):
                step_dir = "increasing"
            else:
                step_dir = "mixed"
            if direction == "stationary":
                direction = step_dir
            if step_dir not in (direction, "stationary"):
                monotone_ok = False
        u = v
        if step <= tol:
            return Profile(ctx.grid, u), MonotoneTrace(it, tuple(steps),
                                                       monotone_ok, direction)
    raise NoConvergence(f"clamped iteration did not settle in {max_iter} steps")


def stationary_residual(ctx_big, u: Profile) -> float:
    """Sup-norm residual of u = T u on the context grid."""
    return float(np.max(np.abs(u.values - ctx_big.apply_T_values(u.values))))


def verify_translation_family(ctx_big, u_tilde: Profile, c: float) -> float:
    """Residual of the stationary equation on the profile shifted by c.

    c must be a multiple of the grid spacing, and the shifted supra-threshold
    support must stay inside the working interval with the tail margin.
    """
    dx = ctx_big.grid.dx
    k = round(c / dx)
    if abs(c - k * dx) > 1e-9 * max(1.0, abs(c)):
        raise ShiftOutOfRange(f"shift {c} is not a multiple of the spacing {dx}")
    vals = u_tilde.values
    supra = np.nonzero(vals > ctx_big.h)[0]
    if supra.size:
        margin_cells = min(supra[0], len(vals) - 1 - supra[-1])
        if abs(k) >= margin_cells:
            raise ShiftOutOfRange(
                f"shift of {k} cells exceeds the {margin_cells}-cell support margin")
    shifted = np.roll(vals, k)
    if k > 0:
        shifted[:k] = vals[0]
    elif k < 0:
        shifted[k:] = vals[-1]
    return stationary_residual(ctx_big, Profile(ctx_big.grid, shifted))


def verify_heaviside_stationarity(kernel, bb, probe: Grid) -> dict:
    """Numeric battery for the Heaviside stationarity of u_minus and u_plus.

    On the probe grid: u_minus >= h on [0, delta_minus] and < h strictly beyond
    (one grid cell of slack at the boundary), analogously u_plus against
    h + tau; the supra-threshold supports match [-delta, delta] within one
    cell; and both profiles satisfy their Heaviside fixed-point identity
    within quadrature error.
    """
    W = CumulativeKernel(kernel)
    xs = probe.nodes()
    dx = probe.dx
    h = float(W(2.0 * bb.delta_minus))
    h_plus_tau = float(W(2.0 * bb.delta_plus))

    report: dict = {"h": h, "h_plus_tau": h_plus_tau, "checks": {}}

    def record(name, ok, margin):
        report["checks"][name] = {"status": "pass" if ok else "fail",
                                  "margin": float(margin)}

    for label, delta, level in (("u_minus", bb.delta_minus, h),
                                ("u_plus", bb.delta_plus, h_plus_tau)):
        u = indicator_convolution(W, delta, np.abs(xs))
        core = np.abs(xs) <= delta
        outside = np.abs(xs) > delta + dx
        inner_margin = np.min(u[core] - level) if core.any() else np.inf
        outer_margin = np.min(level - u[outside]) if outside.any() else np.inf
        # boundary equality u(delta) = level is accepted with zero margin
        record(f"{label}_core_above_level", inner_margin >= -1e-12, inner_margin)
        record(f"{label}_tail_below_level", outer_margin > 0.0, outer_margin)
        support = xs[u - level > 1e-12]
        if support.size:
            support_dev = max(abs(support.min() + delta), abs(support.max() - delta))
        else:
            support_dev = np.inf
        record(f"{label}_support_matches", support_dev <= dx + 1e-12, dx - support_dev)

    # Heaviside fixed-point identities T_chi u = u: apply the Nystrom operator
    # with the indicator firing rate on the bounds grid.  The indicator edge
    # falls mid-cell, so the quadrature error budget is O(dx).
    ys = bb.grid.nodes()
    wts = quadrature_weights(bb.grid)
    K = kernel(ys[:, None] - ys[None, :])
    quad_err = 4.0 * float(np.max(K)) * bb.grid.dx + 1e-12
    for label, u, delta, level in (("u_minus", bb.u_minus.values, bb.delta_minus, h),
                                   ("u_plus", bb.u_plus.values, bb.delta_plus, h_plus_tau)):
        g = (u - level > 0.0).astype(float)
        Tu = K @ (wts * g)
        resid = float(np.max(np.abs(Tu - u)))
        record(f"{label}_heaviside_fixed_point", resid <= quad_err, quad_err - resid)

    report["ok"] = all(c["status"] == "pass" for c in report["checks"].values())
    return report


def check_lemma1_equivalence(kernel, d: float, probe: Grid | None = None,
                             n_sample: int = 200) -> dict:
    """Sampled cross-check of the two equivalent formulations of condition (vii).

    Formulation one: omega decreasing on [0, 2d] and omega(x) <= omega(2d) for
    x >= 2d.  Formulation two: omega(x - y) <= omega(d - y) for all x > d and
    y in [-d, d].  Both verdicts are returned; they must agree.
    """
    if d <= 0.0:
        raise ValueError(f"need d > 0, got d={d}")
    probe = probe or DEFAULT_PROBE
    xs = probe.nodes()
    vii_violation = _vii_violation(kernel, xs, np.asarray(kernel(xs)), d)

    x_samples = d + np.linspace(probe.dx, probe.hi - d, n_sample)
    y_samples = np.linspace(-d, d, n_sample)
    lhs = kernel(x_samples[:, None] - y_samples[None, :])
    rhs = kernel(d - y_samples)[None, :]
    eq_violation = float(np.max(lhs - rhs))

    tol = 1e-12
    return {
        "vii_holds": vii_violation <= tol,
        "eq_cond_holds": eq_violation <= tol,
        "agree": (vii_violation <= tol) == (eq_violation <= tol),
        "worst_violation": float(max(vii_violation, eq_violation)),
    }


#: points of the scan that finds the one sign change of U^2 - 2 Phi(U)
PEAK_SCAN = 400


@cache
def continuous_bump_peak(p: float, tau: float, h: float) -> float:
    """U_c, the peak of the continuous bump for the exponential kernel
    omega(x) = exp(-|x|) / 2 and the ratio firing rate f of (p, tau).

    omega is the Green's function of 1 - d^2/dx^2, so the even bump solves
    u - u'' = f(u - h) with u -> 0 at infinity, whose first integral
    u'^2 = u^2 - 2 Phi(u), Phi(U) = int_h^U f(s - h) ds, vanishes at the peak:
    U_c^2 = 2 Phi(U_c) (Laing, Troy, Gutkin & Ermentrout 2002).  The root is
    the one between u_-(0) = 1 - e^-delta_- and u_+(0) = 1 - e^-delta_+, the
    sandwich's peaks, W(2 delta) = (1 - e^(-2 delta)) / 2 being h and h + tau:
    a PEAK_SCAN-point scan in floats must find exactly one sign change there,
    and mpmath refines that cell's root at 30 digits.
    """
    import mpmath as mp
    from scipy.integrate import quad

    def gap(U, p, tau, h, integral):
        """U^2 - 2 Phi(U), f being 1 past tau."""
        top = min(U, h + tau)
        inner = 0 if top <= h else integral(
            lambda s: (s - h) ** p / ((s - h) ** p + (h + tau - s) ** p), h, top)
        return U ** 2 - 2 * (inner + max(U - h - tau, 0))

    lo, hi = 1 - math.sqrt(1 - 2 * h), 1 - math.sqrt(1 - 2 * (h + tau))
    xs = np.linspace(lo, hi, PEAK_SCAN)
    signs = np.sign([gap(x, p, tau, h, lambda fn, a, b: quad(fn, a, b, epsabs=1e-15)[0])
                     for x in xs])
    cells = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    if cells.size != 1 or not np.all(signs):
        raise NoConvergence(f"{cells.size} sign changes of U^2 - 2 Phi(U) in "
                            f"({lo}, {hi})")
    with mp.workdps(30):
        exact = [mp.mpf(v) for v in (p, tau, h)]
        root = mp.findroot(lambda U: gap(U, *exact, lambda fn, a, b: mp.quad(fn, [a, b])),
                           (mp.mpf(xs[cells[0]]), mp.mpf(xs[cells[0] + 1])),
                           solver="anderson")
    return float(root)


#: the shooting run stops at the support edge x_h, or fails past this x
EDGE_SEARCH_LIMIT = 50.0


def _ratio_rate(r: float, p: float, tau: float) -> tuple[float, float]:
    """f(r) and f'(r) of the ratio firing rate of (p, tau): 0 below its layer
    (0, tau) and 1 above it."""
    if not 0.0 < r < tau:
        return float(r >= tau), 0.0
    a, b = r ** p, (tau - r) ** p
    return a / (a + b), p * tau * (r * (tau - r)) ** (p - 1) / (a + b) ** 2


def _integrate_to_edge(h: float, rhs, y0: list, **options):
    """DOP853's solution of y' = rhs(x, y) from the bump's peak x = 0 up to its
    support edge x_h, the event y[0] = u = h."""
    from scipy.integrate import solve_ivp

    def edge(x, y):
        return y[0] - h
    edge.terminal, edge.direction = True, -1
    sol = solve_ivp(rhs, (0.0, EDGE_SEARCH_LIMIT), y0, method="DOP853", rtol=1e-13,
                    atol=1e-15, events=edge, **options)
    if not sol.t_events[0].size:
        raise NoConvergence(f"the bump does not fall to h = {h} before "
                            f"x = {EDGE_SEARCH_LIMIT}")
    return sol


def continuous_bump_profile(p: float, tau: float, h: float):
    """u_c, the continuous bump for the exponential kernel and the ratio firing
    rate f of (p, tau), as a function of x.

    DOP853's dense output of u'' = u - f(u - h) from the peak, u = U_c
    (``continuous_bump_peak``), u' = 0, up to the support edge x_h where u = h,
    the run ``continuous_principal_eigenvalue`` shoots along.  Past x_h, f
    vanishes and u'' = u, so u = h e^-(|x| - x_h), the solution that decays.
    """
    def rhs(x, y):
        return [y[1], y[0] - _ratio_rate(y[0] - h, p, tau)[0]]
    sol = _integrate_to_edge(h, rhs, [continuous_bump_peak(p, tau, h), 0.0],
                             dense_output=True)
    x_h = float(sol.t_events[0][0])

    def u_c(x):
        x = np.abs(np.asarray(x, dtype=float))
        return np.where(x <= x_h, sol.sol(np.minimum(x, x_h))[0], h * np.exp(x_h - x))
    return u_c


def continuous_principal_eigenvalue(p: float, tau: float, h: float,
                                    bracket: tuple[float, float]) -> tuple[float, float]:
    """(lambda_c, x_h): the principal eigenvalue of the continuous bump's
    linearization for the exponential kernel and the ratio firing rate f of
    (p, tau), and the bump's support edge, where u(x_h) = h.

    As omega is the Green's function of 1 - d^2/dx^2, the eigenproblem
    lambda v = omega * (f'(u - h) v) reads lambda (v - v'') = f'(u - h) v.
    DOP853 integrates u'' = u - f(u - h) and v'' = v - f'(u - h) v / lambda
    from the peak, u = U_c (``continuous_bump_peak``), u' = 0, v = 1, v' = 0,
    up to the event u = h.  Past x_h, f' vanishes and the even mode decays as
    e^-|x|, so lambda_c solves v'(x_h) + v(x_h) = 0, which brentq finds
    within ``bracket`` (Laing, Troy, Gutkin & Ermentrout 2002).
    """
    from scipy.optimize import brentq

    def shoot(lam):
        def rhs(x, y):
            f, df = _ratio_rate(y[0] - h, p, tau)
            return [y[1], y[0] - f, y[3], y[2] - df * y[2] / lam]
        sol = _integrate_to_edge(h, rhs, [continuous_bump_peak(p, tau, h), 0.0, 1.0, 0.0])
        _, _, v, dv = sol.y_events[0][0]
        return v + dv, float(sol.t_events[0][0])

    lam = brentq(lambda lam: shoot(lam)[0], *bracket)
    return lam, shoot(lam)[1]
