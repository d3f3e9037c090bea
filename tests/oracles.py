"""Independent oracles used by the test suite.

Kept outside the package on purpose: these must not share code with the
implementation paths they check.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def characteristic_root(gamma: float, tol: float = 1e-14, max_iter: int = 200) -> complex:
    """Dominant root of lam = -gamma * exp(-lam) by 2-D Newton iteration.

    For gamma > 1/e the principal pair is complex; the member with positive
    imaginary part is returned.  For smaller gamma the dominant root is real.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if gamma <= 1.0 / math.e:
        lo, hi = -1.0, 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid + gamma * math.exp(-mid) > 0:
                hi = mid
            else:
                lo = mid
        lam = complex(0.5 * (lo + hi), 0.0)
    else:
        # seed the oscillatory branch from the parametric curve
        # gamma(b) = b * exp(-b/tan(b)) / sin(b), a = -b/tan(b), b in (0, pi)
        bs = np.linspace(1e-4, math.pi - 1e-4, 20000)
        with np.errstate(over="ignore", invalid="ignore"):
            gs = bs * np.exp(-bs / np.tan(bs)) / np.sin(bs)
        b0 = float(bs[np.nanargmin(np.abs(gs - gamma))])
        lam = complex(-b0 / math.tan(b0), b0)
    for _ in range(max_iter):
        f = lam + gamma * cmath.exp(-lam)
        fp = 1.0 - gamma * cmath.exp(-lam)
        step = f / fp
        lam -= step
        if abs(step) < tol:
            break
    assert abs(lam + gamma * cmath.exp(-lam)) < 1e-10
    return lam


def root_decay_period(gamma: float) -> tuple[float, float]:
    lam = characteristic_root(gamma)
    decay = -1.0 / lam.real
    period = 2.0 * math.pi / lam.imag if lam.imag > 1e-12 else math.inf
    return decay, period


def stepped_s_chsh(gamma: float, settings, samples_per_tau: int = 100) -> float:
    """Ideal CHSH integral of a coin-toss run, by an integral-form method of
    steps (tau = 1) that shares no code with ``eprb_delay.dde``.

    ``settings`` supplies only the raw toss stream (``alpha0_index``,
    ``times``, ``alpha_indices``, ``duration``); index 0 targets 1/2 and
    index 1 targets 1/4.  On the grid t_j = j h, h = 1/samples_per_tau,

        x(t) = x(0) - gamma int_0^t x(s - 1) ds + gamma int_0^t target(s) ds,

    with x = x(0) = initial target on t <= 0.  The target integral is exact
    (cumulative integral of the step function, evaluated at the Poisson toss
    times); the delayed integral uses the trapezoid rule on stored nodes
    (Bellen & Zennaro, Numerical Methods for Delay Differential Equations,
    2003).  S = (8 sqrt(2) / T) int |x - (3/4 - target)| dt, trapezoid.
    The run must last at least one delay.
    """
    n = samples_per_tau
    h = 1.0 / n
    duration = float(settings.duration)
    tosses = np.asarray(settings.times, dtype=float)
    coins = np.concatenate(([settings.alpha0_index], settings.alpha_indices))
    values = np.where(coins == 0, 0.5, 0.25)
    starts = np.concatenate(([0.0], tosses))
    at_start = np.concatenate(([0.0], np.cumsum(values[:-1] * np.diff(starts))))

    n_cells = int(round(duration * n))
    t = h * np.arange(n_cells + 1)
    seg = np.searchsorted(tosses, t, side="right")
    target = values[seg]
    target_integral = at_start[seg] + values[seg] * (t - starts[seg])

    x0 = values[0]
    x = np.empty(n_cells + 1)
    # on [0, 1] the delayed term is the constant history, integrated exactly
    x[: n + 1] = x0 + gamma * (target_integral[: n + 1] - x0 * t[: n + 1])
    delayed_integral = x0 * t[n]
    for cs in range(n, n_cells, n):
        ce = min(cs + n, n_cells)
        d = x[cs - n : ce - n + 1]
        cum = delayed_integral + np.cumsum(0.5 * h * (d[:-1] + d[1:]))
        x[cs + 1 : ce + 1] = x0 - gamma * cum + gamma * target_integral[cs + 1 : ce + 1]
        delayed_integral = cum[-1]

    dev = np.abs(x - (0.75 - target))
    integral = h * (dev.sum() - 0.5 * (dev[0] + dev[-1]))
    return 8.0 * math.sqrt(2.0) / duration * integral


def stepped_grid(
    gamma: float, tau: float, dt: float, history: float, target: np.ndarray
) -> np.ndarray:
    """The package's method-of-steps loop before it gained a lane axis: one
    run, the whole trajectory in memory, x(t<=0) = history.

    Advances x through n = len(target)-4 cells; ``target`` carries 3 extra
    trailing nodes so the one-sided stencils of a short final chunk never run
    out of data.  Kept as a regression oracle for the lane loop.
    """
    w_fwd = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0  # nodes m .. m+3
    w_bwd = np.array([1.0, -5.0, 19.0, 9.0]) / 24.0  # nodes m-2 .. m+1
    n = len(target) - 4
    if n < 4:
        raise ValueError("need at least 4 integration cells")
    n_delay = round(tau / dt)
    rate = -gamma / tau

    x = np.empty(n + 1)
    x[0] = history
    f = np.empty(n + 4)

    for cs in range(0, n, n_delay):
        ce = min(cs + n_delay, n)
        # RHS samples for this chunk; every delayed lookup is already known.
        # A short final chunk (< 4 cells) borrows up to 3 trailing nodes so
        # its one-sided stencils have data; their delayed indices still lie
        # at least n_delay - 6 cells behind the solved region.
        fe = ce + 3 if (ce == n and ce - cs < 4) else ce
        js = np.arange(cs, fe + 1)
        delayed = np.where(js >= n_delay, x[np.maximum(js - n_delay, 0)], history)
        f[cs : fe + 1] = rate * (delayed - target[cs : fe + 1])

        # solution kinks sit at the chunk boundaries, so no stencil may
        # straddle them: forward rule for the first cell, backward for the
        # last, centered in between -- every lookup stays in [cs, ce]
        inc = np.empty(ce - cs)
        m0, m1 = cs + 1, ce - 2
        if m1 >= m0:
            seg = f[m0 - 1 : m1 + 3]
            inc[1 : m1 - cs + 1] = (dt / 24.0) * (
                -seg[:-3] + 13.0 * seg[1:-2] + 13.0 * seg[2:-1] - seg[3:]
            )
        inc[0] = dt * (w_fwd @ f[cs : cs + 4])
        if ce - 1 > cs:
            inc[ce - 1 - cs] = dt * (w_bwd @ f[ce - 3 : ce + 1])
        x[cs + 1 : ce + 1] = x[cs] + np.cumsum(inc)
    return x


def projector_2x2(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)


def mixture_rho_alpha(alpha: float) -> np.ndarray:
    """Equal mixture of both-photons-along-alpha and both-orthogonal."""
    p = projector_2x2(alpha)
    q = projector_2x2(alpha + math.pi / 2.0)
    return 0.5 * (np.kron(p, p) + np.kron(q, q))


def brute_probability(rho: np.ndarray, alpha: float, beta: float,
                      port_a: str = "+", port_b: str = "+") -> float:
    """Coincidence probability via explicit kron projectors (independent of
    the package's analyzer-matrix path)."""
    a = alpha if port_a == "+" else alpha + math.pi / 2.0
    b = beta if port_b == "+" else beta + math.pi / 2.0
    op = np.kron(projector_2x2(a), projector_2x2(b))
    return float(np.trace(rho @ op).real)


def eq7_probability(rho_d: float, alpha: float, beta: float) -> float:
    """Closed form for the one-parameter relaxation family."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    return (
        ca * ca * (rho_d * cb * cb + 0.5 * (1 - 2 * rho_d) * sb * sb)
        + 2.0 * ca * sa * cb * sb * (1 - 2 * rho_d)
        + sa * sa * (rho_d + 0.5 * (1 - 4 * rho_d) * cb * cb)
    )


def rot_invariant_probability(rho_d: float, alpha: float, beta: float) -> float:
    """Closed form for the rotationally invariant family (anti-corner drops
    out; cross term carries 4 rho_d - 1)."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    return (
        ca * ca * (rho_d * cb * cb + 0.5 * (1 - 2 * rho_d) * sb * sb)
        + ca * sa * cb * sb * (4 * rho_d - 1)
        + sa * sa * (rho_d + 0.5 * (1 - 4 * rho_d) * cb * cb)
    )


def twist_invariant_probability(d: float, alpha: float, beta: float) -> float:
    """Twist-family closed form: the cross term flips sign."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    return (
        ca * ca * (d * cb * cb + 0.5 * (1 - 2 * d) * sb * sb)
        - ca * sa * cb * sb * (4 * d - 1)
        + sa * sa * (d + 0.5 * (1 - 4 * d) * cb * cb)
    )


def greedy_pairs(ta: np.ndarray, tb: np.ndarray, window: float) -> tuple[np.ndarray, np.ndarray]:
    """Sequential greedy coincidence pairing, one a-event at a time.

    Scans the sorted a-arm times ``ta`` in order; each takes the nearest
    still-unused b-arm time in ``tb`` (sorted) within ``window``, the
    earlier b on a tie.  Returns the matched a indices and their b indices.
    """
    used = np.zeros(len(tb), dtype=bool)
    out_a, out_b = [], []
    lo = 0
    for k in range(len(ta)):
        t0 = ta[k]
        while lo < len(tb) and (tb[lo] < t0 - window or used[lo]):
            lo += 1
        best = -1
        best_dt = window * (1.0 + 1e-12)
        j = lo
        while j < len(tb) and tb[j] <= t0 + window:
            if not used[j]:
                d = abs(tb[j] - t0)
                if d < best_dt:
                    best_dt = d
                    best = j
            j += 1
        if best >= 0:
            used[best] = True
            out_a.append(k)
            out_b.append(best)
    return np.asarray(out_a, dtype=int), np.asarray(out_b, dtype=int)
