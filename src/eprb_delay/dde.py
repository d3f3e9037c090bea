"""Delay equation for the correlation parameter.

The dynamical law is

    d rho_d(t) / dt = -(Gamma / tau) * [rho_d(t - tau) - rho_target(t)]

with constant history on t < 0.  Gamma = 4 g^2 tau is the dimensionless gain
and tau the light-travel delay across the setup.  In units of tau the
equation depends on Gamma alone, so every trajectory rescales exactly with
tau.  The dominant characteristic root solves lam = -Gamma exp(-lam):
oscillatory for Gamma > 1/e, divergent for Gamma > pi/2.

Integration scheme
------------------
Method of steps on a uniform grid with dt an exact divisor of tau, so every
delayed lookup lands on a stored grid point.  Because the right-hand side
does not involve the *current* value, the update over one cell is a pure
quadrature of grid samples of the RHS; each cell is integrated with the
4-point Newton-Cotes cell rules (interior stencil -1/13/13/-1 over 24,
one-sided at the start and at each tau-chunk end), giving a global 4th-order
explicit scheme with no interpolation of the delayed term.  Solution kinks
propagate at multiples of tau and land on chunk boundaries, where the
stencils are one-sided, so the formal order survives them.

One chunk loop serves every caller.  It advances B lanes at once (runs that
share gain and grid but not history or target) and hands each finished
tau-chunk to a consumer: ``integrate_dde`` keeps the whole one-lane
trajectory, ``integrate_lanes`` lets the caller reduce each chunk and drop it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError

# cell-integral weights for a cubic through 4 consecutive samples; the
# interior cells use the centered pattern (-1, 13, 13, -1)/24 inline
_W_FWD = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0  # nodes m .. m+3
_W_BWD = np.array([1.0, -5.0, 19.0, 9.0]) / 24.0  # nodes m-2 .. m+1

DIVERGENCE_AMPLITUDE = 2.5  # |rho_d - target| far beyond the physical 1/4 scale
ENVELOPE_RATIO_THRESHOLD = 1.05
STEP_T_END_TAU = 60.0  # shortest step-response run the measurement accepts


@dataclass(frozen=True)
class DdeParams:
    gamma: float
    tau: float
    dt: float
    history_init: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.gamma, self.tau, self.dt, self.history_init))):
            raise ConfigError("gamma, tau, dt and history_init must be finite")
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive")
        if self.tau <= 0 or self.dt <= 0:
            raise ConfigError("tau and dt must be positive")
        ratio = self.tau / self.dt
        n = round(ratio)
        if n < 100 or abs(ratio - n) > 1e-9 * max(1.0, ratio):
            raise ConfigError("dt must equal tau / N for integer N >= 100")

    @property
    def steps_per_tau(self) -> int:
        return round(self.tau / self.dt)


@dataclass
class RhoDTrajectory:
    """Uniform-grid solution plus the relaxation-target track."""

    t0: float
    dt: float
    rho_d: np.ndarray
    rho_target: np.ndarray
    diverged: bool = False

    @property
    def t(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.rho_d))

    @property
    def duration(self) -> float:
        return self.dt * (len(self.rho_d) - 1)

    @property
    def rho_no_target(self) -> np.ndarray:
        """The complementary target track, 3/4 - target."""
        return 0.75 - self.rho_target

    def deviation(self) -> np.ndarray:
        """rho_d minus the instantaneous relaxation target: the transient
        the experiment is designed to detect (no settings square wave)."""
        return self.rho_d - self.rho_target


@dataclass(frozen=True)
class StepResponse:
    decay_time: float
    period: float
    diverged: bool

    @property
    def oscillatory(self) -> bool:
        return not math.isnan(self.period)


Target = Callable[[int, int], np.ndarray]
Consumer = Callable[[int, np.ndarray, np.ndarray], None]


def _cells(t_end: float, dt: float) -> int:
    n = int(round(t_end / dt))
    if n < 4:
        raise ConfigError("need at least 4 integration cells")
    return n


def _integrate_grid(
    gamma: float, tau: float, dt: float, history: np.ndarray, n: int,
    target: Target, consume: Consumer,
) -> None:
    """Advance B lanes through n cells, one tau-chunk at a time; lane b has
    x(t<=0) = history[b].

    ``target(lo, hi)`` returns the (B, hi - lo) target samples at nodes
    lo .. hi-1.  It is asked for up to 3 nodes past node n, so the one-sided
    stencils of a short final chunk never run out of data.  Each finished
    chunk goes to ``consume(cs, x, target)`` with x and the target at nodes
    cs .. ce, shape (B, ce - cs + 1).  Only the previous chunk is kept: it
    holds x at the delayed nodes of the next one.
    """
    n_delay = round(tau / dt)
    rate = -gamma / tau
    n_lanes = len(history)
    # x at nodes cs - n_delay .. cs, and the RHS samples of the previous chunk
    prev = np.repeat(history[:, None], n_delay + 1, axis=1)
    f_prev = None

    for cs in range(0, n, n_delay):
        ce = min(cs + n_delay, n)
        m = ce - cs
        # RHS samples for this chunk; every delayed lookup is already known.
        # A short final chunk (< 4 cells) borrows up to 3 trailing nodes so
        # its one-sided stencils have data; their delayed nodes still lie in
        # the previous chunk.
        fe = ce + 3 if (ce == n and m < 4) else ce
        tc = target(cs, fe + 1)
        if tc.shape != (n_lanes, fe - cs + 1):
            raise ConfigError("target must return one value per lane and node")
        f = rate * (prev[:, : fe - cs + 1] - tc)

        # solution kinks sit at the chunk boundaries, so no stencil may
        # straddle them: forward rule for the first cell, backward for the
        # last, centered in between -- every lookup stays in [cs, ce], except
        # that a 2-cell final chunk reaches back one node into the previous one
        inc = np.empty((n_lanes, m))
        if m >= 3:
            seg = f[:, : m + 1]
            inc[:, 1 : m - 1] = (dt / 24.0) * (
                -seg[:, :-3] + 13.0 * seg[:, 1:-2] + 13.0 * seg[:, 2:-1] - seg[:, 3:]
            )
        inc[:, 0] = dt * (f[:, :4] @ _W_FWD)
        if m > 1:
            end = f[:, m - 3 : m + 1] if m > 2 else np.hstack((f_prev[:, -2:-1], f[:, :3]))
            inc[:, m - 1] = dt * (end @ _W_BWD)
        x = np.empty((n_lanes, m + 1))
        x[:, 0] = prev[:, -1]
        x[:, 1:] = x[:, :1] + np.cumsum(inc, axis=1)
        consume(cs, x, tc[:, : m + 1])
        prev, f_prev = x, f


def integrate_lanes(
    lanes: Sequence[DdeParams], target: Target, t_end: float, consume: Consumer
) -> None:
    """Solve on [0, t_end] for several runs at once, one lane per run, and
    stream the solution out chunk by chunk.

    The lanes share gamma, tau and dt; each has its own history and target.
    ``target`` and ``consume`` follow ``_integrate_grid``: ``target(lo, hi)``
    gives every lane's target at nodes lo .. hi-1 (up to node n + 3 for
    n = t_end / dt cells), and ``consume(cs, x, target)`` receives each
    tau-chunk of the solution from node cs on.  No trajectory is kept.
    """
    if not lanes:
        raise ConfigError("need at least one lane")
    p = lanes[0]
    if any((q.gamma, q.tau, q.dt) != (p.gamma, p.tau, p.dt) for q in lanes):
        raise ConfigError("lanes must share gamma, tau and dt")
    history = np.array([q.history_init for q in lanes], dtype=float)
    _integrate_grid(p.gamma, p.tau, p.dt, history, _cells(t_end, p.dt), target, consume)


def integrate_dde(
    params: DdeParams,
    target_fn: Callable[[np.ndarray], np.ndarray],
    t_end: float,
) -> RhoDTrajectory:
    """Solve for rho_d(t) on [0, t_end] with a piecewise-constant target.

    ``target_fn`` must be vectorized over a time array and return values in
    {1/4, 1/2}; the complementary track is 3/4 - target.
    """
    n = _cells(t_end, params.dt)
    tgrid = params.dt * np.arange(n + 4)  # 3 trailing nodes feed the stencils
    target = np.asarray(target_fn(tgrid), dtype=float)
    if target.shape != tgrid.shape:
        raise ConfigError("target_fn must return one value per grid time")
    x = np.empty(n + 1)

    def fill(cs: int, chunk: np.ndarray, _target: np.ndarray) -> None:
        x[cs : cs + chunk.shape[1]] = chunk[0]

    history = np.array([params.history_init], dtype=float)
    _integrate_grid(params.gamma, params.tau, params.dt, history, n,
                    lambda lo, hi: target[None, lo:hi], fill)
    target = target[: n + 1]
    diverged = bool(np.max(np.abs(x - target)) > DIVERGENCE_AMPLITUDE)
    return RhoDTrajectory(t0=0.0, dt=params.dt, rho_d=x, rho_target=target, diverged=diverged)


def step_trajectory(
    gamma: float, t_end_tau: float = 60.0, samples_per_tau: int = 100
) -> RhoDTrajectory:
    """Response to a single setting change at t = 0 (basis 0 -> pi/4):
    history rho_d = 1/2, constant target 1/4.  Times in units of tau."""
    params = DdeParams(gamma=gamma, tau=1.0, dt=1.0 / samples_per_tau, history_init=0.5)
    return integrate_dde(params, lambda t: np.full_like(t, 0.25), t_end_tau)


def downward_crossings(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Times where x crosses zero going down (linear sub-grid refinement)."""
    sign_here = x[:-1] > 0.0
    sign_next = x[1:] <= 0.0
    idx = np.nonzero(sign_here & sign_next)[0]
    frac = x[idx] / (x[idx] - x[idx + 1])
    return t[idx] + frac * (t[idx + 1] - t[idx])


def envelope_maxima(t: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Local maxima of |x| (interior, strict on the left, floored at 1e-12
    of the global maximum to stay clear of rounding noise)."""
    y = np.abs(x)
    interior = (y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:])
    idx = np.nonzero(interior)[0] + 1
    keep = y[idx] > 1e-12 * y.max()
    idx = idx[keep]
    return t[idx], y[idx]


def measure_step_response(traj: RhoDTrajectory) -> StepResponse:
    """Decay time, oscillation period, and divergence flag for a single-step
    target.

    Period: mean spacing of the first 5 intervals between successive
    downward zero crossings of the deviation.  Decay time: exponential fit
    to the |deviation| local maxima, skipping the first (still mixed with
    subdominant transients); a log-fit of |deviation| itself is used when
    there is no ringing.  Divergence: the late-window envelope grows.
    """
    t = traj.t
    x = traj.deviation()
    if traj.duration < STEP_T_END_TAU - 1e-9:
        raise ConfigError(f"step response needs t_end >= {STEP_T_END_TAU:g} tau")

    # divergence: compare |x| envelopes over [0.2T, 0.6T) and [0.6T, T]
    t_end = t[-1]
    w1 = (t >= 0.2 * t_end) & (t < 0.6 * t_end)
    w2 = t >= 0.6 * t_end
    m1, m2 = np.abs(x[w1]).max(), np.abs(x[w2]).max()
    diverged = bool(m2 > ENVELOPE_RATIO_THRESHOLD * m1)

    crossings = downward_crossings(t, x)
    if len(crossings) >= 2:
        spacings = np.diff(crossings)[:5]
        period = float(np.mean(spacings))
    else:
        period = math.nan

    tm, ym = envelope_maxima(t, x)
    if len(tm) >= 3:
        use = slice(1, 9)
        coeff = np.polyfit(tm[use], np.log(ym[use]), 1)
        slope = coeff[0]
    else:
        # monotonic decay: fit log|x| directly over the early window
        mask = (np.abs(x) > 1e-10 * np.abs(x).max()) & (t > 0)
        coeff = np.polyfit(t[mask][:2000], np.log(np.abs(x[mask][:2000])), 1)
        slope = coeff[0]
    decay = math.inf if slope >= 0 else -1.0 / slope
    return StepResponse(decay_time=float(decay), period=period, diverged=diverged)


def step_response(
    gamma: float, t_end_tau: float = 60.0, samples_per_tau: int = 100
) -> StepResponse:
    return measure_step_response(step_trajectory(gamma, t_end_tau, samples_per_tau))


@dataclass(frozen=True)
class SweepRow:
    gamma: float
    decay_time_tau: float
    period_tau: float
    diverged: bool


def gamma_sweep(gammas: Sequence[float], t_end_tau: float = 60.0) -> list[SweepRow]:
    rows = []
    for g in gammas:
        r = step_response(g, t_end_tau)
        rows.append(SweepRow(g, r.decay_time, r.period, r.diverged))
    return rows


def find_divergence_threshold(
    lo: float = 1.3,
    hi: float = 1.8,
    width: float = 0.016,
    t_end_tau: float = 60.0,
) -> tuple[float, float]:
    """Bisection on the diverged flag; returns the final (stable, divergent)
    bracket once it is narrower than ``width``."""
    flag_lo = step_response(lo, t_end_tau).diverged
    flag_hi = step_response(hi, t_end_tau).diverged
    if flag_lo or not flag_hi:
        raise ConfigError("bracket must run from a stable to a divergent gamma")
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if step_response(mid, t_end_tau).diverged:
            hi = mid
        else:
            lo = mid
    return lo, hi
