"""Stochastic EPRB experiment: unpredictable setting changes, delayed
relaxation of the correlation parameter, CHSH estimation, and event-level
time-tag generation.

Settings alternate between analyzer basis 0 (relaxation target rho_d = 1/2)
and pi/4 (target 1/4) at Poisson-distributed coin tosses of rate mu; repeats
are allowed.  The ideal CHSH figure integrates |rho_d - rho_no_target|
against the complementary target track; the event-level path samples pair
outcomes from the instantaneous state, counts windowed coincidences, and
estimates CHSH from the four setting-pair correlations

    S = E(0, pi/8) - E(0, 3pi/8) + E(pi/4, pi/8) + E(pi/4, 3pi/8)

with the signs fixed so that perfect target tracking yields +2*sqrt(2).

Every stochastic operation is a pure function of (config, seed); the
settings / time-tag streams come from independent children of the run seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Literal, Sequence

import numpy as np

from . import states
from .dde import DdeParams, RhoDTrajectory, integrate_dde, integrate_lanes
from .errors import ConfigError, ContractViolationError, InsufficientDataError

SPEED_OF_LIGHT = 299_792_458.0  # m/s

ALPHA_VALUES = (0.0, np.pi / 4.0)
BETA_VALUES = (np.pi / 8.0, 3.0 * np.pi / 8.0)
TARGET_FOR_ALPHA = (0.5, 0.25)  # basis 0 tracks 1/2, pi/4 tracks 1/4

S_QM = 2.0 * math.sqrt(2.0)

BetaPolicy = Literal["random_per_pair", "fixed"]


@dataclass(frozen=True)
class SettingTrajectory:
    """Piecewise-constant analyzer setting on arm a.

    ``alpha0_index`` is the coin tossed at t = 0; ``times``/``alpha_indices``
    hold the strictly increasing Poisson toss times and their outcomes
    (index 0 -> alpha = 0, index 1 -> alpha = pi/4).
    """

    times: np.ndarray
    alpha_indices: np.ndarray
    alpha0_index: int
    mu: float
    duration: float

    def index_at(self, t: np.ndarray) -> np.ndarray:
        """Setting-segment index: 0 before the first toss, k after toss k."""
        return np.searchsorted(self.times, np.asarray(t, dtype=float), side="right")

    def alpha_index_at(self, t: np.ndarray) -> np.ndarray:
        seq = np.concatenate(([self.alpha0_index], self.alpha_indices)).astype(int)
        return seq[self.index_at(t)]

    def target_at(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(TARGET_FOR_ALPHA)[self.alpha_index_at(t)]


def generate_settings(mu: float, duration: float, seed) -> SettingTrajectory:
    """Poisson coin tosses at rate mu over [0, duration].

    Gap variates are drawn at unit rate and scaled by 1/mu, so trajectories
    for the same seed rescale exactly under (duration, 1/mu) -> s*(...).
    """
    if mu < 0 or duration <= 0:
        raise ConfigError("mu must be >= 0 and duration > 0")
    rng = np.random.default_rng(seed)
    alpha0 = int(rng.integers(0, 2))
    if mu == 0.0:
        times = np.empty(0)
        coins = np.empty(0, dtype=int)
    else:
        expected = mu * duration
        times_list: list[np.ndarray] = []
        t_last = 0.0
        while True:
            block = int(expected + 6.0 * math.sqrt(expected + 1.0) + 16)
            gaps = rng.exponential(1.0, size=block) / mu
            cum = t_last + np.cumsum(gaps)
            times_list.append(cum)
            t_last = float(cum[-1])
            if t_last > duration:
                break
        times = np.concatenate(times_list)
        times = times[times <= duration]
        coins = rng.integers(0, 2, size=len(times))
    return SettingTrajectory(
        times=times,
        alpha_indices=np.asarray(coins, dtype=int),
        alpha0_index=alpha0,
        mu=mu,
        duration=duration,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    gamma: float
    tau: float
    mu: float
    duration: float
    seed: int
    samples_per_tau: int = 100
    pair_rate: float | None = None
    coincidence_window: float | None = None
    beta_policy: BetaPolicy = "random_per_pair"
    beta_fixed: float = BETA_VALUES[0]
    detector_efficiency: float = 1.0
    accidental_rate: float = 0.0

    @property
    def dt(self) -> float:
        return self.tau / self.samples_per_tau

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.gamma <= 0 or self.tau <= 0 or self.duration <= 0:
            raise ConfigError("gamma, tau, duration must be positive")
        if self.mu < 0:
            raise ConfigError("mu must be >= 0")
        if self.samples_per_tau < 100:
            raise ConfigError("need at least 100 samples per tau")
        if not 0.0 <= self.detector_efficiency <= 1.0:
            raise ConfigError("detector_efficiency must be in [0, 1]")
        if self.accidental_rate < 0:
            raise ConfigError("accidental_rate must be >= 0")
        if self.pair_rate is not None and self.pair_rate <= 0:
            raise ConfigError("pair_rate must be positive when set")
        if self.pair_rate is not None and self.beta_policy == "fixed":
            _beta_index(self.beta_fixed)
        window = self.window
        if window >= self.tau / 4.0:
            raise ConfigError("coincidence window must be well below tau")

    @property
    def window(self) -> float:
        return self.coincidence_window if self.coincidence_window is not None else self.tau / 100.0


def _seed_children(seed: int, n: int = 3) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(n)


def settings_for(cfg: ExperimentConfig) -> SettingTrajectory:
    return generate_settings(cfg.mu, cfg.duration, _seed_children(cfg.seed)[0])


def simulate_rho_d(cfg: ExperimentConfig) -> RhoDTrajectory:
    """Relaxation trajectory driven by the settings stream; the history on
    t < 0 equals the initial target, so the run starts on-target."""
    cfg.validate()
    settings = settings_for(cfg)
    params = DdeParams(
        gamma=cfg.gamma,
        tau=cfg.tau,
        dt=cfg.dt,
        history_init=float(settings.target_at(np.zeros(1))[0]),
    )
    return integrate_dde(params, settings.target_at, cfg.duration)


def s_chsh_ideal(traj: RhoDTrajectory) -> float:
    """(8 sqrt(2) / T) * integral |rho_d - rho_no_target| dt (trapezoid).

    Equals 2 sqrt(2) when rho_d tracks the target exactly; uses the raw
    (unclamped) trajectory so transient excursions outside [1/4, 1/2]
    contribute with their extended weight.
    """
    dev = np.abs(traj.rho_d - traj.rho_no_target)
    integral = np.trapezoid(dev, dx=traj.dt)
    return 8.0 * math.sqrt(2.0) / traj.duration * integral


def s_chsh_per_seed(cfg: ExperimentConfig, seeds: Sequence[int]) -> np.ndarray:
    """``s_chsh_ideal(simulate_rho_d(cfg))`` for each seed, in sorted seed
    order (duplicates kept), up to round-off in the order of summation.

    All seeds integrate together, one lane each, and S is accumulated chunk
    by chunk, so no trajectory is kept.  Each lane's target is built from its
    own toss stream at the same grid times as ``simulate_rho_d``.
    """
    seeds = sorted(int(s) for s in seeds)
    if not seeds:
        raise ConfigError("need at least one seed")
    cfg.validate()
    n = int(round(cfg.duration / cfg.dt))
    tgrid = cfg.dt * np.arange(n + 4)  # the grid of integrate_dde
    alpha = np.empty((len(seeds), len(tgrid)), dtype=np.int8)
    for lane, seed in zip(alpha, seeds):
        lane[:] = settings_for(replace(cfg, seed=seed)).alpha_index_at(tgrid)
    levels = np.asarray(TARGET_FOR_ALPHA)
    lanes = [DdeParams(gamma=cfg.gamma, tau=cfg.tau, dt=cfg.dt, history_init=levels[a])
             for a in alpha[:, 0]]
    pieces = []

    def integrate_chunk(cs: int, x: np.ndarray, target: np.ndarray) -> None:
        pieces.append(np.trapezoid(np.abs(x - (0.75 - target)), dx=cfg.dt, axis=1))

    integrate_lanes(lanes, lambda lo, hi: levels[alpha[:, lo:hi]], cfg.duration, integrate_chunk)
    return 8.0 * math.sqrt(2.0) / (cfg.dt * n) * np.sum(pieces, axis=0)


def s_chsh_for(cfg: ExperimentConfig, seeds: Sequence[int]) -> float:
    """The seed-averaged ideal CHSH integral (see ``s_chsh_per_seed``)."""
    return float(np.mean(s_chsh_per_seed(cfg, seeds)))


def tune_gamma(
    mu_tau: float,
    target_s: float = S_QM,
    bracket: tuple[float, float] = (1.0, 1.6),
    seeds: Sequence[int] = tuple(range(10)),
    duration_tau: float = 2000.0,
    tolerance: float = 0.01,
    max_iter: int = 40,
) -> float:
    """Bisection on the seed-averaged ideal CHSH integral.

    For mu*tau -> 0 any moderately damped gamma already tracks, so the lower
    bracket edge is returned as soon as it meets the tolerance.  A bracket
    that does not straddle the target, or an empty seed set, raises
    ConfigError.
    """

    def s_of(gamma: float) -> float:
        cfg = ExperimentConfig(
            gamma=gamma, tau=1.0, mu=mu_tau, duration=duration_tau, seed=0
        )
        return s_chsh_for(cfg, seeds)

    lo, hi = bracket
    s_lo, s_hi = s_of(lo), s_of(hi)
    if abs(s_lo - target_s) < tolerance:
        return lo
    if abs(s_hi - target_s) < tolerance:
        return hi
    if (s_lo - target_s) * (s_hi - target_s) > 0:
        raise ConfigError(
            f"bracket does not straddle target: S({lo})={s_lo:.4f}, S({hi})={s_hi:.4f}"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        s_mid = s_of(mid)
        if abs(s_mid - target_s) < tolerance:
            return mid
        if (s_mid - target_s) * (s_lo - target_s) > 0:
            lo, s_lo = mid, s_mid
        else:
            hi, s_hi = mid, s_mid
    raise ConfigError("bisection failed to reach tolerance")


@dataclass
class TimeTagData:
    """Column-oriented time-tag stream, sorted by time.

    ``setting_index`` identifies the analyzer angle of the *local* arm:
    on arm a it indexes ALPHA_VALUES, on arm b BETA_VALUES, which keeps a
    tag file self-contained for coincidence analysis.
    """

    t: np.ndarray
    arm: np.ndarray  # '<U1', values 'a'/'b'
    port: np.ndarray  # '<U1', values '+'/'-'
    setting_index: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def is_sorted(self) -> bool:
        return bool(np.all(self.t[1:] >= self.t[:-1]))


def _probability_coefficients() -> tuple[np.ndarray, np.ndarray]:
    """Affine coefficients p = a + b*rho_d of the four outcome probabilities
    for each (alpha, beta) setting pair, from direct traces at rho_d = 0, 1.

    Shapes (2 alpha, 2 beta, 4 outcomes ordered ++, +-, -+, --).
    """
    a = np.empty((2, 2, 4))
    b = np.empty((2, 2, 4))
    for i, alpha in enumerate(ALPHA_VALUES):
        for j, beta in enumerate(BETA_VALUES):
            p0 = states.port_probabilities(states.RelaxationState(0.0), alpha, beta)
            p1 = states.port_probabilities(states.RelaxationState(1.0), alpha, beta)
            a[i, j] = p0
            b[i, j] = p1 - p0
    return a, b


_P_COEF = _probability_coefficients()


def generate_time_tags(
    cfg: ExperimentConfig,
    traj: RhoDTrajectory,
    settings: SettingTrajectory | None = None,
) -> TimeTagData:
    """Sample detection events at a finite pair rate from the trajectory.

    Pair outcomes are drawn from the instantaneous state with rho_d clamped
    to [1/4, 1/2]: a sampler needs genuine probabilities even while the
    ideal integral keeps the extended values.  Each photon is thinned by the
    detector efficiency; accidental singles arrive per arm at the configured
    rate with a uniform port.
    """
    cfg.validate()
    if cfg.pair_rate is None:
        raise ConfigError("pair_rate must be set to generate time tags")
    if settings is None:
        settings = settings_for(cfg)
    rng = np.random.default_rng(_seed_children(cfg.seed)[1])
    T = cfg.duration

    n_planned = rng.poisson(cfg.pair_rate * T)
    t_pairs = np.sort(rng.uniform(0.0, T, size=n_planned))

    alpha_idx = settings.alpha_index_at(t_pairs)
    if cfg.beta_policy == "random_per_pair":
        beta_idx = rng.integers(0, 2, size=n_planned)
    elif cfg.beta_policy == "fixed":
        beta_idx = np.full(n_planned, _beta_index(cfg.beta_fixed), dtype=int)
    else:
        raise ConfigError(f"unknown beta policy {cfg.beta_policy!r}")

    rho = np.interp(t_pairs, traj.t, traj.rho_d)
    rho = np.clip(rho, 0.25, 0.5)
    acoef, bcoef = _P_COEF
    probs = acoef[alpha_idx, beta_idx] + bcoef[alpha_idx, beta_idx] * rho[:, None]
    cum = np.cumsum(probs, axis=1)
    u = rng.random(n_planned)
    outcome = (u[:, None] > cum[:, :3]).sum(axis=1)
    port_a = outcome // 2  # 0 -> '+', 1 -> '-'
    port_b = outcome % 2

    keep_a = rng.random(n_planned) < cfg.detector_efficiency
    keep_b = rng.random(n_planned) < cfg.detector_efficiency

    parts_t = [t_pairs[keep_a], t_pairs[keep_b]]
    parts_arm = [np.full(keep_a.sum(), "a"), np.full(keep_b.sum(), "b")]
    port_char = np.array(["+", "-"])
    parts_port = [port_char[port_a[keep_a]], port_char[port_b[keep_b]]]
    parts_idx = [alpha_idx[keep_a], beta_idx[keep_b]]

    if cfg.accidental_rate > 0.0:
        for arm_label in ("a", "b"):
            n_acc = rng.poisson(cfg.accidental_rate * T)
            t_acc = rng.uniform(0.0, T, size=n_acc)
            p_acc = port_char[rng.integers(0, 2, size=n_acc)]
            if arm_label == "a":
                idx_acc = settings.alpha_index_at(t_acc)
            elif cfg.beta_policy == "fixed":
                idx_acc = np.full(n_acc, _beta_index(cfg.beta_fixed), dtype=int)
            else:
                # no pair context defines beta for a lone dark count
                idx_acc = rng.integers(0, 2, size=n_acc)
            parts_t.append(t_acc)
            parts_arm.append(np.full(n_acc, arm_label))
            parts_port.append(p_acc)
            parts_idx.append(idx_acc)

    t_all = np.concatenate(parts_t)
    order = np.argsort(t_all, kind="stable")
    return TimeTagData(
        t=t_all[order],
        arm=np.concatenate(parts_arm)[order],
        port=np.concatenate(parts_port)[order],
        setting_index=np.concatenate(parts_idx)[order].astype(int),
    )


def _beta_index(beta: float) -> int:
    for j, b in enumerate(BETA_VALUES):
        if abs(beta - b) < 1e-12:
            return j
    raise ConfigError("fixed beta must be one of the CHSH analyzer angles")


@dataclass
class CoincidencePairs:
    """Matched detection pairs: a-arm time plus both setting indices."""

    t: np.ndarray
    alpha_index: np.ndarray
    beta_index: np.ndarray
    port_a: np.ndarray  # 0 '+', 1 '-'
    port_b: np.ndarray


@dataclass
class CoincidenceCounts:
    counts: np.ndarray  # [alpha_idx, beta_idx, port_a, port_b]
    total: int
    accidental_estimate: float


def pair_coincidences(tags: TimeTagData, window: float) -> CoincidencePairs:
    """Greedy nearest-neighbour pairing of a- and b-arm events.

    The a-events are scanned in time order.  Each takes the nearest b-event
    not yet taken whose time tb lies in the inclusive window
    ``t0 - window <= tb <= t0 + window`` (bounds computed in floats) with
    ``abs(tb - t0) < window * (1 + 1e-12)``; the earlier b wins a tie.  Each
    event is used at most once.  Times must be finite and sorted.

    The scan runs in proposal rounds (see ``_greedy_match``): every open
    a-event proposes its nearest free b, and each run of a-events with
    overlapping windows keeps the proposals up to its first repeated one.
    Those are exactly the b-events the sequential scan would hand out.
    """
    if window <= 0:
        raise ConfigError("window must be positive")
    if not np.isfinite(tags.t).all():
        raise ContractViolationError("time tags must be finite")
    if not tags.is_sorted():
        raise ContractViolationError("time tags must be sorted by time")
    is_a = tags.arm == "a"
    rows_a, rows_b = np.flatnonzero(is_a), np.flatnonzero(~is_a)
    match = _greedy_match(tags.t[rows_a], tags.t[rows_b], window)
    hit = match >= 0
    rows_a, rows_b = rows_a[hit], rows_b[match[hit]]
    minus = tags.port == "-"
    return CoincidencePairs(
        t=tags.t[rows_a],
        alpha_index=tags.setting_index[rows_a].astype(int, copy=False),
        beta_index=tags.setting_index[rows_b].astype(int, copy=False),
        port_a=minus[rows_a].astype(int),
        port_b=minus[rows_b].astype(int),
    )


def _greedy_match(ta: np.ndarray, tb: np.ndarray, window: float) -> np.ndarray:
    """Index into ``tb`` of the b-event each a-event takes in the sequential
    greedy scan of ``pair_coincidences``, or -1; both arrays sorted.

    Each round, every open a-event proposes its nearest free b (one
    ``searchsorted``).  Open a-events are cut into chains where consecutive
    windows ``[t0 - window, t0 + window]`` do not overlap, so no b is within
    reach of two chains.  Within a chain, proposals before the first one that
    repeats an earlier proposal are distinct, so each is still free when its
    a-event's turn comes in the scan: they are accepted.  An a-event with no
    candidate stays unmatched, and the rest of the chain goes to the next
    round.  The first a-event of every chain is resolved, so rounds end.
    """
    tol = window * (1.0 + 1e-12)
    match = np.full(len(ta), -1)
    ia, t0, lo, hi = np.arange(len(ta)), ta, ta - window, ta + window  # open a-events
    ib, fbt = np.arange(len(tb)), tb  # free b-events within reach of an open a-event
    while len(ia) and len(ib):
        n_f = len(fbt)
        after = np.searchsorted(fbt, t0)  # first free b at or after t0
        right = np.minimum(after, n_f - 1)
        dr = np.abs(fbt[right] - t0)
        # left: the first free b at the distance of the last one before t0
        # (equal times, or distinct times that round to one distance)
        left = np.maximum(after - 1, 0)
        dl = np.abs(fbt[left] - t0)

        def ties(i):
            """Whether the free b before left[i] is in reach of open a-event i
            and at the same distance from it."""
            p = np.maximum(left[i] - 1, 0)
            return (left[i] > 0) & (fbt[p] >= lo[i]) & (np.abs(fbt[p] - t0[i]) == dl[i])

        back = np.flatnonzero(ties(slice(None)))
        while len(back):
            left[back] = np.searchsorted(fbt, fbt[left[back] - 1])  # first at that time
            back = back[ties(back)]
        # fbt[left] <= t0 <= hi and fbt[right] >= t0 >= lo hold already
        ok_l = (after > 0) & (fbt[left] >= lo) & (dl < tol)
        ok_r = (after < n_f) & (fbt[right] <= hi) & (dr < tol)
        prop = np.where(ok_r & ~(ok_l & (dl <= dr)), right, np.where(ok_l, left, -1))

        # repeat: a b that an earlier open a-event proposes, which can only
        # be one in the same chain
        has = prop >= 0
        order = np.argsort(prop, kind="stable")
        repeat = np.zeros(len(ia), dtype=bool)
        sorted_prop = prop[order]
        repeat[order[1:]] = sorted_prop[1:] == sorted_prop[:-1]
        repeat &= has
        start = np.ones(len(ia), dtype=bool)
        start[1:] = lo[1:] > hi[:-1]
        chain = np.cumsum(start)  # 1, 2, ... in time order
        # deferred: at or after the first repeat in its chain
        last_repeat = np.where(repeat, chain, 0)
        deferred = np.maximum.accumulate(last_repeat, out=last_repeat) == chain

        accept = has & ~deferred
        taken = prop[accept]
        match[ia[accept]] = ib[taken]
        keep_a = has & deferred
        ia, t0, lo, hi = ia[keep_a], t0[keep_a], lo[keep_a], hi[keep_a]
        free = np.ones(n_f, dtype=bool)
        free[taken] = False
        ib, fbt = ib[free], fbt[free]
        # drop the b-events no open a-event can reach any more
        k = np.searchsorted(hi, fbt)
        reach = k < len(ia)
        reach[reach] = lo[k[reach]] <= fbt[reach]
        ib, fbt = ib[reach], fbt[reach]
    return match


def count_coincidences(tags: TimeTagData, window: float) -> CoincidenceCounts:
    pairs = pair_coincidences(tags, window)
    counts = np.zeros((2, 2, 2, 2), dtype=int)
    np.add.at(counts, (pairs.alpha_index, pairs.beta_index, pairs.port_a, pairs.port_b), 1)
    is_a = tags.arm == "a"
    n_a, n_b = int(is_a.sum()), int((~is_a).sum())
    span = float(tags.t[-1] - tags.t[0]) if len(tags) > 1 else 0.0
    accidental = 2.0 * window * n_a * n_b / span if span > 0 else 0.0
    return CoincidenceCounts(counts=counts, total=int(counts.sum()), accidental_estimate=accidental)


@dataclass(frozen=True)
class ChshEstimate:
    value: float
    stderr: float
    correlations: np.ndarray


# CHSH sign pattern over (alpha_idx, beta_idx); fixed so perfect target
# tracking yields +2 sqrt(2)
_CHSH_SIGNS = np.array([[1.0, -1.0], [1.0, 1.0]])


def s_chsh_from_counts(counts: CoincidenceCounts) -> ChshEstimate:
    e = np.empty((2, 2))
    var = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            cell = counts.counts[i, j]
            n = cell.sum()
            if n == 0:
                raise InsufficientDataError(
                    f"no coincidences for setting pair (alpha{i}, beta{j})"
                )
            e[i, j] = (cell[0, 0] + cell[1, 1] - cell[0, 1] - cell[1, 0]) / n
            var[i, j] = max(1.0 - e[i, j] ** 2, 1.0 / n) / n
    s = float((_CHSH_SIGNS * e).sum())
    return ChshEstimate(s, float(math.sqrt(var.sum())), e)


@dataclass(frozen=True)
class FeasibilityReport:
    length_m: float
    tau: float
    pair_rate: float
    pairs_per_tau: float
    samples_per_period: float
    verdict: bool


def feasibility(
    length_m: float, pair_rate: float, required_pairs_per_tau: float = 5.0
) -> FeasibilityReport:
    """Station-separation arithmetic: tau = L/c, detected pairs per tau, and
    whether the oscillation-sampling requirement is met.

    ``samples_per_period`` counts 10-coincidence samples per 4.5 tau period.
    """
    if not all(map(math.isfinite, (length_m, pair_rate, required_pairs_per_tau))):
        raise ConfigError("length, pair rate and required pairs per tau must be finite")
    if length_m <= 0:
        raise ConfigError("length must be positive")
    if pair_rate < 0:
        raise ConfigError("pair rate must be >= 0")
    tau = length_m / SPEED_OF_LIGHT
    pairs_per_tau = pair_rate * tau
    return FeasibilityReport(
        length_m=length_m,
        tau=tau,
        pair_rate=pair_rate,
        pairs_per_tau=pairs_per_tau,
        samples_per_period=pairs_per_tau * 4.5 / 10.0,
        verdict=bool(pairs_per_tau >= required_pairs_per_tau),
    )
