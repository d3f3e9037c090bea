"""Binned rate series, periodograms, and oscillation-peak detection.

The observable oscillation lives in the *transient deviation* of the
correlation parameter from its relaxation target (equivalently, in the
coincidence rate at a mirror-symmetric analyzer pair).  The raw rho_d(t)
series additionally carries the random square wave of the settings
themselves, whose low-frequency plateau spans far more than a few FFT bins
once mu*tau < 1 and would mask the ringing peak, so trajectory spectra are
taken of rho_d - rho_target by default (``signal="deviation"``); the raw
track stays available.

Power normalization: power[j] = bin_width^2 * |FFT|^2 folded one-sided, so
that sum(power) * df == sum(|signal - mean|^2) * bin_width exactly
(Parseval).  Detection runs on a lightly smoothed copy of the power: the
raw periodogram's exponentially distributed bins make the largest of ~1000
of them exceed 10x the median routinely, which would turn white noise into
"peaks"; a moving average restores the intended meaning of the prominence
threshold while leaving the broad physical peak intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dde import RhoDTrajectory
from .errors import ConfigError, InsufficientDataError, PartialResultError
from .experiment import CoincidencePairs, ExperimentConfig, simulate_rho_d

DEFAULT_PROMINENCE = 10.0
DEFAULT_SMOOTH_BINS = 9
BACKGROUND_SKIP_BINS = 5


@dataclass
class RateSeries:
    t0: float
    bin_width: float
    values: np.ndarray

    def __post_init__(self):
        if self.bin_width <= 0:
            raise ConfigError("bin_width must be positive")


@dataclass(frozen=True)
class Peak:
    frequency: float
    power: float
    prominence: float


@dataclass(frozen=True)
class Spectrum:
    """One-sided periodogram; frequencies in cycles per unit of the series
    time axis (per tau when the series was built in tau units).  ``duration``
    is the length of the (segment) series the periodogram was taken of."""

    frequencies: np.ndarray
    power: np.ndarray
    duration: float

    @property
    def df(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])

    @property
    def background(self) -> float:
        return _background(self.power)


def bin_events(times: np.ndarray, bin_width: float, t0: float, t1: float) -> RateSeries:
    """Counts per uniform bin over [t0, t1)."""
    times = np.asarray(times, dtype=float)
    if len(times) == 0:
        raise InsufficientDataError("no events to bin")
    if t1 <= t0:
        raise ConfigError("need t1 > t0")
    n = int(math.ceil((t1 - t0) / bin_width))
    edges = t0 + bin_width * np.arange(n + 1)
    counts, _ = np.histogram(times, bins=edges)
    return RateSeries(t0=t0, bin_width=bin_width, values=counts.astype(float))


def bin_trajectory(
    traj: RhoDTrajectory, bin_width: float, signal: str = "deviation"
) -> RateSeries:
    """Per-bin means of a trajectory track.

    ``signal``: "deviation" (rho_d - rho_target), "rho_d", or "rho_no_gap"
    (rho_d - rho_no_target).  bin_width = dt passes the grid through
    unchanged.
    """
    if signal == "deviation":
        y = traj.deviation()
    elif signal == "rho_d":
        y = traj.rho_d
    elif signal == "rho_no_gap":
        y = traj.rho_d - traj.rho_no_target
    else:
        raise ConfigError(f"unknown signal {signal!r}")
    if len(y) == 0:
        raise InsufficientDataError("empty trajectory")
    per = bin_width / traj.dt
    n_per = int(round(per))
    if abs(per - n_per) > 1e-9 or n_per < 1:
        raise ConfigError("bin_width must be an integer multiple of the grid step")
    n_bins = len(y) // n_per
    if n_bins < 1:
        raise ConfigError("bin_width exceeds the trajectory length")
    vals = y[: n_bins * n_per].reshape(n_bins, n_per).mean(axis=1)
    return RateSeries(t0=traj.t0, bin_width=bin_width, values=vals)


def power_spectrum(
    series: RateSeries,
    n_segments: int = 1,
    pad_pow2: bool = True,
) -> Spectrum:
    """One-sided periodogram of the mean-subtracted series; with
    ``n_segments`` > 1 the mean periodogram of that many equal consecutive
    segments (Welch's method without overlap or taper), which trades
    frequency resolution for a lower variance of the noise floor.  Bins past
    the last whole segment are dropped."""
    if n_segments < 1:
        raise ConfigError("need at least one segment")
    m = len(series.values) // n_segments
    if m < 256:
        raise ConfigError("need at least 256 bins per segment for a spectrum")
    y = np.asarray(series.values[: n_segments * m], dtype=float).reshape(n_segments, m)
    y = y - y.mean(axis=1, keepdims=True)
    n_fft = 1 << (m - 1).bit_length() if pad_pow2 else m
    dt = series.bin_width
    power = dt * dt * np.abs(np.fft.rfft(y, n=n_fft, axis=1)) ** 2
    # fold negative frequencies so sum(power)*df preserves the signal energy
    power[:, 1:] *= 2.0
    if n_fft % 2 == 0:
        power[:, -1] /= 2.0
    return Spectrum(
        frequencies=np.fft.rfftfreq(n_fft, d=dt),
        power=power.mean(axis=0),
        duration=m * dt,
    )


def _background(power: np.ndarray) -> float:
    """Median power above the lowest few bins."""
    body = power[BACKGROUND_SKIP_BINS:]
    return float(np.median(body)) if len(body) else 0.0


def _smooth(power: np.ndarray, width: int) -> np.ndarray:
    if width <= 1:
        return power
    kernel = np.ones(width) / width
    return np.convolve(power, kernel, mode="same")


def detect_peak(
    spectrum: Spectrum,
    min_prominence_over_background: float = DEFAULT_PROMINENCE,
    smooth_bins: int = DEFAULT_SMOOTH_BINS,
) -> Peak | None:
    """Highest smoothed local maximum between 1/T and Nyquist whose power
    exceeds the threshold times the median background; None when nothing
    qualifies (flat or pure-noise spectra).

    ``smooth_bins`` counts bins of the natural resolution 1/T, so the
    detector sees the same physical bandwidth whether or not the transform
    was zero-padded.
    """
    natural_df = 1.0 / spectrum.duration
    width = max(1, int(round(smooth_bins * natural_df / spectrum.df)))
    if width % 2 == 0:
        width += 1
    p = _smooth(spectrum.power, width)
    freqs = spectrum.frequencies
    f_lo = 1.0 / spectrum.duration
    searchable = (freqs > f_lo * (1.0 + 1e-9)) & (freqs < freqs[-1])
    background = _background(p)
    if background <= 0.0:
        return None
    interior = np.zeros_like(searchable)
    interior[1:-1] = (p[1:-1] > p[:-2]) & (p[1:-1] >= p[2:])
    candidates = np.nonzero(searchable & interior)[0]
    if len(candidates) == 0:
        return None
    best = candidates[np.argmax(p[candidates])]
    prominence = float(p[best] / background)
    if prominence < min_prominence_over_background:
        return None
    # location: power-weighted centroid of the raw spectrum over the
    # half-prominence span of the smoothed peak; this tracks the physical
    # line rather than the jitter of a single raw bin and is stable under
    # zero-padding (the padded periodogram interpolates the same spectrum)
    half_level = 0.5 * (p[best] + background)
    lo = best
    while lo > 1 and p[lo - 1] >= half_level:
        lo -= 1
    hi = best
    while hi < len(p) - 1 and p[hi + 1] >= half_level:
        hi += 1
    # cover at least the smoothing window so narrow lines keep a few bins
    half = max(width // 2, 1)
    lo = max(1, min(lo, best - half))
    hi = min(len(p) - 1, max(hi, best + half))
    window_power = spectrum.power[lo : hi + 1]
    window_freqs = freqs[lo : hi + 1]
    total = float(window_power.sum())
    freq = float((window_freqs * window_power).sum() / total) if total > 0 else float(freqs[best])
    return Peak(
        frequency=freq,
        power=float(window_power.max()),
        prominence=prominence,
    )


def trajectory_spectrum(
    traj: RhoDTrajectory,
    bin_width: float | None = None,
    signal: str = "deviation",
) -> Spectrum:
    """Convenience pipeline: bin a trajectory (default tau/10-ish via ten
    grid steps) and take the periodogram."""
    if bin_width is None:
        bin_width = 10 * traj.dt
    return power_spectrum(bin_trajectory(traj, bin_width, signal))


# Sign of d<parity>/d rho_d per (alpha, beta) cell: re-signing coincidence
# parities by this makes the oscillation coupling coherent across setting
# changes instead of averaging out within a bin.
CELL_SIGN = np.array([[1.0, -1.0], [-1.0, -1.0]])


def correlation_series(
    pairs: CoincidencePairs, bin_width: float, t0: float, t1: float
) -> RateSeries:
    """Demodulated coincidence-correlation series for oscillation searches.

    Each matched pair contributes its outcome parity (+1 same port, -1
    mixed), re-signed per setting cell by CELL_SIGN and centered on the
    cell's mean parity.  Centering removes the settings telegraph that the
    cell offsets would otherwise inject; what remains couples uniformly to
    the transient deviation of the correlation parameter, with shot noise
    as the only broadband background.
    """
    if len(pairs.t) == 0:
        raise InsufficientDataError("no coincidences to bin")
    parity = (1.0 - 2.0 * np.abs(pairs.port_a - pairs.port_b)).astype(float)
    w = np.zeros(len(parity))
    for i in range(2):
        for j in range(2):
            m = (pairs.alpha_index == i) & (pairs.beta_index == j)
            if m.any():
                w[m] = CELL_SIGN[i, j] * (parity[m] - parity[m].mean())
    n = int(math.ceil((t1 - t0) / bin_width))
    edges = t0 + bin_width * np.arange(n + 1)
    z, _ = np.histogram(pairs.t, bins=edges, weights=w)
    return RateSeries(t0=t0, bin_width=bin_width, values=z)


def average_spectra(spectra: Sequence[Spectrum]) -> Spectrum:
    """Ensemble mean of same-grid periodograms (stabilizes peak location)."""
    if not spectra:
        raise InsufficientDataError("no spectra to average")
    first = spectra[0]
    for s in spectra[1:]:
        if len(s.power) != len(first.power) or abs(s.df - first.df) > 1e-15:
            raise ConfigError("spectra must share a frequency grid")
    return Spectrum(first.frequencies.copy(), np.mean([s.power for s in spectra], axis=0),
                    first.duration)


@dataclass(frozen=True)
class ScalingResult:
    taus: tuple[float, ...]
    periods: tuple[float, ...]
    slope: float
    intercept: float
    r_squared: float


def scaling_test(
    taus: Sequence[float],
    gamma: float,
    mu_tau: float,
    duration_tau: float = 2000.0,
    seeds: Sequence[int] = (0, 1, 2),
    bin_width_tau: float = 0.25,
    min_prominence: float = DEFAULT_PROMINENCE,
) -> ScalingResult:
    """Detected oscillation period versus station delay: linear fit.

    Each tau runs the full experiment pipeline in physical units; the
    detected peak period (averaged over seeds) is regressed against tau.
    Raises PartialResultError listing the (tau, seed) points with no peak.
    """
    if len(taus) < 3:
        raise ConfigError("need at least 3 tau values")
    failures: list[tuple[float, int]] = []
    periods: list[float] = []
    for tau in taus:
        per_seed = []
        for seed in seeds:
            cfg = ExperimentConfig(
                gamma=gamma,
                tau=tau,
                mu=mu_tau / tau,
                duration=duration_tau * tau,
                seed=int(seed),
            )
            traj = simulate_rho_d(cfg)
            spec = trajectory_spectrum(traj, bin_width=bin_width_tau * tau)
            peak = detect_peak(spec, min_prominence)
            if peak is None:
                failures.append((tau, int(seed)))
            else:
                per_seed.append(1.0 / peak.frequency)
        periods.append(float(np.mean(per_seed)) if per_seed else math.nan)
    if failures:
        raise PartialResultError(
            f"no oscillation peak at {len(failures)} (tau, seed) points", failures
        )
    x = np.asarray(taus, dtype=float)
    y = np.asarray(periods)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return ScalingResult(
        taus=tuple(float(t) for t in taus),
        periods=tuple(float(p) for p in y),
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
    )
