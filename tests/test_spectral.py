import math
from dataclasses import replace

import numpy as np
import pytest

from eprb_delay import experiment as ex, spectral as sp
from eprb_delay.errors import ConfigError, InsufficientDataError, PartialResultError


def fig5_trajectory(seed=0, gamma=0.9, duration=2000.0, mu=0.2):
    cfg = ex.ExperimentConfig(gamma=gamma, tau=1.0, mu=mu, duration=duration, seed=seed)
    return ex.simulate_rho_d(cfg)


class TestBinning:
    def test_poisson_rate(self):
        rng = np.random.default_rng(0)
        times = np.sort(rng.uniform(0, 1000.0, 5000))
        rs = sp.bin_events(times, 1.0, 0.0, 1000.0)
        assert rs.values.sum() == 5000
        assert abs(rs.values.mean() - 5.0) < 4.0 * math.sqrt(5.0 / 1000.0)

    def test_trajectory_passthrough_at_grid_width(self):
        traj = fig5_trajectory(duration=300.0)
        rs = sp.bin_trajectory(traj, traj.dt, signal="rho_d")
        assert np.allclose(rs.values, traj.rho_d[: len(rs.values)])

    def test_conservation(self):
        rng = np.random.default_rng(1)
        times = np.sort(rng.uniform(0, 100.0, 700))
        rs = sp.bin_events(times, 0.25, 0.0, 100.0)
        assert rs.values.sum() == 700

    def test_empty_input_raises(self):
        with pytest.raises(InsufficientDataError):
            sp.bin_events(np.array([]), 0.1, 0.0, 1.0)


class TestPowerSpectrum:
    def test_parseval(self):
        traj = fig5_trajectory()
        rs = sp.bin_trajectory(traj, 0.1)
        spec = sp.power_spectrum(rs)
        lhs = np.sum((rs.values - rs.values.mean()) ** 2) * rs.bin_width
        rhs = np.sum(spec.power) * spec.df
        assert abs(lhs - rhs) < 1e-9 * lhs

    def test_minimum_length(self):
        with pytest.raises(ConfigError):
            sp.power_spectrum(sp.RateSeries(0.0, 0.1, np.zeros(100)))

    def test_segments_need_256_bins_each(self):
        series = sp.RateSeries(0.0, 0.1, np.zeros(1000))
        for n_segments in (0, 4):
            with pytest.raises(ConfigError):
                sp.power_spectrum(series, n_segments)

    @pytest.mark.parametrize("n_segments", [1, 3, 8])
    def test_segments_average_per_segment_periodograms(self, n_segments):
        # the definition of segment averaging: the mean of the periodograms
        # of n equal consecutive segments, bins past the last one dropped
        cfg = ex.ExperimentConfig(gamma=0.9, tau=1.0, mu=0.2, duration=2000.0, seed=0,
                                  pair_rate=1.0)
        pairs = ex.pair_coincidences(ex.generate_time_tags(cfg, ex.simulate_rho_d(cfg)),
                                     cfg.window)
        series = sp.correlation_series(pairs, 0.25, 0.0, cfg.duration)
        m = len(series.values) // n_segments
        segments = [
            sp.power_spectrum(sp.RateSeries(series.t0 + k * m * series.bin_width,
                                            series.bin_width,
                                            series.values[k * m : (k + 1) * m]))
            for k in range(n_segments)
        ]
        expected = sp.average_spectra(segments)
        spec = sp.power_spectrum(series, n_segments)
        assert np.array_equal(spec.power, expected.power)
        assert np.array_equal(spec.frequencies, expected.frequencies)
        assert spec.duration == expected.duration == m * series.bin_width

    def test_sinusoid_peak_at_bin(self):
        n, dt = 8192, 0.1
        f0 = 50 / (n * dt)
        series = sp.RateSeries(0.0, dt, np.sin(2 * np.pi * f0 * dt * np.arange(n)))
        peak = sp.detect_peak(sp.power_spectrum(series))
        assert peak is not None
        assert abs(peak.frequency - f0) < 1e-12

    def test_white_noise_rarely_produces_peaks(self):
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            rs = sp.RateSeries(0.0, 0.1, rng.normal(size=8192))
            if sp.detect_peak(sp.power_spectrum(rs)) is not None:
                hits += 1
        assert hits <= 1

    def test_zero_padding_moves_peak_less_than_one_bin(self):
        traj = fig5_trajectory(seed=4)
        rs = sp.bin_trajectory(traj, 0.1)
        padded = sp.detect_peak(sp.power_spectrum(rs, pad_pow2=True))
        plain = sp.detect_peak(sp.power_spectrum(rs, pad_pow2=False))
        df_plain = 1.0 / (len(rs.values) * rs.bin_width)
        assert abs(padded.frequency - plain.frequency) <= df_plain


class TestOscillationPeak:
    def ensemble(self, gamma, seeds=range(10), duration=2000.0, mu=0.2):
        specs = [
            sp.trajectory_spectrum(fig5_trajectory(seed, gamma, duration, mu))
            for seed in seeds
        ]
        return sp.average_spectra(specs)

    def test_fig5_ensemble_peak_position_and_prominence(self):
        peak = sp.detect_peak(self.ensemble(0.9))
        assert peak is not None
        assert abs(peak.frequency - 0.213) < 0.1 * 0.213
        assert peak.prominence >= 10.0

    def test_flat_run_has_no_peak(self):
        cfg = ex.ExperimentConfig(gamma=1.0, tau=1.0, mu=0.0, duration=500.0, seed=2)
        spec = sp.trajectory_spectrum(ex.simulate_rho_d(cfg))
        assert sp.detect_peak(spec) is None

    def test_smaller_gamma_shifts_peak_down(self):
        low = sp.detect_peak(self.ensemble(0.4))
        ref = sp.detect_peak(self.ensemble(0.9))
        assert low is not None and ref is not None
        assert low.frequency < ref.frequency

    def test_raw_signal_is_dominated_by_settings_plateau(self):
        # the motivation for the deviation default: the raw correlation
        # parameter's spectrum peaks at the settings telegraph, not at the
        # ringing frequency
        traj = fig5_trajectory(seed=0)
        raw = sp.detect_peak(sp.trajectory_spectrum(traj, signal="rho_d"))
        assert raw is not None
        assert raw.frequency < 0.05

    def test_high_rate_near_critical_peak_sharper_higher_same_band(self):
        # gamma = 1.549 at mu tau = 13 sits just below the divergence
        # threshold pi/2, above the gain that tunes S to 2 sqrt(2)
        ref = sp.detect_peak(self.ensemble(0.9))
        near_critical = sp.detect_peak(self.ensemble(1.549, mu=13.0))
        assert near_critical is not None
        assert near_critical.prominence > ref.prominence
        assert 1 / 5.0 < near_critical.frequency < 1 / 3.8


class TestEventLevel:
    def spectra(self, cfg, seeds, n_seg=8, bin_width=0.25):
        specs = []
        for seed in seeds:
            c = replace(cfg, seed=seed)
            traj = ex.simulate_rho_d(c)
            tags = ex.generate_time_tags(c, traj)
            pairs = ex.pair_coincidences(tags, c.window)
            series = sp.correlation_series(pairs, bin_width, 0.0, c.duration)
            specs.append(sp.power_spectrum(series, n_seg))
        return sp.average_spectra(specs)

    def test_trajectory_and_event_peaks_agree_within_one_bin(self):
        # near-critical high-switching run: a sharp peak even at 1 pair/tau
        cfg = ex.ExperimentConfig(
            gamma=1.549,
            tau=1.0,
            mu=13.0,
            duration=4000.0,
            seed=0,
            pair_rate=1.0,
            coincidence_window=0.01,
        )
        seeds = range(4)
        event_spec = self.spectra(cfg, seeds)
        event_peak = sp.detect_peak(event_spec, 2.0, smooth_bins=1)
        # same Welch segmentation on the deviation track
        traj_specs = []
        for seed in seeds:
            traj = ex.simulate_rho_d(replace(cfg, seed=seed))
            series = sp.bin_trajectory(traj, 0.25)
            traj_specs.append(sp.power_spectrum(series, 8))
        traj_peak = sp.detect_peak(sp.average_spectra(traj_specs), 2.0, smooth_bins=1)
        assert event_peak is not None and traj_peak is not None
        assert abs(event_peak.frequency - traj_peak.frequency) <= event_spec.df + 1e-12


class TestScaling:
    def test_linear_in_tau(self):
        res = sp.scaling_test([1.0, 2.0, 4.0], gamma=0.9, mu_tau=0.2)
        assert res.slope == pytest.approx(4.5, abs=0.5)
        assert res.r_squared > 0.99

    def test_spectra_rescale_exactly(self):
        base = sp.trajectory_spectrum(fig5_trajectory(seed=3), bin_width=0.25)
        for s in (2.0, 4.0):
            cfg = ex.ExperimentConfig(
                gamma=0.9, tau=s, mu=0.2 / s, duration=2000.0 * s, seed=3
            )
            spec = sp.trajectory_spectrum(ex.simulate_rho_d(cfg), bin_width=0.25 * s)
            assert np.allclose(spec.frequencies * s, base.frequencies)
            assert np.allclose(spec.power, base.power * s * s, rtol=1e-12)

    def test_requires_three_points(self):
        with pytest.raises(ConfigError):
            sp.scaling_test([1.0, 2.0], gamma=0.9, mu_tau=0.2)

    def test_missing_peak_reports_failures(self):
        with pytest.raises(PartialResultError) as err:
            sp.scaling_test(
                [1.0, 2.0, 4.0], gamma=0.9, mu_tau=0.2, duration_tau=300.0,
                seeds=(0,), min_prominence=1e9,
            )
        assert len(err.value.failures) == 3
