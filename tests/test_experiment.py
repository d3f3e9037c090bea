import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from eprb_delay import experiment as ex
from eprb_delay.dde import RhoDTrajectory
from eprb_delay.errors import ConfigError, ContractViolationError, InsufficientDataError
from oracles import greedy_pairs

S_QM = 2.0 * math.sqrt(2.0)


def tracking_trajectory(cfg, settings):
    """Synthetic run whose correlation parameter follows the target exactly."""
    n = int(round(cfg.duration / cfg.dt))
    tgrid = cfg.dt * np.arange(n + 1)
    tv = settings.target_at(tgrid)
    return RhoDTrajectory(t0=0.0, dt=cfg.dt, rho_d=tv.copy(), rho_target=tv)


def constant_trajectory(cfg, settings, value):
    traj = tracking_trajectory(cfg, settings)
    return replace(traj, rho_d=np.full_like(traj.rho_target, value))


class TestSettings:
    def test_mu_zero_has_no_events(self):
        s = ex.generate_settings(0.0, 100.0, 3)
        assert len(s.times) == 0
        assert s.alpha0_index in (0, 1)
        assert np.all(s.alpha_index_at(np.linspace(0, 100, 7)) == s.alpha0_index)

    def test_event_count_poisson(self):
        s = ex.generate_settings(1.0, 1000.0, 42)
        assert abs(len(s.times) - 1000.0) < 4.0 * math.sqrt(1000.0)
        assert np.all(np.diff(s.times) > 0)
        assert np.all(s.times <= 1000.0)

    def test_determinism(self):
        a = ex.generate_settings(0.5, 500.0, 7)
        b = ex.generate_settings(0.5, 500.0, 7)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.alpha_indices, b.alpha_indices)
        assert a.alpha0_index == b.alpha0_index

    def test_coin_allows_repeats(self):
        s = ex.generate_settings(2.0, 2000.0, 1)
        seq = np.concatenate(([s.alpha0_index], s.alpha_indices))
        repeats = np.sum(seq[1:] == seq[:-1])
        assert repeats > 0.4 * (len(seq) - 1)  # fair coin: about half

    def test_target_track_values(self):
        s = ex.generate_settings(0.3, 300.0, 12)
        t = np.linspace(0, 300, 1001)
        tv = s.target_at(t)
        assert set(np.unique(tv)) <= {0.25, 0.5}
        alpha = s.alpha_index_at(t)
        assert np.all(tv[alpha == 0] == 0.5)
        assert np.all(tv[alpha == 1] == 0.25)


class TestSimulate:
    def test_constant_when_history_on_target(self):
        cfg = ex.ExperimentConfig(gamma=1.0, tau=1.0, mu=0.0, duration=200.0, seed=5)
        traj = ex.simulate_rho_d(cfg)
        assert np.abs(traj.rho_d - traj.rho_target).max() < 1e-14

    def test_matches_step_response_for_single_change(self):
        from eprb_delay.dde import step_trajectory

        cfg = ex.ExperimentConfig(gamma=1.0, tau=1.0, mu=0.0, duration=60.0, seed=5)
        settings = ex.settings_for(cfg)
        # force one change at t = 0 by integrating with a constant target
        # opposite to the history; compare against the packaged step response
        base = step_trajectory(1.0, 60.0)
        from eprb_delay.dde import DdeParams, integrate_dde

        params = DdeParams(gamma=1.0, tau=1.0, dt=0.01, history_init=0.5)
        traj = integrate_dde(params, lambda t: np.full_like(t, 0.25), 60.0)
        assert np.array_equal(traj.rho_d, base.rho_d)

    def test_fig5_regime_jumps_and_rings(self):
        cfg = ex.ExperimentConfig(gamma=0.9, tau=1.0, mu=0.2, duration=2000.0, seed=2)
        traj = ex.simulate_rho_d(cfg)
        assert not traj.diverged
        assert set(np.unique(traj.rho_target)) == {0.25, 0.5}
        # transients overshoot both target values but stay bounded
        assert traj.rho_d.max() > 0.5 + 0.01
        assert traj.rho_d.min() < 0.25 - 0.01
        assert np.abs(traj.deviation()).max() < 0.5

    def test_divergence_flagged_not_raised(self):
        cfg = ex.ExperimentConfig(gamma=1.62, tau=1.0, mu=0.2, duration=400.0, seed=3)
        traj = ex.simulate_rho_d(cfg)
        assert traj.diverged


class TestIdealChsh:
    def test_tracking_gives_quantum_value(self):
        cfg = ex.ExperimentConfig(gamma=1.0, tau=1.0, mu=0.4, duration=500.0, seed=8)
        traj = tracking_trajectory(cfg, ex.settings_for(cfg))
        assert abs(ex.s_chsh_ideal(traj) - S_QM) < 1e-10

    def test_constant_scrt_level(self):
        cfg = ex.ExperimentConfig(gamma=1.0, tau=1.0, mu=0.4, duration=500.0, seed=8)
        traj = constant_trajectory(cfg, ex.settings_for(cfg), 0.375)
        assert abs(ex.s_chsh_ideal(traj) - math.sqrt(2.0)) < 1e-12

    def test_rescaling_invariance(self):
        base_cfg = ex.ExperimentConfig(gamma=0.9, tau=1.0, mu=0.2, duration=800.0, seed=4)
        s_base = ex.s_chsh_ideal(ex.simulate_rho_d(base_cfg))
        for s in (2.0, 4.0):
            cfg = ex.ExperimentConfig(
                gamma=0.9, tau=s, mu=0.2 / s, duration=800.0 * s, seed=4
            )
            assert abs(ex.s_chsh_ideal(ex.simulate_rho_d(cfg)) - s_base) < 1e-12

    def test_high_switching_rate_depresses_chsh(self):
        values = []
        for seed in range(5):
            cfg = ex.ExperimentConfig(gamma=0.9, tau=1.0, mu=13.0, duration=1000.0, seed=seed)
            values.append(ex.s_chsh_ideal(ex.simulate_rho_d(cfg)))
        assert np.mean(values) < 2.0


class TestTuneGamma:
    def test_bracket_scan_straddles(self):
        # coarse oracle scan: S rises through the quantum value inside the
        # default bracket at high switching rate
        lo_cfg = ex.ExperimentConfig(gamma=1.0, tau=1.0, mu=13.0, duration=2000.0, seed=0)
        hi_cfg = ex.ExperimentConfig(gamma=1.6, tau=1.0, mu=13.0, duration=2000.0, seed=0)
        seeds = range(3)
        s_lo = np.mean([ex.s_chsh_ideal(ex.simulate_rho_d(replace(lo_cfg, seed=s))) for s in seeds])
        s_hi = np.mean([ex.s_chsh_ideal(ex.simulate_rho_d(replace(hi_cfg, seed=s))) for s in seeds])
        assert s_lo < S_QM < s_hi

    def test_bisection_converges_to_quantum_value(self):
        gamma = ex.tune_gamma(13.0, seeds=range(4), duration_tau=1000.0)
        cfg = ex.ExperimentConfig(gamma=gamma, tau=1.0, mu=13.0, duration=1000.0, seed=0)
        s = ex.s_chsh_for(cfg, range(4))
        assert abs(s - S_QM) < 0.01

    @staticmethod
    def per_seed_reference(cfg, seeds):
        """The seed average taken one whole trajectory at a time."""
        return float(np.mean([ex.s_chsh_ideal(ex.simulate_rho_d(replace(cfg, seed=int(s))))
                              for s in sorted(seeds)]))

    @pytest.mark.parametrize("gamma", [1.0, 1.5284, 1.6])
    def test_lane_s_matches_per_seed_reference(self, gamma):
        cfg = ex.ExperimentConfig(gamma=gamma, tau=1.0, mu=13.0, duration=2000.0, seed=0)
        seeds = (3, 1, 3, 0)
        want = self.per_seed_reference(cfg, seeds)
        assert ex.s_chsh_for(cfg, seeds) == pytest.approx(want, rel=1e-12, abs=0)
        per_seed = ex.s_chsh_per_seed(cfg, seeds)
        assert len(per_seed) == 4 and per_seed[2] == per_seed[3]  # seed 3 twice

    def test_bisection_follows_per_seed_reference(self, monkeypatch):
        lane_gain = ex.tune_gamma(13.0, seeds=range(4), duration_tau=1000.0)
        lane_s_for = ex.s_chsh_for
        steps = []

        def reference(cfg, seeds):
            want = self.per_seed_reference(cfg, seeds)
            steps.append(lane_s_for(cfg, seeds) / want - 1.0)
            return want

        monkeypatch.setattr(ex, "s_chsh_for", reference)
        assert ex.tune_gamma(13.0, seeds=range(4), duration_tau=1000.0) == lane_gain
        assert len(steps) >= 3 and max(map(abs, steps)) < 1e-12

    @pytest.mark.parametrize("call", [
        lambda: ex.s_chsh_for(ex.ExperimentConfig(1.0, 1.0, 13.0, 100.0, 0), []),
        lambda: ex.tune_gamma(13.0, seeds=()),
    ])
    def test_empty_seed_set_raises_before_integrating(self, monkeypatch, call):
        def no_integration(*args):
            raise AssertionError("integrated with no seeds")

        monkeypatch.setattr(ex, "integrate_lanes", no_integration)
        with pytest.raises(ConfigError, match="at least one seed"):
            call()

    def test_low_rate_returns_lower_edge(self):
        gamma = ex.tune_gamma(0.01, bracket=(0.8, 1.2), seeds=range(2), duration_tau=500.0)
        assert gamma == 0.8

    def test_no_straddle_raises(self):
        with pytest.raises(ConfigError):
            ex.tune_gamma(0.2, bracket=(0.5, 0.9), seeds=range(2), duration_tau=500.0)


class TestTimeTags:
    def base_cfg(self, **kw):
        defaults = dict(
            gamma=1.0,
            tau=1.0,
            mu=0.5,
            duration=2000.0,
            seed=17,
            pair_rate=5.0,
            coincidence_window=0.01,
        )
        defaults.update(kw)
        return ex.ExperimentConfig(**defaults)

    def test_requires_pair_rate(self):
        cfg = self.base_cfg(pair_rate=None)
        with pytest.raises(ConfigError):
            ex.generate_time_tags(cfg, ex.simulate_rho_d(cfg))

    def test_determinism(self):
        cfg = self.base_cfg(duration=200.0)
        traj = ex.simulate_rho_d(cfg)
        a = ex.generate_time_tags(cfg, traj)
        b = ex.generate_time_tags(cfg, traj)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.port, b.port)
        assert a.is_sorted()

    def test_uncorrelated_outcomes_equidistributed(self):
        cfg = self.base_cfg(beta_policy="fixed")
        settings = ex.settings_for(cfg)
        traj = constant_trajectory(cfg, settings, 0.25)
        tags = ex.generate_time_tags(cfg, traj, settings)
        pairs = ex.pair_coincidences(tags, cfg.window)
        sel = pairs.alpha_index == 0  # pi/4-relaxed state probed at setting 0
        obs = np.bincount(pairs.port_a[sel] * 2 + pairs.port_b[sel], minlength=4)
        assert chisquare(obs).pvalue > 0.001

    def test_aligned_state_perfectly_correlated(self):
        # settings fixed at alpha = 0 with rho_d = 1/2 and beta = 0 is not a
        # CHSH angle, so sample via the probability table directly
        from eprb_delay.states import RelaxationState, port_probabilities

        p = port_probabilities(RelaxationState(0.5), 0.0, 0.0)
        assert p[1] == pytest.approx(0.0, abs=1e-12)
        assert p[2] == pytest.approx(0.0, abs=1e-12)
        assert p[0] == pytest.approx(0.5, abs=1e-12)

    def test_expected_coincidence_count_with_efficiency(self):
        cfg = self.base_cfg(detector_efficiency=0.6)
        settings = ex.settings_for(cfg)
        traj = tracking_trajectory(cfg, settings)
        tags = ex.generate_time_tags(cfg, traj, settings)
        counts = ex.count_coincidences(tags, cfg.window)
        expected = cfg.pair_rate * cfg.duration * 0.36
        # lone singles from opposite-photon losses can pair accidentally,
        # adding ~2 w r_a r_b T on top of the true coincidences
        accidental = 2 * cfg.window * (cfg.pair_rate * 0.6 * 0.4) ** 2 * cfg.duration
        assert abs(counts.total - expected - accidental) < 4.0 * math.sqrt(expected)

    def test_accidentals_rate(self):
        cfg = self.base_cfg(accidental_rate=2.0, pair_rate=0.5, duration=1000.0)
        settings = ex.settings_for(cfg)
        traj = tracking_trajectory(cfg, settings)
        tags = ex.generate_time_tags(cfg, traj, settings)
        n_expected = 2 * cfg.pair_rate * cfg.duration + 2 * cfg.accidental_rate * cfg.duration
        assert abs(len(tags) - n_expected) < 4.0 * math.sqrt(n_expected)


@st.composite
def tag_streams(draw):
    """Sorted a- and b-arm times of pairs on [0, 10], each arm thinned and
    jittered, plus accidentals; windows from well below to well above the
    mean spacing; optionally rounded to a grid, which makes exact ties and
    duplicate times within an arm."""
    window = draw(st.sampled_from([0.01, 0.1, 0.5, 2.0]))
    n = draw(st.integers(0, 40))
    times = st.floats(0.0, 10.0)
    pairs = draw(st.lists(times, min_size=n, max_size=n))
    keep = draw(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=n, max_size=n))
    jitter = draw(st.lists(st.floats(-1.5 * window, 1.5 * window), min_size=n, max_size=n))
    ta = [t for t, (ka, _) in zip(pairs, keep) if ka] + draw(st.lists(times, max_size=10))
    tb = [t + j for t, (_, kb), j in zip(pairs, keep, jitter) if kb]
    tb += draw(st.lists(times, max_size=10))
    grid = draw(st.sampled_from([None, 0.01, 0.1, 0.5]))
    if grid is not None:
        ta, tb = (np.round(np.asarray(x) / grid) * grid for x in (ta, tb))
    return np.sort(np.asarray(ta, dtype=float)), np.sort(np.asarray(tb, dtype=float)), window


class TestCoincidences:
    def make_tags(self, t, arm, port, idx):
        return ex.TimeTagData(
            t=np.asarray(t, dtype=float),
            arm=np.asarray(arm),
            port=np.asarray(port),
            setting_index=np.asarray(idx, dtype=int),
        )

    def assert_matches_oracle(self, ta, tb, window):
        """The package pairs exactly the events the sequential scan pairs;
        each event's setting_index holds its rank within its arm, so the
        pairs name the events."""
        t = np.concatenate([ta, tb])
        arm = np.array(["a"] * len(ta) + ["b"] * len(tb), dtype="<U1")
        rank = np.concatenate([np.arange(len(ta)), np.arange(len(tb))])
        port = np.where(rank % 3 == 0, "-", "+")
        order = np.argsort(t, kind="stable")
        pairs = ex.pair_coincidences(
            self.make_tags(t[order], arm[order], port[order], rank[order]), window
        )
        ia, ib = greedy_pairs(ta, tb, window)
        np.testing.assert_array_equal(pairs.alpha_index, ia)
        np.testing.assert_array_equal(pairs.beta_index, ib)
        np.testing.assert_array_equal(pairs.t, ta[ia])
        np.testing.assert_array_equal(pairs.port_a, (ia % 3 == 0).astype(int))
        np.testing.assert_array_equal(pairs.port_b, (ib % 3 == 0).astype(int))
        return len(ia)

    @given(tag_streams())
    @example((np.empty(0), np.empty(0), 0.1))
    @example((np.array([1.0, 2.0]), np.empty(0), 0.1))
    @example((np.empty(0), np.array([1.0, 2.0]), 0.1))
    @settings(max_examples=100, deadline=None)
    def test_matches_sequential_oracle(self, stream):
        self.assert_matches_oracle(*stream)

    @pytest.mark.parametrize("t0, inside", [(100.123, True), (2000.123, True), (2050.123, False)])
    def test_window_edge_float_tests(self, t0, inside):
        # b exactly at the float bound t0 -/+ w passes the bound tests, and
        # |tb - t0| misses w by rounding: 5e-15 above it at 100 (inside
        # w * (1 + 1e-12)), 9e-15 below it at 2000, and 2.2e-13 above it past
        # 2048, where the distance test rejects it.  One step further out
        # fails the bound tests.
        w = 0.01
        for b in (t0 - w, t0 + w):
            assert self.assert_matches_oracle(np.array([t0]), np.array([b]), w) == inside
            beyond = np.nextafter(b, b + (b - t0))
            assert self.assert_matches_oracle(np.array([t0]), np.array([beyond]), w) == 0
        self.assert_matches_oracle(np.array([t0]), np.array([t0 - w, t0 + w]), w)

    def test_rounded_distance_tie_goes_to_earlier_b(self):
        # near t = 0 distinct b times can round to one |tb - t0|
        tb = np.array([0.0061, np.nextafter(0.0061, 1.0)])
        assert abs(tb[0] - 0.015) == abs(tb[1] - 0.015)
        self.assert_matches_oracle(np.array([0.015]), tb, 0.01)

    def test_within_window_pairs(self):
        tags = self.make_tags([0.0, 0.005], ["a", "b"], ["+", "+"], [0, 0])
        counts = ex.count_coincidences(tags, 0.01)
        assert counts.total == 1

    def test_outside_window_does_not_pair(self):
        tags = self.make_tags([0.0, 0.02], ["a", "b"], ["+", "+"], [0, 0])
        assert ex.count_coincidences(tags, 0.01).total == 0

    def test_each_event_used_once(self):
        tags = self.make_tags(
            [0.0, 0.004, 0.006], ["a", "a", "b"], ["+", "-", "+"], [0, 0, 0]
        )
        counts = ex.count_coincidences(tags, 0.01)
        assert counts.total == 1
        # a-events scan in time order: the first a claims the lone b
        assert counts.counts[0, 0, 0, 0] == 1

    def test_unsorted_raises(self):
        tags = self.make_tags([1.0, 0.5], ["a", "b"], ["+", "+"], [0, 0])
        with pytest.raises(ContractViolationError):
            ex.count_coincidences(tags, 0.01)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_raises(self, bad):
        tags = self.make_tags([0.5, bad], ["a", "b"], ["+", "+"], [0, 0])
        with pytest.raises(ContractViolationError, match="finite"):
            ex.pair_coincidences(tags, 0.01)

    def test_round_trip_against_generator_probabilities(self):
        cfg = ex.ExperimentConfig(
            gamma=1.0,
            tau=1.0,
            mu=0.5,
            duration=4000.0,
            seed=23,
            pair_rate=10.0,
            coincidence_window=0.005,
        )
        settings = ex.settings_for(cfg)
        traj = constant_trajectory(cfg, settings, 0.42)
        tags = ex.generate_time_tags(cfg, traj, settings)
        pairs = ex.pair_coincidences(tags, cfg.window)
        from eprb_delay.states import RelaxationState, port_probabilities

        for i in range(2):
            for j in range(2):
                sel = (pairs.alpha_index == i) & (pairs.beta_index == j)
                n = sel.sum()
                obs = np.bincount(pairs.port_a[sel] * 2 + pairs.port_b[sel], minlength=4)
                expected = n * port_probabilities(
                    RelaxationState(0.42), ex.ALPHA_VALUES[i], ex.BETA_VALUES[j]
                )
                sigma = np.sqrt(expected * (1 - expected / n) + 1e-9)
                assert np.all(np.abs(obs - expected) < 4.0 * sigma)


class TestCountChsh:
    def run_counts(self, value, seed=31, duration=4000.0, pair_rate=10.0):
        cfg = ex.ExperimentConfig(
            gamma=1.0,
            tau=1.0,
            mu=0.5,
            duration=duration,
            seed=seed,
            pair_rate=pair_rate,
            coincidence_window=0.005,
        )
        settings = ex.settings_for(cfg)
        traj = (
            tracking_trajectory(cfg, settings)
            if value is None
            else constant_trajectory(cfg, settings, value)
        )
        tags = ex.generate_time_tags(cfg, traj, settings)
        return ex.s_chsh_from_counts(ex.count_coincidences(tags, cfg.window))

    def test_tracking_reaches_quantum_value(self):
        est = self.run_counts(None)
        assert abs(est.value - S_QM) < 3.0 * est.stderr

    def test_scrt_level(self):
        est = self.run_counts(0.375)
        assert abs(est.value - math.sqrt(2.0)) < 3.0 * est.stderr

    def test_empty_cell_raises(self):
        tags = ex.TimeTagData(
            t=np.array([0.0, 0.001]),
            arm=np.array(["a", "b"]),
            port=np.array(["+", "+"]),
            setting_index=np.array([0, 0]),
        )
        with pytest.raises(InsufficientDataError):
            ex.s_chsh_from_counts(ex.count_coincidences(tags, 0.01))


class TestFeasibility:
    def test_five_kilometres(self):
        rep = ex.feasibility(5000.0, 3.0e5)
        assert rep.pairs_per_tau == pytest.approx(5.0, abs=0.01)
        assert rep.verdict

    def test_long_baseline_low_rate(self):
        rep = ex.feasibility(144_000.0, 8.0)
        assert not rep.verdict
        assert rep.pairs_per_tau < 0.01

    def test_short_baseline(self):
        rep = ex.feasibility(1.0, 3.0e5)
        assert not rep.verdict

    def test_invalid_length(self):
        with pytest.raises(ConfigError):
            ex.feasibility(0.0, 10.0)
