import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprb_delay import experiment as ex
from eprb_delay.dde import (
    DdeParams,
    find_divergence_threshold,
    gamma_sweep,
    integrate_dde,
    integrate_lanes,
    measure_step_response,
    step_response,
    step_trajectory,
)
from eprb_delay.errors import ConfigError

from oracles import root_decay_period, stepped_grid

# dominant-root values computed by the Newton oracle (tests/oracles.py)
ROOT_TABLE = {
    0.5: (1.2594083592286525, 8.158796827883103),
    0.8: (2.114324129410679, 5.264516728699196),
    1.0: (3.1433541904513795, 4.6986371216811635),
    1.3: (7.458052754893083, 4.244033325792099),
    1.5: (30.50292994597323, 4.054599652193645),
}


def test_frozen_root_table_matches_oracle():
    for gamma, (decay, period) in ROOT_TABLE.items():
        d, p = root_decay_period(gamma)
        assert d == pytest.approx(decay, rel=1e-12)
        assert p == pytest.approx(period, rel=1e-12)


def test_params_validation():
    with pytest.raises(ConfigError):
        DdeParams(gamma=1.0, tau=1.0, dt=1.0 / 50, history_init=0.25)  # N < 100
    with pytest.raises(ConfigError):
        DdeParams(gamma=1.0, tau=1.0, dt=0.0103, history_init=0.25)  # off-grid
    with pytest.raises(ConfigError):
        DdeParams(gamma=-1.0, tau=1.0, dt=0.01, history_init=0.25)


def test_constant_target_on_target_history_is_fixed_point():
    params = DdeParams(gamma=1.0, tau=1.0, dt=0.01, history_init=0.25)
    traj = integrate_dde(params, lambda t: np.full_like(t, 0.25), 20.0)
    assert np.abs(traj.rho_d - 0.25).max() < 1e-14
    assert not traj.diverged


@pytest.mark.parametrize("gamma", sorted(ROOT_TABLE))
def test_integrator_matches_characteristic_root(gamma):
    """Late-time ringing must reproduce the dominant root to 2%."""
    traj = step_trajectory(gamma, 60.0)
    t, x = traj.t, traj.deviation()
    decay_o, period_o = ROOT_TABLE[gamma]

    sign_down = (x[:-1] > 0) & (x[1:] <= 0)
    idx = np.nonzero(sign_down)[0]
    crossings = t[idx] + traj.dt * x[idx] / (x[idx] - x[idx + 1])
    spacings = np.diff(crossings)
    late = spacings[2:8] if len(spacings) > 8 else spacings[-5:]
    assert np.mean(late) == pytest.approx(period_o, rel=0.02)

    y = np.abs(x)
    maxima = np.nonzero((y[1:-1] > y[:-2]) & (y[1:-1] >= y[2:]))[0] + 1
    maxima = maxima[y[maxima] > 1e-11 * y.max()]
    k0 = 2 if len(maxima) > 8 else 1
    fit = np.polyfit(t[maxima][k0 : k0 + 10], np.log(y[maxima][k0 : k0 + 10]), 1)
    assert -1.0 / fit[0] == pytest.approx(decay_o, rel=0.02)


def test_step_response_measurement_gamma1():
    r = step_response(1.0)
    decay_o, period_o = ROOT_TABLE[1.0]
    assert r.period == pytest.approx(period_o, rel=0.02)
    assert r.decay_time == pytest.approx(decay_o, rel=0.02)
    assert not r.diverged
    # loose figure-level targets
    assert r.period == pytest.approx(4.5, rel=0.10)
    assert r.decay_time == pytest.approx(3.5, rel=0.25)


def test_step_response_monotonic_regime():
    r = step_response(0.2)
    assert math.isnan(r.period)
    assert not r.oscillatory
    assert not r.diverged
    # real dominant root at gamma below 1/e
    decay_o, _ = root_decay_period(0.2)
    assert r.decay_time == pytest.approx(decay_o, rel=0.02)


def test_step_response_divergence():
    assert step_response(1.6).diverged
    assert not step_response(1.5).diverged


def test_gamma_zero_limit_reduces_to_exponential_relaxation():
    # gamma = 4 g^2 tau with tau -> 0 at fixed g: solution approaches the
    # no-delay relaxation 1/2 - 1/4 exp(-4 g^2 t)
    g = 1.0
    t_end = 2.0
    sup = {}
    for tau in (0.02, 0.005):
        gamma = 4.0 * g * g * tau
        params = DdeParams(gamma=gamma, tau=tau, dt=tau / 100, history_init=0.25)
        traj = integrate_dde(params, lambda t: np.full_like(t, 0.5), t_end)
        exact = 0.5 - 0.25 * np.exp(-4.0 * g * g * traj.t)
        sup[tau] = np.abs(traj.rho_d - exact).max()
    assert sup[0.005] < sup[0.02] < 0.05
    assert sup[0.005] < 0.013


@given(st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=12, deadline=None)
def test_linearity_in_history(k):
    base = step_trajectory(1.1, 60.0)
    params = DdeParams(gamma=1.1, tau=1.0, dt=0.01, history_init=0.25 + k * 0.25)
    scaled = integrate_dde(params, lambda t: np.full_like(t, 0.25), 60.0)
    assert np.abs(scaled.deviation() - k * base.deviation()).max() < 1e-10 * max(1.0, k)


def test_grid_halving_fourth_order():
    ref = step_trajectory(1.0, 20.0, 1600).rho_d
    errs = {}
    for spt in (100, 200, 400):
        errs[spt] = np.abs(step_trajectory(1.0, 20.0, spt).rho_d - ref[:: 1600 // spt]).max()
    assert 10.0 < errs[100] / errs[200] < 22.0
    assert 10.0 < errs[200] / errs[400] < 22.0


def test_tau_rescaling_is_exact():
    # dimensionless dynamics: scaling tau (and the grid) by a power of two
    # reproduces the same numbers bit for bit
    base = step_trajectory(0.9, 60.0)
    for s in (2.0, 4.0):
        params = DdeParams(gamma=0.9, tau=s, dt=s / 100, history_init=0.5)
        scaled = integrate_dde(params, lambda t: np.full_like(t, 0.25), 60.0 * s)
        assert np.array_equal(scaled.rho_d, base.rho_d)


def test_divergence_growth_and_decay_windows():
    for gamma in (0.5, 1.0, 1.3):
        traj = step_trajectory(gamma, 60.0)
        x = np.abs(traj.deviation())
        t = traj.t
        assert x[t >= 50.0].max() < x[t <= 10.0].max()
    for gamma in (1.6, 1.7):
        traj = step_trajectory(gamma, 60.0)
        x = np.abs(traj.deviation())
        t = traj.t
        assert x[t >= 50.0].max() > x[t <= 10.0].max()


def test_boundary_root_is_purely_imaginary():
    # at the divergence threshold the root is +/- i pi/2: period exactly 4 tau
    lam = math.pi / 2.0
    gamma_crit = lam  # lam = gamma at purely imaginary root
    assert abs(complex(0, lam) + gamma_crit * np.exp(-complex(0, lam))) < 1e-12
    _, period = root_decay_period(1.5707)
    assert period == pytest.approx(4.0, abs=2e-4)


def test_gamma_sweep_rows():
    rows = gamma_sweep([0.8, 1.0], t_end_tau=60.0)
    assert [r.gamma for r in rows] == [0.8, 1.0]
    assert rows[0].period_tau == pytest.approx(ROOT_TABLE[0.8][1], rel=0.02)
    assert not rows[0].diverged


def test_sweep_decay_monotone_below_oscillatory_transition():
    # decay time falls with gamma up to the real-to-complex root transition
    # at 1/e, then rises again toward the divergence (critical slowing), so
    # monotonicity is asserted only on the monotone branch
    gammas = [0.1, 0.15, 0.2, 0.25, 0.3, 0.35]
    rows = gamma_sweep(gammas, t_end_tau=60.0)
    decays = [r.decay_time_tau for r in rows]
    assert all(a > b for a, b in zip(decays, decays[1:]))
    # and rises on the oscillatory side
    osc = [r.decay_time_tau for r in gamma_sweep([0.6, 1.0, 1.4], t_end_tau=60.0)]
    assert osc[0] < osc[1] < osc[2]


def test_divergence_threshold_bracket():
    lo, hi = find_divergence_threshold(1.3, 1.8, width=0.02)
    assert lo < hi
    assert hi - lo <= 0.02 + 1e-12
    assert lo <= math.pi / 2.0 + 0.02


def test_measure_requires_long_run():
    traj = step_trajectory(1.0, 60.0)
    short = step_trajectory(1.0, 30.0)
    with pytest.raises(ConfigError):
        measure_step_response(short)
    assert measure_step_response(traj).period == pytest.approx(ROOT_TABLE[1.0][1], rel=0.02)


@pytest.mark.parametrize("gamma, mu_tau, duration_tau, samples_per_tau", [
    (0.9, 0.2, 2000.0, 100),
    (1.53, 13.0, 50.03, 100),  # final chunk of 3 cells
    (1.53, 13.0, 50.02, 100),  # 2 cells: the backward stencil reaches into the previous chunk
    (1.2, 2.0, 300.0, 150),
])
def test_lane_loop_matches_pre_lane_oracle(gamma, mu_tau, duration_tau, samples_per_tau):
    """One lane reproduces the pre-lane loop bit for bit; each lane of a
    multi-lane run (one of them with mu = 0) stays within 1e-15 of it."""
    cfgs = [ex.ExperimentConfig(gamma=gamma, tau=1.0, mu=mu, duration=duration_tau, seed=s,
                                samples_per_tau=samples_per_tau)
            for s, mu in ((0, mu_tau), (1, mu_tau), (2, 0.0))]
    dt = cfgs[0].dt
    n = int(round(duration_tau / dt))
    targets = np.stack([ex.settings_for(c).target_at(dt * np.arange(n + 4)) for c in cfgs])
    expected = [stepped_grid(gamma, 1.0, dt, tv[0], tv) for tv in targets]
    for cfg, want in zip(cfgs, expected):
        assert np.array_equal(ex.simulate_rho_d(cfg).rho_d, want)

    x = np.empty((len(cfgs), n + 1))

    def fill(cs, chunk, target):
        np.testing.assert_array_equal(target, targets[:, cs : cs + chunk.shape[1]])
        x[:, cs : cs + chunk.shape[1]] = chunk

    lanes = [DdeParams(gamma, 1.0, dt, tv[0]) for tv in targets]
    integrate_lanes(lanes, lambda lo, hi: targets[:, lo:hi], duration_tau, fill)
    for lane, want in zip(x, expected):
        assert np.abs(lane - want).max() <= 1e-15


def test_lanes_validation():
    params = DdeParams(gamma=1.0, tau=1.0, dt=0.01, history_init=0.25)

    def target(lo, hi):  # two lanes
        return np.full((2, hi - lo), 0.25)

    with pytest.raises(ConfigError):
        integrate_lanes([], target, 20.0, lambda *a: None)
    with pytest.raises(ConfigError):  # lanes on different grids
        integrate_lanes([params, DdeParams(1.0, 1.0, 0.005, 0.25)], target, 20.0, lambda *a: None)
    with pytest.raises(ConfigError):  # one target row per lane
        integrate_lanes([params] * 3, target, 20.0, lambda *a: None)
    with pytest.raises(ConfigError):
        integrate_lanes([params] * 2, target, 0.02, lambda *a: None)
