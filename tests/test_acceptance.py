"""Acceptance suite: one test per criterion, one printed PASS/FAIL line per
checked clause.

Two quoted figure readings are checked against independent oracles rather
than taken as printed.  The sweep period band [4.0, 5.0] tau holds only on
gamma in [0.9, 1.5]: the dominant characteristic root puts the period at
5.742 tau at gamma = 0.7 and 5.265 tau at 0.8, so criterion 2 pins every
sweep period to that root and keeps the paper's "frequency lower than
c/4L" (period above 4 tau) at every gain.  The quoted high-switching
calibration S = 2.828 at gamma = 1.549 (mu tau = 13) is not reproduced
under the coin-toss settings the experiment specifies (repeats allowed):
S(1.549) is about 3.82 both from the package and from a method-of-steps
oracle that shares no code with the integrator (``oracles.stepped_s_chsh``),
and the oracle crosses 2 sqrt(2) at gamma* = 1.5284.  Settings that
alternate at every event do not rescue the quoted pair either: they give
S(1.549, mu tau = 13) = 2.890 (oracle 2.875) and S(0.9, mu tau = 0.2) =
2.702, breaking the 2.79 figure instead.  Criterion 3 therefore pins
gamma*, with both the program and the oracle checked there.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from eprb_delay import experiment as ex, spectral as sp, states
from eprb_delay.dde import find_divergence_threshold, gamma_sweep, step_response
from eprb_delay.lindblad import JumpOperator, OdeConfig, evolve_numeric, rho_d_series

from oracles import root_decay_period, stepped_s_chsh

S_QM = 2.0 * math.sqrt(2.0)


def report(criterion: str, label: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {label} ({detail})")
    return ok


def test_criterion_1_step_response():
    t0 = time.perf_counter()
    resp = step_response(1.0)
    elapsed = time.perf_counter() - t0
    decay_oracle, period_oracle = root_decay_period(1.0)

    ok = True
    ok &= report(
        "1", "period within 2% of characteristic-root oracle",
        abs(resp.period / period_oracle - 1.0) <= 0.02,
        f"measured {resp.period:.4f} tau, oracle {period_oracle:.4f} tau",
    )
    ok &= report(
        "1", "period within 10% of the ~4.5 tau figure value",
        abs(resp.period / 4.5 - 1.0) <= 0.10,
        f"measured {resp.period:.4f} tau",
    )
    ok &= report(
        "1", "decay time within 2% of oracle",
        abs(resp.decay_time / decay_oracle - 1.0) <= 0.02,
        f"measured {resp.decay_time:.4f} tau, oracle {decay_oracle:.4f} tau",
    )
    ok &= report(
        "1", "decay time within 25% of the ~3.5 tau figure value",
        abs(resp.decay_time / 3.5 - 1.0) <= 0.25,
        f"measured {resp.decay_time:.4f} tau",
    )
    ok &= report("1", "runtime under 1 s", elapsed < 1.0, f"{elapsed:.3f} s")
    assert ok


def test_criterion_2_divergence_bracket():
    lo, hi = find_divergence_threshold(1.3, 1.8, width=0.019)
    ok = report(
        "2", "divergence bisection bracket within [1.555, 1.586] containing pi/2",
        1.555 <= lo and hi <= 1.586 and lo <= math.pi / 2.0 <= hi,
        f"bracket [{lo:.4f}, {hi:.4f}], pi/2 = {math.pi / 2:.4f}",
    )
    assert ok


def test_criterion_2_period_band():
    gammas = [0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5]
    rows = gamma_sweep(gammas)
    periods = [r.period_tau for r in rows]
    roots = [root_decay_period(g)[1] for g in gammas]
    detail = ", ".join(
        f"G={g}: {p:.3f} (root {q:.3f})" for g, p, q in zip(gammas, periods, roots)
    )
    # The source figure reads the period as "nearly constant ~4.5 tau", but
    # the dominant root of lam = -gamma exp(-lam) gives 5.742 tau at
    # gamma = 0.7 and 5.265 tau at 0.8, and reaches 5.0 tau only at
    # gamma ~ 0.878.  Each period is therefore pinned to its root (the 2%
    # of criterion 1), and the [4.0, 5.0] band to the gains where the root
    # places it.
    ok = report(
        "2", "every sweep period within 2% of its characteristic-root period",
        all(abs(p / q - 1.0) <= 0.02 for p, q in zip(periods, roots)), detail,
    )
    ok &= report(
        "2", "every sweep period above 4 tau (frequency below c/4L)",
        all(p > 4.0 for p in periods), f"shortest {min(periods):.3f} tau",
    )
    ok &= report(
        "2", "period decreases strictly as gamma rises",
        all(a > b for a, b in zip(periods, periods[1:])),
        ", ".join(f"{p:.3f}" for p in periods),
    )
    band = [p for g, p in zip(gammas, periods) if g >= 0.9]
    ok &= report(
        "2", "period in [4.0, 5.0] tau for gamma in [0.9, 1.5]",
        all(4.0 <= p <= 5.0 for p in band), f"range [{min(band):.3f}, {max(band):.3f}] tau",
    )
    assert ok, detail


def test_criterion_3_chsh_tracking_and_fig5():
    t0 = time.perf_counter()
    cfg = ex.ExperimentConfig(gamma=1.0, tau=1.0, mu=0.4, duration=500.0, seed=0)
    settings = ex.settings_for(cfg)
    n = int(round(cfg.duration / cfg.dt))
    tv = settings.target_at(cfg.dt * np.arange(n + 1))
    from eprb_delay.dde import RhoDTrajectory

    tracking = RhoDTrajectory(t0=0.0, dt=cfg.dt, rho_d=tv.copy(), rho_target=tv)
    s_track = ex.s_chsh_ideal(tracking)
    ok = report(
        "3", "perfect tracking gives 2*sqrt(2) to 1e-10",
        abs(s_track - S_QM) < 1e-10,
        f"S = {s_track:.12f}",
    )

    values = [
        ex.s_chsh_ideal(
            ex.simulate_rho_d(
                ex.ExperimentConfig(gamma=0.9, tau=1.0, mu=0.2, duration=2000.0, seed=s)
            )
        )
        for s in range(10)
    ]
    mean = float(np.mean(values))
    ok &= report(
        "3", "ringing-regime config averages S = 2.79 +/- 0.05 over 10 seeds",
        abs(mean - 2.79) <= 0.05,
        f"mean S = {mean:.4f}",
    )
    elapsed = time.perf_counter() - t0
    ok &= report("3", "tracking+ringing runtime under 1 min", elapsed < 60.0, f"{elapsed:.1f} s")
    assert ok


# Gain at which the seed-averaged ideal CHSH integral crosses 2 sqrt(2) for
# mu tau = 13 under coin-toss settings.  The method-of-steps oracle
# (oracles.stepped_s_chsh, 10 seeds, 2000 tau) crosses in
# [1.52838, 1.52844] at 400 samples/tau (it moves by at most 2.4e-3 from
# 100 samples/tau) and gives S = 2.774 at gamma* - 0.002, 2.886 at
# gamma* + 0.002 and 3.8205 at 1.549, where the program gives 3.8274.  The
# quoted 1.549 cannot be checked against the paper's own settings model,
# whose text is not at hand.
GAMMA_STAR_MU13 = 1.5284


def _mu13_config(gamma: float, seed: int = 0) -> ex.ExperimentConfig:
    return ex.ExperimentConfig(gamma=gamma, tau=1.0, mu=13.0, duration=2000.0, seed=seed)


def _mean_s_program(gamma: float) -> float:
    return ex.s_chsh_for(_mu13_config(gamma), range(10))


def _mean_s_oracle(gamma: float) -> float:
    return float(np.mean([
        stepped_s_chsh(gamma, ex.settings_for(_mu13_config(gamma, s))) for s in range(10)
    ]))


def test_criterion_3_tuned_coupling_value():
    g = GAMMA_STAR_MU13
    program = _mean_s_program(g)
    ok = report(
        "3", f"high-switching config at gamma* = {g} averages S = 2.828 +/- 0.02",
        abs(program - 2.828) <= 0.02,
        f"mean S = {program:.4f} over 10 seeds",
    )
    below, above = _mean_s_oracle(g - 0.002), _mean_s_oracle(g + 0.002)
    ok &= report(
        "3", "oracle S straddles 2*sqrt(2) between gamma* -/+ 0.002",
        below < S_QM < above,
        f"oracle S = {below:.4f} / {above:.4f}",
    )
    checks = [
        (g, program, _mean_s_oracle(g)),
        (1.549, _mean_s_program(1.549), _mean_s_oracle(1.549)),
    ]
    for gamma, prog, oracle in checks:
        ok &= report(
            "3", f"program and oracle agree within 0.01 at gamma = {gamma}",
            abs(prog - oracle) <= 0.01,
            f"program {prog:.4f}, oracle {oracle:.4f}",
        )
    assert ok


def test_criterion_3_tune_gamma():
    t0 = time.perf_counter()
    gamma = ex.tune_gamma(13.0)
    elapsed = time.perf_counter() - t0
    ok = report(
        "3", f"tuned gamma within gamma* = {GAMMA_STAR_MU13} +/- 0.02",
        abs(gamma - GAMMA_STAR_MU13) <= 0.02,
        f"tune_gamma(13) = {gamma:.6f}",
    )
    ok &= report(
        "3", "tuned gamma below the divergence threshold pi/2",
        gamma < math.pi / 2.0,
        f"tune_gamma(13) = {gamma:.6f}, pi/2 = {math.pi / 2:.6f}",
    )
    ok &= report("3", "tuning runtime under 1 min", elapsed < 60.0, f"{elapsed:.1f} s")
    assert ok


def test_criterion_4_spectrum():
    def ensemble(gamma, mu=0.2):
        specs = [
            sp.trajectory_spectrum(
                ex.simulate_rho_d(
                    ex.ExperimentConfig(gamma=gamma, tau=1.0, mu=mu, duration=2000.0, seed=s)
                )
            )
            for s in range(10)
        ]
        return sp.average_spectra(specs)

    peak = sp.detect_peak(ensemble(0.9))
    ok = report(
        "4", "ringing-config peak at 0.213/tau within 10%",
        peak is not None and abs(peak.frequency - 0.213) <= 0.0213,
        f"peak f = {peak.frequency:.4f}/tau" if peak else "no peak",
    )
    ok &= report(
        "4", "peak prominence at least 10x median background",
        peak is not None and peak.prominence >= 10.0,
        f"prominence = {peak.prominence:.0f}" if peak else "no peak",
    )
    low = sp.detect_peak(ensemble(0.4))
    ok &= report(
        "4", "gamma = 0.4 peak shifts to lower frequency",
        low is not None and low.frequency < peak.frequency,
        f"f(0.4) = {low.frequency:.4f} vs f(0.9) = {peak.frequency:.4f}" if low else "no peak",
    )
    res = sp.scaling_test([1.0, 2.0, 4.0], gamma=0.9, mu_tau=0.2)
    ok &= report(
        "4", "period-versus-delay slope 4.5 +/- 0.5 with R^2 > 0.99",
        abs(res.slope - 4.5) <= 0.5 and res.r_squared > 0.99,
        f"slope = {res.slope:.3f}, R^2 = {res.r_squared:.6f}",
    )
    assert ok


def test_criterion_5_relaxation_closed_forms():
    g = 1.0
    cfg = OdeConfig(dt=1e-3, t_end=2.5)
    t, rhos = evolve_numeric(states.make_rho_alpha(math.pi / 4), JumpOperator("parallel", g), cfg)
    err_par = np.abs(rho_d_series(rhos) - 0.25 * (2.0 - np.exp(-4.0 * t))).max()
    rho_a = rhos[:, 0, 3].real
    rho_m = rhos[:, 1, 1].real
    cons = max(
        np.abs(rho_d_series(rhos) + rho_a - 0.5).max(),
        np.abs(rho_d_series(rhos) + rho_m - 0.5).max(),
    )
    t2, rhos2 = evolve_numeric(states.make_rho_alpha(0.0), JumpOperator("diagonal", g), cfg)
    err_diag = np.abs(rho_d_series(rhos2) - 0.25 * (1.0 + np.exp(-4.0 * t2))).max()

    ok = report(
        "5", "numeric evolution matches both closed-form relaxations to 1e-8",
        max(err_par, err_diag) < 1e-8,
        f"max errors {err_par:.2e}, {err_diag:.2e} at g^2 dt = 0.001",
    )
    ok &= report(
        "5", "corner/anti-corner and corner/central sums conserved to 1e-10",
        cons < 1e-10,
        f"max drift {cons:.2e}",
    )
    l1 = JumpOperator("parallel", 1.3).matrix()
    l2 = JumpOperator("diagonal", 1.3).matrix()
    ok &= report(
        "5", "second jump operator equals minus adjoint of the first, exactly",
        np.array_equal(l2, -l1.conj().T),
        "bitwise equality",
    )
    assert ok


def test_criterion_6_probability_identities():
    rng = np.random.default_rng(2024)
    worst_rule = worst_eq7 = worst_rot = 0.0
    for _ in range(1000):
        rho_d = rng.uniform(-0.2, 0.9)
        alpha, beta = rng.uniform(0.0, 2.0 * math.pi, 2)
        p = states.port_probabilities(states.RelaxationState(rho_d), alpha, beta)
        worst_rule = max(
            worst_rule,
            abs(p[0] - p[3]),
            abs(p[1] - p[2]),
            abs(p[0] + p[1] - 0.5),
        )
        from oracles import eq7_probability, rot_invariant_probability

        worst_eq7 = max(worst_eq7, abs(p[0] - eq7_probability(rho_d, alpha, beta)))
        rho_a = rng.uniform(-0.5, 0.5)
        p_rot = states.coincidence_probability(
            states.RotInvariantState(rho_d, rho_a), alpha, beta
        )
        worst_rot = max(worst_rot, abs(p_rot - rot_invariant_probability(rho_d, alpha, beta)))

    ok = report(
        "6", "port symmetries and half-sum over 1000 random triples to 1e-12",
        worst_rule < 1e-12, f"worst deviation {worst_rule:.2e}",
    )
    ok &= report(
        "6", "relaxation-family closed form matches direct trace to 1e-12",
        worst_eq7 < 1e-12, f"worst {worst_eq7:.2e}",
    )
    ok &= report(
        "6", "rotation-family closed form (anti-corner independent) to 1e-12",
        worst_rot < 1e-12, f"worst {worst_rot:.2e}",
    )

    worst_bell = worst_scrt = 0.0
    for _ in range(200):
        a, b = rng.uniform(0.0, 2.0 * math.pi, 2)
        worst_bell = max(
            worst_bell,
            abs(states.coincidence_probability(states.PHI_PLUS, a, b) - 0.5 * math.cos(a - b) ** 2),
        )
        worst_scrt = max(
            worst_scrt,
            abs(
                states.coincidence_probability(states.RotInvariantState(3 / 8, 1 / 8), a, b)
                - 0.25 * (0.5 + math.cos(a - b) ** 2)
            ),
        )
    ok &= report(
        "6", "maximally entangled and semi-classical coincidence laws",
        max(worst_bell, worst_scrt) < 1e-12,
        f"worst {worst_bell:.2e} / {worst_scrt:.2e}",
    )

    cfg = ex.ExperimentConfig(
        gamma=1.0, tau=1.0, mu=0.5, duration=4000.0, seed=6,
        pair_rate=10.0, coincidence_window=0.005,
    )
    settings = ex.settings_for(cfg)
    n = int(round(cfg.duration / cfg.dt))
    tv = settings.target_at(cfg.dt * np.arange(n + 1))
    from eprb_delay.dde import RhoDTrajectory

    traj = RhoDTrajectory(t0=0.0, dt=cfg.dt, rho_d=np.full(n + 1, 0.375), rho_target=tv)
    tags = ex.generate_time_tags(cfg, traj, settings)
    est = ex.s_chsh_from_counts(ex.count_coincidences(tags, cfg.window))
    ok &= report(
        "6", "count-level semi-classical run gives S = sqrt(2) within 3 stderr",
        abs(est.value - math.sqrt(2.0)) <= 3.0 * est.stderr,
        f"S = {est.value:.4f} +/- {est.stderr:.4f}",
    )
    assert ok


def test_criterion_7_concurrence():
    ok = True
    for eps in (0.01, 0.05, 0.1):
        c = states.concurrence(states.rho_epsilon(eps)).value
        ok &= report(
            "7", f"near-Bell mixture eps = {eps} gives 1 - 6 eps to 1e-10",
            abs(c - (1.0 - 6.0 * eps)) < 1e-10, f"C = {c:.12f}",
        )
    scrt = states.concurrence(states.RotInvariantState(3 / 8, 1 / 8)).value
    ok &= report("7", "semi-classical state concurrence 0", abs(scrt) < 1e-10, f"C = {scrt:.2e}")
    phi = states.concurrence(states.PHI_PLUS).value
    ok &= report("7", "maximally entangled state concurrence 1", abs(phi - 1.0) < 1e-12, f"C = {phi}")
    eps = 0.05
    eig = np.sort(np.linalg.eigvalsh(states.rho_epsilon(eps) @ states.rho_epsilon(eps)))[::-1]
    expected = np.array([(1 - 3 * eps) ** 2, 4 * eps**2, eps**2, 0.0])
    ok &= report(
        "7", "squared near-Bell mixture eigenvalues to 1e-10",
        np.abs(eig - expected).max() < 1e-10,
        f"worst {np.abs(eig - expected).max():.2e}",
    )
    assert ok


def test_criterion_8_feasibility():
    rep = ex.feasibility(5000.0, 3.0e5)
    ok = report(
        "8", "5 km at 3e5 pairs/s gives 5.00 +/- 0.01 pairs per delay, feasible",
        abs(rep.pairs_per_tau - 5.0) <= 0.01 and rep.verdict,
        f"pairs_per_tau = {rep.pairs_per_tau:.4f}",
    )
    rep2 = ex.feasibility(144_000.0, 8.0)
    ok &= report(
        "8", "144 km at 8 pairs/s infeasible",
        not rep2.verdict,
        f"pairs_per_tau = {rep2.pairs_per_tau:.2e}",
    )
    assert ok


def test_criterion_9_event_level():
    # (a) count-based CHSH against the ideal integral; moderate damping so
    # the sampler's [1/4, 1/2] clamp is a negligible systematic
    cfg = ex.ExperimentConfig(
        gamma=0.5, tau=1.0, mu=0.2, duration=5000.0, seed=21,
        pair_rate=1.0, coincidence_window=0.01,
    )
    traj = ex.simulate_rho_d(cfg)
    s_ideal = ex.s_chsh_ideal(traj)
    tags = ex.generate_time_tags(cfg, traj)
    est = ex.s_chsh_from_counts(ex.count_coincidences(tags, cfg.window))
    ok = report(
        "9", "count-based S agrees with ideal integral within 3 stderr at 1 pair/tau",
        abs(est.value - s_ideal) <= 3.0 * est.stderr,
        f"counts {est.value:.4f} +/- {est.stderr:.4f}, ideal {s_ideal:.4f}",
    )

    # (b) oscillation peak still detectable at 0.1 pairs/tau in the sharp,
    # near-critical high-switching regime (demodulated correlation series,
    # Welch-averaged)
    specs = []
    for seed in range(10):
        c = ex.ExperimentConfig(
            gamma=1.549, tau=1.0, mu=13.0, duration=8000.0, seed=seed,
            pair_rate=0.1, coincidence_window=0.01,
        )
        tr = ex.simulate_rho_d(c)
        tg = ex.generate_time_tags(c, tr)
        pairs = ex.pair_coincidences(tg, c.window)
        series = sp.correlation_series(pairs, 0.25, 0.0, c.duration)
        specs.append(sp.power_spectrum(series, 8))
    avg = sp.average_spectra(specs)
    peak = sp.detect_peak(avg, min_prominence_over_background=1.5, smooth_bins=1)
    ok &= report(
        "9", "peak detected at 0.1 pairs/tau (near-critical high-switching config)",
        peak is not None and 0.2 <= peak.frequency <= 0.3,
        f"f = {peak.frequency:.4f}, prominence {peak.prominence:.2f}" if peak else "no peak",
    )

    # (c) at very low rates only the 1/sqrt(N) error-growth property holds
    errs = {}
    for rate in (0.1, 0.01, 0.001):
        c = ex.ExperimentConfig(
            gamma=0.5, tau=1.0, mu=0.2, duration=20000.0, seed=33,
            pair_rate=rate, coincidence_window=0.01,
        )
        tr = ex.simulate_rho_d(c)
        tg = ex.generate_time_tags(c, tr)
        errs[rate] = ex.s_chsh_from_counts(ex.count_coincidences(tg, c.window)).stderr
    r1 = errs[0.01] / errs[0.1]
    r2 = errs[0.001] / errs[0.01]
    ok &= report(
        "9", "standard error grows like 1/sqrt(N) toward 0.001 pairs/tau",
        errs[0.1] < errs[0.01] < errs[0.001] and 2.0 < r1 < 5.0 and 2.0 < r2 < 5.0,
        f"stderr ratios {r1:.2f}, {r2:.2f} (sqrt(10) = 3.16)",
    )
    assert ok
