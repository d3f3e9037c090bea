"""Command-line front end: figure/number reproduction pipelines.

Every command writes CSV/JSON artifacts plus a resolved_config.json into its
output directory; identical configs and seeds give byte-identical outputs.
Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, get_args

import numpy as np

from . import __version__, dde, experiment as ex, io_formats as io, spectral as sp, states
from .errors import ConfigError, ContractViolationError, InsufficientDataError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

_REQUIRED = object()

# alt-flag unit -> (help text, conversion of the flag value x to SI given tau)
_UNITS = {
    "rate": ("{key} times tau", lambda x, tau: x / tau),
    "time": ("{key} over tau", lambda x, tau: x * tau),
    "length": ("station separation L in metres; {key} = L / c",
               lambda x, tau: x / ex.SPEED_OF_LIGHT),
}


@dataclass(frozen=True)
class Param:
    """One run parameter of ``simulate``.

    ``key`` names it, in SI units, in the config file, in resolved_config.json
    and in the ``config`` block of tags.csv.meta.json.  ``field`` is its
    ExperimentConfig field, None for a key of the run itself.  ``flag`` takes
    the SI value, ``alt_flag`` the value in the ``unit`` of ``_UNITS``.
    ``default`` is given only where ExperimentConfig has none; a parameter
    with no default is required.  ``echo`` names the ExperimentConfig
    attribute recorded in place of ``field``; ``recorded`` False keeps the
    key out of resolved_config.json.
    """

    key: str
    field: str | None
    flag: str | None = None
    alt_flag: str | None = None
    unit: str | None = None
    type: type = float
    choices: tuple = ()
    default: Any = _REQUIRED
    echo: str | None = None
    recorded: bool = True


_TAU = Param("tau_seconds", "tau", "--tau-seconds", "--length-m", "length", default=1.0)

# resolved in this order: tau first, since the alt flags convert with it
SIMULATE = (
    _TAU,
    Param("gamma", "gamma", "--gamma"),
    Param("mu_per_second", "mu", "--mu", "--mu-tau", "rate", default=0.0),
    Param("duration_seconds", "duration", "--duration", "--duration-tau", "time"),
    Param("samples_per_tau", "samples_per_tau", "--samples-per-tau", type=int),
    Param("seed", "seed", "--seed", type=int, default=0),
    Param("seeds", None, "--seeds", type=int, default=1),
    Param("pair_rate_per_second", "pair_rate", alt_flag="--pair-rate-tau", unit="rate"),
    Param("coincidence_window_seconds", "coincidence_window", alt_flag="--window-tau",
          unit="time", echo="window"),
    Param("beta_policy", "beta_policy", "--beta-policy", type=str,
          choices=get_args(ex.BetaPolicy)),
    Param("beta_fixed_rad", "beta_fixed", "--beta-fixed"),
    Param("detector_efficiency", "detector_efficiency", "--efficiency"),
    Param("accidental_rate_per_second", "accidental_rate", alt_flag="--accidental-rate-tau",
          unit="rate"),
    # artifacts do not depend on where they are written
    Param("out_dir", None, "--out", type=str, recorded=False),
)

_FIELD_DEFAULTS = {
    f.name: f.default for f in fields(ex.ExperimentConfig) if f.default is not MISSING
}


def _default(p: Param):
    return p.default if p.default is not _REQUIRED else _FIELD_DEFAULTS.get(p.field, _REQUIRED)


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _add_flags(q: argparse.ArgumentParser, params) -> None:
    for p in params:
        if p.flag:
            q.add_argument(p.flag, type=p.type, choices=p.choices or None,
                           help=f"config key {p.key}")
        if p.alt_flag:
            q.add_argument(p.alt_flag, type=float, help=_UNITS[p.unit][0].format(key=p.key))


def _typed(p: Param, value):
    """A config-file value checked against its row: the row's type (an int
    is a valid float), one of its choices, or null where the default is."""
    if value is None and _default(p) is None:
        return None
    if p.choices:
        ok = value in p.choices
    elif p.type is float:
        ok = type(value) in (int, float)
    else:
        ok = type(value) is p.type
    if not ok:
        expected = f"one of {p.choices}" if p.choices else p.type.__name__
        raise ConfigError(f"config key {p.key} must be {expected}, got {value!r}")
    return p.type(value)


def load_run_config(path: Path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    params = {p.key: p for p in SIMULATE}
    unknown = set(data) - set(params)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return {key: _typed(params[key], value) for key, value in data.items()}


def _resolve(p: Param, args, config: dict, tau: float | None):
    """An explicit flag, else the config file, else the default."""
    given = [f for f in (p.flag, p.alt_flag) if f and getattr(args, _dest(f)) is not None]
    if len(given) > 1:
        raise ConfigError(f"give either {p.flag} or {p.alt_flag}, not both")
    if given and given[0] == p.alt_flag:
        return _UNITS[p.unit][1](getattr(args, _dest(p.alt_flag)), tau)
    if given:
        return getattr(args, _dest(p.flag))
    if p.key in config:
        return config[p.key]
    default = _default(p)
    if default is _REQUIRED:
        flags = " or ".join(f for f in (p.flag, p.alt_flag) if f)
        raise ConfigError(f"{p.key} required ({flags} or config file)")
    return default


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_resolved(out: Path, record: dict) -> None:
    """resolved_config.json: a command's parsed flags (``vars(args)``, whose
    dests are the recorded keys) as the command used them, or simulate's
    resolved run parameters."""
    record = {k: v for k, v in record.items() if k not in ("func", "out")}
    io.write_json(out / "resolved_config.json", {"version": __version__, **record})


def _resolve_tau(args) -> float:
    """``--tau-seconds`` or ``--length-m`` of step and spectrum, recorded as
    the one key tau_seconds."""
    args.tau_seconds = _resolve(_TAU, args, {}, None)
    del args.length_m
    return args.tau_seconds


def cmd_step(args) -> int:
    tau = _resolve_tau(args)
    traj = dde.step_trajectory(args.gamma, args.t_end_tau, args.samples_per_tau)
    resp = dde.measure_step_response(traj)
    if tau != 1.0:
        traj = replace(traj, t0=traj.t0 * tau, dt=traj.dt * tau)
    out = _out_dir(args.out)
    io.write_trajectory_csv(out / "trajectory.csv", traj)
    io.write_json(
        out / "step_response.json",
        {
            "gamma": args.gamma,
            "tau_seconds": tau,
            "decay_time_tau": resp.decay_time,
            "period_tau": resp.period,
            "diverged": resp.diverged,
        },
    )
    _write_resolved(out, vars(args))
    return EXIT_OK


def cmd_sweep(args) -> int:
    gammas = np.linspace(args.gamma_min, args.gamma_max, args.steps)
    rows = dde.gamma_sweep(gammas, args.t_end_tau)
    out = _out_dir(args.out)
    io.write_sweep_csv(out / "sweep.csv", rows)
    _write_resolved(out, vars(args))
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = load_run_config(args.config) if args.config else {}
    values: dict[str, Any] = {}
    for p in SIMULATE:
        values[p.key] = _resolve(p, args, config, values.get(_TAU.key))
    base = ex.ExperimentConfig(**{p.field: values[p.key] for p in SIMULATE if p.field})
    if values["seeds"] < 1:
        raise ConfigError("seeds must be >= 1")
    base.validate()
    out = _out_dir(values["out_dir"])
    seeds = list(range(base.seed, base.seed + values["seeds"]))
    s_values = []
    for seed in seeds:
        cfg = replace(base, seed=seed)
        traj = ex.simulate_rho_d(cfg)
        s = ex.s_chsh_ideal(traj)
        s_values.append(s)
        sub = out / f"seed_{seed}" if len(seeds) > 1 else out
        sub.mkdir(parents=True, exist_ok=True)
        io.write_trajectory_csv(sub / "trajectory.csv", traj, extras=True)
        payload = {
            "seed": seed,
            "s_chsh_ideal": s,
            "diverged": traj.diverged,
        }
        if cfg.pair_rate is not None:
            tags = ex.generate_time_tags(cfg, traj)
            io.write_tags_csv(sub / "tags.csv", tags, meta={"config": _cfg_dict(cfg)})
            counts = ex.count_coincidences(tags, cfg.window)
            try:
                est = ex.s_chsh_from_counts(counts)
                payload["s_chsh_counts"] = est.value
                payload["s_chsh_counts_stderr"] = est.stderr
            except InsufficientDataError:
                payload["s_chsh_counts"] = None
        io.write_json(sub / "schsh.json", payload)
    io.write_json(
        out / "summary.json",
        {
            "seeds": seeds,
            "s_chsh_ideal": s_values,
            "s_chsh_ideal_mean": float(np.mean(s_values)),
            "s_chsh_ideal_std": float(np.std(s_values, ddof=1)) if len(s_values) > 1 else 0.0,
        },
    )
    run_keys = {p.key: values[p.key] for p in SIMULATE if p.field is None and p.recorded}
    _write_resolved(out, {"command": "simulate", **_cfg_dict(base), **run_keys})
    return EXIT_OK


def _cfg_dict(cfg: ex.ExperimentConfig) -> dict:
    return {p.key: getattr(cfg, p.echo or p.field) for p in SIMULATE if p.field}


def _reject_flags(args, names: tuple[str, ...], kind: str) -> None:
    for name in names:
        if getattr(args, name) is not None:
            raise ConfigError(f"--{name.replace('_', '-')} does not apply to {kind} input")


def cmd_spectrum(args) -> int:
    tau = _resolve_tau(args)
    data = io.read_series_csv(args.input)
    if isinstance(data, ex.TimeTagData):
        _reject_flags(args, ("signal",), "time-tag")
        if args.welch_segments is None:
            args.welch_segments = 8
        window = args.window_tau * tau if args.window_tau is not None else tau / 100.0
        pairs = ex.pair_coincidences(data, window)
        series = sp.correlation_series(
            pairs, args.bin_width_tau * tau, 0.0, float(data.t[-1])
        )
        spectrum = sp.power_spectrum(series, args.welch_segments)
        peak = sp.detect_peak(spectrum, args.min_prominence, smooth_bins=1)
    else:
        _reject_flags(args, ("welch_segments", "window_tau"), "trajectory")
        if args.signal is None:
            args.signal = "deviation"
        series = sp.bin_trajectory(data, args.bin_width_tau * tau, signal=args.signal)
        spectrum = sp.power_spectrum(series)
        peak = sp.detect_peak(spectrum, args.min_prominence)
    out = _out_dir(args.out)
    io.write_spectrum_csv(out / "spectrum.csv", spectrum, tau_seconds=tau)
    io.write_json(
        out / "peak.json",
        {
            "input": args.input,
            "tau_seconds": tau,
            "background": spectrum.background,
            "peak": None
            if peak is None
            else {
                "frequency_per_tau": peak.frequency * tau,
                "frequency_hz": peak.frequency,
                "power": peak.power,
                "prominence": peak.prominence,
            },
        },
    )
    _write_resolved(out, vars(args))
    return EXIT_OK


def cmd_chsh(args) -> int:
    tags = io.read_tags_csv(args.tags)
    counts = ex.count_coincidences(tags, args.window_seconds)
    est = ex.s_chsh_from_counts(counts)
    out = _out_dir(args.out)
    blocks = {}
    for i, alpha in enumerate(("0", "pi/4")):
        for j, beta in enumerate(("pi/8", "3pi/8")):
            cell = counts.counts[i, j]
            blocks[f"alpha={alpha},beta={beta}"] = {
                "n_pp": int(cell[0, 0]),
                "n_pm": int(cell[0, 1]),
                "n_mp": int(cell[1, 0]),
                "n_mm": int(cell[1, 1]),
                "correlation": float(est.correlations[i, j]),
            }
    io.write_json(
        out / "chsh.json",
        {
            "s_chsh": est.value,
            "stderr": est.stderr,
            "total_coincidences": counts.total,
            "accidental_estimate": counts.accidental_estimate,
            "cells": blocks,
        },
    )
    _write_resolved(out, vars(args))
    return EXIT_OK


def cmd_feasibility(args) -> int:
    report = ex.feasibility(args.length_m, args.pair_rate_per_second,
                            args.required_pairs_per_tau)
    payload = asdict(report)
    if args.out:
        out = _out_dir(args.out)
        io.write_json(out / "feasibility.json", payload)
        _write_resolved(out, vars(args))
    print(io.dumps(payload))
    return EXIT_OK


def cmd_concurrence(args) -> int:
    if args.epsilon is not None:
        rho = states.rho_epsilon(args.epsilon)
        label = {"epsilon": args.epsilon}
    elif args.rho_d is not None and args.rho_a is not None:
        rho = states.RotInvariantState(args.rho_d, args.rho_a).expand()
        label = {"rho_d": args.rho_d, "rho_a": args.rho_a}
    else:
        raise ConfigError("give --epsilon or both --rho-d and --rho-a")
    conc = states.concurrence(rho)
    pos = states.is_positive(rho)
    payload = {
        **label,
        "concurrence": conc.value,
        "reliable": conc.reliable,
        "positive": pos.is_positive,
        "min_eigenvalue": pos.min_eigenvalue,
    }
    print(io.dumps(payload))
    return EXIT_OK


def cmd_verify(args) -> int:
    """Re-run the bundled golden checks (fast subset of the acceptance suite)."""
    golden = json.loads(
        (Path(__file__).parent / "data" / "golden.json").read_text()
    )
    failures = []

    def check(name: str, value: float, expected: float, tol: float):
        ok = abs(value - expected) <= tol
        print(f"{'PASS' if ok else 'FAIL'} {name}: {value:.6g} (expect {expected:.6g} +/- {tol:g})")
        if not ok:
            failures.append(name)

    r = dde.step_response(1.0)
    check("step.gamma1.period_tau", r.period, golden["step_gamma1"]["period_tau"], 0.01)
    check("step.gamma1.decay_tau", r.decay_time, golden["step_gamma1"]["decay_time_tau"], 0.01)

    c = states.concurrence(states.rho_epsilon(0.05)).value
    check("concurrence.eps_0.05", c, 0.70, 1e-10)
    check(
        "concurrence.scrt",
        states.concurrence(states.RotInvariantState(0.375, 0.125)).value,
        0.0,
        1e-10,
    )

    rep = ex.feasibility(5000.0, 3.0e5)
    check("feasibility.5km.pairs_per_tau", rep.pairs_per_tau, golden["feasibility_5km"], 0.01)

    cfg = ex.ExperimentConfig(gamma=0.9, tau=1.0, mu=0.2, duration=2000.0, seed=0)
    s = ex.s_chsh_ideal(ex.simulate_rho_d(cfg))
    check("schsh.fig5.seed0", s, golden["schsh_fig5_seed0"], 1e-9)

    if failures:
        print(f"{len(failures)} golden check(s) failed")
        return EXIT_RUNTIME
    print("all golden checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eprb-delay",
        description="Delayed-relaxation EPRB simulation and analysis",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("step", help="single setting-change response (ringing)")
    q.add_argument("--gamma", type=float, required=True)
    q.add_argument("--t-end", dest="t_end_tau", type=float, default=60.0,
                   help="in units of tau")
    q.add_argument("--samples-per-tau", type=int, default=100)
    _add_flags(q, [_TAU])
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_step)

    q = sub.add_parser("sweep", help="decay time / period versus gamma")
    q.add_argument("--gamma-min", type=float, default=0.1)
    q.add_argument("--gamma-max", type=float, default=1.55)
    q.add_argument("--steps", type=int, default=30)
    q.add_argument("--t-end", dest="t_end_tau", type=float, default=60.0,
                   help="in units of tau")
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_sweep)

    q = sub.add_parser("simulate", help="stochastic-settings experiment run")
    q.add_argument("--config", type=Path, default=None,
                   help="JSON object of config keys in SI units; explicit flags win")
    _add_flags(q, SIMULATE)
    q.set_defaults(func=cmd_simulate)

    q = sub.add_parser("spectrum", help="power spectrum of a trajectory or tag file")
    q.add_argument("--input", type=Path, required=True)
    q.add_argument("--bin-width-tau", type=float, default=0.1)
    q.add_argument("--signal", choices=["deviation", "rho_d", "rho_no_gap"],
                   help="trajectory input only (default deviation)")
    q.add_argument("--min-prominence", type=float, default=sp.DEFAULT_PROMINENCE)
    q.add_argument("--welch-segments", type=int,
                   help="tag-file input only: segments averaged (default 8)")
    q.add_argument("--window-tau", type=float,
                   help="tag-file input only: coincidence window (default 0.01)")
    _add_flags(q, [_TAU])
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_spectrum)

    q = sub.add_parser("chsh", help="coincidence counting and CHSH estimate")
    q.add_argument("--tags", type=Path, required=True)
    q.add_argument("--window", dest="window_seconds", type=float, required=True,
                   help="seconds")
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_chsh)

    q = sub.add_parser("feasibility", help="station-separation rate arithmetic")
    q.add_argument("--length-m", type=float, required=True)
    q.add_argument("--pair-rate", dest="pair_rate_per_second", type=float, required=True,
                   help="pairs per second")
    q.add_argument("--required-pairs-per-tau", type=float, default=5.0)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_feasibility)

    q = sub.add_parser("concurrence", help="entanglement of the near-Bell family")
    q.add_argument("--epsilon", type=float, default=None)
    q.add_argument("--rho-d", type=float, default=None)
    q.add_argument("--rho-a", type=float, default=None)
    q.set_defaults(func=cmd_concurrence)

    q = sub.add_parser("verify", help="re-run bundled golden checks")
    q.set_defaults(func=cmd_verify)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ContractViolationError, InsufficientDataError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(err, InsufficientDataError) else EXIT_RUNTIME
    except FileNotFoundError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as err:  # noqa: BLE001 -- CLI boundary
        print(f"runtime failure: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
