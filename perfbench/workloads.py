"""The benchmark's workloads: what one pass runs, and the checks on its outputs.

A pass is a list of named steps.  Each step calls one public entry point of
eprb_delay (``cli.main`` with command-line arguments, or
``experiment.tune_gamma``) and writes only into the pass directory.  Entry
points are looked up on their modules at call time, so the traced run sees
its wrappers.

Checks compare physics values, never file bytes, so they hold for any
artifact format the CLI can read back.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from eprb_delay import cli
from eprb_delay import experiment as ex

WORKLOADS = ("figures", "tune_mu13", "tags_dense")

# scripts/reproduce_figures.py runs seed 0, which golden.json pins
FIGURES_SEED = 0
TUNE_MU_TAU = 13.0
TUNE_BRACKET = (1.0, 1.6)
TUNE_TOLERANCE = 0.01
TAGS_WINDOW = 0.01  # seconds at tau = 1 s: +-tau/100, about 2 b-candidates per a-event
GOLDEN = Path("src/eprb_delay/data/golden.json")


def _artifact(directory: Path, stem: str) -> Path:
    """The data file ``stem.<ext>`` a command wrote, whatever its format."""
    found = sorted(
        p for p in directory.glob(stem + ".*") if not p.name.endswith(".meta.json")
    )
    if not found:
        raise FileNotFoundError(f"no {stem}.* in {directory}")
    return found[0]


def _cli(*args) -> int:
    return cli.main([str(a) for a in args])


def _simulate_args(seed: int, pair_rate_tau: float, out: Path) -> list:
    return ["simulate", "--gamma", "0.9", "--mu-tau", "0.2", "--duration-tau", "2000",
            "--seed", seed, "--pair-rate-tau", pair_rate_tau, "--out", out]


def steps(workload: str, seed: int, d: Path) -> list[tuple[str, object]]:
    """(name, thunk) pairs of one pass writing under ``d``."""
    if workload == "figures":
        run = d / "run_gamma09"
        return [
            ("step", lambda: _cli("step", "--gamma", "1.0", "--out", d / "step_gamma1")),
            ("sweep", lambda: _cli("sweep", "--gamma-min", "0.1", "--gamma-max", "1.65",
                                   "--steps", "32", "--out", d / "sweep")),
            ("simulate", lambda: _cli(*_simulate_args(FIGURES_SEED, 1.0, run))),
            ("spectrum", lambda: _cli("spectrum", "--input", _artifact(run, "trajectory"),
                                      "--out", d / "spectrum_gamma09")),
            ("chsh", lambda: _cli("chsh", "--tags", _artifact(run, "tags"), "--window",
                                  TAGS_WINDOW, "--out", d / "chsh_gamma09")),
            ("feasibility", lambda: _cli("feasibility", "--length-m", "5000",
                                         "--pair-rate", "3e5", "--out", d / "feasibility_5km")),
        ]
    if workload == "tune_mu13":
        return [("tune", lambda: ex.tune_gamma(TUNE_MU_TAU))]
    if workload == "tags_dense":
        run = d / "run"
        return [
            ("simulate", lambda: _cli(*_simulate_args(seed, 100.0, run))),
            ("chsh", lambda: _cli("chsh", "--tags", _artifact(run, "tags"), "--window",
                                  TAGS_WINDOW, "--out", d / "chsh")),
            ("spectrum", lambda: _cli("spectrum", "--input", _artifact(run, "tags"),
                                      "--out", d / "spectrum")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _experiment_config(seed: int, pair_rate: float) -> ex.ExperimentConfig:
    return ex.ExperimentConfig(gamma=0.9, tau=1.0, mu=0.2, duration=2000.0, seed=seed,
                               pair_rate=pair_rate)


def _read_columns(path: Path, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    if path.suffix == ".npz":
        with np.load(path) as data:
            return {n: np.asarray(data[n]) for n in names}
    with path.open(newline="") as fh:
        rows = csv.DictReader(fh)
        cols = {n: [] for n in names}
        for row in rows:
            for n in names:
                cols[n].append(float(row[n]))
    return {n: np.array(v) for n, v in cols.items()}


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


class Checker:
    """Checks one workload's pass outputs against references computed in
    memory once per run; returns a list of failure messages."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.golden = _json(GOLDEN)
        self._ref = None
        self._checked_files: dict[str, list[str]] = {}
        self._checked_gains: dict[float, list[str]] = {}

    def __call__(self, d: Path, results: dict) -> list[str]:
        return getattr(self, "_" + self.workload)(d, results)

    def _cli_codes(self, results: dict) -> list[str]:
        return [f"{k} exited {v}" for k, v in results.items() if v != 0]

    def _figures(self, d: Path, results: dict) -> list[str]:
        errors = self._cli_codes(results)
        if errors:
            return errors
        s = _json(d / "run_gamma09" / "schsh.json")["s_chsh_ideal"]
        if not abs(s - self.golden["schsh_fig5_seed0"]) <= 1e-9:
            errors.append(f"ideal S {s!r} differs from golden schsh_fig5_seed0")
        step = _json(d / "step_gamma1" / "step_response.json")
        for key in ("period_tau", "decay_time_tau"):
            if not abs(step[key] - self.golden["step_gamma1"][key]) <= 0.01:
                errors.append(f"step {key} {step[key]!r} differs from golden step_gamma1")
        feas = _json(d / "feasibility_5km" / "feasibility.json")["pairs_per_tau"]
        if not abs(feas - self.golden["feasibility_5km"]) <= 0.01:
            errors.append(f"feasibility pairs_per_tau {feas!r} differs from golden")
        if not (d / "spectrum_gamma09" / "peak.json").is_file():
            errors.append("spectrum wrote no peak.json")
        if "s_chsh" not in _json(d / "chsh_gamma09" / "chsh.json"):
            errors.append("chsh.json holds no s_chsh")
        errors += self._trajectory_round_trip(_artifact(d / "run_gamma09", "trajectory"))
        return errors

    def _trajectory_round_trip(self, path: Path) -> list[str]:
        # identical bytes were already compared with the in-memory run
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest not in self._checked_files:
            if self._ref is None:
                self._ref = ex.simulate_rho_d(_experiment_config(FIGURES_SEED, 1.0))
            back = _read_columns(path, ("t", "rho_d", "rho_target"))
            errors = [
                f"re-read {name} differs from the in-memory simulate_rho_d result"
                for name, want in (("t", self._ref.t), ("rho_d", self._ref.rho_d),
                                   ("rho_target", self._ref.rho_target))
                if not np.array_equal(back[name], want)
            ]
            self._checked_files[digest] = errors
        return self._checked_files[digest]

    def _tune_mu13(self, d: Path, results: dict) -> list[str]:
        gain = results["tune"]
        if gain not in self._checked_gains:
            errors = []
            lo, hi = TUNE_BRACKET
            if not lo <= gain <= hi:
                errors.append(f"gain {gain!r} outside the bracket {TUNE_BRACKET}")
            cfg = ex.ExperimentConfig(gamma=gain, tau=1.0, mu=TUNE_MU_TAU,
                                      duration=2000.0, seed=0)
            s = ex.s_chsh_for(cfg, range(10))
            if not abs(s - ex.S_QM) < TUNE_TOLERANCE:
                errors.append(f"10-seed mean S {s!r} at gain {gain!r} misses 2*sqrt(2)")
            self._checked_gains[gain] = errors
        return self._checked_gains[gain]

    def _tags_dense(self, d: Path, results: dict) -> list[str]:
        errors = self._cli_codes(results)
        if errors:
            return errors
        if self._ref is None:
            cfg = _experiment_config(self.seed, 100.0)
            tags = ex.generate_time_tags(cfg, ex.simulate_rho_d(cfg))
            n_a = int((tags.arm == "a").sum())
            est = ex.s_chsh_from_counts(ex.count_coincidences(tags, TAGS_WINDOW))
            self._ref = (n_a, len(tags) - n_a, est.value)
        n_a, n_b, s_ref = self._ref
        chsh = _json(d / "chsh" / "chsh.json")
        if not chsh["total_coincidences"] == n_a == n_b:
            errors.append(
                f"total_coincidences {chsh['total_coincidences']} != a-arm {n_a} / b-arm {n_b}"
            )
        if chsh["s_chsh"] != s_ref:
            errors.append(f"chsh s_chsh {chsh['s_chsh']!r} != in-memory {s_ref!r}")
        s_sim = _json(d / "run" / "schsh.json").get("s_chsh_counts")
        if s_sim != s_ref:
            errors.append(f"simulate s_chsh_counts {s_sim!r} != in-memory {s_ref!r}")
        peak = _json(d / "spectrum" / "peak.json")
        if not math.isfinite(peak["background"]):
            errors.append("spectrum background is not finite")
        return errors
