#!/usr/bin/env python3
"""Regenerate the headline figure data sets into ./out/ (npz + CSV + JSON;
``eprb-delay export`` turns an npz archive into CSV).

Covers: the single-change ringing response, the decay/period sweep with the
divergence boundary, the stochastic-settings run with its CHSH integral, the
oscillation spectrum, and the station-separation feasibility numbers.
"""

from __future__ import annotations

import sys
from pathlib import Path

from eprb_delay import cli

OUT = Path(__file__).resolve().parent.parent / "out"


def run(*args: str) -> None:
    argv = [str(a) for a in args]
    print("+ eprb-delay", " ".join(argv))
    rc = cli.main(argv)
    if rc != 0:
        sys.exit(rc)


def main(out: Path = OUT) -> None:
    out.mkdir(exist_ok=True)

    # ringing after a single unpredictable setting change (gain 1)
    run("step", "--gamma", "1.0", "--out", out / "step_gamma1")

    # decay time and period across the gain axis, divergence past pi/2
    run("sweep", "--gamma-min", "0.1", "--gamma-max", "1.65", "--steps", "32",
        "--out", out / "sweep")

    # stochastic settings at gamma 0.9, coin rate 0.2 per delay, 2000 delays
    run("simulate", "--gamma", "0.9", "--mu-tau", "0.2", "--duration-tau", "2000",
        "--seed", "0", "--pair-rate-tau", "1.0", "--out", out / "run_gamma09")

    # its oscillation spectrum (transient-deviation signal)
    run("spectrum", "--input", out / "run_gamma09" / "trajectory.npz",
        "--out", out / "spectrum_gamma09")

    # count-based CHSH from the generated time tags
    run("chsh", "--tags", out / "run_gamma09" / "tags.npz", "--window", "0.01",
        "--out", out / "chsh_gamma09")

    # field-scale arithmetic: 5 km at the best laboratory pair rate
    run("feasibility", "--length-m", "5000", "--pair-rate", "3e5",
        "--out", out / "feasibility_5km")

    print(f"\nartifacts under {out}")


if __name__ == "__main__":
    main()
