#!/usr/bin/env python3
"""Scan the CHSH integral against the delay gain at a chosen switching rate,
then bisect for the gain that restores the quantum value 2*sqrt(2).

Usage: python scripts/tune_coupling.py [mu_tau] [n_seeds]
"""

from __future__ import annotations

import math
import sys

import numpy as np

from eprb_delay import experiment as ex


def main() -> None:
    mu_tau = float(sys.argv[1]) if len(sys.argv) > 1 else 13.0
    n_seeds = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    seeds = range(n_seeds)

    print(f"switching rate mu*tau = {mu_tau}, {n_seeds} seeds, 2000 tau per run")
    print(f"{'gamma':>8} {'mean S':>10} {'std':>8}")
    for gamma in np.linspace(1.0, 1.56, 8):
        cfg = ex.ExperimentConfig(gamma=float(gamma), tau=1.0, mu=mu_tau, duration=2000.0, seed=0)
        values = ex.s_chsh_per_seed(cfg, seeds)
        print(f"{gamma:8.4f} {np.mean(values):10.4f} {np.std(values):8.4f}")

    gamma_star = ex.tune_gamma(mu_tau, seeds=seeds)
    print(f"\ngain restoring S = 2*sqrt(2) = {2 * math.sqrt(2):.4f}: gamma = {gamma_star:.4f}")


if __name__ == "__main__":
    main()
