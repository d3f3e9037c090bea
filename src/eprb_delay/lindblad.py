"""Markovian relaxation of the two-photon state between classical mixtures.

Two jump operators drive the polarization state along the one-parameter
``RelaxationState`` family:

* kind ``"parallel"``: fixed point is the analyzer-basis-0 mixture
  (rho_d = 1/2); built from g (|yy> - |xx>)(<xy| + <yx|).
* kind ``"diagonal"``: fixed point is the pi/4-basis mixture (rho_d = 1/4);
  built from g (|xy> + |yx>)(<xx| - <yy|), which equals minus the adjoint of
  the parallel operator.

The environment-coupling strength g has units of time^(-1/2): g^2 t is
dimensionless.  Along either evolution rho_d + rho_m = rho_d + rho_a = 1/2,
the single-photon reduced matrices stay maximally mixed, and rho_d obeys
d rho_d / dt = -4 g^2 (rho_d - rho_target), the scalar equation the delay
dynamics generalizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConfigError

JumpKind = Literal["parallel", "diagonal"]

_KET_FACTORS = {
    # (left vector, right vector) of the rank-1 operator, unit g
    "parallel": (np.array([-1, 0, 0, 1], dtype=complex), np.array([0, 1, 1, 0], dtype=complex)),
    "diagonal": (np.array([0, 1, 1, 0], dtype=complex), np.array([1, 0, 0, -1], dtype=complex)),
}


@dataclass(frozen=True)
class JumpOperator:
    kind: JumpKind
    g: float

    def __post_init__(self):
        if self.g < 0:
            raise ConfigError("interaction strength g must be >= 0")
        if self.kind not in _KET_FACTORS:
            raise ConfigError(f"unknown jump operator kind {self.kind!r}")

    def matrix(self) -> np.ndarray:
        left, right = _KET_FACTORS[self.kind]
        return self.g * np.outer(left, right.conj())


@dataclass(frozen=True)
class OdeConfig:
    """Fixed-step classical 4th-order integration parameters."""

    dt: float
    t_end: float

    def validate(self, g: float) -> None:
        if self.dt <= 0 or self.t_end <= 0:
            raise ConfigError("dt and t_end must be positive")
        if g * g * self.dt > 0.01 + 1e-15:
            raise ConfigError("step too large: require g^2 * dt <= 0.01")


def lindblad_rhs(state: np.ndarray, op: JumpOperator) -> np.ndarray:
    """d rho / dt = L rho L^dag - (1/2){L^dag L, rho}; traceless, Hermitian."""
    ell = op.matrix()
    ell_dag = ell.conj().T
    anti = ell_dag @ ell
    return ell @ state @ ell_dag - 0.5 * (anti @ state + state @ anti)


def evolve_numeric(
    initial: np.ndarray, op: JumpOperator, cfg: OdeConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the master equation; returns (times, states[n+1, 4, 4]).

    No renormalization is applied: trace and Hermiticity preservation are
    properties of the dynamics and verified as such.
    """
    cfg.validate(op.g)
    n = int(round(cfg.t_end / cfg.dt))
    times = np.arange(n + 1) * cfg.dt
    out = np.empty((n + 1, 4, 4), dtype=complex)
    out[0] = initial
    rho = np.array(initial, dtype=complex)
    dt = cfg.dt
    for i in range(n):
        k1 = lindblad_rhs(rho, op)
        k2 = lindblad_rhs(rho + 0.5 * dt * k1, op)
        k3 = lindblad_rhs(rho + 0.5 * dt * k2, op)
        k4 = lindblad_rhs(rho + dt * k3, op)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = rho
    return times, out


def rho_d_series(states: np.ndarray) -> np.ndarray:
    """Corner-diagonal element along an evolution."""
    return states[..., 0, 0].real


def rho_d_ode_step(rho_d: float, rho_target: float, g: float, dt: float) -> float:
    """One 4th-order step of d rho_d/dt = -4 g^2 (rho_d - rho_target)."""
    if dt <= 0:
        raise ConfigError("dt must be positive")
    rate = -4.0 * g * g

    def f(x: float) -> float:
        return rate * (x - rho_target)

    k1 = f(rho_d)
    k2 = f(rho_d + 0.5 * dt * k1)
    k3 = f(rho_d + 0.5 * dt * k2)
    k4 = f(rho_d + dt * k3)
    return rho_d + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def p_plus_plus_transient(beta: float, t: float, g: float) -> float:
    """Transmitted-port coincidence probability during relaxation from the
    uncorrelated value 1/4 toward the aligned-analyzer statistics at
    setting 0: (1/2)cos^2(beta) + (1/4)exp(-4 g^2 t)(1 - 2 cos^2(beta))."""
    if t < 0:
        raise ConfigError("t must be >= 0")
    c2 = np.cos(beta) ** 2
    return 0.5 * c2 + 0.25 * np.exp(-4.0 * g * g * t) * (1.0 - 2.0 * c2)
