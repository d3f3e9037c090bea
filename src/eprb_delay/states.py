"""Exact linear algebra for two-photon polarization states.

All 4x4 matrices use the product basis

    index 0: |x_a x_b>,  1: |x_a y_b>,  2: |y_a x_b>,  3: |y_a y_b>

(arm ``a`` is the major index).  States are plain complex ndarrays; the
symmetric families that matter for the relaxation model are small frozen
dataclasses with an ``expand()`` method producing the ndarray.

Three families appear:

* ``RotInvariantState`` -- invariant under a common rotation of both arms.
* ``TwistInvariantState`` -- invariant under opposite rotations of the arms.
* ``RelaxationState`` -- the one-parameter family swept out by the relaxation
  dynamics between the two classical mixtures (analyzer basis 0 and pi/4);
  its anti-corner and central entries all equal 1/2 - rho_d.

Positivity is deliberately *not* an invariant of the matrix container: the
relaxation dynamics near its oscillatory instability transiently leaves the
positive cone, and that behaviour is part of the model.  ``is_positive`` is
the queryable predicate.

Coincidence probabilities are always computed by a direct trace against
explicit analyzer projectors.  The closed forms for the separate families
(which differ in their cross terms) live in the test suite as verification
targets only, because applying the wrong family's formula is an easy mistake.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, NamedTuple, Union

import numpy as np

from .errors import ContractViolationError

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
POSITIVITY_EIG_FLOOR = -1e-10

Arm = Literal["a", "b"]
Port = Literal["+", "-"]

# Bell-state density matrices (|phi+->: corners, |psi+->: central block).
PHI_PLUS = 0.5 * np.array(
    [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
)
PHI_MINUS = 0.5 * np.array(
    [[1, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 1]], dtype=complex
)
PSI_PLUS = 0.5 * np.array(
    [[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]], dtype=complex
)
PSI_MINUS = 0.5 * np.array(
    [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]], dtype=complex
)

_SPIN_FLIP = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float
)


@dataclass(frozen=True)
class RotInvariantState:
    """Rotationally invariant two-photon state: corner diagonal ``rho_d``,
    corner anti-diagonal ``rho_a``; the central block is then fixed."""

    rho_d: float
    rho_a: float

    def expand(self) -> np.ndarray:
        d, c = self.rho_d, self.rho_a
        m = 2.0 * d - c - 0.5
        return np.array(
            [
                [d, 0, 0, c],
                [0, 0.5 - d, m, 0],
                [0, m, 0.5 - d, 0],
                [c, 0, 0, d],
            ],
            dtype=complex,
        )

    def is_positive(self) -> bool:
        # block eigenvalues {d+c, d-c, d-c, 1-3d+c}, same slack as the
        # dense-eigensolver predicate
        d, c = self.rho_d, self.rho_a
        gap = d - c
        return POSITIVITY_EIG_FLOOR <= gap and gap <= 0.5 - abs(2.0 * d - 0.5) - POSITIVITY_EIG_FLOOR


@dataclass(frozen=True)
class TwistInvariantState:
    """Invariant under rotating arm a by theta and arm b by -theta."""

    d: float
    c: float

    def expand(self) -> np.ndarray:
        d, c = self.d, self.c
        m = -2.0 * d - c + 0.5
        return np.array(
            [
                [d, 0, 0, c],
                [0, 0.5 - d, m, 0],
                [0, m, 0.5 - d, 0],
                [c, 0, 0, d],
            ],
            dtype=complex,
        )

    def is_positive(self) -> bool:
        s = self.d + self.c
        return POSITIVITY_EIG_FLOOR <= s and s <= 0.5 - abs(2.0 * self.d - 0.5) - POSITIVITY_EIG_FLOOR


@dataclass(frozen=True)
class RelaxationState:
    """One-parameter relaxation family: anti-corner and all central entries
    equal ``1/2 - rho_d``.  Positive exactly for rho_d in [1/4, 1/2]; values
    outside are representable (transient excursions), just not positive."""

    rho_d: float

    @property
    def rho_m(self) -> float:
        return 0.5 - self.rho_d

    @property
    def rho_a(self) -> float:
        return 0.5 - self.rho_d

    def expand(self) -> np.ndarray:
        d = self.rho_d
        r = 0.5 - d
        return np.array(
            [
                [d, 0, 0, r],
                [0, r, r, 0],
                [0, r, r, 0],
                [r, 0, 0, d],
            ],
            dtype=complex,
        )

    def is_positive(self) -> bool:
        # block eigenvalues {1/2, 2 rho_d - 1/2, 1 - 2 rho_d, 0}
        return (
            2.0 * self.rho_d - 0.5 >= POSITIVITY_EIG_FLOOR
            and 1.0 - 2.0 * self.rho_d >= POSITIVITY_EIG_FLOOR
        )


FamilyState = Union[RotInvariantState, TwistInvariantState, RelaxationState]
StateLike = Union[np.ndarray, FamilyState]


@dataclass(frozen=True)
class Projector:
    """Linear-polarizer projector on one arm.

    The reflected port is the transmitted port rotated by pi/2.
    """

    angle: float
    arm: Arm
    port: Port = "+"

    def matrix(self) -> np.ndarray:
        theta = self.angle if self.port == "+" else self.angle + np.pi / 2.0
        c, s = np.cos(theta), np.sin(theta)
        p2 = np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)
        eye = np.eye(2, dtype=complex)
        if self.arm == "a":
            return np.kron(p2, eye)
        return np.kron(eye, p2)


class PositivityResult(NamedTuple):
    is_positive: bool
    min_eigenvalue: float


class ConcurrenceResult(NamedTuple):
    value: float
    reliable: bool


def as_matrix(state: StateLike) -> np.ndarray:
    if isinstance(state, np.ndarray):
        return state
    return state.expand()


def make_rho_alpha(alpha: float) -> np.ndarray:
    """Classical mixture of photon pairs polarized along alpha and alpha+pi/2
    on both arms; the state that reproduces quantum coincidence statistics
    when the analyzer sits at alpha."""
    c4 = np.cos(4.0 * alpha)
    s4 = np.sin(4.0 * alpha)
    return (
        np.array(
            [
                [3 + c4, s4, s4, 1 - c4],
                [s4, 1 - c4, 1 - c4, -s4],
                [s4, 1 - c4, 1 - c4, -s4],
                [1 - c4, -s4, -s4, 3 + c4],
            ],
            dtype=complex,
        )
        / 8.0
    )


def is_positive(state: StateLike, eig_floor: float = POSITIVITY_EIG_FLOOR) -> PositivityResult:
    """Positivity check via the smallest eigenvalue of the dense matrix.

    Raises ContractViolationError for a non-Hermitian input.
    """
    rho = as_matrix(state)
    if not np.allclose(rho, rho.conj().T, atol=HERMITICITY_ATOL, rtol=0.0):
        raise ContractViolationError("is_positive requires a Hermitian matrix")
    lo = float(np.linalg.eigvalsh(rho).min())
    return PositivityResult(lo >= eig_floor, lo)


def coincidence_probability(
    state: StateLike,
    alpha: float,
    beta: float,
    port_a: Port = "+",
    port_b: Port = "+",
) -> float:
    """Tr[rho Qa(alpha) Qb(beta)] by direct matrix trace.

    Callers are expected to pass a Hermitian trace-1 matrix; the result may
    transiently lie outside [0, 1] for non-positive family members.
    """
    rho = as_matrix(state)
    qa = Projector(alpha, "a", port_a).matrix()
    qb = Projector(beta, "b", port_b).matrix()
    return float(np.trace(rho @ qa @ qb).real)


def port_probabilities(state: StateLike, alpha: float, beta: float) -> np.ndarray:
    """The four coincidence probabilities ordered (++, +-, -+, --)."""
    rho = as_matrix(state)
    out = np.empty(4)
    for i, pa in enumerate("+-"):
        for j, pb in enumerate("+-"):
            qa = Projector(alpha, "a", pa).matrix()
            qb = Projector(beta, "b", pb).matrix()
            out[2 * i + j] = np.trace(rho @ qa @ qb).real
    return out


def concurrence(state: StateLike) -> ConcurrenceResult:
    """Wootters concurrence from the spin-flipped matrix.

    Defined (and computed) for any Hermitian input; ``reliable`` is False
    when the input is not a positive matrix, since the entanglement reading
    is meaningless there.
    """
    rho = as_matrix(state)
    rho_tilde = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
    eig = np.linalg.eigvals(rho @ rho_tilde).real
    # exact zero eigenvalues come back as O(eps) noise; sqrt would blow that
    # up to ~1e-8, so clip below numerical rank
    floor = 1e-13 * max(float(np.abs(eig).max()), 1e-300)
    eig[eig < floor] = 0.0
    lam = np.sqrt(eig)
    lam.sort()
    value = max(0.0, float(lam[3] - lam[2] - lam[1] - lam[0]))
    return ConcurrenceResult(value, is_positive(rho).is_positive)


def bell_from_symmetry(
    invariance: Literal["rotational", "twist"],
    mirror_value: float,
) -> np.ndarray:
    """Unique Bell state selected by a symmetry class plus the mirror
    condition on equal (rotational) or opposite (twist) analyzer angles.

    mirror_value is the pinned coincidence probability: 1/2 for maximal
    coincidences, 0 for minimal.
    """
    if mirror_value not in (0.0, 0.5):
        raise ValueError("mirror condition must pin the probability to 0 or 1/2")
    d = mirror_value
    if invariance == "rotational":
        # positivity collapses to d - c = 0 at both extremes
        return RotInvariantState(rho_d=d, rho_a=d).expand()
    if invariance == "twist":
        # positivity collapses to d + c = 0 at both extremes
        return TwistInvariantState(d=d, c=-d).expand()
    raise ValueError(f"unknown invariance {invariance!r}")


def rotation_matrix(theta: float, phi: float) -> np.ndarray:
    """Polarization rotation by theta on arm a and phi on arm b (orthogonal).

    theta = phi probes rotational invariance, theta = -phi twist invariance.
    """
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    return np.array(
        [
            [ct * cp, ct * sp, st * cp, st * sp],
            [-ct * sp, ct * cp, -st * sp, st * cp],
            [-st * cp, -st * sp, ct * cp, ct * sp],
            [st * sp, -st * cp, -ct * sp, ct * cp],
        ]
    )


def reduced_state(state: StateLike, arm: Arm) -> np.ndarray:
    """Single-arm reduced matrix (partial trace over the other arm)."""
    rho = as_matrix(state).reshape(2, 2, 2, 2)
    if arm == "a":
        return np.einsum("ikjk->ij", rho)
    if arm == "b":
        return np.einsum("ikil->kl", rho)
    raise ValueError(f"unknown arm {arm!r}")


def epsilon_state(eps: float, c_coefficient: float = 2.0) -> RotInvariantState:
    """Near-Bell rotationally invariant state with corner 1/2 - eps.

    The anti-corner is 1/2 - c_coefficient*eps; positivity allows
    c_coefficient in [1, 3], and the concurrence is 1 - (2 + 2*c_coefficient)*eps
    to first order (so 1 - 4 eps, 1 - 6 eps, 1 - 8 eps at 1, 2, 3).  The
    central choice 2 is the default; 3 reaches the semi-classical state
    (rho_d = 3/8, rho_a = 1/8 at eps = 1/8) whose concurrence vanishes.
    """
    return RotInvariantState(rho_d=0.5 - eps, rho_a=0.5 - c_coefficient * eps)


def rho_epsilon(eps: float) -> np.ndarray:
    """Mirror-deviation mixture (1-4e)|phi+> + 2e|psi+> + e|xx> + e|yy>.

    Corner entries match ``epsilon_state(eps)``, but the central off-diagonal
    is eps rather than the 0 the rotationally invariant family would force;
    its eigenvalues are {1-3e, 2e, e, 0}, so the squared matrix has
    {(1-3e)^2, 4e^2, e^2, 0} and the concurrence is 1 - 6e (the same value
    the family member gives).
    """
    xx = np.zeros((4, 4), dtype=complex)
    xx[0, 0] = 1.0
    yy = np.zeros((4, 4), dtype=complex)
    yy[3, 3] = 1.0
    return (1.0 - 4.0 * eps) * PHI_PLUS + 2.0 * eps * PSI_PLUS + eps * xx + eps * yy
