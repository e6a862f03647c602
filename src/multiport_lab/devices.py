"""Closed forms of the two interferometers the paper compares, each the
accelerator of the built-in netlist of its name (`analysis`); the closure
engine (`multiport_lab.closure`) is the validation oracle for each formula.

Devices:
  * michelson            two mirrors on adjacent beam-splitter ports, no cavity
  * grover-michelson     4-port Grover coin with two sealed ports (two cavities)

`bs_cavity_probabilities` (mirrors on opposite beam-splitter ports, one
cavity) is a test oracle only: the bs-cavity netlist evaluates itself.

Phase arguments are radians, accepted as arbitrary reals; trigonometric
evaluation uses the raw values so derivative estimates see no branch cuts.
Scalar functions return Python complex/float; the *_probabilities functions
broadcast over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegeneratePhaseError

#: |B - 1| at or below this counts as the degenerate double-resonance point.
DEGENERATE_TOL = 1e-12


class Probabilities(NamedTuple):
    R: float | np.ndarray
    T: float | np.ndarray


@dataclass(frozen=True)
class TwoPortAmplitudes:
    """Reflection r and transmission t of a lossless two-port: |r|^2 + |t|^2 = 1."""

    r: complex
    t: complex

    @property
    def R(self) -> float:
        return abs(self.r) ** 2

    @property
    def T(self) -> float:
        return abs(self.t) ** 2


def _phasor_minus_one(phi):
    """exp(i*phi) - 1 evaluated as 2i sin(phi/2) exp(i*phi/2), accurate for tiny phi."""
    half = 0.5 * np.asarray(phi, dtype=np.float64)
    return 2j * np.sin(half) * np.exp(1j * half)


def michelson_amplitudes(phi1: float, phi2: float) -> TwoPortAmplitudes:
    """Michelson interferometer amplitudes for arm phases phi1, phi2.

    r = -(e^{i phi1} + e^{i phi2})/2 and t = -(e^{i phi1} - e^{i phi2})/2, so
    R = cos^2((phi1-phi2)/2) and T = sin^2((phi1-phi2)/2): the response depends
    on the phases only through their difference.
    """
    z1 = complex(np.exp(1j * phi1))
    z2 = complex(np.exp(1j * phi2))
    return TwoPortAmplitudes(r=-0.5 * (z1 + z2), t=-0.5 * (z1 - z2))


def michelson_probabilities(phi1, phi2) -> Probabilities:
    """Vectorized Michelson R = cos^2((phi1-phi2)/2), T = sin^2((phi1-phi2)/2)."""
    half = 0.5 * (np.asarray(phi1, dtype=np.float64) - np.asarray(phi2, dtype=np.float64))
    return Probabilities(R=np.cos(half) ** 2, T=np.sin(half) ** 2)


def michelson_dT_dphi1(phi1, phi2):
    """Exact dT/dphi1 = sin(phi1 - phi2)/2; |.| peaks at exactly 1/2."""
    return 0.5 * np.sin(np.asarray(phi1, dtype=np.float64)
                        - np.asarray(phi2, dtype=np.float64))


def bs_cavity_probabilities(phi1, phi2) -> Probabilities:
    """Beam-splitter cavity (mirrors on opposite sides): R = 1/(5 - 4cos(phi1+phi2)).

    R spans [1/9, 1]; the cavity cannot be tuned to full transmission.
    """
    s = np.asarray(phi1, dtype=np.float64) + np.asarray(phi2, dtype=np.float64)
    R = 1.0 / (5.0 - 4.0 * np.cos(s))
    return Probabilities(R=R, T=1.0 - R)


def grover_michelson_amplitudes(phi1: float, phi2: float) -> TwoPortAmplitudes:
    """Grover-Michelson interferometer: 4-port Grover coin with two sealed ports.

    With B, C the half-sum and half-difference of the cavity phasors
    e^{i phi1}, e^{i phi2}, the exact round-trip summation gives

        r = C^2/(2B - 2) - B/2 - 1/2,      t = r + 1,

    evaluated here in the cancellation-free form r = -(e^{i(phi1+phi2)}-1)/w,
    t = -(e^{i phi1}-1)(e^{i phi2}-1)/w with w = e^{i phi1} + e^{i phi2} - 2.
    The dependence through the resolvent denominator makes the response a
    nonlinear, jointly-inseparable function of both phases.

    Raises DegeneratePhaseError at the double resonance (phi1, phi2) = (0, 0)
    mod 2pi, where all light is eventually returned and the closure is
    singular.  (Along the diagonal phi1 = phi2 -> 0 the amplitudes tend to the
    mirror limit r -> -1, but the limit is direction-dependent, so no value is
    returned.)
    """
    w1 = complex(_phasor_minus_one(phi1))
    w2 = complex(_phasor_minus_one(phi2))
    den = w1 + w2  # equals 2B - 2
    if abs(den) <= 2.0 * DEGENERATE_TOL:
        raise DegeneratePhaseError(
            f"degenerate phases (phi1={phi1!r}, phi2={phi2!r}): both cavities "
            "resonant, scattering amplitudes undefined"
        )
    return TwoPortAmplitudes(
        r=-complex(_phasor_minus_one(phi1 + phi2)) / den,
        t=-w1 * w2 / den,
    )


def grover_michelson_probabilities(phi1, phi2) -> Probabilities:
    """Vectorized Grover-Michelson R, T.

    Uses the exact rational form R = 4a^2/D, T = 16 s1^2 s2^2 / D with
    a = sin((phi1+phi2)/2), s_j = sin(phi_j/2), D = 4a^2 + 16 s1^2 s2^2, so
    R + T = 1 holds identically and tiny phases lose no precision.

    Raises DegeneratePhaseError if any evaluation point sits at the double
    resonance (phi1, phi2) = (0, 0) mod 2pi.
    """
    p1 = np.asarray(phi1, dtype=np.float64)
    p2 = np.asarray(phi2, dtype=np.float64)
    a2 = 4.0 * np.sin(0.5 * (p1 + p2)) ** 2
    t2 = 16.0 * (np.sin(0.5 * p1) * np.sin(0.5 * p2)) ** 2
    den = a2 + t2
    if np.any(den <= 4.0 * DEGENERATE_TOL**2):
        raise DegeneratePhaseError(
            "degenerate phase point (phi1, phi2) = (0, 0) mod 2pi in evaluation grid"
        )
    return Probabilities(R=a2 / den, T=t2 / den)


def grover_michelson_dT_dphi1(phi1, phi2):
    """Exact dT/dphi1 for the Grover-Michelson transmission.

    Differentiating T = N/D with N = 16 sin^2(phi1/2) sin^2(phi2/2) and
    D = 4 sin^2((phi1+phi2)/2) + N gives

        dT/dphi1 = 32 sin^2(phi2/2) *
                   [sin^2((phi1+phi2)/2) sin(phi1) - sin^2(phi1/2) sin(phi1+phi2)]
                   / D^2.

    Near phi2 -> 0 the transmission resonance at phi1 = -phi2 (mod 2pi) has
    half-width ~ phi2^2, and the slope there peaks at ~ 1/(2 phi2^2); this
    closed form stays accurate where any fixed-step finite difference would
    low-pass the feature away.

    Raises DegeneratePhaseError at the double resonance, as the probabilities
    do.
    """
    p1 = np.asarray(phi1, dtype=np.float64)
    p2 = np.asarray(phi2, dtype=np.float64)
    s = p1 + p2
    a2 = np.sin(0.5 * s) ** 2
    s1_sq = np.sin(0.5 * p1) ** 2
    s2_sq = np.sin(0.5 * p2) ** 2
    den = 4.0 * a2 + 16.0 * s1_sq * s2_sq
    if np.any(den <= 4.0 * DEGENERATE_TOL**2):
        raise DegeneratePhaseError(
            "degenerate phase point (phi1, phi2) = (0, 0) mod 2pi in evaluation grid"
        )
    return 32.0 * s2_sq * (a2 * np.sin(p1) - s1_sq * np.sin(s)) / den**2
