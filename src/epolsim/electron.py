"""Free-electron energy ladder, comb states, kinematics, and the near-field coupling integral.

The electron is a discrete ladder of energy sidebands spaced by one mode
quantum.  A cyclic (periodic) ladder is used instead of a hard truncation so
that the shift operator is exactly unitary and comb states are exact
eigenvectors; dynamical runs must keep the wrap-around rungs unpopulated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import Operator, StateVector, TensorSpace

__all__ = [
    "ELECTRON_REST_KEV",
    "LadderConfig",
    "EnvelopeSamples",
    "build_ladder",
    "comb_state",
    "energy_to_velocity",
    "coupling_from_envelope",
]

ELECTRON_REST_KEV = 510.999

ELECTRON_LABEL = "electron"


@dataclass(frozen=True)
class LadderConfig:
    """Sideband ladder: `rungs` levels with the initial electron at `center`."""

    rungs: int
    center: int

    def __post_init__(self):
        if self.rungs < 3:
            raise ValueError(f"rungs must be >= 3, got {self.rungs}")
        if not 0 <= self.center < self.rungs:
            raise ValueError(f"center {self.center} outside [0, {self.rungs})")

    @property
    def space(self) -> TensorSpace:
        return TensorSpace.single(ELECTRON_LABEL, self.rungs)

    def wrap_rungs(self) -> np.ndarray:
        """Rungs within two of the cyclic wrap-around point opposite `center`."""
        offsets = (np.arange(self.rungs) - self.center) % self.rungs
        dist = np.minimum(offsets, self.rungs - offsets)
        return np.nonzero(dist >= self.rungs // 2 - 1)[0]


def build_ladder(cfg: LadderConfig) -> Operator:
    """Cyclic lowering operator b with b|l> = |l-1 mod D>; exactly unitary."""
    d = cfg.rungs
    m = np.zeros((d, d), dtype=complex)
    cols = np.arange(d)
    m[(cols - 1) % d, cols] = 1.0
    return Operator(cfg.space, m)


def comb_state(phi: float, cfg: LadderConfig) -> StateVector:
    """Equal-weight sideband superposition with linear phase; eigenvector of b."""
    d = cfg.rungs
    amp = np.exp(1j * phi * np.arange(d)) / math.sqrt(d)
    return StateVector(cfg.space, amp)


def energy_to_velocity(energy_kev: float) -> float:
    """Relativistic speed ratio beta = v/c for a given kinetic energy in keV."""
    if energy_kev < 0:
        raise ValueError(f"kinetic energy must be >= 0, got {energy_kev}")
    gamma = 1.0 + energy_kev / ELECTRON_REST_KEV
    return math.sqrt(1.0 - 1.0 / (gamma * gamma))


@dataclass(frozen=True)
class EnvelopeSamples:
    """Sampled longitudinal mode envelope along the interaction region.

    `prefactor` bundles the charge/velocity/frequency factors multiplying the
    integral (e*v / (hbar*omega) in physical units).
    """

    positions: np.ndarray
    values: np.ndarray
    prefactor: float = 1.0

    def __post_init__(self):
        z = np.asarray(self.positions, dtype=float)
        e = np.asarray(self.values, dtype=complex)
        if z.ndim != 1 or z.size < 2:
            raise ValueError("need at least 2 envelope samples")
        if e.shape != z.shape:
            raise ValueError(f"positions ({z.shape}) and values ({e.shape}) differ in length")
        if not np.all(np.diff(z) > 0):
            raise ValueError("positions must be strictly increasing")
        z.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "positions", z)
        object.__setattr__(self, "values", e)

    @classmethod
    def from_csv(cls, path: str | Path, prefactor: float = 1.0) -> "EnvelopeSamples":
        """Load (z, Re E, Im E) rows; the imaginary column may be omitted."""
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        if data.shape[1] == 2:
            values = data[:, 1].astype(complex)
        elif data.shape[1] == 3:
            values = data[:, 1] + 1j * data[:, 2]
        else:
            raise ValueError(f"envelope CSV must have 2 or 3 columns, found {data.shape[1]}")
        return cls(data[:, 0], values, prefactor=prefactor)


def coupling_from_envelope(env: EnvelopeSamples, q: float) -> complex:
    """Phase-matched coupling amplitude: prefactor * integral of e^{-iqz} E(z) dz.

    Trapezoidal quadrature over the samples; resolves the phase-matching
    lobe structure of the finite interaction length.
    """
    integrand = np.exp(-1j * q * env.positions) * env.values
    return complex(env.prefactor * np.trapezoid(integrand, env.positions))
