"""Free-electron energy ladder, comb states and kinematics.

The electron is a discrete ladder of energy sidebands spaced by one mode
quantum.  A cyclic (periodic) ladder is used instead of a hard truncation so
that the shift operator is exactly unitary and comb states are exact
eigenvectors; dynamical runs must keep the wrap-around rungs unpopulated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Operator, StateVector, TensorSpace

__all__ = [
    "ELECTRON_REST_KEV",
    "LadderConfig",
    "build_ladder",
    "comb_state",
    "energy_to_velocity",
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

