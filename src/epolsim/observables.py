"""Spectra, statistics and fidelities of joint states."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .cavity import PolaritonBasis
from .electron import ELECTRON_LABEL
from .tensor import DensityMatrix, StateVector, partial_trace

__all__ = [
    "Distribution",
    "ProbabilityError",
    "eels_spectrum",
    "sideband_distribution",
    "polariton_statistics",
    "state_fidelity",
]

logger = logging.getLogger(__name__)

NEGATIVE_TOL = 1e-12


class ProbabilityError(ValueError):
    """Outcome probabilities that no physical state produces: too negative, or not summing to one."""


@dataclass(frozen=True)
class Distribution:
    """Normalized probability table over labeled outcomes.

    Round-off negatives within -1e-12 are clipped to zero and the table
    renormalized; the clipped magnitude is kept for diagnostics.  Anything
    more negative is a genuine positivity violation and rejected.
    """

    labels: tuple[str, ...]
    probabilities: np.ndarray
    clipped: float = field(default=0.0, repr=False)

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.shape != (len(self.labels),):
            raise ValueError(f"{len(self.labels)} labels but {p.shape} probabilities")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        if p.min() < -NEGATIVE_TOL:
            raise ProbabilityError(f"probability {p.min():.3e} below clip tolerance -{NEGATIVE_TOL}")
        total = p.sum()
        if abs(total - 1.0) > 1e-8:
            raise ProbabilityError(f"probabilities sum to {total!r}, expected 1 within 1e-8")

    @classmethod
    def from_values(cls, labels, values) -> "Distribution":
        """Build from raw values, clipping round-off negatives and renormalizing."""
        p = np.asarray(values, dtype=float)
        if p.min() < -NEGATIVE_TOL:
            raise ProbabilityError(f"probability {p.min():.3e} below clip tolerance -{NEGATIVE_TOL}")
        clipped = float(-p[p < 0].sum()) if (p < 0).any() else 0.0
        if clipped > 0:
            logger.debug("clipped %.3e of round-off negative probability", clipped)
            p = np.clip(p, 0.0, None)
        s = p.sum()
        if s <= 0:
            raise ProbabilityError("probabilities sum to zero")
        return cls(tuple(str(x) for x in labels), p / s, clipped=clipped)

    def probability(self, label: str) -> float:
        try:
            return float(self.probabilities[self.labels.index(str(label))])
        except ValueError:
            raise KeyError(f"unknown label {label!r}") from None


def eels_spectrum(rho: DensityMatrix, center: int = 0) -> Distribution:
    """Electron energy-change spectrum: sideband index relative to `center`.

    Traces out every non-electron factor and reads the diagonal; sidebands are
    reported as signed offsets on the cyclic ladder, ascending.
    """
    reduced = partial_trace(rho, [ELECTRON_LABEL])
    return sideband_distribution(np.real(np.diag(reduced.matrix)), center)


def sideband_distribution(rung_populations: np.ndarray, center: int) -> Distribution:
    """Electron rung populations as a spectrum over signed sideband offsets from
    `center` on the cyclic ladder, ascending."""
    d = len(rung_populations)
    offsets = ((np.arange(d) - center) + d // 2) % d - d // 2
    order = np.argsort(offsets)
    return Distribution.from_values([str(int(offsets[i])) for i in order], rung_populations[order])


def polariton_statistics(rho: DensityMatrix, basis: PolaritonBasis) -> Distribution:
    """Populations of the nonlinear-cavity eigenlevels after tracing out the electron."""
    keep = [lab for lab in rho.space.labels if lab != ELECTRON_LABEL]
    if not keep:
        raise ValueError("state has no cavity factors")
    reduced = partial_trace(rho, keep)
    if reduced.space.dim != basis.dim:
        raise ValueError(f"cavity dimension {reduced.space.dim} does not match basis dimension {basis.dim}")
    rotated = basis.u.conj().T @ reduced.matrix @ basis.u
    return Distribution.from_values(basis.labels, np.real(np.diag(rotated)))


def state_fidelity(rho: DensityMatrix, psi: StateVector) -> float:
    """Overlap <psi| rho |psi> of a mixed state with a pure target."""
    if rho.space != psi.space:
        raise ValueError(f"spaces differ: {rho.space.labels} vs {psi.space.labels}")
    val = complex(np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"fidelity has imaginary part {val.imag:.3e}")
    return float(min(max(val.real, 0.0), 1.0))

