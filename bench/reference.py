"""Physics references for the benchmark's output checks, built apart from epolsim.

Nothing here imports the package: the cavity matrices, dressed levels, level
frequencies and the blockade target are written out from their definitions,
and lossless dynamics are solved exactly instead of by time stepping.

Exact lossless propagator.  The interaction-picture Hamiltonian is

    H(t) = H_nl + i g e^{i delta t} (bdag x a) - i g* e^{-i delta t} (b x adag),  g = g_q / T,

with b the cyclic rung-lowering operator.  It conserves rung + cavity
excitation, so a state that starts at rung l0 in a cavity level of excitation
nu0 stays in the sector {|l0 + nu0 - nu(c), c>}: one state per cavity basis
state c.  In that sector b and bdag act as the identity on the cavity index,
and with V(t) = exp(-i delta nu t) the Hamiltonian is V H' V^dag with the
constant H' = H_nl + i g a - i g* adag, hence

    psi(T) = exp(-i delta nu T) expm(-i (H' - delta nu) T) psi(0),

one matrix exponential of the cavity dimension (at most 2 (n_cut + 1)).
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm


class Cavity:
    """Kerr mode or resonant Jaynes-Cummings dimer in the bare basis.

    JC ordering is photon-major, |n, s> at index 2 n + s with s = 1 the
    excited emitter.  `levels` maps each eigenlevel label to its bare vector,
    excitation number and frequency (omega = 1).
    """

    def __init__(self, kind: str, kappa: float, n_cut: int):
        n_ph = n_cut + 1
        a_ph = np.diag(np.sqrt(np.arange(1.0, n_ph)), 1).astype(complex)
        self.levels: dict[str, tuple[np.ndarray, int, float]] = {}
        if kind == "kerr":
            n = np.arange(n_ph)
            self.a = a_ph
            self.h_nl = np.diag(kappa * n * (n - 1.0)).astype(complex)
            self.nu = n
            for k in range(n_ph):
                self.levels[str(k)] = (np.eye(n_ph, dtype=complex)[k], k, k + kappa * k * (k - 1.0))
            return
        if kind != "jc":
            raise ValueError(f"unknown cavity kind {kind!r}")
        dim = 2 * n_ph
        lower_emitter = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
        self.a = np.kron(a_ph, np.eye(2))
        sm = np.kron(np.eye(n_ph), lower_emitter)
        self.h_nl = kappa * (sm.conj().T @ self.a + sm @ self.a.conj().T)
        self.nu = (np.arange(n_ph)[:, None] + np.arange(2)[None, :]).reshape(-1)
        eye = np.eye(dim, dtype=complex)
        self.levels["0*"] = (eye[0], 0, 0.0)
        for k in range(1, n_ph):
            for sign, tag in ((1.0, "+"), (-1.0, "-")):
                vec = (eye[2 * k] + sign * eye[2 * k - 1]) / math.sqrt(2.0)
                self.levels[f"{k}{tag}"] = (vec, k, k + sign * math.sqrt(k) * kappa)
        self.levels[f"e{n_cut}"] = (eye[dim - 1], n_ph, float(n_ph))

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def detuning(self, lower: str, upper: str) -> float:
        """Phase mismatch that puts the electron on the lower -> upper transition."""
        return self.levels[upper][2] - self.levels[lower][2] - 1.0


class LosslessPoint:
    """Exact final state of one lossless grid point, in sector coordinates.

    `psi[c]` is the amplitude of |rung l0 + nu0 - nu(c), cavity basis state c>
    at the end of the interaction window.
    """

    def __init__(self, kind: str, kappa: float, n_cut: int, rungs: int, g_q: complex,
                 q0_l: float, lower: str, upper: str, initial: str | None = None):
        self.cav = Cavity(kind, kappa, n_cut)
        self.rungs = rungs
        self.lower, self.upper = lower, upper
        self.initial = lower if initial is None else initial
        if self.cav.dim > rungs:
            raise ValueError("excitation sector wraps onto itself: more cavity states than rungs")
        self.delta = self.cav.detuning(lower, upper)
        self.time = q0_l / (1.0 + self.delta)
        self.g_q = complex(g_q)
        g = self.g_q / self.time
        a = self.cav.a
        nu = self.cav.nu.astype(float)
        h_const = self.cav.h_nl + 1j * g * a - 1j * np.conj(g) * a.conj().T
        psi0, self.nu0, _ = self.cav.levels[self.initial]
        gen = -1j * (h_const - self.delta * np.diag(nu)) * self.time
        self.psi = np.exp(-1j * self.delta * nu * self.time) * (expm(gen) @ psi0)

    def eels(self) -> dict[int, float]:
        """Probability per signed sideband offset l - l0, wrapped onto the cyclic ladder."""
        d = self.rungs
        out: dict[int, float] = {}
        for amp, nu in zip(self.psi, self.cav.nu):
            offset = (int(self.nu0 - nu) + d // 2) % d - d // 2
            out[offset] = out.get(offset, 0.0) + float(abs(amp) ** 2)
        return out

    def level_populations(self) -> dict[str, float]:
        """Population of each cavity eigenlevel.  Every level lies in one
        excitation manifold, which sits at a single rung of the sector, so the
        electron trace leaves |<level|psi>|^2."""
        return {lab: float(abs(np.vdot(vec, self.psi)) ** 2) for lab, (vec, _, _) in self.cav.levels.items()}

    def blockade_fidelity(self) -> float:
        """Overlap with the ideal two-level blockade pass after undoing exp(-i H_nl T).

        The ideal pass maps |l0, lower> to cos|w| |l0, lower> - i sin|w| e^{i arg w}
        |l0 - 1, upper> with w = g_q <upper|adag|lower>; both terms lie in the sector.
        """
        lo = self.cav.levels[self.lower][0]
        up = self.cav.levels[self.upper][0]
        mu = complex(np.vdot(up, self.cav.a.conj().T @ lo))
        w = mu * self.g_q
        target = math.cos(abs(w)) * lo - 1j * math.sin(abs(w)) * np.exp(1j * np.angle(w)) * up
        aligned = expm(1j * self.cav.h_nl * self.time) @ self.psi
        return float(abs(np.vdot(target, aligned)) ** 2)


def poisson(mean: float, n_max: int) -> np.ndarray:
    """Poisson probabilities for 0..n_max (not renormalized)."""
    n = np.arange(n_max + 1)
    if mean == 0:
        return (n == 0).astype(float)
    return np.exp(-mean + n * math.log(mean) - np.array([math.lgamma(k + 1.0) for k in n]))
