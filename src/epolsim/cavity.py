"""Nonlinear cavity models: Kerr oscillator and resonant Jaynes-Cummings dimer.

Both models are specified by a single nonlinearity ratio kappa (in units of the
mode frequency, omega = 1) and a photon-number cutoff.  The Kerr cavity keeps
the bare Fock states as eigenstates with frequencies n + n(n-1)*kappa; the JC
cavity hybridizes photon and emitter into dressed doublets at n +/- sqrt(n)*kappa.
Each model is built with this analytic eigenbasis, and the level facts that
follow from it (pair states, detunings, Rabi angles) are read from it here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import TensorSpace

__all__ = [
    "CavityModel",
    "PolaritonBasis",
    "build_kerr",
    "build_jc",
    "polariton_eigenbasis",
    "pair_states",
    "pair_detuning",
    "blockade_angle",
]

KERR = "kerr"
JC = "jc"


def lowering_operator(dim: int) -> np.ndarray:
    """Truncated harmonic-oscillator lowering operator on dim Fock levels."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


@dataclass(frozen=True)
class CavityModel:
    """Cavity factor(s), ladder operators, the nonlinear Hamiltonian and its eigenbasis.

    All operator matrices act on the cavity subspace only (photon, or
    photon x emitter for JC), ordered photon-major.  `basis` is the analytic
    eigenbasis of `h_nl`, built with it; every frequency is in units of the
    mode frequency omega = 1.
    """

    kind: str
    kappa: float
    n_cut: int
    space: TensorSpace
    a: np.ndarray
    h_nl: np.ndarray
    excitations: np.ndarray  # total excitation number per cavity basis state
    basis: PolaritonBasis

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def a_dag(self) -> np.ndarray:
        return self.a.conj().T


def _check_cutoff(n_cut: int):
    if n_cut < 2:
        raise ValueError(f"n_cut must be >= 2, got {n_cut}")


def build_kerr(kappa: float, n_cut: int) -> CavityModel:
    """Kerr cavity: single bosonic mode with H_nl = kappa * adag adag a a.

    The Fock states are its eigenstates, so the basis is the identity.
    """
    _check_cutoff(n_cut)
    kappa = float(kappa)
    dim = n_cut + 1
    n = np.arange(dim, dtype=float)
    shift = kappa * n * (n - 1)
    excitations = np.arange(dim, dtype=int)
    basis = PolaritonBasis(
        u=np.eye(dim, dtype=complex),
        labels=tuple(str(i) for i in range(dim)),
        frequencies=n + shift,
        excitations=excitations,
    )
    return CavityModel(
        kind=KERR,
        kappa=kappa,
        n_cut=int(n_cut),
        space=TensorSpace.single("photon", dim),
        a=lowering_operator(dim),
        h_nl=np.diag(shift).astype(complex),
        excitations=excitations,
        basis=basis,
    )


def build_jc(kappa: float, n_cut: int) -> CavityModel:
    """Resonant Jaynes-Cummings cavity: photon x two-level emitter.

    Basis ordering is photon-major: |n, s> with s = 0 (ground) or 1 (excited).
    H_nl = kappa (sigma+ a + sigma- adag); the emitter sits exactly on the
    cavity resonance, so H_nl is the full interaction-picture Hamiltonian.
    Its eigenbasis: the ground level 0*, then dressed doublets
    |n+>, |n-> = (|g,n> +- |e,n-1>)/sqrt(2) with the sign fixed by a positive
    |g,n> coefficient, then the truncation-edge bare state |e,N> left over by
    the cutoff.
    """
    _check_cutoff(n_cut)
    kappa = float(kappa)
    n_ph = n_cut + 1
    a_ph = lowering_operator(n_ph)
    id_ph = np.eye(n_ph, dtype=complex)
    id_em = np.eye(2, dtype=complex)
    sm = np.array([[0, 1], [0, 0]], dtype=complex)  # |g><e|
    a = np.kron(a_ph, id_em)
    sigma_minus = np.kron(id_ph, sm)
    sigma_plus = sigma_minus.conj().T
    h_nl = kappa * (sigma_plus @ a + sigma_minus @ a.conj().T)
    excitations = (np.arange(n_ph)[:, None] + np.arange(2)[None, :]).reshape(-1)

    u = np.zeros((2 * n_ph, 2 * n_ph), dtype=complex)
    u[0, 0] = 1.0  # |g, 0>
    labels, freqs, excs = ["0*"], [0.0], [0]
    for n in range(1, n_ph):
        for sign, tag in ((+1.0, "+"), (-1.0, "-")):
            col = len(labels)
            u[2 * n, col] = 1.0 / math.sqrt(2.0)  # |g, n>
            u[2 * n - 1, col] = sign / math.sqrt(2.0)  # |e, n-1>
            labels.append(f"{n}{tag}")
            freqs.append(n + sign * math.sqrt(n) * kappa)
            excs.append(n)
    u[2 * n_ph - 1, len(labels)] = 1.0  # truncation edge: |e, N> has no partner above the cutoff
    labels.append(f"e{n_cut}")
    freqs.append(float(n_ph))
    excs.append(n_ph)
    basis = PolaritonBasis(u=u, labels=tuple(labels), frequencies=np.array(freqs, dtype=float),
                           excitations=np.array(excs, dtype=int))
    return CavityModel(
        kind=JC,
        kappa=kappa,
        n_cut=int(n_cut),
        space=TensorSpace((("photon", n_ph), ("emitter", 2))),
        a=a,
        h_nl=h_nl,
        excitations=excitations.astype(int),
        basis=basis,
    )


@dataclass(frozen=True)
class PolaritonBasis:
    """Unitary from the bare cavity basis to the nonlinear eigenbasis.

    Column j of `u` is the j-th eigenstate expressed in the bare basis;
    `labels`, `frequencies` (relative to the ground level, omega = 1 units)
    and `excitations` follow the same column order.
    """

    u: np.ndarray
    labels: tuple[str, ...]
    frequencies: np.ndarray
    excitations: np.ndarray

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown level {label!r}; have {self.labels}") from None

    def state(self, label: str) -> np.ndarray:
        """Bare-basis column vector of the named level."""
        return self.u[:, self.index(label)].copy()

    def nonlinear_shifts(self) -> np.ndarray:
        """Eigenvalues of H_nl per level (frequency minus excitation number)."""
        return self.frequencies - self.excitations


def polariton_eigenbasis(model: CavityModel) -> PolaritonBasis:
    """The analytic eigenbasis of the nonlinear Hamiltonian, `model.basis`."""
    return model.basis


def pair_states(model: CavityModel, lower: str, upper: str) -> tuple[np.ndarray, np.ndarray, float]:
    """Bare-basis vectors of a two-level pair and their raising matrix element.

    Returns (lower_vec, upper_vec, mu) with mu = <upper| adag |lower>; mu is
    real and positive for every on-ladder pair under the sign convention of
    the model's basis, and mu * g_q is the effective Rabi angle of the pair.
    """
    lo = model.basis.state(lower)
    up = model.basis.state(upper)
    mu = complex(np.vdot(up, model.a_dag @ lo))
    if abs(mu.imag) > 1e-12:
        raise ValueError(f"pair ({lower!r}, {upper!r}) has non-real raising element {mu!r}")
    if mu.real <= 1e-12:
        raise ValueError(f"pair ({lower!r}, {upper!r}) is not connected by the photon ladder")
    return lo, up, float(mu.real)


def pair_detuning(model: CavityModel, lower: str, upper: str) -> float:
    """Phase mismatch q0*v - omega that tunes the electron to the pair transition."""
    basis = model.basis
    return float(basis.frequencies[basis.index(upper)] - basis.frequencies[basis.index(lower)] - 1.0)


def blockade_angle(model: CavityModel, lower: str, upper: str, g_q: complex) -> complex:
    """Effective Rabi angle of a pair: g_q times the pair's raising element."""
    _, _, mu = pair_states(model, lower, upper)
    return mu * complex(g_q)

