"""Time evolution of the joint electron-cavity state and closed-form scattering matrices.

The propagator solves the interaction-picture master equation

    drho/dt = -i [H_nl + i g e^{i delta t} (bdag x a) + h.c., rho] + gamma * D[a] rho

exactly, from two structural facts:

* the cyclic electron shift makes the total excitation (rung plus cavity
  excitation nu, mod D) an exact symmetry.  Sector k holds the states
  |(k - nu(c)) mod D, c>, one per bare cavity basis state c; in these sector
  coordinates bdag x a acts as a alone, so every sector carries the same
  m x m Hamiltonian;
* with V(t) = exp(-i delta nu t) that Hamiltonian becomes the constant
  H' - delta nu, H' = H_nl + i g a - i g* adag, and D[a] is unchanged by V.

Without loss each sector column evolves by one m x m exponential,

    psi_k(T) = exp(-i delta nu T) expm(-i (H' - delta nu) T) psi_k(0).

With loss, a (k, k') block X of the density matrix evolves under
X -> -i (H_eff X - X H_eff^dag), H_eff = H' - delta nu - (i gamma / 2) adag a
(the photon number, not nu), and every photon loss X -> gamma a X adag moves
it to block (k - 1, k' - 1).  That lower-bidiagonal chain is solved with a
Chebyshev series of exp(tG) on a sparse chain generator G (Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967 (1984)), one three-term recurrence of products with G;
chain depth j lands on the sector pair (k - j, k' - j) mod D.  The series runs
on an ellipse around a rectangle that holds the numerical range W(G), and its
degree comes from Crouzeix's bound ||p(G)|| <= (1 + sqrt 2) max over W(G) of
|p| (Crouzeix & Palencia, SIAM J. Matrix Anal. Appl. 38, 649 (2017)).  A sink
entry at the end of the chain measures the population a chain cut short of
the ladder drops, and a chain that drops more than CHAIN_TAIL is grown.

The accuracy gate checks the chain against two exact identities that do not
use it.  Depth 0 receives no jump, so X_0(T) = K X_0 K^dag, K =
exp(-i T H_eff), one m x m exponential.  The depths summed obey the cavity's
own Lindblad equation with the electron traced out; that m^2-sized generator
is one more block of the operator the series applies, so the check costs no
second series.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
from scipy.linalg import expm

from .cavity import CavityModel, blockade_angle, pair_states
from .electron import ELECTRON_LABEL, LadderConfig, build_ladder
from .tensor import HERMITICITY_TOL, DensityMatrix, Operator, StateVector, TensorSpace

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "SystemConfig",
    "IntegratorConfig",
    "EvolveResult",
    "Diagnostics",
    "NumericsError",
    "TraceDriftError",
    "CutoffError",
    "WrapAroundError",
    "ConvergenceError",
    "FeasibilityReport",
    "evolve_lindblad",
    "scattering_linear",
    "scattering_blockade",
    "frame_align",
    "blockade_fidelity",
    "initial_state",
    "check_feasibility",
]


class NumericsError(RuntimeError):
    """Numerical-quality violation in a propagation run."""


class TraceDriftError(NumericsError):
    pass


class CutoffError(NumericsError):
    """Population reached the top of the photon ladder: truncation invalid."""


class WrapAroundError(NumericsError):
    """Population reached the cyclic wrap-around rungs of the electron ladder."""


class ConvergenceError(NumericsError):
    """The final state and an independent computation of it disagree on a
    reported probability beyond the bound."""


@dataclass(frozen=True)
class SystemConfig:
    """Joint system: cavity model, electron ladder, coupling and rates.

    All frequencies are ratios to the cavity frequency (omega = 1, hbar = 1):
    `interaction_time` is omega*T, `delta` is the phase mismatch q0*v - omega,
    `gamma` the photon loss ratio.  `g_q` is the dimensionless coupling (the
    rate in the Hamiltonian is g_q / T).
    """

    model: CavityModel
    ladder: LadderConfig
    g_q: complex
    interaction_time: float
    delta: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.interaction_time <= 0:
            raise ValueError(f"interaction_time must be > 0, got {self.interaction_time}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if abs(self.delta) >= 1.0:
            raise ValueError(f"|delta| must be < 1 (in units of omega), got {self.delta}")

    @property
    def space(self) -> TensorSpace:
        return self.ladder.space.tensor(self.model.space)

    @property
    def coupling_rate(self) -> complex:
        return complex(self.g_q) / self.interaction_time


# step controls of the retired fixed-step integrator, kept at these values only
RETIRED_STEP_KEYS = {"steps": None, "phase_per_step": 0.12, "drive_per_step": 0.04}
POSITIVITY_BOUND = -1e-8  # smallest eigenvalue of the final state accepted
CONVERGENCE_BOUND = 1e-6  # largest difference of a reported probability between the state and its check


@dataclass(frozen=True)
class IntegratorConfig:
    """Numerical-hygiene bounds of the exact propagator.

    `convergence_check` computes the reported probabilities a second,
    independent way and bounds their difference by CONVERGENCE_BOUND: without
    loss the final state again by an eigendecomposition; with loss the level
    and photon populations by the cavity's own Lindblad marginal, and the
    electron populations of chain depth 0 in closed form.
    `steps`, `phase_per_step` and `drive_per_step` sized the time steps of an
    earlier fixed-step integrator; they are accepted at their defaults only.
    """

    steps: int | None = None
    phase_per_step: float = 0.12
    drive_per_step: float = 0.04
    trace_bound: float = 1e-8
    cutoff_bound: float = 1e-6
    wrap_bound: float = 1e-8
    convergence_check: bool = True

    def __post_init__(self):
        for name, default in RETIRED_STEP_KEYS.items():
            if getattr(self, name) != default:
                raise ValueError(
                    f"{name} must stay at its default {default!r}: the propagator is exact and takes no step size"
                )


@dataclass(frozen=True)
class Diagnostics:
    """Numerical record of one propagation.

    `steps` counts the propagator's work: dense matrix exponentials on the
    lossless route (expm, plus the eigendecomposition of the check), and
    generator applications (products of the sparse chain generator with the
    propagated columns) on the loss chain, over every series, a chain grown
    after its first included.  The loss chain's check adds none: its marginal
    rides in the same products, and its depth 0 is one m x m exponential.
    `halving_delta` is the largest difference of a reported probability
    between the final state and its check: expm against eigh without loss;
    with loss the level and photon populations against the marginal's, and
    the electron populations of depth 0 against the closed form's.
    """

    steps: int
    trace_error: float
    min_eigenvalue: float
    cutoff_occupancy: float
    wrap_occupancy: float
    halving_delta: float | None
    electron_populations: np.ndarray
    level_populations: np.ndarray  # polariton-eigenbasis populations
    photon_populations: np.ndarray


@dataclass(frozen=True)
class EvolveResult:
    """Final state of a propagation as excitation-sector blocks.

    `blocks[(k, k')]` is the m x m block <sector k| rho |sector k'> in the plain
    interaction picture, for every pair of sectors the state occupies; sector k
    holds |(k - nu(c)) mod D, c> for each bare cavity basis state c.  `state`
    scatters the blocks into the dense joint-space density matrix on every read,
    and keeps no copy: for JC at n_cut 22 and 65 rungs it takes about 140 MB.
    """

    blocks: dict[tuple[int, int], np.ndarray]
    diagnostics: Diagnostics
    system: SystemConfig
    trace_tol: float
    pure_state: StateVector | None = None

    @property
    def state(self) -> DensityMatrix:
        rho = _scatter(_joint_index(self.system), self.blocks, self.system.space.dim)
        return DensityMatrix(self.system.space, rho, trace_tol=self.trace_tol)


# ---------------------------------------------------------------------------
# sector coordinates


CHAIN_TAIL = 1e-14  # bound on the population lost by cutting the loss chain short


def _joint_index(cfg: SystemConfig) -> np.ndarray:
    """(D, m): the joint-space index of bare cavity state c in sector k, at rung (k - nu(c)) mod D."""
    d, m = cfg.ladder.rungs, cfg.model.dim
    rung = (np.arange(d)[:, None] - cfg.model.excitations[None, :]) % d
    return rung * m + np.arange(m)[None, :]


def _scatter(joint_of: np.ndarray, blocks: dict, dim: int) -> np.ndarray:
    """Dense joint-space matrix holding the sector blocks; zero between unoccupied sectors."""
    rho = np.zeros((dim, dim), dtype=complex)
    for (k, q), x in blocks.items():
        rho[np.ix_(joint_of[k], joint_of[q])] = x
    return rho


class _Sectors:
    """Sector coordinates of the joint space and the constant sector Hamiltonian."""

    def __init__(self, cfg: SystemConfig):
        model = cfg.model
        self.cfg = cfg
        self.d = cfg.ladder.rungs
        self.m = model.dim
        self.joint_of = _joint_index(cfg)
        self.rung_of = self.joint_of // self.m  # (D, m): rung of sector k, state c
        self.n_photon = np.rint(np.real(np.diag(model.a_dag @ model.a))).astype(int)
        self.u = model.basis.u
        nu = model.excitations.astype(float)
        g = cfg.coupling_rate
        # H' - delta nu, Hermitian, and H_eff with loss
        self.h = model.h_nl + 1j * g * model.a - 1j * np.conj(g) * model.a_dag - cfg.delta * np.diag(nu)
        self.h_eff = self.h - 0.5j * cfg.gamma * np.diag(self.n_photon)
        self.phase = np.exp(-1j * cfg.delta * nu * cfg.interaction_time)  # V(T)

    def populations(self, diag: np.ndarray, cav: np.ndarray) -> "_Populations":
        """Reported probabilities from the sector-coordinate populations `diag`
        (D, m) and the electron-traced cavity state `cav`.  V(T) leaves both
        unchanged: it is diagonal, and every eigenlevel has one excitation number."""
        electron = np.bincount(self.rung_of.ravel(), weights=diag.ravel(), minlength=self.d)
        level = np.real(np.sum(self.u.conj() * (cav @ self.u), axis=0))
        photon = np.bincount(self.n_photon, weights=diag.sum(axis=0), minlength=self.cfg.model.n_cut + 1)
        return _Populations(electron, level, photon)


@dataclass(frozen=True)
class _Populations:
    electron: np.ndarray
    level: np.ndarray
    photon: np.ndarray

    def distance(self, other: "_Populations") -> float:
        return max(float(np.max(np.abs(a - b))) for a, b in
                   ((self.electron, other.electron), (self.level, other.level), (self.photon, other.photon)))


# ---------------------------------------------------------------------------
# lossless route: one m x m exponential for every sector column


def _unitary_expm(h: np.ndarray, t: float) -> np.ndarray:
    return expm(-1j * t * h)


def _unitary_eigh(h: np.ndarray, t: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def _pure_populations(sec: _Sectors, psi: np.ndarray) -> _Populations:
    return sec.populations(np.abs(psi) ** 2, psi.T @ psi.conj())


def _evolve_pure(sec: _Sectors, amplitudes: np.ndarray, icfg: IntegratorConfig):
    t = sec.cfg.interaction_time
    psi0 = amplitudes[sec.joint_of]  # row k: sector k
    psi = psi0 @ (sec.phase[:, None] * _unitary_expm(sec.h, t)).T
    pops = _pure_populations(sec, psi)
    work, delta = 1, None
    if icfg.convergence_check:
        check = psi0 @ (sec.phase[:, None] * _unitary_eigh(sec.h, t)).T
        work, delta = 2, pops.distance(_pure_populations(sec, check))
    ks = np.nonzero(np.any(psi0 != 0, axis=1))[0]
    blocks = {(k, q): np.outer(psi[k], psi[q].conj()) for k in ks for q in ks}
    return psi, blocks, pops, work, delta


# ---------------------------------------------------------------------------
# loss chain: sparse generator on (block depth, vec X), Chebyshev series of exp(tG)


def _chain_blocks(sec: _Sectors) -> int:
    """First guess at the loss chain's length; D means the exact cyclic chain.

    One photon held over the window is lost Poisson(gamma T) times; the guess is
    the first depth whose Poisson tail, bounded geometrically, is below
    CHAIN_TAIL.  The chain's sink measures what the guess really drops, and
    _evolve_chain grows a chain that drops more.
    """
    lam = sec.cfg.gamma * sec.cfg.interaction_time
    depth = 0
    while lam > 0 and depth + 1 < sec.d:
        ratio = lam / (depth + 2)
        if ratio < 1:
            next_term = math.exp(-lam + (depth + 1) * math.log(lam) - math.lgamma(depth + 2))
            if next_term / (1.0 - ratio) <= CHAIN_TAIL:
                break
        depth += 1
    return min(depth + 1, sec.d)


def _kron_entries(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of x kron y, x and y m x m, from their nonzero entries:
    the action X -> x X y^T in row-major vec."""
    m = y.shape[0]
    xi, xk = np.nonzero(x)
    yj, yl = np.nonzero(y)
    return (xi[:, None] * m + yj).ravel(), (xk[:, None] * m + yl).ravel(), (x[xi, xk][:, None] * y[yj, yl]).ravel()


def _joined(parts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One (rows, cols, values) of several; entries at one position add up once built."""
    return tuple(np.concatenate(z) for z in zip(*parts))


def _placed(entries: tuple, row_offsets: np.ndarray, col_offsets: np.ndarray) -> tuple:
    """An m^2-sized block's (rows, cols, values) placed once at each pair of offsets."""
    rows, cols, values = entries
    return (rows + row_offsets[:, None]).ravel(), (cols + col_offsets[:, None]).ravel(), np.tile(values, len(row_offsets))


def _chain_generator(sec: _Sectors, blocks: int, marginal: tuple | None = None) -> sp.csr_matrix:
    """Lindblad generator on the chain, row-major vec per block: vec(A X B) = (A x B^T) vec(X).

    Every depth carries X -> -i (H_eff X - X H_eff^dag), and the jump
    X -> gamma a X adag moves depth j to j + 1; on the whole cyclic ladder the
    last depth's jump re-enters the first.  A chain shorter than the ladder
    ends in one more entry, the sink, which gathers gamma tr(a X_last adag) /
    n_cut, the population leaving the last block over n_cut.  That scale keeps
    the sink's Gershgorin disc inside the blocks' own, so it does not widen the
    numerical range the series covers.  `marginal`, the (rows, cols, values) of
    an m^2 x m^2 generator, follows as one more block that no other entry
    couples to.  The matrix is built in one pass.
    """
    # only the loss chain uses scipy.sparse; imported here, it costs lossless and
    # gate runs neither its import time nor its ~4 MB of resident memory
    import scipy.sparse as sp

    model, gamma, m = sec.cfg.model, sec.cfg.gamma, sec.m
    eye = np.eye(m)
    diagonal = _joined([_kron_entries(-1j * sec.h_eff, eye), _kron_entries(eye, 1j * sec.h_eff.conj())])
    jump_rows, jump_cols, jump_values = _kron_entries(model.a, model.a.conj())
    depth = np.arange(blocks) * m * m
    source = depth if blocks == sec.d else depth[:-1]
    parts = [_placed(diagonal, depth, depth),
             _placed((jump_rows, jump_cols, gamma * jump_values), np.roll(depth, -1)[: len(source)], source)]
    size = blocks * m * m
    if blocks < sec.d:
        last = (blocks - 1) * m * m + np.arange(m) * (m + 1)  # the diagonal of the last block
        parts.append((np.full(m, size), last, gamma * sec.n_photon / model.n_cut))
        size += 1
    if marginal is not None:
        parts.append(_placed(marginal, np.array([size]), np.array([size])))
        size += m * m
    rows, cols, values = _joined(parts)
    return sp.csr_matrix((values, (rows, cols)), shape=(size, size))


def _cavity_lindbladian(sec: _Sectors) -> tuple:
    """(rows, cols, values) of the cavity's own Lindblad generator, electron traced
    out, in row-major vec: X -> -i [h, X] + gamma (a X adag - (n X + X n) / 2).

    Loss keeps the electron's state and only moves a block one depth down the
    chain, so the chain's depths summed obey this equation.  It is built from
    h, n and a, not from the chain's blocks, so a fault in the chain's assembly
    shows as a disagreement.
    """
    gamma, a, eye = sec.cfg.gamma, sec.cfg.model.a, np.eye(sec.m)
    half_n = -0.5 * gamma * np.diag(sec.n_photon.astype(float))
    return _joined([_kron_entries(-1j * sec.h, eye), _kron_entries(eye, 1j * sec.h.T), _kron_entries(gamma * a, a.conj()),
                    _kron_entries(half_n, eye), _kron_entries(eye, half_n)])


def _numerical_box(gen: sp.csr_matrix) -> tuple[float, float, float, float]:
    """(re_lo, re_hi, im_lo, im_hi): a rectangle that holds the numerical range of `gen`.

    Re <x, G x> lies in the spectrum of (G + G^H) / 2 and Im <x, G x> in that
    of (G - G^H) / 2i; Gershgorin's discs bound both.
    """
    bounds = []
    for part in ((gen + gen.conj().T) * 0.5, (gen - gen.conj().T) * -0.5j):
        centre = part.diagonal().real
        radius = np.asarray(abs(part).sum(axis=1)).ravel() - np.abs(part.diagonal())
        bounds += [float(np.min(centre - radius)), float(np.max(centre + radius))]
    return tuple(bounds)


CROUZEIX = 1.0 + math.sqrt(2.0)  # ||p(G)|| <= CROUZEIX max |p| over the numerical range of G
SERIES_TAIL = 2.0**-53  # bound on the dropped tail of the series, per unit of the propagated norm
AMPLIFICATION_LIMIT = 1e3  # largest sum |c_k| r^k of one piece: it scales the rounding of the sum
_ELLIPSE_ANGLES = (np.arange(32) + 0.5) * (math.pi / 64)  # semi-axes (alpha / cos, beta / sin)
_MARGINS = np.geomspace(1e-4, 4.0, 400)  # ln(R / r) of the ellipses the coefficient bound is taken on


class _Plan(NamedTuple):
    """A Chebyshev series of exp(t G) on the ellipse c + d E_r, E_r the Bernstein
    ellipse of parameter r around [-1, 1], applied `pieces` times over t / pieces."""

    pieces: int
    op: sp.csr_matrix  # 2 (G - c) / d
    coeffs: np.ndarray  # of exp((t / pieces) (c + d w)) in the Chebyshev polynomials T_k(w)

    @property
    def work(self) -> int:
        return self.pieces * (len(self.coeffs) - 1)


def _chebyshev_plan(gen: sp.csr_matrix, box: tuple, t: float, pieces: int = 1) -> _Plan:
    """The series for exp(t G) with the fewest pieces, from `pieces` up, whose rounding
    amplification is at most AMPLIFICATION_LIMIT.

    Each candidate ellipse c + d E_r holds the box, with d along its longer
    axis.  Its coefficients obey |c_k| <= 2 max |f| over c + d E_R / R^k for
    every R > 1, so with Crouzeix's bound the dropped tail of degree K is at
    most 2 CROUZEIX e^{tau (Re c + X_R)} (r/R)^{K+1} / (1 - r/R), X_R the
    largest Re(d w) on E_R; the degree is the first K at which that falls
    below SERIES_TAIL, minimized over R.  The candidates are tried in order of
    degree, skipping those whose amplification cannot stay within the limit: it
    is at least e^{tau (Re c + A)}, |exp| at the ellipse's rightmost point.
    """
    import scipy.sparse as sp

    x0, x1, y0, y1 = box
    centre = complex(x0 + x1, y0 + y1) / 2
    while True:
        tau = t / pieces
        floor = 1e-3 / tau  # a box of zero width still gets an ellipse with distinct foci
        semi_re = max((x1 - x0) / 2, floor) / np.cos(_ELLIPSE_ANGLES)
        semi_im = max((y1 - y0) / 2, floor) / np.sin(_ELLIPSE_ANGLES)
        focal = np.sqrt(np.abs(semi_re**2 - semi_im**2))
        real_foci = semi_re > semi_im
        with np.errstate(divide="ignore", invalid="ignore"):  # equal semi-axes: no foci, r infinite
            r = (semi_re + semi_im) / focal
            big_r = r[:, None] * np.exp(_MARGINS)[None, :]
            reach = focal[:, None] * np.where(real_foci[:, None], big_r + 1 / big_r, big_r - 1 / big_r) / 2
            log_bound = (math.log(2 * CROUZEIX / SERIES_TAIL) + tau * (centre.real + reach)
                         - np.log1p(-np.exp(-_MARGINS))[None, :])
            degree = np.ceil(np.min(log_bound / _MARGINS[None, :], axis=1)) - 1
        usable = np.isfinite(r) & (tau * (centre.real + semi_re) <= math.log(AMPLIFICATION_LIMIT))
        for j in np.argsort(np.where(usable, degree, np.inf), kind="stable")[: np.count_nonzero(usable)]:
            d = focal[j] if real_foci[j] else 1j * focal[j]
            coeffs = _chebyshev_coefficients(tau * centre, tau * d, r[j], max(1, int(degree[j])))
            if np.sum(np.abs(coeffs) * r[j] ** np.arange(len(coeffs))) <= AMPLIFICATION_LIMIT:
                shifted = gen - centre * sp.identity(gen.shape[0], dtype=complex, format="csr")
                return _Plan(pieces, (shifted * (2 / d)).tocsr(), coeffs)
        pieces += 1


def _chebyshev_coefficients(z0: complex, z1: complex, r: float, degree: int) -> np.ndarray:
    """Chebyshev coefficients c_0..c_degree of exp(z0 + z1 w), each by the better of two FFTs.

    On the Bernstein ellipse E_rho, w = (zeta + 1/zeta) / 2 with zeta = rho e^{2 pi i j / n}
    (rho = 1: the Chebyshev points of [-1, 1]), the FFT of n >= 2 (degree + 1) samples
    returns c_k rho^k / 2, with rounding near 2^-53 times the largest sample.  So the
    rounding in c_k is about max |exp| on E_rho over rho^k: [-1, 1] has the smaller
    samples, E_r damps the rounding of the high coefficients that T_k(W), of norm up to
    CROUZEIX r^k, multiplies back up.
    """
    n = 1 << (2 * degree + 1).bit_length()
    k = np.arange(degree + 1)
    found = []
    for rho in (1.0, r):
        zeta = rho * np.exp(2j * np.pi * np.arange(n) / n)
        samples = np.exp(z0 + z1 * (zeta + 1 / zeta) / 2)
        coeffs = np.fft.fft(samples)[: degree + 1] / n * np.where(k == 0, 1.0, 2.0) / rho**k
        found.append((coeffs, np.max(np.abs(samples)) / rho**k))
    (on_interval, noise_interval), (on_ellipse, noise_ellipse) = found
    return np.where(noise_interval <= noise_ellipse, on_interval, on_ellipse)


def _chebyshev_action(plan: _Plan, cols: np.ndarray) -> np.ndarray:
    """exp(t G) cols: per piece, the three-term recurrence T_{k+1} = 2 W T_k - T_{k-1},
    W = (G - c) / d, summed with the plan's coefficients."""
    op, coeffs = plan.op, plan.coeffs
    for _ in range(plan.pieces):
        prev, cur = cols, 0.5 * (op @ cols)
        out = coeffs[0] * prev + coeffs[1] * cur
        for c in coeffs[2:]:
            prev, cur = cur, op @ cur - prev
            out += c * cur
        cols = out
    return cols


def _seed_blocks(sec: _Sectors, state: DensityMatrix | StateVector) -> tuple[list, np.ndarray]:
    """The (k, k') blocks of the initial state with k <= k' between occupied
    sectors; the blocks below the diagonal are their adjoints.  A sector with
    no population has no coherence with any other in a positive state."""
    if isinstance(state, StateVector):
        psi = state.amplitudes[sec.joint_of]  # row k: sector k
        occupied = np.any(psi != 0, axis=1)

        def block(k, q):
            return np.outer(psi[k], psi[q].conj())
    else:
        rho = state.matrix
        occupied = np.any(np.diag(rho)[sec.joint_of] != 0, axis=1)

        def block(k, q):
            return rho[np.ix_(sec.joint_of[k], sec.joint_of[q])]
    ks = np.nonzero(occupied)[0]
    pairs = [(k, q) for i, k in enumerate(ks) for q in ks[i:]]
    return pairs, np.array([block(k, q) for k, q in pairs])


def _fold(sec: _Sectors, pairs: list, cols: np.ndarray, blocks: int) -> dict:
    """Sector blocks of the final state: depth j of seed (k, k') lands on (k - j, k' - j) mod D."""
    chain = cols.reshape(blocks, sec.m, sec.m, len(pairs))
    out: dict[tuple[int, int], np.ndarray] = {}

    def add(key, x):
        out[key] = out[key] + x if key in out else x

    for i, (k, q) in enumerate(pairs):
        for j in range(blocks):
            x = chain[j, :, :, i]
            key = ((k - j) % sec.d, (q - j) % sec.d)
            if k == q:
                add(key, 0.5 * (x + x.conj().T))
            else:
                add(key, x)
                add(key[::-1], x.conj().T)
    return out


def _block_populations(sec: _Sectors, blocks: dict) -> _Populations:
    diag = np.zeros((sec.d, sec.m))
    cav = np.zeros((sec.m, sec.m), dtype=complex)
    for (k, q), x in blocks.items():
        if k == q:
            diag[k] = np.real(np.diag(x))
            cav += x
    return sec.populations(diag, cav)


def _chain_check(sec: _Sectors, pairs: list, seeds: np.ndarray, end: np.ndarray, pops: _Populations) -> float:
    """Largest difference of a reported probability between the chain and two exact identities that do not use it.

    Depth 0 receives no jump, so X_0(T) = K X_0 K^dag with K = exp(-i T H_eff),
    one m x m exponential; it checks the electron populations the depth-0
    blocks carry.  The depths summed obey the cavity's own Lindblad equation,
    whose solution rides in the series as the block after the chain; it checks
    the level and photon populations.
    """
    m, own = sec.m, [i for i, (k, q) in enumerate(pairs) if k == q]
    rungs = sec.rung_of[[pairs[i][0] for i in own]].ravel()
    k_eff = expm(-1j * sec.cfg.interaction_time * sec.h_eff)
    closed = np.diagonal(k_eff @ seeds[own] @ k_eff.conj().T, axis1=1, axis2=2).real
    chain = np.diagonal(end[: m * m, own].reshape(m, m, -1)).real  # (seed, m), as closed
    cav = end[-m * m :, own].sum(axis=1).reshape(m, m)
    marginal = _Populations(np.bincount(rungs, weights=closed.ravel(), minlength=sec.d),
                            np.real(np.sum(sec.u.conj() * (cav @ sec.u), axis=0)),
                            np.bincount(sec.n_photon, weights=np.diag(cav).real, minlength=sec.cfg.model.n_cut + 1))
    return marginal.distance(_Populations(np.bincount(rungs, weights=chain.ravel(), minlength=sec.d),
                                          pops.level, pops.photon))


def _evolve_chain(sec: _Sectors, state: DensityMatrix | StateVector, icfg: IntegratorConfig):
    t, mm = sec.cfg.interaction_time, sec.m * sec.m
    pairs, seeds = _seed_blocks(sec, state)
    diagonal = [i for i, (k, q) in enumerate(pairs) if k == q]  # their sinks add up to the population lost
    marginal = _cavity_lindbladian(sec) if icfg.convergence_check else None
    blocks, work = _chain_blocks(sec), 0
    while True:  # grow the chain until its sink holds at most CHAIN_TAIL
        gen = _chain_generator(sec, blocks, marginal)
        cols = np.zeros((gen.shape[0], len(pairs)), dtype=complex)
        cols[:mm] = seeds.reshape(len(pairs), -1).T
        if marginal is not None:
            cols[-mm:] = cols[:mm]
        plan = _chebyshev_plan(gen, _numerical_box(gen), t)
        end = _chebyshev_action(plan, cols)
        work += plan.work
        size = blocks * mm  # the sink, if any, follows the blocks
        if blocks == sec.d or sec.cfg.model.n_cut * float(np.sum(end[size, diagonal].real)) <= CHAIN_TAIL:
            break
        blocks = min(2 * blocks, sec.d)
    final = _fold(sec, pairs, end[:size], blocks)
    pops = _block_populations(sec, final)
    delta = _chain_check(sec, pairs, seeds, end, pops) if icfg.convergence_check else None
    out = {key: sec.phase[:, None] * x * sec.phase.conj()[None, :] for key, x in final.items()}  # V(T)
    if all(k == q for k, q in pairs):
        min_eig = float(np.linalg.eigvalsh(np.stack(list(out.values())))[:, 0].min())
    else:
        min_eig = float(np.linalg.eigvalsh(_scatter(sec.joint_of, out, sec.d * sec.m))[0])
    return out, pops, work, delta, min_eig


# ---------------------------------------------------------------------------
# public propagation entry point


def evolve_lindblad(
    state: DensityMatrix | StateVector,
    cfg: SystemConfig,
    icfg: IntegratorConfig = IntegratorConfig(),
) -> EvolveResult:
    """Propagate the joint state over the interaction window [0, T].

    Returns the final state in the plain interaction picture (static nonlinear
    Hamiltonian explicit) in the bare cavity basis, as excitation-sector
    blocks, together with numerical diagnostics computed from them.  A pure
    state without loss takes the lossless route and is also returned as
    `pure_state`; everything else takes the loss chain.  Raises a
    NumericsError subclass when trace drift, ladder-cutoff population,
    wrap-around population, positivity, the hermiticity of the diagonal
    blocks, or the agreement of the final state with its independent check
    violate their bounds.
    """
    if state.space != cfg.space:
        raise ValueError(f"state space {state.space.labels} does not match config {cfg.space.labels}")
    sec = _Sectors(cfg)
    pure_out: StateVector | None = None
    if isinstance(state, StateVector) and cfg.gamma == 0.0:
        psi, blocks, pops, work, delta = _evolve_pure(sec, state.amplitudes, icfg)
        amp = np.empty(sec.d * sec.m, dtype=complex)
        amp[sec.joint_of] = psi
        nrm = float(np.linalg.norm(amp))
        trace_error = abs(nrm**2 - 1.0)
        pure_out = StateVector(cfg.space, amp / nrm)
        min_eig = 0.0
    else:
        blocks, pops, work, delta, min_eig = _evolve_chain(sec, state, icfg)
        trace_error = abs(float(pops.electron.sum()) - 1.0)

    diag = Diagnostics(
        steps=work,
        trace_error=trace_error,
        min_eigenvalue=min_eig,
        cutoff_occupancy=float(pops.photon[-2:].sum()),
        wrap_occupancy=float(pops.electron[cfg.ladder.wrap_rungs()].sum()),
        halving_delta=delta,
        electron_populations=pops.electron,
        level_populations=pops.level,
        photon_populations=pops.photon,
    )
    _enforce_bounds(diag, icfg)
    herm = max(float(np.max(np.abs(x - x.conj().T))) for (k, q), x in blocks.items() if k == q)
    if herm > HERMITICITY_TOL:
        raise NumericsError(f"sector block hermiticity defect {herm:.3e} exceeds {HERMITICITY_TOL}")
    return EvolveResult(blocks=blocks, diagnostics=diag, system=cfg,
                        trace_tol=max(10 * icfg.trace_bound, 1e-7), pure_state=pure_out)


def _enforce_bounds(diag: Diagnostics, icfg: IntegratorConfig):
    if diag.trace_error > icfg.trace_bound:
        raise TraceDriftError(f"trace drift {diag.trace_error:.3e} exceeds bound {icfg.trace_bound:.1e}")
    if diag.cutoff_occupancy > icfg.cutoff_bound:
        raise CutoffError(
            f"top-two photon levels hold {diag.cutoff_occupancy:.3e} > {icfg.cutoff_bound:.1e}; raise n_cut"
        )
    if diag.wrap_occupancy > icfg.wrap_bound:
        raise WrapAroundError(
            f"wrap-around rungs hold {diag.wrap_occupancy:.3e} > {icfg.wrap_bound:.1e}; widen the ladder"
        )
    if diag.min_eigenvalue < POSITIVITY_BOUND:
        raise NumericsError(f"minimum eigenvalue {diag.min_eigenvalue:.3e} below bound {POSITIVITY_BOUND:.1e}")
    if diag.halving_delta is not None and diag.halving_delta > CONVERGENCE_BOUND:
        raise ConvergenceError(
            f"the final state and its independent check differ on a reported probability by "
            f"{diag.halving_delta:.3e} > {CONVERGENCE_BOUND:.1e}"
        )


# ---------------------------------------------------------------------------
# closed-form scattering matrices (labeled joint space)


def scattering_linear(g_q: complex, model: CavityModel, ladder: LadderConfig) -> Operator:
    """Closed-form linear-cavity scattering matrix exp(g_q bdag a - g_q* b adag)."""
    b = build_ladder(ladder).matrix
    gen = g_q * np.kron(b.conj().T, model.a) - np.conj(g_q) * np.kron(b, model.a_dag)
    space = ladder.space.tensor(model.space)
    return Operator(space, expm(gen))


def scattering_blockade(
    omega: complex,
    lower: np.ndarray,
    upper: np.ndarray,
    space: TensorSpace,
) -> Operator:
    """Two-level blockade scattering matrix on (electron ladder x cavity).

    Acts as cos|omega| on the pair subspace, transfers population between the
    pair levels with a one-rung electron shift, and is the identity on every
    other cavity level.  `lower`/`upper` are orthonormal cavity-basis vectors;
    the electron factor must come first in `space`.
    """
    if space.factors[0][0] != ELECTRON_LABEL:
        raise ValueError(f"first factor of the space must be {ELECTRON_LABEL!r}")
    d = space.dims[0]
    m = space.dim // d
    lo = np.asarray(lower, dtype=complex).reshape(-1)
    up = np.asarray(upper, dtype=complex).reshape(-1)
    if lo.shape != (m,) or up.shape != (m,):
        raise ValueError(f"pair vectors must have length {m}")
    for name, vec in (("lower", lo), ("upper", up)):
        if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
            raise ValueError(f"{name} pair state is not normalized")
    if abs(np.vdot(lo, up)) > 1e-10:
        raise ValueError("pair states are not orthogonal")
    stay, rung_down, rung_up = _pair_rotation(omega, lo, up)
    mat = np.zeros((d, m, d, m), dtype=complex)  # (rung out, cavity out, rung in, cavity in)
    s_out, s_cav_out, s_in, s_cav_in = mat.strides

    def blocks(offset: int, count: int) -> np.ndarray:  # m x m blocks down the rung diagonal from byte `offset`
        return np.ndarray((count, m, m), complex, mat, offset, (s_out + s_in, s_cav_out, s_cav_in))

    blocks(0, d)[...] = stay
    # raising the pair takes the electron one rung down, lowering it one rung up (cyclically);
    # `+=` because the two neighbours coincide below three rungs
    blocks(s_in, d - 1)[...] += rung_down
    mat[d - 1, :, 0, :] += rung_down
    blocks(s_out, d - 1)[...] += rung_up
    mat[0, :, d - 1, :] += rung_up
    return Operator(space, mat.reshape(space.dim, space.dim))


def _pair_rotation(omega: complex, lo: np.ndarray, up: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The blockade pass's three m x m blocks: same rung, electron one rung down, one rung up.

    With P the pair projector and R = |upper><lower|, they are
    I + (cos|omega| - 1) P, -i sin|omega| e^{i arg omega} R and
    -i sin|omega| e^{-i arg omega} R^dag; their sum is exp(-i (omega R + omega* R^dag)).
    """
    mag = abs(omega)
    arg = math.atan2(complex(omega).imag, complex(omega).real) if mag > 0 else 0.0
    proj = lo[:, None] * lo.conj() + up[:, None] * up.conj()
    raise_pair = up[:, None] * lo.conj()  # |upper><lower|
    stay = np.eye(lo.size, dtype=complex)
    stay += (math.cos(mag) - 1.0) * proj
    return (stay,
            -1j * math.sin(mag) * (np.exp(1j * arg) * raise_pair),
            -1j * math.sin(mag) * (np.exp(-1j * arg) * raise_pair.conj().T))


def _frame_rotation(model: CavityModel, t: float) -> np.ndarray:
    """exp(+i H_nl t) on the cavity, from the analytic eigenbasis."""
    basis = model.basis
    return (basis.u * np.exp(1j * basis.nonlinear_shifts() * t)) @ basis.u.conj().T


def frame_align(
    state: DensityMatrix | StateVector,
    cfg: SystemConfig,
    time: float | None = None,
):
    """Rotate a joint state by exp(+i H_nl t), aligning the propagation picture
    with the frame in which the closed-form scattering matrices act."""
    t = cfg.interaction_time if time is None else time
    w = _frame_rotation(cfg.model, t)
    d, m, n = cfg.ladder.rungs, cfg.model.dim, cfg.space.dim
    if isinstance(state, StateVector):
        return StateVector(state.space, (state.amplitudes.reshape(d, m) @ w.T).reshape(n))
    # w on the cavity index of every rung: rows first, then columns
    half = np.matmul(w, state.matrix.reshape(d, m, n))
    rotated = (half.reshape(n, d, m) @ w.conj().T).reshape(n, n)
    rotated = 0.5 * (rotated + rotated.conj().T)
    return DensityMatrix(state.space, rotated, trace_tol=state.trace_tol)


def blockade_fidelity(result: EvolveResult, initial: StateVector, lower: str, upper: str) -> float:
    """Fidelity of a propagated pass with the ideal two-level blockade pass.

    Equal to state_fidelity(frame_align(result.state, cfg), t) with the target
    t = scattering_blockade(omega, lower, upper) @ initial, normalized, and
    omega = blockade_angle(lower, upper, g_q).  In sector coordinates both the
    ideal pass and exp(+i H_nl T) act on every sector as one m x m matrix, s
    and w, so F = sum over the sectors k, k' that `initial` occupies of
    (w^dag s psi0_k)^dag X_kk' (w^dag s psi0_k').
    """
    cfg = result.system
    lo, up, _ = pair_states(cfg.model, lower, upper)
    s = sum(_pair_rotation(blockade_angle(cfg.model, lower, upper, cfg.g_q), lo, up))
    w = _frame_rotation(cfg.model, cfg.interaction_time)
    psi0 = initial.amplitudes[_joint_index(cfg)]  # row k: sector k
    target = psi0 @ s.T
    probe = target @ w.conj()  # row k: w^dag s psi0_k
    ks = np.nonzero(np.any(psi0 != 0, axis=1))[0]
    val = sum(np.vdot(probe[k], result.blocks[(k, q)] @ probe[q]) for k in ks for q in ks)
    return float(min(max(val.real / np.sum(np.abs(target) ** 2), 0.0), 1.0))


def initial_state(cfg: SystemConfig, cavity_level: str | None = None) -> StateVector:
    """Product state |center rung> x |cavity level> (ground level by default)."""
    basis = cfg.model.basis
    label = cavity_level if cavity_level is not None else basis.labels[0]
    cav = basis.state(label)
    amp = np.zeros(cfg.space.dim, dtype=complex)
    l0 = cfg.ladder.center
    m = cfg.model.dim
    amp[l0 * m : (l0 + 1) * m] = cav
    return StateVector(cfg.space, amp)


# ---------------------------------------------------------------------------
# feasibility inequalities


@dataclass(frozen=True)
class FeasibilityReport:
    pm_bandwidth: float  # phase-matching bandwidth ratio, 1/(omega T)
    kappa: float
    gamma: float
    energy_spread: float
    margin: float
    loss_ok: bool
    spread_ok: bool
    blockade_ok: bool

    @property
    def passed(self) -> bool:
        return self.loss_ok and self.spread_ok and self.blockade_ok

    def lines(self) -> list[str]:
        def verdict(ok: bool) -> str:
            return "pass" if ok else "FAIL"

        return [
            f"gamma/omega = {self.gamma:.3e} <= pm_bandwidth/margin = {self.pm_bandwidth / self.margin:.3e}: "
            + verdict(self.loss_ok),
            f"dE/E = {self.energy_spread:.3e} <= pm_bandwidth/margin = {self.pm_bandwidth / self.margin:.3e}: "
            + verdict(self.spread_ok),
            f"pm_bandwidth = {self.pm_bandwidth:.3e} <= kappa/margin = {self.kappa / self.margin:.3e}: "
            + verdict(self.blockade_ok),
            f"overall: {verdict(self.passed)}",
        ]


def check_feasibility(
    pm_bandwidth: float,
    kappa: float,
    gamma: float,
    energy_spread: float,
    margin: float = 10.0,
) -> FeasibilityReport:
    """Separation-of-scales inequalities for a clean blockade, with a safety margin."""
    if margin < 1:
        raise ValueError(f"margin must be >= 1, got {margin}")
    return FeasibilityReport(
        pm_bandwidth=pm_bandwidth,
        kappa=kappa,
        gamma=gamma,
        energy_spread=energy_spread,
        margin=margin,
        loss_ok=gamma <= pm_bandwidth / margin,
        spread_ok=energy_spread <= pm_bandwidth / margin,
        blockade_ok=pm_bandwidth <= kappa / margin,
    )
