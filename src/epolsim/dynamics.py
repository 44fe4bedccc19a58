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

The seed lies in one sector k: an electron on one rung with the cavity in
one eigenlevel does, since every JC and Kerr eigenlevel has one excitation
number, and a seed in several sectors is refused.  Without loss its sector
row evolves by one m x m exponential,

    psi_k(T) = exp(-i delta nu T) expm(-i (H' - delta nu) T) psi_k(0).

With loss, the seed's block X = psi_k psi_k^dag evolves under
X -> -i (H_eff X - X H_eff^dag), H_eff = H' - delta nu - (i gamma / 2) adag a
(the photon number, not nu), and every photon loss X -> gamma a X adag moves
it to the diagonal block of sector k - 1.  That lower-bidiagonal chain is
solved with a Chebyshev series of exp(tG) on a sparse chain generator G
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)), one three-term
recurrence of products with G; chain depth j lands on sector k - j mod D, so
the final state has no coherence between sectors.  G maps Hermitian blocks to
Hermitian blocks, so the series runs in real coordinates, Y = Re X + Im X per
block, where G is a real matrix R with W(R) = W(G).  R
repeats two m^2 x m^2 blocks, one per depth and one jump below it, so its
sparse arrays are tiled from them; the Gershgorin rectangle that holds W(R) is
a closed form of the m x m matrices h, n and a.  The series runs on an ellipse
around that rectangle, and its degree comes from Crouzeix's bound
||p(R)|| <= (1 + sqrt 2) max over W(R) of |p| (Crouzeix & Palencia, SIAM J.
Matrix Anal. Appl. 38, 649 (2017)).  Its last two terms are an a-posteriori
bound on the tail it drops.  A sink entry at the end of the chain measures the
population a chain cut short of the ladder drops, and a chain that drops more
than CHAIN_TAIL is grown.

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
from functools import partial
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from .cavity import CavityModel, blockade_angle, pair_states
from .electron import ELECTRON_LABEL, LadderConfig
from .tensor import HERMITICITY_TOL, DensityMatrix, Operator, StateVector, TensorSpace

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
    "SeriesTailError",
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


class SeriesTailError(NumericsError):
    """The last terms of the loss chain's Chebyshev series exceed the bound on its dropped tail."""


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


# integrator keys kept at these values only: the step controls of a retired fixed-step
# integrator, and the switch that could turn the accuracy gate off
RETIRED_KEYS = {"steps": None, "phase_per_step": 0.12, "drive_per_step": 0.04, "convergence_check": True}
POSITIVITY_BOUND = -1e-8  # smallest eigenvalue of the final state accepted
CONVERGENCE_BOUND = 1e-6  # largest difference of a reported probability between the state and its check


@dataclass(frozen=True)
class IntegratorConfig:
    """Numerical-hygiene bounds of the exact propagator.

    Every propagation also runs the accuracy gate: it computes the reported
    probabilities a second, independent way and bounds their difference by
    CONVERGENCE_BOUND.  Without loss it computes the final state again by an
    eigendecomposition; with loss the level and photon populations by the
    cavity's own Lindblad marginal, and the electron populations of chain
    depth 0 in closed form.
    The RETIRED_KEYS are accepted at their defaults only: `steps`,
    `phase_per_step` and `drive_per_step` sized the time steps of an earlier
    fixed-step integrator, and `convergence_check` could turn the gate off.
    """

    steps: int | None = None
    phase_per_step: float = 0.12
    drive_per_step: float = 0.04
    trace_bound: float = 1e-8
    cutoff_bound: float = 1e-6
    wrap_bound: float = 1e-8
    convergence_check: bool = True

    def __post_init__(self):
        for name, default in RETIRED_KEYS.items():
            if getattr(self, name) != default:
                raise ValueError(f"{name} is retired and must stay at {default!r}: the propagator is exact, "
                                 f"takes no steps, and always runs its accuracy gate")


@dataclass(frozen=True)
class Diagnostics:
    """Numerical record of one propagation.

    `steps` counts the propagator's work: dense matrix exponentials on the
    lossless route (expm, plus the eigendecomposition of the check), and
    generator applications (products of the sparse chain generator with the
    propagated columns) on the loss chain, over every series, a chain grown
    after its first included.  The loss chain's check adds none: its marginal
    rides in the same products, and its depth 0 is one m x m exponential.
    `halving_delta` is the accuracy gate's reading, the largest difference of
    a reported probability between the final state and its check: expm
    against eigh without loss; with loss the level and photon populations
    against the marginal's, and the electron populations of depth 0 against
    the closed form's.
    `series_tail` is the larger of the last two terms |a_k| ||u_k|| of the
    loss chain's series per unit of the propagated norm, a bound on the tail it
    drops; None without loss.
    """

    steps: int
    trace_error: float
    min_eigenvalue: float
    cutoff_occupancy: float
    wrap_occupancy: float
    halving_delta: float
    series_tail: float | None
    electron_populations: np.ndarray
    level_populations: np.ndarray  # polariton-eigenbasis populations
    photon_populations: np.ndarray


@dataclass(frozen=True)
class EvolveResult:
    """Final state of a propagation as excitation-sector blocks.

    `blocks[(k, k)]` is the m x m block <sector k| rho |sector k> in the plain
    interaction picture, for every sector the state occupies: the seed's, and
    with loss those below it that photon loss reaches; sector k holds
    |(k - nu(c)) mod D, c> for each bare cavity basis state c.  The state has
    no coherence between sectors, so these blocks are all of it.  `state`
    places the blocks in the dense joint-space density matrix on every read,
    and keeps no copy: for JC at n_cut 22 and 65 rungs it takes about 140 MB.
    `pure_state` is the final state vector when gamma = 0, and None otherwise.
    """

    blocks: dict[tuple[int, int], np.ndarray]
    diagnostics: Diagnostics
    system: SystemConfig
    trace_tol: float
    pure_state: StateVector | None = None

    @property
    def state(self) -> DensityMatrix:
        joint_of = _joint_index(self.system.model, self.system.ladder.rungs)
        rho = np.zeros((self.system.space.dim,) * 2, dtype=complex)
        for (k, q), x in self.blocks.items():
            rho[np.ix_(joint_of[k], joint_of[q])] = x
        return DensityMatrix(self.system.space, rho, trace_tol=self.trace_tol)


# ---------------------------------------------------------------------------
# sector coordinates


CHAIN_TAIL = 1e-14  # bound on the population lost by cutting the loss chain short


def _joint_index(model: CavityModel, d: int) -> np.ndarray:
    """(D, m): the joint-space index of bare cavity state c in sector k, at rung (k - nu(c)) mod D."""
    rung = (np.arange(d)[:, None] - model.excitations[None, :]) % d
    return rung * model.dim + np.arange(model.dim)[None, :]


def _seed_sector(state: StateVector, joint_of: np.ndarray) -> tuple[int, np.ndarray]:
    """(k, psi_k): the one excitation sector a seed occupies, and its amplitudes there.

    Raises ValueError naming the sectors when the seed occupies more than one.
    """
    rows = state.amplitudes[joint_of]  # row k: sector k
    ks = np.flatnonzero(np.any(rows != 0, axis=1))
    if len(ks) != 1:
        raise ValueError(f"the seed must lie in one excitation sector (rung + nu mod {len(rows)}), "
                         f"it occupies sectors {ks.tolist()}")
    return int(ks[0]), rows[ks[0]]


class _Sectors:
    """Sector coordinates of the joint space and the constant sector Hamiltonian."""

    def __init__(self, cfg: SystemConfig):
        model = cfg.model
        self.cfg = cfg
        self.d = cfg.ladder.rungs
        self.m = model.dim
        self.joint_of = _joint_index(model, self.d)
        self.rung_of = self.joint_of // self.m  # (D, m): rung of sector k, state c
        self.n_photon = np.rint(np.real(np.diag(model.a_dag @ model.a))).astype(int)
        self.u = model.basis.u
        nu = model.excitations.astype(float)
        g = cfg.coupling_rate
        # row i of h holds up to |g| (r_i + c_i) from the coupling, r and c the row and column sums
        # of |a|, and the numerical-range box adds two such rows: a coupling at which four times
        # the largest overflows fails here, before h holds an inf or a nan
        a = np.abs(model.a)
        if not math.isfinite(4.0 * abs(g) * float(np.max(a.sum(axis=1) + a.sum(axis=0)))):
            raise NumericsError(f"the coupling rate |g_q| / T = {abs(g):.3g} puts entries beyond the floats "
                                f"into h; lower g_q or raise q0_l")
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


def _pure_populations(sec: _Sectors, k: int, psi: np.ndarray) -> _Populations:
    diag = np.zeros((sec.d, sec.m))
    diag[k] = np.abs(psi) ** 2
    return sec.populations(diag, np.outer(psi, psi.conj()))


def _evolve_pure(sec: _Sectors, k: int, psi0: np.ndarray):
    t = sec.cfg.interaction_time
    # the phases of exp(-i T h) spread over at most T times the numerical range's half-height: a
    # point whose series the loss chain would refuse is refused here too, before expm can overflow
    spread = t * _numerical_box(sec, False)[3]
    if not spread <= SERIES_WORK_LIMIT:
        raise NumericsError(f"the lossless route's phases spread over up to {spread:.3g} rad > "
                            f"{SERIES_WORK_LIMIT}; lower g_q or the window")
    psi = (sec.phase[:, None] * _unitary_expm(sec.h, t)) @ psi0
    pops = _pure_populations(sec, k, psi)
    check = (sec.phase[:, None] * _unitary_eigh(sec.h, t)) @ psi0
    return psi, pops, 2, pops.distance(_pure_populations(sec, k, check))


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
    while lam > 0 and depth + 1 < sec.d:  # gamma T can round to 0.0 with gamma > 0
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


def _depth_blocks(sec: _Sectors) -> tuple[tuple, tuple]:
    """(rows, cols, values) of the chain generator's two m^2 x m^2 blocks, row-major vec per
    block: vec(A X B) = (A x B^T) vec(X).  The depth block L_0, X -> -i (H_eff X - X H_eff^dag),
    sits on every depth; the jump J, X -> gamma a X adag, moves depth j to j + 1."""
    model, eye = sec.cfg.model, np.eye(sec.m)
    depth = _joined([_kron_entries(-1j * sec.h_eff, eye), _kron_entries(eye, 1j * sec.h_eff.conj())])
    rows, cols, values = _kron_entries(model.a, model.a.conj())
    return depth, (rows, cols, sec.cfg.gamma * values)


def _summed(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, n: int) -> tuple:
    """(rows, cols, values) of an n x n block sorted by row, then column, the values at one
    position summed and zeros dropped."""
    keys = rows * n + cols
    order = np.argsort(keys)
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    keys, values = keys[first], np.add.reduceat(values[order], first) if len(first) else values
    keep = values != 0
    return keys[keep] // n, keys[keep] % n, values[keep]


def _hermitian_coordinates(entries: tuple, m: int) -> tuple:
    """An m^2 x m^2 block, given as complex (rows, cols, values), as the real block acting on
    the Hermitian coordinates Y = Re X + Im X of its m x m argument.

    For Hermitian X, Re X is symmetric and Im X antisymmetric, so X -> Y is an
    isometry from the Hermitian matrices onto the reals, with inverse
    X = ((1 + i) Y + (1 - i) Y^T) / 2.  The chain's blocks map Hermitian X to
    Hermitian X, and Re + Im of v X_c is Re v Y_c + Im v Y_{c^T}: an entry v at
    (r, c) gives Re v at (r, c) and Im v at (r, c^T), c^T the transposed position.
    """
    rows, cols, values = entries
    flip = np.arange(m * m).reshape(m, m).T.ravel()
    re, im = values.real != 0, values.imag != 0
    return _summed(np.concatenate([rows[re], rows[im]]), np.concatenate([cols[re], flip[cols[im]]]),
                   np.concatenate([values.real[re], values.imag[im]]), m * m)


class _Chain(NamedTuple):
    """The loss chain's generator R in Hermitian coordinates, as the blocks it repeats.

    Every depth carries the depth block L_0, and every depth but the first the
    jump J from the one before; on the whole cyclic ladder the last depth's
    jump re-enters the first.  A chain shorter than the ladder ends in one more
    entry, the sink, which gathers gamma tr(a X_last adag) / n_cut, the
    population leaving the last depth over n_cut: `sink` holds those weights on
    the last depth's diagonal, and n_cut times the sink's reading is the
    population the chain drops.  `marginal`, an m^2 x m^2 block, follows as one
    more block that no other entry couples to.  Each block is a sorted real
    (rows, cols, values).
    So a state holds the depths' m x m blocks, then the sink, then the marginal's.
    The complexification of R is unitarily similar to the complex generator, so
    the two share their numerical range.
    """

    m: int
    blocks: int
    depth: tuple  # L_0
    jump: tuple  # J
    sink: np.ndarray | None  # (m,) weights on the last depth's diagonal; None on the whole cyclic ladder
    marginal: tuple

    @property
    def start(self) -> int:
        """Where the marginal starts, after the depths and the sink."""
        return self.blocks * self.m**2 + (self.sink is not None)

    @property
    def size(self) -> int:
        return self.start + self.m**2


def _numerical_box(sec: _Sectors, sink_ended: bool) -> tuple[float, float, float, float]:
    """(re_lo, re_hi, im_lo, im_hi): a rectangle that holds the numerical range of the loss
    chain's generator, in closed form from h, n and a; W(R) = W(G), so it holds R's too.

    Re <x, G x> lies in the spectrum of (G + G^H) / 2 and Im <x, G x> in that of
    (G - G^H) / 2i; Gershgorin's discs bound both.  Row (i, j) of a depth that a
    jump enters and leaves has the diagonal -(gamma / 2)(n_i + n_j) - i (d_i - d_j),
    d the diagonal of h; off it, L_0 holds h's other entries, o_i + o_j in all, in
    the anti-Hermitian part, and each part holds half the |J| row sum of the jump in,
    gamma r_i r_j, and half the |J| column sum of the jump out, gamma c_i c_j, r and c
    the row and column sums of |a|.  Every other row's discs lie inside those: the
    first depth has no jump in, and the marginal block L_0 + J moves J's diagonal
    onto the disc's centre.  The sink row holds the weights gamma n_i / n_cut on the
    last depth's diagonal; the box scales the sink coordinate of each part by
    1 / n_cut, a diagonal similarity that keeps its eigenvalues.  The sink row then
    has centre 0, and radius and height gamma sum(n) / (2 n_cut^2), and the last
    depth of a sink-ended chain, which has no jump out, holds gamma n_i / 2 <=
    gamma c_i^2 / 2 in its place on its diagonal rows (n_i = sum_k |a_ki|^2 <= c_i^2).
    """
    gamma, a, h = sec.cfg.gamma, np.abs(sec.cfg.model.a), sec.h
    n, d = sec.n_photon, h.diagonal().real
    off = np.abs(h).sum(axis=1) - np.abs(d)
    r, c = a.sum(axis=1), a.sum(axis=0)
    centre = -0.5 * gamma * (n[:, None] + n[None, :])
    jumps = 0.5 * gamma * (np.outer(r, r) + np.outer(c, c))
    height = np.abs(d[:, None] - d[None, :]) + off[:, None] + off[None, :] + jumps
    sink = 0.5 * gamma * n.sum() / sec.cfg.model.n_cut**2 if sink_ended else 0.0
    top = max(float(np.max(height)), sink)
    return min(float(np.min(centre - jumps)), -sink), max(float(np.max(centre + jumps)), sink), -top, top


class _Csr(NamedTuple):
    """A square matrix as CSR arrays: row i holds data[indptr[i]:indptr[i + 1]] at those indices."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def _series_operator(chain: _Chain, centre: float, scale: float) -> _Csr:
    """B = scale (R - centre) as CSR arrays, written block by block.

    A depth's row band [J | L_0 - centre], J in the columns of the depth before,
    is built once and tiled over the depths at column offsets; a sink-ended
    chain's first depth takes L_0 - centre alone.  The sink row and the marginal
    block follow.
    """
    m, mm, blocks = chain.m, chain.m**2, chain.blocks

    def shifted(block):  # scale (block - centre)
        diag = np.arange(mm)
        rows, cols, values = _summed(np.concatenate([block[0], diag]), np.concatenate([block[1], diag]),
                                     np.concatenate([block[2], np.full(mm, -centre)]), mm)
        return rows, cols, values * scale

    own = shifted(chain.depth)
    band_rows, band_cols = np.concatenate([chain.jump[0], own[0]]), np.concatenate([chain.jump[1] - mm, own[1]])
    order = np.argsort(band_rows * 2 * mm + band_cols)  # by row, then column: the jump's columns come first
    band_cols = band_cols[order].astype(np.int32)  # tiled in the index type the kernel takes
    band_values = np.concatenate([chain.jump[2] * scale, own[2]])[order]
    band_counts = np.bincount(band_rows, minlength=mm)
    offsets = np.arange(blocks, dtype=np.int32) * mm
    if chain.sink is None:  # the first depth's jump comes from the last
        indices = [((band_cols[None, :] + offsets[:, None]) % (blocks * mm)).ravel()]
        data, counts = [np.tile(band_values, blocks)], [np.tile(band_counts, blocks)]
    else:
        indices = [own[1], (band_cols[None, :] + offsets[1:, None]).ravel()]
        data = [own[2], np.tile(band_values, blocks - 1)]
        counts = [np.bincount(own[0], minlength=mm), np.tile(band_counts, blocks - 1)]
        weighted = np.nonzero(chain.sink)[0]
        indices.append(np.append((blocks - 1) * mm + weighted * (m + 1), blocks * mm))
        data.append(np.append(chain.sink[weighted] * scale, -centre * scale))
        counts.append([len(weighted) + 1])
    rows, cols, values = shifted(chain.marginal)
    indices.append(cols + chain.start)
    data.append(values)
    counts.append(np.bincount(rows, minlength=mm))
    indptr = np.zeros(chain.size + 1, dtype=np.int32)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    return _Csr(indptr, np.concatenate(indices, dtype=np.int32), np.concatenate(data))


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


def _real_blocks(x: np.ndarray) -> np.ndarray:
    """Hermitian (..., m, m) blocks `x` in Hermitian coordinates Y = Re X + Im X."""
    return x.real + x.imag


def _complex_blocks(real: np.ndarray) -> np.ndarray:
    """The inverse of _real_blocks: X = ((1 + i) Y + (1 - i) Y^T) / 2 per m x m block."""
    return ((1 + 1j) * real + (1 - 1j) * real.swapaxes(-1, -2)) / 2


CROUZEIX = 1.0 + math.sqrt(2.0)  # ||p(G)|| <= CROUZEIX max |p| over the numerical range of G
SERIES_TAIL = 2.0**-53  # bound on the dropped tail of the series, per unit of the propagated norm
AMPLIFICATION_LIMIT = 1e3  # largest sum |c_k| r^k of one piece: it scales the rounding of the sum
# largest |a_k| ||u_k|| per unit of the propagated norm accepted in the series' last two terms: what a
# term reads when its coefficient is at the rounding floor of the FFT (notes/decisions.md)
SERIES_MONITOR_BOUND = CROUZEIX * AMPLIFICATION_LIMIT * SERIES_TAIL
# most generator products a chain's series may take, pieces times degree (notes/decisions.md)
SERIES_WORK_LIMIT = 100_000
_ELLIPSE_ANGLES = (np.arange(32) + 0.5) * (math.pi / 64)  # semi-axes (alpha / cos, beta / sin)
_MARGINS = np.geomspace(1e-4, 4.0, 400)  # ln(R / r) of the ellipses the coefficient bound is taken on


class _Plan(NamedTuple):
    """A Chebyshev series of exp(t R) on the ellipse c + d E_r, E_r the Bernstein
    ellipse of parameter r around [-1, 1], applied `pieces` times over t / pieces.

    c is real and d real or imaginary.  With e = d / |d| and s = e^2 = +-1, the
    terms u_k = e^k T_k((R - c) / d) v are real and obey u_{k+1} = B u_k - s u_{k-1}.
    """

    pieces: int
    op: _Csr  # B = 2 (R - c) / |d|, real
    coeffs: np.ndarray  # a_k = Re(c_k / e^k), c_k those of exp((t / pieces)(c + d w)) in T_k(w)
    sign: int  # s

    @property
    def work(self) -> int:
        return self.pieces * (len(self.coeffs) - 1)


def _chebyshev_plan(operator, box: tuple, t: float, pieces: int = 1) -> _Plan:
    """The series for exp(t R), R real with its numerical range in `box`, with the fewest
    pieces, from `pieces` up, whose rounding amplification is at most AMPLIFICATION_LIMIT;
    operator(c, s) returns s (R - c) as CSR arrays.  Raises NumericsError before any
    coefficient is computed when no candidate takes at most SERIES_WORK_LIMIT products.

    The box of a real matrix is symmetric about the real axis, so its centre c
    is real.  Each candidate ellipse c + d E_r holds the box, with d along its
    longer axis.  Its coefficients obey |c_k| <= 2 max |f| over c + d E_R / R^k
    for every R > 1, so with Crouzeix's bound the dropped tail of degree K is at
    most 2 CROUZEIX e^{tau (c + X_R)} (r/R)^{K+1} / (1 - r/R), X_R the largest
    Re(d w) on E_R; the degree is the first K at which that falls below
    SERIES_TAIL, minimized over R.  The candidates are tried in order of degree,
    skipping those whose amplification cannot stay within the limit: it is at
    least e^{tau (c + A)}, |exp| at the ellipse's rightmost point, and those whose
    pieces times degree exceeds SERIES_WORK_LIMIT.  Every semi-axis A exceeds the
    box's half-width, so c + A exceeds its right edge x1, and the search starts at
    t x1 / ln AMPLIFICATION_LIMIT pieces, below which no candidate qualifies.
    """
    x0, x1, y0, y1 = box
    centre = (x0 + x1) / 2
    # a series over a box of half-length rho takes about rho t products at least: a box too wide
    # for the limit fails here, before the ellipses' arithmetic can overflow
    _within_work_limit(t * max(x1 - x0, y1 - y0) / 2, "at least ")
    pieces = max(pieces, math.ceil(t * x1 / math.log(AMPLIFICATION_LIMIT)))
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
            log_bound = (math.log(2 * CROUZEIX / SERIES_TAIL) + tau * (centre + reach)
                         - np.log1p(-np.exp(-_MARGINS))[None, :])
            degree = np.ceil(np.min(log_bound / _MARGINS[None, :], axis=1)) - 1
            usable = (np.isfinite(r) & (tau * (centre + semi_re) <= math.log(AMPLIFICATION_LIMIT))
                      & (pieces * degree <= SERIES_WORK_LIMIT))
        _within_work_limit(pieces * np.min(np.where(np.isfinite(r), degree, np.inf)))
        for j in np.argsort(np.where(usable, degree, np.inf), kind="stable")[: np.count_nonzero(usable)]:
            e = 1.0 if real_foci[j] else 1j
            coeffs = _chebyshev_coefficients(tau * centre, tau * focal[j] * e, r[j], max(1, int(degree[j])))
            if np.sum(np.abs(coeffs) * r[j] ** np.arange(len(coeffs))) <= AMPLIFICATION_LIMIT:
                return _Plan(pieces, operator(centre, 2 / focal[j]),
                             (coeffs / e ** np.arange(len(coeffs))).real, 1 if real_foci[j] else -1)
        pieces += 1


def _within_work_limit(products: float, qualifier: str = "") -> None:
    if not products <= SERIES_WORK_LIMIT:
        raise NumericsError(f"the loss chain's series needs {qualifier}{products:.3g} generator products (pieces "
                            f"times degree) > {SERIES_WORK_LIMIT}; lower g_q, the loss or the window")


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


def _checked_order(op: _Csr) -> int:
    """The order n of a square CSR operator, once its arrays hold what the compiled kernel
    reads without checking: int32 indices, indptr rising from 0 to the number of entries,
    and every column index below n."""
    indptr, indices = op.indptr, op.indices
    if indptr.dtype != np.int32 or indices.dtype != np.int32:
        raise ValueError(f"the kernel takes int32 indices, got {indptr.dtype} and {indices.dtype}")
    n = len(indptr) - 1
    if n < 0 or indptr[0] != 0 or np.any(np.diff(indptr) < 0) or not indptr[-1] == len(indices) == len(op.data):
        raise ValueError("the operator's indptr must rise from 0 to its number of entries")
    if len(indices) and not 0 <= indices.min() <= indices.max() < n:
        raise ValueError(f"the operator's column indices must lie in [0, {n})")
    return n


def _chebyshev_action(plan: _Plan, rows: np.ndarray) -> tuple[np.ndarray, float]:
    """exp(t R) applied to each row of `rows`, and the largest |a_k| ||u_k|| per unit
    of the propagated norm over the last two terms of a piece: past the coefficients'
    turning point the terms fall monotonically, so it bounds the tail the series drops.

    Per piece u_0 = v, u_1 = B v / 2 and u_{k+1} = B u_k - s u_{k-1}, summed with
    the plan's a_k.  A term is one compiled CSR product per row, y += B x into
    the buffer that holds u_{k-1} (negated first when s = +1), and one axpy
    into the sum, all on preallocated arrays.
    """
    # csr_matvec is the kernel behind scipy's sparse product, without its dispatch
    # and allocations; it is private scipy API, held to y += B x by a tier-1 test
    from scipy.linalg.blas import daxpy
    from scipy.sparse._sparsetools import csr_matvec

    op, coeffs = plan.op, plan.coeffs
    n, last = _checked_order(op), len(coeffs) - 1
    if op.data.dtype != np.float64 or rows.dtype != np.float64 or rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"the kernel takes a float64 operator and (columns, {n}) float64 rows, "
                         f"got {op.data.dtype} and {rows.shape} {rows.dtype}")
    product = partial(csr_matvec, n, n, op.indptr, op.indices, op.data)
    tail = 0.0
    for _ in range(plan.pieces):
        scale = float(np.linalg.norm(rows))
        prev, cur = rows.copy(), np.zeros_like(rows)
        for x, y in zip(prev, cur):
            product(x, y)
        cur *= 0.5
        out = coeffs[0] * prev + coeffs[1] * cur
        prev_rows, cur_rows, out_rows = list(prev), list(cur), list(out)  # views, made once per piece
        for k in range(2, last + 1):
            if plan.sign > 0:
                np.negative(prev, out=prev)
            for x, y, total in zip(cur_rows, prev_rows, out_rows):
                product(x, y)
                daxpy(y, total, a=coeffs[k])
            prev, cur, prev_rows, cur_rows = cur, prev, cur_rows, prev_rows
            if k >= last - 1:
                tail = max(tail, abs(coeffs[k]) * float(np.linalg.norm(cur)) / scale)
        rows = out
    return rows, tail


def _fold(sec: _Sectors, k: int, depths: np.ndarray) -> dict:
    """Sector blocks of the final state from the (depths, m, m) chain blocks of a seed in
    sector k: depth j lands on sector k - j mod D, and the chain, at most D deep, puts one
    depth on each."""
    return {((k - j) % sec.d,) * 2: x for j, x in enumerate(depths)}


def _block_populations(sec: _Sectors, blocks: dict) -> _Populations:
    diag = np.zeros((sec.d, sec.m))
    cav = np.zeros((sec.m, sec.m), dtype=complex)
    for (k, _), x in blocks.items():
        diag[k] = np.real(np.diag(x))
        cav += x
    return sec.populations(diag, cav)


def _chain_check(sec: _Sectors, k: int, seed: np.ndarray, first: np.ndarray, marginal: np.ndarray,
                 pops: _Populations) -> float:
    """Largest difference of a reported probability between the chain and two exact identities that do not use it.

    Depth 0 receives no jump, so X_0(T) = K X_0 K^dag with K = exp(-i T H_eff),
    one m x m exponential; it checks the electron populations the depth-0
    block `first` carries.  The depths summed obey the cavity's own Lindblad
    equation, whose solution rides in the series as the block after the chain,
    `marginal`; it checks the level and photon populations.
    """
    k_eff = expm(-1j * sec.cfg.interaction_time * sec.h_eff)
    closed = np.diagonal(k_eff @ seed @ k_eff.conj().T).real
    exact = _Populations(np.bincount(sec.rung_of[k], weights=closed, minlength=sec.d),
                         np.real(np.sum(sec.u.conj() * (marginal @ sec.u), axis=0)),
                         np.bincount(sec.n_photon, weights=np.diag(marginal).real, minlength=sec.cfg.model.n_cut + 1))
    return exact.distance(_Populations(np.bincount(sec.rung_of[k], weights=np.diagonal(first).real, minlength=sec.d),
                                       pops.level, pops.photon))


def _evolve_chain(sec: _Sectors, k: int, psi0: np.ndarray):
    t, m, mm = sec.cfg.interaction_time, sec.m, sec.m * sec.m
    seed = np.outer(psi0, psi0.conj())
    depth, jump = (_hermitian_coordinates(x, m) for x in _depth_blocks(sec))
    marginal = _hermitian_coordinates(_cavity_lindbladian(sec), m)
    sink = sec.cfg.gamma * sec.n_photon / sec.cfg.model.n_cut
    blocks, work = _chain_blocks(sec), 0
    while True:  # grow the chain until its sink holds at most CHAIN_TAIL
        chain = _Chain(m, blocks, depth, jump, sink if blocks < sec.d else None, marginal)
        rows = np.zeros((1, chain.size))
        rows[0, :mm] = rows[0, chain.start :] = _real_blocks(seed).ravel()  # depth 0 and the marginal
        plan = _chebyshev_plan(partial(_series_operator, chain), _numerical_box(sec, blocks < sec.d), t)
        (end,), tail = _chebyshev_action(plan, rows)
        work += plan.work
        size = blocks * mm  # the sink, if any, follows the blocks
        if blocks == sec.d or sec.cfg.model.n_cut * float(end[size]) <= CHAIN_TAIL:
            break
        blocks = min(2 * blocks, sec.d)
    depths = _complex_blocks(end[:size].reshape(blocks, m, m))
    final = _fold(sec, k, depths)
    pops = _block_populations(sec, final)
    delta = _chain_check(sec, k, seed, depths[0], _complex_blocks(end[-mm:].reshape(m, m)), pops)
    out = {key: sec.phase[:, None] * x * sec.phase.conj()[None, :] for key, x in final.items()}  # V(T)
    min_eig = float(np.linalg.eigvalsh(np.stack(list(out.values())))[:, 0].min())
    return out, pops, work, delta, min_eig, tail


# ---------------------------------------------------------------------------
# public propagation entry point


def evolve_lindblad(
    state: StateVector,
    cfg: SystemConfig,
    icfg: IntegratorConfig = IntegratorConfig(),
) -> EvolveResult:
    """Propagate a joint state vector in one excitation sector over the interaction window [0, T].

    Returns the final state in the plain interaction picture (static nonlinear
    Hamiltonian explicit) in the bare cavity basis, as excitation-sector
    blocks, with numerical diagnostics computed from them.  Without loss it
    takes the lossless route and is also returned as `pure_state`; with loss,
    the loss chain.  Either route runs the accuracy gate.
    The seed must lie in one sector, as every product of a rung and a cavity
    eigenlevel does; a seed in several raises ValueError naming them.  The
    map is linear: a mixture's result is the weighted sum of its pure
    components'.
    Raises a NumericsError subclass when trace drift, ladder-cutoff
    population, wrap-around population, positivity, the hermiticity of the
    sector blocks, the agreement of the final state with its check, or the
    last terms of the loss chain's series violate their bounds (a nan violates
    every bound), and before the series when it would take more than
    SERIES_WORK_LIMIT products; without loss, before the exponentials when
    T times the numerical range's half-height, which bounds the spread of
    their phases, exceeds that limit.
    """
    if not isinstance(state, StateVector):
        raise TypeError(f"the seed must be a StateVector, got {type(state).__name__}; evolve a mixture's components")
    _require_space(state.space, cfg)
    sec = _Sectors(cfg)
    k, psi0 = _seed_sector(state, sec.joint_of)
    pure = cfg.gamma == 0.0
    if pure:
        psi, pops, work, delta = _evolve_pure(sec, k, psi0)
        blocks = {(k, k): np.outer(psi, psi.conj())}
        nrm = float(np.linalg.norm(psi))
        trace_error = abs(nrm**2 - 1.0)
        amp = np.zeros(sec.d * sec.m, dtype=complex)
        amp[sec.joint_of[k]] = psi / nrm
        min_eig, tail = 0.0, None
    else:
        blocks, pops, work, delta, min_eig, tail = _evolve_chain(sec, k, psi0)
        trace_error = abs(float(pops.electron.sum()) - 1.0)

    diag = Diagnostics(
        steps=work,
        trace_error=trace_error,
        min_eigenvalue=min_eig,
        cutoff_occupancy=float(pops.photon[-2:].sum()),
        wrap_occupancy=float(pops.electron[cfg.ladder.wrap_rungs()].sum()),
        halving_delta=delta,
        series_tail=tail,
        electron_populations=pops.electron,
        level_populations=pops.level,
        photon_populations=pops.photon,
    )
    _enforce_bounds(diag, icfg)
    herm = max(float(np.max(np.abs(x - x.conj().T))) for x in blocks.values())
    if not herm <= HERMITICITY_TOL:
        raise NumericsError(f"sector block hermiticity defect {herm:.3e} exceeds {HERMITICITY_TOL}")
    return EvolveResult(blocks=blocks, diagnostics=diag, system=cfg, trace_tol=max(10 * icfg.trace_bound, 1e-7),
                        pure_state=StateVector(cfg.space, amp) if pure else None)


def _require_space(space: TensorSpace, cfg: SystemConfig) -> None:
    if space != cfg.space:
        raise ValueError(f"state space {space.factors} does not match config space {cfg.space.factors}")


def _enforce_bounds(diag: Diagnostics, icfg: IntegratorConfig):
    # each test reads "not within the bound", so that a nan trips it
    if not diag.trace_error <= icfg.trace_bound:
        raise TraceDriftError(f"trace drift {diag.trace_error:.3e} exceeds bound {icfg.trace_bound:.1e}")
    if not diag.cutoff_occupancy <= icfg.cutoff_bound:
        raise CutoffError(
            f"top-two photon levels hold {diag.cutoff_occupancy:.3e} > {icfg.cutoff_bound:.1e}; raise n_cut"
        )
    if not diag.wrap_occupancy <= icfg.wrap_bound:
        raise WrapAroundError(
            f"wrap-around rungs hold {diag.wrap_occupancy:.3e} > {icfg.wrap_bound:.1e}; widen the ladder"
        )
    if not diag.min_eigenvalue >= POSITIVITY_BOUND:
        raise NumericsError(f"minimum eigenvalue {diag.min_eigenvalue:.3e} below bound {POSITIVITY_BOUND:.1e}")
    if not diag.halving_delta <= CONVERGENCE_BOUND:
        raise ConvergenceError(
            f"the final state and its independent check differ on a reported probability by "
            f"{diag.halving_delta:.3e} > {CONVERGENCE_BOUND:.1e}"
        )
    if diag.series_tail is not None and not diag.series_tail <= SERIES_MONITOR_BOUND:
        raise SeriesTailError(
            f"the last terms of the loss chain's series reach {diag.series_tail:.3e} > {SERIES_MONITOR_BOUND:.1e}"
        )


# ---------------------------------------------------------------------------
# closed-form scattering matrices (labeled joint space)


def scattering_linear(g_q: complex, model: CavityModel, ladder: LadderConfig) -> Operator:
    """Linear-cavity scattering matrix exp(g_q bdag a - g_q* b adag), from one m x m exponential.

    bdag x a keeps rung + nu mod D, and in sector coordinates (`_joint_index`)
    it acts as a alone, so every sector carries the same generator
    g_q a - g_q* adag.  Its exponential, placed on each sector's rows and
    columns, is the whole matrix.
    """
    joint_of = _joint_index(model, ladder.rungs)
    mat = np.zeros((joint_of.size, joint_of.size), dtype=complex)
    mat[joint_of[:, :, None], joint_of[:, None, :]] = expm(g_q * model.a - np.conj(g_q) * model.a_dag)
    return Operator(ladder.space.tensor(model.space), mat)


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


def frame_align(state: DensityMatrix, cfg: SystemConfig) -> DensityMatrix:
    """Rotate a joint state on `cfg`'s space by exp(+i H_nl T), aligning the propagation
    picture with the frame in which the closed-form scattering matrices act."""
    _require_space(state.space, cfg)
    w = _frame_rotation(cfg.model, cfg.interaction_time)
    d, m, n = cfg.ladder.rungs, cfg.model.dim, cfg.space.dim
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
    and w.  `initial` must lie in one sector k, as evolve_lindblad's seed does
    (ValueError otherwise), so F = (w^dag s psi0_k)^dag X_kk (w^dag s psi0_k).
    """
    cfg = result.system
    _require_space(initial.space, cfg)
    k, psi0 = _seed_sector(initial, _joint_index(cfg.model, cfg.ladder.rungs))
    lo, up, _ = pair_states(cfg.model, lower, upper)
    s = sum(_pair_rotation(blockade_angle(cfg.model, lower, upper, cfg.g_q), lo, up))
    w = _frame_rotation(cfg.model, cfg.interaction_time)
    target = s @ psi0
    probe = w.conj().T @ target
    val = np.vdot(probe, result.blocks[(k, k)] @ probe)
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
