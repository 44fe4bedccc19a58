"""Electron-mediated gate set on (electron ladder x path register x polariton qubits).

Gates are composed from the two-level blockade scattering matrix in the
idealized closed-form regime.  Polariton qubits are two-level factors; the
electron ancilla carries a cyclic energy ladder and, where needed, a path
register (far / near-cavity trajectory).  Every gate acts on one fixed factor
order, electron, then path, then qubit(s): the gates compose as plain arrays
in that order, and a public builder lifts its array onto a labeled space once.
All identities hold up to a global phase, which is solved for explicitly
rather than assumed away.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cavity import build_kerr
from .dynamics import scattering_blockade, scattering_linear
from .electron import ELECTRON_LABEL, LadderConfig, comb_state
from .tensor import Operator, TensorSpace, embed_group

__all__ = [
    "PATH_LABEL",
    "CircuitReport",
    "RotationReport",
    "IdentityCheck",
    "gate_space",
    "gate_pass",
    "cep_rz",
    "r_transverse",
    "electron_hadamard",
    "spectrometer",
    "cpe_path",
    "two_polariton_cz",
    "equivalence_up_to_phase",
    "gate_identity_suite",
    "CZ_CALIBRATION",
    "CZ_TARGET",
]

PATH_LABEL = "path"

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
CZ_TARGET = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)

# With the electron entering at the centre rung on the near path, cpe_path at pass
# phase difference phi sends qubit-1 |0> to the far path with phase -e^{i phi} and
# |1> to the near path with -e^{-i phi}; cep_rz(pi/2) acts as iZ on the near path
# and as the identity on the far path.  The rest of the circuit gives CZ when the
# two branches differ by e^{2i phi} = i, that is 2 phi = pi/2 (mod 2 pi).  Of the
# sixteen settings k pi/4 x loss_to_path {0, 1}, only pi/4 and 5 pi/4, both with
# loss_to_path 0, pass.
CZ_CALIBRATION = {"pass_phase_difference": math.pi / 4, "loss_to_path": 0}

QUBIT_ZERO = np.array([1.0, 0.0], dtype=complex)
QUBIT_ONE = np.array([0.0, 1.0], dtype=complex)


def gate_space(rungs: int = 7, n_qubits: int = 1, with_path: bool = True) -> TensorSpace:
    """Joint space (electron, [path], pol1[, pol2...]) for gate composition."""
    factors: list[tuple[str, int]] = [(ELECTRON_LABEL, rungs)]
    if with_path:
        factors.append((PATH_LABEL, 2))
    if n_qubits == 1:
        factors.append(("pol", 2))
    else:
        factors.extend((f"pol{i + 1}", 2) for i in range(n_qubits))
    return TensorSpace(tuple(factors))


def equivalence_up_to_phase(u: np.ndarray, v: np.ndarray, tol: float = 1e-10) -> tuple[bool, float, float]:
    """(equal, phase, deviation): is u = e^{i phase} v within tol (max-entry norm)?

    The phase is arg trace(v^dag u) in (-pi, pi], an imaginary part within
    1e-12 of the trace's magnitude counting as round-off, so a real trace
    reports exactly 0 or pi; orthogonal matrices (vanishing trace) report
    False with the raw deviation.
    """
    um, vm = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    if um.shape != vm.shape:
        raise ValueError(f"shape mismatch {um.shape} vs {vm.shape}")
    tr = complex(np.vdot(vm, um))
    if abs(tr) < 1e-14:
        return False, 0.0, float(np.max(np.abs(um - vm)))
    if abs(tr.imag) <= 1e-12 * abs(tr):
        tr = complex(tr.real, 0.0)
    theta = cmath.phase(tr)
    deviation = float(np.max(np.abs(um - np.exp(1j * theta) * vm)))
    return deviation <= tol, theta, deviation


def _unitarity_defect(u: np.ndarray) -> float:
    return float(np.max(np.abs(u @ u.conj().T - np.eye(len(u)))))


def _blockade(omega: complex, rungs: int) -> np.ndarray:
    """One pass on (electron, qubit); every pass of the gate set is built here."""
    space = TensorSpace(((ELECTRON_LABEL, rungs), ("pol", 2)))
    return scattering_blockade(omega, QUBIT_ZERO, QUBIT_ONE, space).matrix


def _near_path(s: np.ndarray) -> np.ndarray:
    """`s`, on (electron, qubit), on (electron, path, qubit): the identity on the
    far path (|0>), s on the near path (|1>)."""
    d = len(s) // 2
    mat = np.zeros((d, 2, 2, d, 2, 2), dtype=complex)
    mat[:, 0, :, :, 0, :] = np.eye(2 * d).reshape(d, 2, d, 2)
    mat[:, 1, :, :, 1, :] = s.reshape(d, 2, d, 2)
    return mat.reshape(4 * d, 4 * d)


def _lift(s: np.ndarray, labels: tuple[str, ...], space: TensorSpace) -> Operator:
    """`s`, a matrix on the factors `labels`, on `space`.

    A matrix already on `space`'s own factors in order is wrapped as it is,
    without embed_group's copy: every caller hands over a matrix nothing else holds.
    """
    return Operator(space, s) if space.labels == labels else embed_group(s, labels, space)


def _lift_on_qubit(s: np.ndarray, qubit_label: str, space: TensorSpace) -> Operator:
    """`s`, on (electron, qubit), on the near path of `space`."""
    return _lift(_near_path(s), (ELECTRON_LABEL, PATH_LABEL, qubit_label), space)


def gate_pass(omega: complex, space: TensorSpace, qubit_label: str = "pol") -> Operator:
    """One electron-cavity interaction on the selected polariton qubit.

    The space must carry a path register: the far path (|0> of the path
    register) is untouched and only the near-cavity path interacts.
    """
    return _lift_on_qubit(_blockade(omega, space.dim_of(ELECTRON_LABEL)), qubit_label, space)


def _z_rotations(rungs: int):
    """The family of two-pass z-rotations on (electron, qubit): a function from the relative phase phi to the rotation.

    The first pass, at omega = pi/2, is the same for every phi.  At fixed
    |omega| the second pass is C_0 + e^{i phi} C_1 + e^{-i phi} C_-1 (its
    same-rung, rung-down and rung-up blocks), so a three-point DFT of the
    passes at phi = 0, 2 pi/3 and 4 pi/3 recovers the C_j, and every
    rotation is T_0 + e^{i phi} T_1 + e^{-i phi} T_-1 with T_j = C_j first:
    three products per family.  A path-conditioned rotation is the rotation on
    the near path, since diag(I, B) diag(I, A) = diag(I, BA) on (far, near) path.
    """
    roots = np.exp(2j * math.pi / 3 * np.arange(3))
    passes = [_blockade(0.5 * math.pi * w, rungs) for w in roots]
    first = passes[0]
    # T_j = (1/3) sum_k e^{-2 pi i j k/3} pass_k first, for j = 0, 1, -1
    t0, t1, t_1 = (sum(w**-j * p for w, p in zip(roots, passes)) @ first / 3 for j in (0, 1, -1))

    def rotation(phi: float) -> np.ndarray:
        e = cmath.exp(1j * phi)
        return t0 + e * t1 + e.conjugate() * t_1

    return rotation


def cep_rz(phi: float, space: TensorSpace, qubit_label: str = "pol") -> Operator:
    """Electron-controlled z-rotation: two passes at |omega| = pi/2 with relative phase phi.

    On the interacting branch the polariton factor receives
    -(e^{-i phi}|0><0| + e^{i phi}|1><1|) and the electron energy marginal is
    restored exactly (the two one-rung shifts cancel).  The space must carry a
    path register: the rotation acts on the near path and leaves the far path.
    """
    return _lift_on_qubit(_z_rotations(space.dim_of(ELECTRON_LABEL))(phi), qubit_label, space)


def _schmidt_entropy(sv: np.ndarray) -> float:
    """Entropy of the normalized squared singular values `sv`; a rank-one matrix reads 0."""
    p = sv**2 / np.sum(sv**2)
    p = p[p > 1e-15]
    return 0.0 - float((p * np.log(p)).sum())  # 0.0 - keeps a product's entropy at +0


@dataclass(frozen=True)
class RotationReport:
    entanglement_entropy: float
    unitarity_defect: float


def r_transverse(omega_mag: float, phi: float, rungs: int = 7) -> tuple[np.ndarray, RotationReport]:
    """Transverse polariton rotation driven by a comb-state electron.

    Returns the induced 2x2 unitary cos|omega| I - i sin|omega| (cos(phi) X +
    sin(phi) Y) and the Schmidt entropy of the whole action, (electron) x
    (polariton out, polariton in), which is 0 exactly when every polariton
    input leaves the electron in one and the same state.

    Only the `rungs` discrete comb phases 2 pi m / rungs are exact eigenstates
    of the cyclic shift, so the electron is prepared in the nearest exact comb
    and the leftover axis angle rides on the interaction phase; the output is
    then an exact product for every axis angle.
    """
    cfg = LadderConfig(rungs=rungs, center=rungs // 2)
    comb_phase = 2.0 * math.pi * round(phi * rungs / (2.0 * math.pi)) / rungs
    pass_phase = phi - comb_phase
    s = _blockade(omega_mag * cmath.exp(1j * pass_phase), rungs)
    comb = comb_state(comb_phase, cfg).amplitudes
    action = (s @ np.kron(comb[:, None], np.eye(2))).reshape(rungs, 4)
    entropy = _schmidt_entropy(np.linalg.svd(action, compute_uv=False))
    induced = (comb.conj() @ action).reshape(2, 2)
    return induced, RotationReport(entanglement_entropy=entropy, unitarity_defect=_unitarity_defect(induced))


def electron_hadamard(space: TensorSpace) -> Operator:
    """Hadamard on the electron path register; identity elsewhere."""
    return embed_group(HADAMARD, [PATH_LABEL], space)


def spectrometer(space: TensorSpace, center: int, loss_to_path: int = 0) -> Operator:
    """Energy-dispersive path router: an exact permutation on (rung x path).

    Flips the path register on exactly one energy sector so that, for an
    electron entering on the near path, the one-quantum-loss sector
    (rung center-1) exits on path `loss_to_path` and the gain sector on the
    other path.  On a space of just (electron, path), in that order, the
    matrix is returned as built; on any other it is lifted.
    """
    if loss_to_path not in (0, 1):
        raise ValueError("loss_to_path must be 0 or 1")
    d = space.dim_of(ELECTRON_LABEL)
    flip_rung = (center - 1) % d if loss_to_path == 0 else (center + 1) % d
    mat = np.eye(2 * d, dtype=complex)
    mat[2 * flip_rung : 2 * flip_rung + 2, 2 * flip_rung : 2 * flip_rung + 2] = PAULI_X
    return _lift(mat, (ELECTRON_LABEL, PATH_LABEL), space)


def cpe_path(
    space: TensorSpace,
    center: int,
    qubit_label: str = "pol",
    phase_first: float = 0.0,
    loss_to_path: int = 0,
) -> Operator:
    """Polariton-controlled electron-path gate: pass, spectrometer, pass.

    The electron must enter on the near path at rung `center`; it leaves at
    the same rung with its path entangled to the polariton computational
    basis.  The first pass's phase and the spectrometer routing are the
    calibration parameters; the second pass is at omega = pi/2.
    """
    mat = _cpe_path(space.dim_of(ELECTRON_LABEL), center, phase_first, loss_to_path)
    return _lift(mat, (ELECTRON_LABEL, PATH_LABEL, qubit_label), space)


def _cpe_path(d: int, center: int, phase_first: float, loss_to_path: int) -> np.ndarray:
    """cpe_path on (electron, path, qubit), composed per path on (electron, qubit).

    The block from path p to p' is S_2 (R_p'p x I) F_p, R_p'p the rungs the
    spectrometer (a permutation, read off its nonzeros) routes from p to p',
    F_0 = I and F_1 the first pass, which acts on the near path only.  The far
    path's blocks are column gathers of S_2, and the near path's two split one
    (2 rungs)-sized product.
    """
    half_pi = 0.5 * math.pi
    first = _blockade(half_pi * cmath.exp(1j * phase_first), d).reshape(d, 2, 2 * d)
    second = _blockade(half_pi, d).reshape(2 * d, d, 2)
    router = spectrometer(TensorSpace(((ELECTRON_LABEL, d), (PATH_LABEL, 2))), center, loss_to_path).matrix
    rows, cols = np.nonzero(router)  # (rung, path) out and in
    weights = router[rows, cols]
    mat = np.zeros((d, 2, 2, d, 2, 2), dtype=complex)  # (rung, path, qubit) out x in
    for p_out in (0, 1):
        for p_in in (0, 1):
            routed = (rows % 2 == p_out) & (cols % 2 == p_in)
            to, frm = rows[routed] // 2, cols[routed] // 2
            n = to.size
            # S_2 (R_p'p x I): S_2's columns at the rungs routed to p', weighted by the routing
            gathered = (second[:, to, :] * weights[routed][:, None]).reshape(2 * d, 2 * n)
            block = mat[:, p_out, :, :, p_in, :]  # (rung, qubit) out x in
            if p_in == 0:  # no first pass on the far path
                block[:, :, frm, :] = gathered.reshape(d, 2, n, 2)
            else:
                block[...] = (gathered @ first[frm].reshape(2 * n, 2 * d)).reshape(d, 2, d, 2)
    return mat.reshape(4 * d, 4 * d)


@dataclass(frozen=True)
class CircuitReport:
    """Verification record for a composed circuit against its target unitary."""

    induced: np.ndarray
    target: np.ndarray
    phase: float
    deviation: float
    ancilla_entropy: float
    ancilla_fidelity_reference: float
    ancilla_state: np.ndarray
    wrap_population: float  # largest wrap-rung population after any stage, uniform polariton input
    calibration: dict
    passed: bool

    def to_text(self) -> str:
        lines = [
            f"passed: {self.passed}",
            f"global phase: {self.phase:.12f} rad",
            f"max deviation from e^(i phase) * target: {self.deviation:.3e}",
            f"ancilla entanglement entropy (whole circuit map): {self.ancilla_entropy:.3e}",
            f"ancilla fidelity to |path 0, center rung>: {self.ancilla_fidelity_reference:.12f}",
            f"calibration: {self.calibration}",
        ]
        return "\n".join(lines)


def _ancilla_tail(space: TensorSpace, center: int, path_index: int) -> np.ndarray:
    d = space.dim_of(ELECTRON_LABEL)
    anc = np.zeros(d, dtype=complex)
    anc[center] = 1.0
    path = np.zeros(2, dtype=complex)
    path[path_index] = 1.0
    return np.kron(anc, path)


def two_polariton_cz(rungs: int = 7, calibration: dict | None = None) -> CircuitReport:
    """Compose and verify the two-polariton controlled-Z mediated by the electron.

    Sequence: controlled-path gate on qubit 1 at `calibration` (default: the
    derived CZ_CALIBRATION), path-conditioned z-gate on qubit 2, electron
    Hadamard, path-conditioned z-gate on qubit 1, electron Hadamard; the
    electron enters at the centre rung on the near path.  The circuit's
    (ancilla) x (polariton out, polariton in) matrix has rank one exactly when
    the ancilla leaves in one state whatever the polaritons held; its leading
    left singular vector is the ancilla state and its Schmidt entropy the
    ancilla entropy.  Below 6 rungs the rungs next to the centre, which the
    passes populate, are wrap rungs: ValueError.
    """
    center = rungs // 2
    wrap = LadderConfig(rungs=rungs, center=center).wrap_rungs()
    if np.isin([center - 1, center + 1], wrap).any():
        raise ValueError(f"{rungs} rungs put the rungs next to the centre on the wrap-around; need at least 6")
    if calibration is None:
        calibration = CZ_CALIBRATION
    delta = float(calibration["pass_phase_difference"])
    loss_to = int(calibration["loss_to_path"])
    space = gate_space(rungs=rungs, n_qubits=2, with_path=True)
    uniform = 0.5 * np.ones(4, dtype=complex)
    anc_in = _ancilla_tail(space, center, path_index=1)
    # column j: the circuit's output for the input kron(anc_in, e_j), as (electron x path,
    # pol1, pol2, column); a polariton input chi gives cols @ chi
    cols = np.kron(anc_in[:, None], np.eye(4)).reshape(2 * rungs, 2, 2, 4)
    # each stage acts on the leading factors alone: the controlled-path gate and the z-gates on
    # (electron, path, qubit), the pol2 z-gate with the two qubits swapped, the Hadamard on
    # (electron, path); both z-gates are one matrix
    cpe = _cpe_path(rungs, center, delta, loss_to)
    rz = _near_path(_z_rotations(rungs)(0.5 * math.pi))
    h = electron_hadamard(TensorSpace(((ELECTRON_LABEL, rungs), (PATH_LABEL, 2)))).matrix
    wrap_pop = 0.0
    for stage, on_pol2 in ((cpe, False), (rz, True), (h, False), (rz, False), (h, False)):
        moved = cols.swapaxes(1, 2) if on_pol2 else cols
        out = (stage @ moved.reshape(len(stage), -1)).reshape(moved.shape)
        cols = out.swapaxes(1, 2) if on_pol2 else out
        # by linearity, the state of a uniform polariton input after this stage
        pops = (np.abs((cols.reshape(-1, 4) @ uniform).reshape(rungs, -1)) ** 2).sum(axis=1)
        wrap_pop = max(wrap_pop, float(pops[wrap].sum()))

    action = cols.reshape(anc_in.size, 16)  # (ancilla) x (polariton out, polariton in)
    left, sv, _ = np.linalg.svd(action, full_matrices=False)
    anc_out, entropy = left[:, 0], _schmidt_entropy(sv)
    # the phase is fixed on the largest entry; of entries equal up to 1e-12 (the
    # ancilla splits evenly over the two paths) the last is taken, so round-off
    # does not choose
    mags = np.abs(anc_out)
    k = int(np.flatnonzero(mags >= mags.max() - 1e-12)[-1])
    anc_out = anc_out * np.exp(-1j * cmath.phase(anc_out[k]))
    induced = (anc_out.conj() @ action).reshape(4, 4)

    ok, theta, deviation = equivalence_up_to_phase(induced, CZ_TARGET, 1e-9)
    return CircuitReport(
        induced=induced,
        target=CZ_TARGET.copy(),
        phase=theta,
        deviation=deviation,
        ancilla_entropy=entropy,
        ancilla_fidelity_reference=float(abs(np.vdot(_ancilla_tail(space, center, 0), anc_out)) ** 2),
        ancilla_state=anc_out,
        wrap_population=wrap_pop,
        calibration={"pass_phase_difference": delta, "loss_to_path": loss_to},
        passed=ok and entropy <= 1e-10 and _unitarity_defect(induced) <= 1e-10,
    )


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    deviation: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.name}: deviation {self.deviation:.3e}{extra}"


def gate_identity_suite(
    rungs: int = 7,
    seed: int = 11,
    corrupt_cz_phase: float = 0.0,
) -> tuple[list[IdentityCheck], CircuitReport]:
    """Run the full gate-identity verification suite.

    Returns one check per identity plus the controlled-Z circuit report.
    `corrupt_cz_phase` is a negative-control hook: a nonzero value skews the
    controlled-path calibration so the CZ verification must fail.
    """
    checks: list[IdentityCheck] = []
    rng = np.random.default_rng(seed)
    center = rungs // 2

    def add(name: str, passed: bool, deviation: float, detail: str = ""):
        checks.append(IdentityCheck(name, bool(passed), float(deviation), detail))

    # closed-form scattering matrices are unitary
    model = build_kerr(0.05, 6)
    ladder = LadderConfig(rungs=9, center=4)
    dev = _unitarity_defect(scattering_linear(0.8 + 0.3j, model, ladder).matrix)
    add("linear scattering matrix unitary", dev <= 1e-12, dev)
    space1 = gate_space(rungs=rungs, n_qubits=1, with_path=True)
    dev = _unitarity_defect(gate_pass(0.5 * math.pi * cmath.exp(0.4j), space1, "pol").matrix)
    add("blockade pass unitary (path-conditioned)", dev <= 1e-12, dev)

    # z-rotation family: phase gate, group law, S^2 = Z chain
    rz = _z_rotations(rungs)  # the two-pass z-rotation without a path register

    def factor(rotation: np.ndarray) -> np.ndarray:  # a rotation's polariton factor on the centre rung
        return rotation.reshape(rungs, 2, rungs, 2)[center, :, center, :]

    # composed from its two passes, at a phase the family does not sample
    first, second = (_blockade(0.5 * math.pi * w, rungs) for w in (1, 1j))
    _, _, dev = equivalence_up_to_phase(factor(second @ first), PAULI_Z, 1e-10)
    add("two passes at relative phase pi/2 give Z (up to phase)", dev <= 1e-10, dev)
    _, _, dev = equivalence_up_to_phase(factor(rz(0.0)), np.eye(2), 1e-10)
    add("zero relative phase gives identity (up to phase)", dev <= 1e-10, dev)
    worst = 0.0
    for _ in range(20):
        p1, p2 = rng.uniform(0, 2 * math.pi, size=2)
        worst = max(worst, equivalence_up_to_phase(rz(p1) @ rz(p2), rz(p1 + p2), 1e-10)[2])
    add("z-rotation group law (20 random phase pairs)", worst <= 1e-10, worst)
    _, _, dev = equivalence_up_to_phase(rz(math.pi / 4) @ rz(math.pi / 4), rz(math.pi / 2), 1e-10)
    add("quarter-phase gate squared equals half-phase gate", dev <= 1e-10, dev)

    # electron energy marginal untouched by the two-pass z-rotation
    amp = rng.standard_normal(2 * rungs) + 1j * rng.standard_normal(2 * rungs)
    amp /= np.linalg.norm(amp)
    before = (np.abs(amp.reshape(rungs, 2)) ** 2).sum(axis=1)
    out = rz(0.7) @ amp
    after = (np.abs(out.reshape(rungs, 2)) ** 2).sum(axis=1)
    dev = float(np.max(np.abs(before - after)))
    add("electron energy marginal restored by z-rotation", dev <= 1e-12, dev)

    # transverse rotations from comb-state electrons
    vx, rep = r_transverse(0.5 * math.pi, 0.0, rungs)
    dev = float(np.max(np.abs(vx - (-1j) * PAULI_X)))
    add("half-turn comb rotation equals -iX", dev <= 1e-10, dev, f"entropy {rep.entanglement_entropy:.1e}")
    vy, rep_y = r_transverse(0.25 * math.pi, 0.5 * math.pi, rungs)
    had = vx @ vy
    dev = float(np.max(np.abs(had - (-1j) * HADAMARD)))
    add("composite comb rotations give -iH", dev <= 1e-10, dev)
    ent = max(rep.entanglement_entropy, rep_y.entanglement_entropy)
    add("comb drive leaves no residual entanglement", ent <= 1e-10, ent)
    vb, _ = r_transverse(0.9, 1.3, rungs)
    vb_inv, _ = r_transverse(0.9, 1.3 + math.pi, rungs)
    dev = float(np.max(np.abs(vb @ vb_inv - np.eye(2))))
    add("antipodal comb phase inverts the rotation", dev <= 1e-12, dev)

    # controlled-path gate: polariton basis routes the electron path
    cpe = cpe_path(space1, center, "pol").matrix
    # its two columns at (centre rung, near path): one global phase also checks the relative phase
    action = cpe @ np.kron(_ancilla_tail(space1, center, 1)[:, None], np.eye(2))
    target = np.stack([np.kron(_ancilla_tail(space1, center, 0), QUBIT_ZERO),
                       np.kron(_ancilla_tail(space1, center, 1), QUBIT_ONE)], axis=1)
    _, _, dev = equivalence_up_to_phase(action, target, 1e-10)
    add("controlled-path gate matches its target action", dev <= 1e-10, dev)

    h = electron_hadamard(space1).matrix
    dev = float(np.max(np.abs(h @ h - np.eye(space1.dim))))
    add("electron Hadamard squares to identity", dev <= 1e-14, dev)

    # two-polariton controlled-Z with calibrated pass phases
    calibration = None
    if corrupt_cz_phase:
        calibration = dict(CZ_CALIBRATION)
        calibration["pass_phase_difference"] += corrupt_cz_phase
    report = two_polariton_cz(rungs=rungs, calibration=calibration)
    add("two-polariton controlled-Z (up to global phase)", report.passed, report.deviation,
        f"ancilla entropy {report.ancilla_entropy:.1e}")

    # universality smoke test: H T H S composed from the primitives
    composed = had @ factor(rz(math.pi / 8)) @ had @ factor(rz(math.pi / 4))
    t_gate = np.diag([1.0, cmath.exp(1j * math.pi / 4)])
    s_gate = np.diag([1.0, 1j])
    target = HADAMARD @ t_gate @ HADAMARD @ s_gate
    _, _, dev = equivalence_up_to_phase(composed, target, 1e-9)
    add("H T H S composite matches direct construction", dev <= 1e-9, dev)

    # wrap-around rungs stay empty through a full gate sequence
    add("ladder wrap-around rungs stay unpopulated", report.wrap_population <= 1e-12, report.wrap_population)

    return checks, report

