import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import expm

from epolsim import (
    IntegratorConfig,
    LadderConfig,
    Operator,
    SystemConfig,
    TensorSpace,
    blockade_fidelity,
    build_kerr,
    build_ladder,
    cep_rz,
    cpe_path,
    electron_hadamard,
    embed_group,
    equivalence_up_to_phase,
    evolve_lindblad,
    gate_identity_suite,
    gate_pass,
    gate_space,
    initial_state,
    r_transverse,
    scattering_blockade,
    spectrometer,
    two_polariton_cz,
)
from epolsim.cli import normalize_config, run_config
from epolsim.gates import CZ_TARGET, HADAMARD, PAULI_X, PAULI_Z, _ancilla_tail
from oracles import (
    cep_rz_target,
    reference_cep_rz,
    reference_cpe_path,
    reference_cz,
    reference_cz_stages,
    reference_embed_group,
    reference_pass,
    reference_scattering_blockade,
)

RUNGS = 7
CENTER = 3


def test_gate_pass_identity_at_zero_coupling():
    space = gate_space(rungs=RUNGS)
    op = gate_pass(0.0, space, "pol")
    assert np.max(np.abs(op.matrix - np.eye(space.dim))) < 1e-14


def test_conditioned_pass_leaves_far_path_untouched():
    space = gate_space(rungs=RUNGS)
    op = gate_pass(0.5 * math.pi, space, "pol", conditioned_on_path=True)
    rng = np.random.default_rng(0)
    for _ in range(5):
        anc = _ancilla_tail(space, CENTER, path_index=0)
        chi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        chi /= np.linalg.norm(chi)
        vec = np.kron(anc, chi)
        assert np.max(np.abs(op.matrix @ vec - vec)) < 1e-14


def test_conditioned_pass_unitary():
    space = gate_space(rungs=RUNGS)
    op = gate_pass(0.5 * math.pi * cmath.exp(0.7j), space, "pol", conditioned_on_path=True)
    assert op.unitarity_defect() <= 1e-12


def test_cep_rz_branch_action():
    # conditioned z-rotation: near path picks up -(e^{-i phi}, e^{i phi}),
    # far path stays exactly put
    space = gate_space(rungs=RUNGS)
    phi = 0.93
    op = cep_rz(phi, space, "pol")
    target = cep_rz_target(phi)
    for j in range(2):
        chi = np.zeros(2, dtype=complex)
        chi[j] = 1.0
        near = np.kron(_ancilla_tail(space, CENTER, 1), chi)
        out = op.matrix @ near
        expected = np.kron(_ancilla_tail(space, CENTER, 1), target @ chi)
        assert np.max(np.abs(out - expected)) < 1e-12
        far = np.kron(_ancilla_tail(space, CENTER, 0), chi)
        assert np.max(np.abs(op.matrix @ far - far)) < 1e-14


def test_cep_rz_special_angles():
    ok, _, dev = equivalence_up_to_phase(cep_rz_target(0.5 * math.pi), PAULI_Z)
    assert ok and dev < 1e-12
    ok, _, dev = equivalence_up_to_phase(cep_rz_target(0.0), np.eye(2))
    assert ok and dev < 1e-12
    s_gate = np.diag([1.0, 1j])
    ok, _, dev = equivalence_up_to_phase(cep_rz_target(math.pi / 4), s_gate)
    assert ok and dev < 1e-12
    t_gate = np.diag([1.0, cmath.exp(1j * math.pi / 4)])
    ok, _, dev = equivalence_up_to_phase(cep_rz_target(math.pi / 8), t_gate)
    assert ok and dev < 1e-12


def test_cep_rz_restores_electron_marginal():
    space = gate_space(rungs=RUNGS)
    op = cep_rz(1.1, space, "pol")
    rng = np.random.default_rng(1)
    vec = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    vec /= np.linalg.norm(vec)
    out = op.matrix @ vec
    before = (np.abs(vec.reshape(RUNGS, -1)) ** 2).sum(axis=1)
    after = (np.abs(out.reshape(RUNGS, -1)) ** 2).sum(axis=1)
    assert np.max(np.abs(before - after)) < 1e-12


def test_transverse_rotation_half_turn():
    v, report = r_transverse(0.5 * math.pi, 0.0, RUNGS)
    assert np.max(np.abs(v - (-1j) * PAULI_X)) < 1e-10
    assert report.entanglement_entropy <= 1e-10


def test_transverse_rotation_hadamard_composite():
    vx, _ = r_transverse(0.5 * math.pi, 0.0, RUNGS)
    vy, _ = r_transverse(0.25 * math.pi, 0.5 * math.pi, RUNGS)
    assert np.max(np.abs(vx @ vy - (-1j) * HADAMARD)) < 1e-10


def test_transverse_rotation_matches_axis_formula():
    rng = np.random.default_rng(2)
    for _ in range(10):
        mag = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        v, report = r_transverse(mag, phi, RUNGS)
        sigma = math.cos(phi) * PAULI_X + math.sin(phi) * np.array([[0, -1j], [1j, 0]])
        expected = math.cos(mag) * np.eye(2) - 1j * math.sin(mag) * sigma
        assert np.max(np.abs(v - expected)) < 1e-10
        assert report.entanglement_entropy <= 1e-10
        assert report.unitarity_defect <= 1e-10


def test_transverse_rotation_antipodal_inverse():
    v, _ = r_transverse(1.234, 0.777, RUNGS)
    v_inv, _ = r_transverse(1.234, 0.777 + math.pi, RUNGS)
    assert np.max(np.abs(v @ v_inv - np.eye(2))) < 1e-12


def test_spectrometer_routes_loss_sector():
    space = gate_space(rungs=RUNGS)
    router = spectrometer(space, CENTER, loss_to_path=0)
    assert router.unitarity_defect() <= 1e-14
    loss = np.zeros(RUNGS, dtype=complex)
    loss[CENTER - 1] = 1.0
    path1 = np.array([0, 1], dtype=complex)
    chi = np.array([1, 0], dtype=complex)
    out = router.matrix @ np.kron(np.kron(loss, path1), chi)
    expected = np.kron(np.kron(loss, np.array([1, 0], dtype=complex)), chi)
    assert np.max(np.abs(out - expected)) < 1e-14


def test_cpe_path_basis_actions():
    space = gate_space(rungs=RUNGS)
    op = cpe_path(space, CENTER, "pol")
    anc_in = _ancilla_tail(space, CENTER, 1)
    for (alpha, beta) in ((1.0, 0.0), (0.0, 1.0)):
        chi = np.array([alpha, beta], dtype=complex)
        out = op.matrix @ np.kron(anc_in, chi)
        target = alpha * np.kron(_ancilla_tail(space, CENTER, 0), np.array([1, 0], dtype=complex))
        target = target + beta * np.kron(_ancilla_tail(space, CENTER, 1), np.array([0, 1], dtype=complex))
        ok, _, dev = equivalence_up_to_phase(out.reshape(-1, 1), target.reshape(-1, 1), 1e-10)
        assert ok, f"deviation {dev}"


def test_cpe_path_correlates_path_with_polariton():
    space = gate_space(rungs=RUNGS)
    op = cpe_path(space, CENTER, "pol")
    chi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    out = op.matrix @ np.kron(_ancilla_tail(space, CENTER, 1), chi)
    probs = np.abs(out.reshape(RUNGS, 2, 2)) ** 2
    joint = probs.sum(axis=0)  # (path, polariton)
    assert joint[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert joint[1, 1] == pytest.approx(0.5, abs=1e-12)
    assert joint[0, 1] < 1e-12 and joint[1, 0] < 1e-12


def test_electron_hadamard_basics():
    space = gate_space(rungs=RUNGS)
    h = electron_hadamard(space)
    assert h.unitarity_defect() <= 1e-14
    assert np.max(np.abs((h @ h).matrix - np.eye(space.dim))) < 1e-14
    anc0 = _ancilla_tail(space, CENTER, 0)
    anc1 = _ancilla_tail(space, CENTER, 1)
    chi = np.array([1, 0], dtype=complex)
    out = h.matrix @ np.kron(anc0, chi)
    expected = (np.kron(anc0, chi) + np.kron(anc1, chi)) / math.sqrt(2)
    assert np.max(np.abs(out - expected)) < 1e-14


def test_two_polariton_cz_verifies():
    report = two_polariton_cz(rungs=RUNGS)
    assert report.passed
    assert report.deviation <= 1e-9
    assert report.ancilla_entropy <= 1e-10
    ok, _, dev = equivalence_up_to_phase(report.induced, CZ_TARGET, 1e-9)
    assert ok and dev <= 1e-9
    unit = np.max(np.abs(report.induced @ report.induced.conj().T - np.eye(4)))
    assert unit <= 1e-10
    assert report.calibration["pass_phase_difference"] == pytest.approx(math.pi / 4)


def test_two_polariton_cz_basis_action_shares_one_phase():
    report = two_polariton_cz(rungs=RUNGS)
    phases = []
    for j, sign in ((0, 1.0), (1, 1.0), (2, 1.0), (3, -1.0)):
        col = report.induced[:, j]
        assert abs(abs(col[j]) - 1.0) < 1e-12
        phases.append(col[j] / sign)
    spread = max(abs(p - phases[0]) for p in phases)
    assert spread < 1e-12


def test_two_polariton_cz_ancilla_product_state():
    report = two_polariton_cz(rungs=RUNGS)
    # ancilla ends in one fixed product state for every input, with fidelity
    # 1/2 to |path 0, center rung> (the two-pass phase bookkeeping forbids
    # landing exactly on the far path)
    assert report.ancilla_entropy <= 1e-10
    assert report.ancilla_fidelity_reference == pytest.approx(0.5, abs=1e-9)
    assert abs(np.linalg.norm(report.ancilla_state) - 1.0) < 1e-12


def test_two_polariton_cz_negative_control():
    report = two_polariton_cz(rungs=RUNGS, calibration={"pass_phase_difference": math.pi / 4 + 0.25, "loss_to_path": 0})
    assert not report.passed
    assert report.deviation > 1e-3


def test_equivalence_up_to_phase_examples():
    rng = np.random.default_rng(6)
    u = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    ok, theta, dev = equivalence_up_to_phase(u, np.exp(-0.7j) * u)
    assert ok and dev <= 1e-14
    assert theta == pytest.approx(0.7, abs=1e-12)
    ok, _, _ = equivalence_up_to_phase(PAULI_X, PAULI_Z)
    assert not ok
    # a real negative trace reports +pi whichever way round-off tips its imaginary part
    for eps in (1e-17, -1e-17):
        ok, theta, dev = equivalence_up_to_phase((-1.0 + 1j * eps) * np.eye(2), np.eye(2))
        assert ok and theta == math.pi


def test_equivalence_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        equivalence_up_to_phase(np.eye(2), np.eye(3))


def test_identity_suite_all_pass():
    checks, report = gate_identity_suite(rungs=RUNGS)
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]
    assert report.passed


@pytest.mark.parametrize("rungs", [7, 18])
def test_scattering_blockade_matches_kron_reference(rungs):
    rng = np.random.default_rng(rungs)
    for m in (2, 5):
        q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        space = TensorSpace((("electron", rungs), ("cav", m)))
        for omega in (0.0, 0.5 * math.pi, 1.3 * cmath.exp(0.7j)):
            s = scattering_blockade(omega, q[:, 0], q[:, 1], space).matrix
            ref = reference_scattering_blockade(omega, q[:, 0], q[:, 1], rungs)
            assert np.max(np.abs(s - ref)) <= 1e-12


@pytest.mark.parametrize("rungs", [1, 2, 3, 4, 5])
def test_scattering_blockade_wrap_blocks_match_kron_reference(rungs):
    # few rungs: the cyclic corner blocks sit next to the interior ones, and below three
    # rungs the two neighbours of a rung coincide, so their blocks must add
    rng = np.random.default_rng(100 + rungs)
    for m in (2, 3):
        q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        space = TensorSpace((("electron", rungs), ("cav", m)))
        for omega in (0.0, 1.1 * cmath.exp(-2.3j)):
            s = scattering_blockade(omega, q[:, 0], q[:, 1], space).matrix
            ref = reference_scattering_blockade(omega, q[:, 0], q[:, 1], rungs)
            assert np.max(np.abs(s - ref)) <= 1e-14


@pytest.mark.parametrize("rungs", [7, 18])
def test_gate_pass_matches_dense_reference(rungs):
    space = gate_space(rungs=rungs, n_qubits=2)
    omega = 0.5 * math.pi * cmath.exp(0.4j)
    for qubit in ("pol1", "pol2"):
        for conditioned in (True, False):
            op = gate_pass(omega, space, qubit, conditioned_on_path=conditioned).matrix
            assert np.max(np.abs(op - reference_pass(omega, space, qubit, conditioned))) <= 1e-12


@pytest.mark.parametrize("rungs", [7, 18])
def test_cep_rz_and_cpe_path_match_dense_composition(rungs):
    center = rungs // 2
    space = gate_space(rungs=rungs, n_qubits=2)
    for qubit in ("pol1", "pol2"):
        op = cep_rz(0.93, space, qubit).matrix
        assert np.max(np.abs(op - reference_cep_rz(0.93, space, qubit, True))) <= 1e-12
        for loss_to in (0, 1):
            op = cpe_path(space, center, qubit, phase_first=0.6, loss_to_path=loss_to).matrix
            ref = reference_cpe_path(space, center, qubit, 0.6, loss_to)
            assert np.max(np.abs(op - ref)) <= 1e-12
    free = TensorSpace((("electron", rungs), ("pol", 2)))
    op = cep_rz(1.7, free, conditioned=False).matrix
    assert np.max(np.abs(op - reference_cep_rz(1.7, free, "pol", False))) <= 1e-12


@pytest.mark.parametrize("rungs", [6, 7, 29])
@pytest.mark.parametrize("conditioned", [True, False])
def test_z_rotation_family_matches_dense_reference(rungs, conditioned):
    # one family, 20 phases, on the pass's own factors and lifted to the two-qubit space
    from epolsim.gates import _z_rotations

    phases = np.random.default_rng(rungs).uniform(0, 2 * math.pi, size=20)
    for space, qubit in ((gate_space(rungs, 1, with_path=conditioned), "pol"), (gate_space(rungs, 2), "pol2")):
        rz = _z_rotations(space, qubit, conditioned)
        for phi in phases:
            ref = reference_cep_rz(phi, space, qubit, conditioned)
            assert np.max(np.abs(rz(phi).matrix - ref)) <= 1e-12


@pytest.mark.parametrize("rungs", [6, 7, 29])
def test_cep_rz_on_the_two_qubit_space(rungs):
    # the call the benchmark's controlled-Z check makes: one phase, the full joint space
    space = gate_space(rungs, 2, True)
    op = cep_rz(0.5 * math.pi, space, "pol1")
    assert isinstance(op, Operator) and op.space == space
    assert np.max(np.abs(op.matrix - reference_cep_rz(0.5 * math.pi, space, "pol1", True))) <= 1e-12


def test_identity_suite_builds_each_first_pass_once(monkeypatch):
    # the suite's z-rotations share one first pass per family; rebuilding it for each
    # of the 68 rotations made 149 pass builds at 8 rungs
    import epolsim.gates as gates

    passes, lifts = [], []
    blockade, lift = gates.scattering_blockade, gates.embed_group

    def counted_blockade(*args, **kwargs):
        passes.append(args[-1].dim)
        return blockade(*args, **kwargs)

    def counted_lift(matrix, labels, space):
        # an in-order lift only copies, and every builder hands over a matrix it built
        assert tuple(labels) != space.labels, f"in-order lift onto {space.labels}"
        lifts.append(space.dim)
        return lift(matrix, labels, space)

    monkeypatch.setattr(gates, "scattering_blockade", counted_blockade)
    monkeypatch.setattr(gates, "embed_group", counted_lift)
    checks, report = gate_identity_suite(rungs=8)
    assert all(c.passed for c in checks) and report.passed
    assert len(passes) <= 82, f"{len(passes)} pass builds"
    assert lifts, "the spectrometer's and the second passes' lifts were not seen"


@pytest.mark.parametrize("rungs", [7, 18])
@pytest.mark.parametrize("calibration", [None, {"pass_phase_difference": math.pi / 4 + 0.25, "loss_to_path": 0}])
def test_two_polariton_cz_matches_dense_circuit(rungs, calibration):
    # the four-column evaluation against the dense u = h rz1 h rz2 cpe
    report = two_polariton_cz(rungs=rungs, calibration=calibration)
    ref_calibration, induced, ancilla, entropy = reference_cz(rungs, calibration)
    assert report.calibration == ref_calibration
    assert np.max(np.abs(report.induced - induced)) <= 1e-12
    assert np.max(np.abs(report.ancilla_state - ancilla)) <= 1e-12
    assert abs(report.ancilla_entropy - entropy) <= 1e-12


def test_two_polariton_cz_makes_no_full_space_operator_product(monkeypatch):
    # at 41 rungs the joint space has 41 * 8 = 328 dimensions; gates compose on the
    # factors they touch and the circuit acts on four input columns.  Both Operator
    # products and raw-matrix products of the circuit's gates are counted, and so are
    # the lifts of any operator onto the full space.
    import epolsim.gates as gates
    import epolsim.tensor as tensor

    full = (328, 328)
    operator_products = []
    matrix_products = []
    matmul = Operator.__matmul__

    def counting(self, other):
        if isinstance(other, Operator):
            operator_products.append(self.space.dim)
        return matmul(self, other)

    class Recorded(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = [np.asarray(x) for x in inputs]
            if ufunc is np.matmul:
                matrix_products.append(tuple(x.shape for x in plain))
            return getattr(ufunc, method)(*plain, **kwargs)

    def recorded(build):
        def wrapper(*args, **kwargs):
            op = build(*args, **kwargs)
            return SimpleNamespace(space=op.space, matrix=op.matrix.view(Recorded))

        return wrapper

    lifts = []

    def lifted(lift):
        def wrapper(matrix, labels, space):
            lifts.append(space.dim)
            return lift(matrix, labels, space)

        return wrapper

    monkeypatch.setattr(Operator, "__matmul__", counting)
    for name in ("electron_hadamard", "cep_rz", "cpe_path"):
        monkeypatch.setattr(gates, name, recorded(getattr(gates, name)))
    # gates lifts with embed_group directly, and through tensor.embed for the Hadamard
    for module in (gates, tensor):
        monkeypatch.setattr(module, "embed_group", lifted(module.embed_group))
    assert two_polariton_cz(rungs=41).passed
    assert matrix_products, "the circuit's gate matrices were not seen"
    assert lifts, "the stages' lifts were not seen"
    assert operator_products.count(328) == 0, f"{operator_products.count(328)} operator products on the full space"
    assert lifts.count(328) == 0, f"{lifts.count(328)} lifts onto the full space"
    square = [shapes for shapes in matrix_products if shapes == (full, full)]
    assert not square, f"{len(square)} matrix-matrix products on the full space"


@pytest.mark.parametrize("leaky", [False, True])
def test_wrap_population_matches_stagewise_reference(monkeypatch, leaky):
    import epolsim.gates as gates

    # the wrap population the suite reports at a corrupted calibration, read off the
    # circuit's columns, against a state carried through the five full-space stages.
    # Every ideal stage returns the electron to the centre rung, so the leaky variant
    # swaps in a Hadamard that lowers the near-path electron one rung, and the second
    # one then leaves part of the state on a wrap rung.
    rungs, center = RUNGS, CENTER
    hadamard = np.kron(np.eye(rungs), HADAMARD)
    if leaky:
        lower = np.roll(np.eye(rungs), -1, axis=0)  # |l> -> |l-1 mod D>
        hadamard = (np.kron(np.eye(rungs), np.diag([1.0, 0.0])) + np.kron(lower, np.diag([0.0, 1.0]))) @ hadamard
        monkeypatch.setattr(gates, "electron_hadamard",
                            lambda space: embed_group(hadamard, ["electron", "path"], space))
    checks, report = gate_identity_suite(rungs=rungs, corrupt_cz_phase=0.3)
    calibration = report.calibration
    assert calibration["pass_phase_difference"] == pytest.approx(math.pi / 4 + 0.3)
    space = TensorSpace((("electron", rungs), ("path", 2), ("pol1", 2), ("pol2", 2)))
    stages = reference_cz_stages(space, center, calibration["pass_phase_difference"], calibration["loss_to_path"])
    stages[2] = stages[4] = reference_embed_group(hadamard, ["electron", "path"], space)
    state = np.zeros(space.dim, dtype=complex)
    state[(2 * center + 1) * 4 : (2 * center + 2) * 4] = 0.5  # centre rung, near path, uniform polaritons
    wrap = LadderConfig(rungs=rungs, center=center).wrap_rungs()
    want = 0.0
    for stage in stages:
        state = stage @ state
        want = max(want, float((np.abs(state.reshape(rungs, -1)[wrap]) ** 2).sum()))
    assert report.wrap_population == pytest.approx(want, abs=1e-14)
    assert (want > 0.2) == leaky
    [check] = [c for c in checks if c.name == "ladder wrap-around rungs stay unpopulated"]
    assert check.deviation == report.wrap_population and check.passed != leaky


def test_noisy_pass_approaches_ideal_gate():
    # strong-blockade regime: physical pass converges to the closed form
    model = build_kerr(0.02, 6)
    cfg = SystemConfig(
        model=model,
        ladder=LadderConfig(rungs=33, center=16),
        g_q=math.pi / 2,
        interaction_time=2500.0,
        delta=0.0,
        gamma=0.0,
    )
    psi0 = initial_state(cfg, cavity_level="0")
    fid = blockade_fidelity(evolve_lindblad(psi0, cfg), psi0, "0", "1")
    assert fid >= 0.999


@pytest.mark.parametrize("rungs", [3, 4, 5])
def test_two_polariton_cz_rejects_wrap_rungs_beside_the_centre(rungs):
    # below 6 rungs the passes inside each stage populate wrap rungs, which the
    # wrap check (sampling between stages) cannot see
    assert {rungs // 2 - 1, rungs // 2 + 1} & set(LadderConfig(rungs=rungs, center=rungs // 2).wrap_rungs())
    with pytest.raises(ValueError, match="rungs next to the centre"):
        two_polariton_cz(rungs=rungs)


# Perturbations of one gate-layer builder each, as replacements of a name in epolsim.gates.
def _pass_angle(build):
    return lambda omega, *args, **kwargs: build(1.01 * omega, *args, **kwargs)


def _pass_transfer(build):
    # only the rung-changing (sin) terms of the pass scaled, so it is no longer unitary
    def perturbed(*args, **kwargs):
        op = build(*args, **kwargs)
        d = op.space.dims[0]
        blocks = op.matrix.reshape(d, op.space.dim // d, d, -1)
        rung = np.arange(d)
        out = 1.01 * blocks
        out[rung, :, rung, :] = blocks[rung, :, rung, :]
        return Operator(op.space, out.reshape(op.space.dim, op.space.dim))

    return perturbed


def _linear_without_conjugate(build):
    def perturbed(g_q, model, ladder):
        b = build_ladder(ladder).matrix
        gen = g_q * np.kron(b.conj().T, model.a) - g_q * np.kron(b, model.a_dag)
        return Operator(ladder.space.tensor(model.space), expm(gen))

    return perturbed


def _rotation_phase(build):
    # every rotation of every z-rotation family, cep_rz's included, at phi + 0.01
    def perturbed(*args, **kwargs):
        rotation = build(*args, **kwargs)
        return lambda phi: rotation(phi + 0.01)

    return perturbed


PERTURBATIONS = {
    "pass angle x1.01": ("scattering_blockade", _pass_angle),
    "pass transfer terms x1.01": ("scattering_blockade", _pass_transfer),
    "linear generator without its conjugate": ("scattering_linear", _linear_without_conjugate),
    "skewed Hadamard": ("HADAMARD", lambda h: h @ np.diag([1.0, cmath.exp(0.01j)])),
    "spectrometer to the other path": ("spectrometer", lambda build: lambda space, center, loss_to_path=0: build(
        space, center, 1 - loss_to_path)),
    "comb phase +0.01": ("comb_state", lambda build: lambda phi, cfg: build(phi + 0.01, cfg)),
    "z-rotation phase +0.01": ("_z_rotations", _rotation_phase),
}

NEGATIVE_CONTROLS = {
    "linear scattering matrix unitary": "linear generator without its conjugate",
    "blockade pass unitary (path-conditioned)": "pass transfer terms x1.01",
    "two passes at relative phase pi/2 give Z (up to phase)": "pass angle x1.01",
    "zero relative phase gives identity (up to phase)": "pass angle x1.01",
    "z-rotation group law (20 random phase pairs)": "pass angle x1.01",
    "quarter-phase gate squared equals half-phase gate": "pass angle x1.01",
    "electron energy marginal restored by z-rotation": "pass angle x1.01",
    "half-turn comb rotation equals -iX": "comb phase +0.01",
    "composite comb rotations give -iH": "skewed Hadamard",
    "comb drive leaves no residual entanglement": "comb phase +0.01",
    "antipodal comb phase inverts the rotation": "comb phase +0.01",
    "controlled-path gate matches its target action": "spectrometer to the other path",
    "electron Hadamard squares to identity": "skewed Hadamard",
    "two-polariton controlled-Z (up to global phase)": "spectrometer to the other path",
    # T and S are factors of the suite's composed z-rotations, so a fault of the z-rotation
    # family, which the suite and cep_rz both build from, must reach the composite
    "H T H S composite matches direct construction": "z-rotation phase +0.01",
    "ladder wrap-around rungs stay unpopulated": "pass angle x1.01",
}


def test_every_identity_has_a_negative_control():
    checks, _ = gate_identity_suite(rungs=RUNGS)
    assert [c.name for c in checks] == list(NEGATIVE_CONTROLS)


@pytest.mark.parametrize("identity", list(NEGATIVE_CONTROLS))
def test_identity_fails_under_its_negative_control(identity, monkeypatch, tmp_path, capsys):
    import epolsim.gates as gates

    name, perturb = PERTURBATIONS[NEGATIVE_CONTROLS[identity]]
    monkeypatch.setattr(gates, name, perturb(getattr(gates, name)))
    checks, _ = gate_identity_suite(rungs=RUNGS)
    [check] = [c for c in checks if c.name == identity]
    assert check.line().startswith("FAIL")
    cfg = normalize_config({"schema_version": 1, "scenario": "gates", "gates": {"rungs": RUNGS}})
    assert run_config(cfg, tmp_path) == 1
    assert identity in capsys.readouterr().err
