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
from epolsim.gates import CZ_TARGET, HADAMARD, PAULI_X, PAULI_Z, _ancilla_tail, _unitarity_defect
from oracles import (
    cep_rz_target,
    cz_scores,
    lowering,
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
    op = gate_pass(0.5 * math.pi, space, "pol")
    rng = np.random.default_rng(0)
    for _ in range(5):
        anc = _ancilla_tail(space, CENTER, path_index=0)
        chi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        chi /= np.linalg.norm(chi)
        vec = np.kron(anc, chi)
        assert np.max(np.abs(op.matrix @ vec - vec)) < 1e-14


def test_conditioned_pass_unitary():
    space = gate_space(rungs=RUNGS)
    op = gate_pass(0.5 * math.pi * cmath.exp(0.7j), space, "pol")
    assert _unitarity_defect(op.matrix) <= 1e-12


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
    assert _unitarity_defect(router.matrix) <= 1e-14
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
    assert _unitarity_defect(h.matrix) <= 1e-14
    assert np.max(np.abs(h.matrix @ h.matrix - np.eye(space.dim))) < 1e-14
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


def test_cz_calibration_passes_with_its_half_turn_twin_alone():
    # CZ_CALIBRATION's derivation: of k pi/4 x loss_to_path {0, 1}, only pi/4 and 5 pi/4
    # give 2 phi = pi/2 (mod 2 pi) with the loss sector on path 0
    passing = {(k, loss) for k in range(8) for loss in (0, 1)
               if two_polariton_cz(RUNGS, {"pass_phase_difference": k * math.pi / 4, "loss_to_path": loss}).passed}
    assert passing == {(1, 0), (5, 0)}


def test_gate_actions_take_one_svd_each(monkeypatch):
    # the controlled-Z and a comb rotation each read their whole action with one SVD,
    # which gives the entropy and, for the controlled-Z, the ancilla state
    svd = np.linalg.svd
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert two_polariton_cz(rungs=8).passed
    assert shapes == [(16, 16)], shapes
    shapes.clear()
    r_transverse(0.9, 1.3, RUNGS)
    assert shapes == [(RUNGS, 4)], shapes


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
        op = gate_pass(omega, space, qubit).matrix
        assert np.max(np.abs(op - reference_pass(omega, space, qubit, True))) <= 1e-12


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


@pytest.mark.parametrize("rungs", [2, 3, 6, 7, 29])
@pytest.mark.parametrize("conditioned", [True, False])
def test_z_rotation_family_matches_dense_reference(rungs, conditioned):
    # one family on (electron, qubit), put on the near path when conditioned, on the pass's own
    # factors and lifted to the two-qubit space: 20 random phases, the three phases the family
    # samples its passes at and their midpoints, pi among them.  At 2 rungs a pass's rung-down
    # and rung-up blocks add on the same rung blocks, and at 3 they fill every off-diagonal rung
    # block, so only their phases tell the two apart.
    from epolsim.gates import _near_path, _z_rotations

    sampled = 2 * math.pi * np.arange(3) / 3
    phases = [*np.random.default_rng(rungs).uniform(0, 2 * math.pi, size=20), *sampled, *(sampled + math.pi / 3)]
    assert math.pi in phases
    rz = _z_rotations(rungs)
    for space, qubit in ((gate_space(rungs, 1, with_path=conditioned), "pol"), (gate_space(rungs, 2), "pol2")):
        labels = ["electron", "path", qubit] if conditioned else ["electron", qubit]
        for phi in phases:
            rotation = _near_path(rz(phi)) if conditioned else rz(phi)
            ref = reference_cep_rz(phi, space, qubit, conditioned)
            assert np.max(np.abs(embed_group(rotation, labels, space).matrix - ref)) <= 1e-12


@pytest.mark.parametrize("rungs", [6, 7, 29])
def test_cep_rz_on_the_two_qubit_space(rungs):
    # the call the benchmark's controlled-Z check makes: one phase, the full joint space
    space = gate_space(rungs, 2, True)
    op = cep_rz(0.5 * math.pi, space, "pol1")
    assert isinstance(op, Operator) and op.space == space
    assert np.max(np.abs(op.matrix - reference_cep_rz(0.5 * math.pi, space, "pol1", True))) <= 1e-12


def test_identity_suite_builds_each_first_pass_once(monkeypatch):
    # each z-rotation family builds three passes, whatever the number of rotations drawn
    # from it, and the Z line composes its own two, at a phase no family samples: 17 pass
    # builds at 8 rungs, where building two passes for each of the 68 rotations made 82
    # (149 with the first pass rebuilt every time)
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
    assert len(passes) <= 17, f"{len(passes)} pass builds"
    assert lifts, "the electron Hadamard's lifts were not seen"


def test_identity_suite_makes_three_pass_products_per_z_rotation_family(monkeypatch):
    # a rotation is T_0 + e^{i phi} T_1 + e^{-i phi} T_-1, so a family multiplies three
    # (2 rungs)-sized matrices once and none per rotation.  At 8 rungs the suite draws on
    # two families (its own and the controlled-Z's), its group-law and quarter-phase
    # checks multiply 21 rotation pairs, and the Z line multiplies its two passes; a second
    # pass multiplied into the first for each rotation made 91 products.  Matrices built
    # from a pass stay recorded through every ufunc, and the rotations a family returns are
    # marked, so that their products are counted apart.
    import epolsim.gates as gates

    rungs = 8
    square = (2 * rungs, 2 * rungs)
    products = []

    class Recorded(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = [np.asarray(x) for x in inputs]
            if ufunc is np.matmul and all(x.shape == square for x in plain):
                products.append("rotation" if all(isinstance(x, Rotation) for x in inputs) else "pass-derived")
            out = getattr(ufunc, method)(*plain, **kwargs)
            return out.view(Recorded) if isinstance(out, np.ndarray) else out

    class Rotation(Recorded):
        pass

    def recorded(build):
        def wrapper(*args, **kwargs):
            op = build(*args, **kwargs)
            return SimpleNamespace(space=op.space, matrix=op.matrix.view(Recorded))

        return wrapper

    def marked(build):
        def family(*args, **kwargs):
            rotation = build(*args, **kwargs)
            return lambda phi: np.asarray(rotation(phi)).view(Rotation)

        return family

    monkeypatch.setattr(gates, "scattering_blockade", recorded(gates.scattering_blockade))
    monkeypatch.setattr(gates, "_z_rotations", marked(gates._z_rotations))
    checks, report = gate_identity_suite(rungs=rungs)
    assert all(c.passed for c in checks) and report.passed
    assert products.count("rotation") == 21, f"{products.count('rotation')} rotation products"
    assert len(products) <= 3 * 2 + 21 + 1, f"{len(products)} (2 rungs)-sized products"


@pytest.mark.parametrize("rungs", [7, 41])
@pytest.mark.parametrize("loss_to", [0, 1])
def test_cpe_path_makes_no_product_beyond_two_rungs(monkeypatch, rungs, loss_to):
    # composed per path on (electron, qubit): the far path's blocks are gathers of the second
    # pass, and the near path's two blocks split one (2 rungs)-sized product between them, where
    # the two (4 rungs)-sized products of the lifted gates took 16 times the work.  Products of
    # the passes' matrices are recorded through every ufunc.
    import epolsim.gates as gates

    products = []

    class Recorded(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = [np.asarray(x) for x in inputs]
            if ufunc is np.matmul:
                products.append(tuple(x.shape for x in plain))
            out = getattr(ufunc, method)(*plain, **kwargs)
            return out.view(Recorded) if isinstance(out, np.ndarray) else out

    def recorded(build):
        def wrapper(*args, **kwargs):
            op = build(*args, **kwargs)
            return SimpleNamespace(space=op.space, matrix=op.matrix.view(Recorded))

        return wrapper

    monkeypatch.setattr(gates, "scattering_blockade", recorded(gates.scattering_blockade))
    center = rungs // 2
    space = gate_space(rungs, 1, True)
    op = cpe_path(space, center, "pol", phase_first=0.6, loss_to_path=loss_to)
    assert np.max(np.abs(op.matrix - reference_cpe_path(space, center, "pol", 0.6, loss_to))) <= 1e-12
    assert products, "the passes' products were not seen"
    largest = max(max(shape) for pair in products for shape in pair)
    assert largest <= 2 * rungs, f"a product of a {largest}-sized matrix"
    work = sum(a[0] * a[1] * b[1] for a, b in products)
    assert work <= (2 * rungs) ** 3, f"{work} multiply-adds"


@pytest.mark.parametrize("rungs", [7, 18])
@pytest.mark.parametrize("calibration", [None, {"pass_phase_difference": math.pi / 4 + 0.25, "loss_to_path": 0}])
def test_two_polariton_cz_matches_dense_circuit(rungs, calibration):
    # the four-column evaluation against the dense u = h rz1 h rz2 cpe
    report = two_polariton_cz(rungs=rungs, calibration=calibration)
    # on its whole map; 25 probe inputs must read the same product wherever the report does
    ref_calibration, whole, probes = reference_cz(rungs, calibration)
    assert report.calibration == ref_calibration
    assert np.max(np.abs(report.induced - whole.induced)) <= 1e-12
    assert np.max(np.abs(report.ancilla_state - whole.ancilla)) <= 1e-12
    assert abs(report.ancilla_entropy - whole.entropy) <= 1e-12
    assert report.ancilla_entropy <= 1e-10 and probes.entropy <= 1e-10
    assert np.max(np.abs(probes.induced - whole.induced)) <= 1e-12


def test_two_polariton_cz_makes_no_full_space_operator_product(monkeypatch):
    # at 41 rungs the joint space has 41 * 8 = 328 dimensions; gates compose on the
    # factors they touch and the circuit acts on four input columns.  The products of
    # every matrix built from a pass or the electron Hadamard are recorded through every
    # ufunc, and so are the lifts of any operator onto the full space.
    import epolsim.gates as gates
    import epolsim.tensor as tensor

    full = (328, 328)
    matrix_products = []

    class Recorded(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = [np.asarray(x) for x in inputs]
            if ufunc is np.matmul:
                matrix_products.append(tuple(x.shape for x in plain))
            out = getattr(ufunc, method)(*plain, **kwargs)
            return out.view(Recorded) if isinstance(out, np.ndarray) else out

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

    for name in ("electron_hadamard", "scattering_blockade"):
        monkeypatch.setattr(gates, name, recorded(getattr(gates, name)))
    # gates lifts with its own embed_group, the electron Hadamard included; tensor's is
    # wrapped too, so that a lift through any other tensor path would be counted
    for module in (gates, tensor):
        monkeypatch.setattr(module, "embed_group", lifted(module.embed_group))
    assert two_polariton_cz(rungs=41).passed
    two = 2 * 41  # (electron, qubit)
    assert ((two, two), (two, two)) in matrix_products, "the z-rotation family's products were not seen"
    assert ((two, two - 2), (two - 2, two)) in matrix_products, "the controlled-path gate's product was not seen"
    assert lifts, "the stages' lifts were not seen"
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


def _pass_transfer(scale):
    # only the rung-changing (sin) terms of a pass at omega scaled, by scale(arg omega),
    # so it is no longer unitary
    def perturb(build):
        def perturbed(omega, *args, **kwargs):
            op = build(omega, *args, **kwargs)
            d = op.space.dims[0]
            blocks = op.matrix.reshape(d, op.space.dim // d, d, -1)
            rung = np.arange(d)
            out = scale(cmath.phase(omega)) * blocks
            out[rung, :, rung, :] = blocks[rung, :, rung, :]
            return Operator(op.space, out.reshape(op.space.dim, op.space.dim))

        return perturbed

    return perturb


def _linear_without_conjugate(build):
    def perturbed(g_q, model, ladder):
        b = lowering(ladder.rungs)
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
    "pass transfer terms x1.01": ("scattering_blockade", _pass_transfer(lambda arg: 1.01)),
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


def test_cz_entropy_fails_an_entangling_pass_fault(monkeypatch):
    # every calibration of the ideal passes leaves the ancilla a product, so the entropy
    # criterion is seen at work under a pass fault that entangles it.  The report's
    # entropy must be the Schmidt entropy of the dense circuit composed from the same
    # (perturbed) public builders on the full space, and 25 probe inputs must see it too.
    import epolsim.gates as gates

    name, perturb = PERTURBATIONS["pass angle x1.01"]
    monkeypatch.setattr(gates, name, perturb(getattr(gates, name)))
    rungs, center = 8, 4
    report = two_polariton_cz(rungs=rungs)
    space = gate_space(rungs, 2, True)
    cpe = cpe_path(space, center, "pol1", phase_first=math.pi / 4, loss_to_path=0).matrix
    h = electron_hadamard(space).matrix
    u = h @ cep_rz(0.5 * math.pi, space, "pol1").matrix @ h @ cep_rz(0.5 * math.pi, space, "pol2").matrix @ cpe
    whole, probes = cz_scores(u, rungs)
    assert report.ancilla_entropy > 1e-10 and not report.passed
    assert abs(report.ancilla_entropy - whole.entropy) <= 1e-12
    assert probes.entropy > 1e-10


def test_z_rotation_family_sees_a_pass_fault_beyond_degree_one(monkeypatch):
    # the family reads the pass at three phases and takes it to be degree one in
    # e^{i arg omega}; a fault with a second harmonic in arg omega is not, and every line
    # drawing on a z-rotation family must still fail
    import epolsim.gates as gates

    fault = _pass_transfer(lambda arg: 1 + 0.01 * math.cos(2 * arg))
    monkeypatch.setattr(gates, "scattering_blockade", fault(gates.scattering_blockade))
    checks, _ = gate_identity_suite(rungs=RUNGS)
    family_lines = {
        "two passes at relative phase pi/2 give Z (up to phase)",
        "zero relative phase gives identity (up to phase)",
        "z-rotation group law (20 random phase pairs)",
        "quarter-phase gate squared equals half-phase gate",
        "electron energy marginal restored by z-rotation",
        "two-polariton controlled-Z (up to global phase)",
        "H T H S composite matches direct construction",
    }
    assert family_lines <= {c.name for c in checks if not c.passed}


def test_pass_fault_the_family_cannot_sample_still_fails_the_suite(monkeypatch):
    # a fault that vanishes at arg omega = 0, 2 pi/3 and 4 pi/3 leaves the three passes a
    # family reads exact, so the family's own lines pass; the passes built at other
    # phases (the Z line's second pass at pi/2, the path-conditioned unitarity check, the
    # comb rotations and the controlled-Z's controlled-path gate) must still fail the suite
    import epolsim.gates as gates

    fault = _pass_transfer(lambda arg: 1 + 0.01 * (math.cos(3 * arg) - 1))
    monkeypatch.setattr(gates, "scattering_blockade", fault(gates.scattering_blockade))
    checks, report = gate_identity_suite(rungs=RUNGS)
    failed = {c.name for c in checks if not c.passed}
    assert {"two passes at relative phase pi/2 give Z (up to phase)", "blockade pass unitary (path-conditioned)",
            "composite comb rotations give -iH", "two-polariton controlled-Z (up to global phase)"} <= failed, failed
    assert not report.passed
