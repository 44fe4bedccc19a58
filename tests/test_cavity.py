import math

import numpy as np
import pytest

from epolsim import (
    build_jc,
    build_kerr,
    jc_splitting_factors,
    pair_states,
    polariton_eigenbasis,
    transition_frequency,
)

KAPPA = 0.05


def jc_bare_energies(model):
    """Diagonal of the photon+emitter Hamiltonian (omega = 1, resonant emitter)."""
    n_ph = model.n_cut + 1
    return np.kron(np.arange(n_ph, dtype=float), np.ones(2)) + np.kron(np.ones(n_ph), [-0.5, 0.5])


def test_kerr_diagonal_entries():
    model = build_kerr(KAPPA, 5)
    diag = np.real(np.diag(model.h_nl))
    assert diag[0] == 0.0 and diag[1] == 0.0
    assert abs(diag[2] - 2 * KAPPA) < 1e-15
    assert abs(diag[3] - 6 * KAPPA) < 1e-15


def test_kerr_matches_normal_ordered_form():
    model = build_kerr(KAPPA, 6)
    a = model.a
    direct = KAPPA * a.conj().T @ a.conj().T @ a @ a
    assert np.max(np.abs(model.h_nl - direct)) < 1e-14


def test_cutoff_validation():
    for builder in (build_kerr, build_jc):
        with pytest.raises(ValueError):
            builder(KAPPA, 1)


def test_jc_single_excitation_splitting():
    model = build_jc(KAPPA, 4)
    h = np.diag(jc_bare_energies(model)) + model.h_nl
    evals = np.sort(np.linalg.eigvalsh(h))
    ground = evals[0]
    one_exc = evals[1:3] - ground
    assert np.max(np.abs(np.sort(one_exc) - np.array([1 - KAPPA, 1 + KAPPA]))) < 1e-12


def test_jc_two_excitation_splitting():
    model = build_jc(KAPPA, 4)
    h = np.diag(jc_bare_energies(model)) + model.h_nl
    evals = np.sort(np.linalg.eigvalsh(h))
    ground = evals[0]
    two_exc = np.sort(evals[3:5] - ground)
    expected = np.array([2 - math.sqrt(2) * KAPPA, 2 + math.sqrt(2) * KAPPA])
    assert np.max(np.abs(two_exc - expected)) < 1e-12


def test_jc_ground_state_uncoupled():
    model = build_jc(KAPPA, 3)
    basis = polariton_eigenbasis(model)
    ground = basis.state("0*")
    assert abs(np.vdot(ground, model.h_nl @ ground)) < 1e-15


def test_polariton_basis_kerr_is_identity():
    model = build_kerr(KAPPA, 4)
    basis = polariton_eigenbasis(model)
    assert np.array_equal(basis.u, np.eye(model.dim))
    assert basis.labels[:3] == ("0", "1", "2")


def test_polariton_basis_diagonalizes_jc():
    model = build_jc(KAPPA, 5)
    basis = polariton_eigenbasis(model)
    assert np.max(np.abs(basis.u @ basis.u.conj().T - np.eye(model.dim))) < 1e-12
    h = np.diag(jc_bare_energies(model)) + model.h_nl
    rotated = basis.u.conj().T @ h @ basis.u
    off_diag = rotated - np.diag(np.diag(rotated))
    assert np.max(np.abs(off_diag)) < 1e-10
    # level table frequencies match the eigenvalues relative to the ground level
    ground = np.real(rotated[0, 0])
    assert np.max(np.abs(np.real(np.diag(rotated)) - ground - basis.frequencies)) < 1e-12


def test_jc_polariton_overlap():
    model = build_jc(KAPPA, 3)
    basis = polariton_eigenbasis(model)
    g1 = np.zeros(model.dim)
    g1[2] = 1.0  # |g, 1> in photon-major ordering
    overlap = abs(np.vdot(g1, basis.state("1+"))) ** 2
    assert abs(overlap - 0.5) < 1e-12
    # sign convention: positive real coefficient on |g, n>
    assert np.real(np.vdot(g1, basis.state("1-"))) > 0


def test_transition_frequencies():
    kerr = build_kerr(KAPPA, 4)
    assert abs(transition_frequency(kerr, "1") - 1.0) < 1e-15
    assert abs(transition_frequency(kerr, "2") - (1.0 + 2 * KAPPA)) < 1e-15
    jc = build_jc(KAPPA, 4)
    assert abs(transition_frequency(jc, "1+") - (1.0 + KAPPA)) < 1e-15
    assert abs(transition_frequency(jc, "2-") - (1.0 - (math.sqrt(2) - 1) * KAPPA)) < 1e-12


def test_transition_frequency_errors():
    # no predecessor on the branch, not a level of the model, or above the cutoff
    for model, levels in ((build_kerr(KAPPA, 4), ("0", "0*", "e4", "nope", "5", "9")),
                          (build_jc(KAPPA, 4), ("0", "0*", "e4", "nope", "5+", "5-", "9+"))):
        for level in levels:
            with pytest.raises(KeyError):
                transition_frequency(model, level)


def test_models_carry_their_eigenbasis():
    for model in (build_kerr(KAPPA, 4), build_jc(KAPPA, 4)):
        assert polariton_eigenbasis(model) is model.basis
        assert model.basis.dim == model.dim


def test_kerr_number_commutes_exactly():
    model = build_kerr(KAPPA, 5)
    number = model.a_dag @ model.a
    assert np.array_equal(model.h_nl @ number, number @ model.h_nl)


def test_jc_total_excitation_commutes():
    model = build_jc(KAPPA, 5)
    total = model.a_dag @ model.a + model.sigma_plus @ model.sigma_minus
    comm = model.h_nl @ total - total @ model.h_nl
    assert np.max(np.abs(comm)) < 1e-12


def test_level_spacing_monotonicity():
    kerr = build_kerr(KAPPA, 6)
    spacings = [transition_frequency(kerr, str(n)) for n in range(1, 7)]
    assert all(b > a for a, b in zip(spacings, spacings[1:]))
    jc = build_jc(KAPPA, 6)
    for branch in "+-":
        anharm = [abs(transition_frequency(jc, f"{n}{branch}") - 1.0) for n in range(1, 7)]
        assert all(b < a for a, b in zip(anharm, anharm[1:]))


def test_linear_limit():
    jc = build_jc(0.0, 5)
    basis = polariton_eigenbasis(jc)
    # dressed levels collapse onto the bare harmonic ladder
    assert np.max(np.abs(basis.frequencies - basis.excitations)) < 1e-12
    assert np.max(np.abs(jc.h_nl)) == 0.0
    for model in (build_kerr(0.0, 5), jc):
        labels = ["1", "2", "3"] if model.kind == "kerr" else ["1+", "2-", "3+"]
        for label in labels:
            assert abs(transition_frequency(model, label) - 1.0) < 1e-15


def test_splitting_factors():
    fp, fm = jc_splitting_factors(1)
    assert abs(fp - (math.sqrt(2) + 1)) < 1e-15
    assert abs(fm - (math.sqrt(2) - 1)) < 1e-15
    with pytest.raises(ValueError):
        jc_splitting_factors(-1)


def test_pair_raising_elements():
    kerr = build_kerr(KAPPA, 4)
    _, _, mu01 = pair_states(kerr, "0", "1")
    _, _, mu12 = pair_states(kerr, "1", "2")
    assert abs(mu01 - 1.0) < 1e-12
    assert abs(mu12 - math.sqrt(2)) < 1e-12
    jc = build_jc(KAPPA, 4)
    for upper in ("1+", "1-"):
        _, _, mu = pair_states(jc, "0*", upper)
        assert abs(mu - 1 / math.sqrt(2)) < 1e-12
    # same-branch ladder element carries the large splitting factor
    _, _, mu_up = pair_states(jc, "1-", "2-")
    assert abs(mu_up - (math.sqrt(2) + 1) / 2) < 1e-12


def test_pair_states_rejects_unconnected():
    kerr = build_kerr(KAPPA, 4)
    with pytest.raises(ValueError):
        pair_states(kerr, "0", "2")
