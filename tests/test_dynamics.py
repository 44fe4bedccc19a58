import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from epolsim import (
    ConvergenceError,
    CutoffError,
    IntegratorConfig,
    LadderConfig,
    NumericsError,
    StateVector,
    SystemConfig,
    TraceDriftError,
    WrapAroundError,
    blockade_angle,
    blockade_fidelity,
    build_jc,
    build_kerr,
    build_ladder,
    check_feasibility,
    comb_state,
    eels_spectrum,
    evolve_lindblad,
    frame_align,
    initial_state,
    pair_detuning,
    pair_states,
    polariton_eigenbasis,
    polariton_statistics,
    scattering_blockade,
    scattering_linear,
    sideband_distribution,
    state_fidelity,
)

from epolsim import dynamics
from epolsim.tensor import DensityMatrix, partial_trace
from oracles import (
    poisson_reference,
    reference_chain_generator,
    reference_expm_action,
    reference_lindblad,
    reference_steps,
)


def small_kerr(kappa=0.05, n_cut=4, g_q=1.0, delta=0.0, gamma=0.0, t=40.0, rungs=9):
    return SystemConfig(
        model=build_kerr(kappa, n_cut),
        ladder=LadderConfig(rungs=rungs, center=rungs // 2),
        g_q=g_q,
        interaction_time=t,
        delta=delta,
        gamma=gamma,
    )


def small_jc(kappa=0.05, n_cut=4, g_q=1.0, delta=0.0, gamma=0.0, t=40.0, rungs=9):
    return SystemConfig(
        model=build_jc(kappa, n_cut),
        ladder=LadderConfig(rungs=rungs, center=rungs // 2),
        g_q=g_q,
        interaction_time=t,
        delta=delta,
        gamma=gamma,
    )


LOOSE = IntegratorConfig(cutoff_bound=1.0, wrap_bound=1.0)


# ---------------------------------------------------------------------------
# propagator cross-checks


def test_linear_lossless_evolution_gives_unit_mean_photon():
    cfg = small_kerr(kappa=0.0, n_cut=12, g_q=1.0, rungs=27)
    res = evolve_lindblad(initial_state(cfg), cfg)
    mean = float(np.arange(13) @ res.diagnostics.photon_populations)
    assert abs(mean - 1.0) < 1e-3


def test_zero_coupling_freezes_populations():
    cfg = small_kerr(g_q=0.0, kappa=0.08)
    rng = np.random.default_rng(0)
    amps = rng.standard_normal(cfg.space.dim) + 1j * rng.standard_normal(cfg.space.dim)
    psi0 = StateVector(cfg.space, amps / np.linalg.norm(amps))
    res = evolve_lindblad(psi0, cfg, LOOSE)
    before = np.abs(psi0.amplitudes) ** 2
    after = np.real(np.diag(res.state.matrix))
    assert np.max(np.abs(before - after)) < 1e-10


def test_pure_decay_matches_exponential():
    gamma, t = 0.02, 30.0
    cfg = small_kerr(g_q=0.0, kappa=0.0, gamma=gamma, t=t, n_cut=3)
    res = evolve_lindblad(initial_state(cfg, cavity_level="1"), cfg)
    p1 = res.diagnostics.photon_populations[1]
    assert abs(p1 - math.exp(-gamma * t)) < 1e-6


@pytest.mark.parametrize("make", [small_kerr, small_jc])
def test_fast_engine_matches_reference_propagator(make):
    # bare-basis fixed-step integration with the static nonlinear Hamiltonian
    # kept inside the generator, versus the rotated-frame production engine
    cfg = make(kappa=0.05, n_cut=4, g_q=1.2, delta=0.05, gamma=0.004, t=50.0)
    psi0 = initial_state(cfg)
    rho_ref = reference_lindblad(cfg, np.outer(psi0.amplitudes, psi0.amplitudes.conj()), reference_steps(cfg))
    res = evolve_lindblad(psi0, cfg, LOOSE)
    assert np.max(np.abs(res.state.matrix - rho_ref)) < 1e-8


@pytest.mark.parametrize("make", [small_kerr, small_jc])
def test_bare_and_eigenframe_propagation_agree_for_pure_states(make):
    # lossless case: the production engine (eigenframe, pure-state path) and
    # the bare-basis reference must agree to unit fidelity
    cfg = make(kappa=0.05, n_cut=4, g_q=1.1, delta=0.03, gamma=0.0, t=45.0)
    psi0 = initial_state(cfg)
    rho_ref = reference_lindblad(cfg, np.outer(psi0.amplitudes, psi0.amplitudes.conj()), reference_steps(cfg))
    res = evolve_lindblad(psi0, cfg, LOOSE)
    assert res.pure_state is not None
    overlap = np.vdot(res.pure_state.amplitudes, rho_ref @ res.pure_state.amplitudes)
    assert overlap.real >= 1.0 - 1e-10


def test_full_path_matches_reference_for_comb_input():
    # comb electron states carry coherence between excitation sectors, forcing
    # the general (non-block-diagonal) propagation path
    cfg = small_kerr(kappa=0.06, n_cut=3, g_q=0.8, gamma=0.01, t=25.0, rungs=7)
    comb = comb_state(2 * math.pi / 7, cfg.ladder).amplitudes
    cav = np.zeros(cfg.model.dim)
    cav[0] = 1.0
    psi0 = StateVector(cfg.space, np.kron(comb, cav))
    rho_ref = reference_lindblad(cfg, np.outer(psi0.amplitudes, psi0.amplitudes.conj()), reference_steps(cfg))
    res = evolve_lindblad(psi0, cfg, IntegratorConfig(cutoff_bound=1.0, wrap_bound=1.0))
    assert np.max(np.abs(res.state.matrix - rho_ref)) < 1e-8


def test_sector_mixture_uses_block_path_and_matches_reference():
    cfg = small_kerr(kappa=0.05, n_cut=3, g_q=0.9, gamma=0.006, t=30.0)
    l0 = cfg.ladder.center
    m = cfg.model.dim
    rho0 = np.zeros((cfg.space.dim, cfg.space.dim), dtype=complex)
    rho0[l0 * m, l0 * m] = 0.5
    rho0[(l0 + 1) * m, (l0 + 1) * m] = 0.5
    rho_ref = reference_lindblad(cfg, rho0, reference_steps(cfg))
    res = evolve_lindblad(DensityMatrix(cfg.space, rho0), cfg, LOOSE)
    assert np.max(np.abs(res.state.matrix - rho_ref)) < 1e-8


def test_pure_and_density_paths_agree():
    cfg = small_kerr(kappa=0.04, n_cut=4, g_q=1.1, gamma=0.0, t=35.0)
    psi0 = initial_state(cfg)
    res_pure = evolve_lindblad(psi0, cfg, LOOSE)
    res_dense = evolve_lindblad(psi0.to_density(), cfg, LOOSE)
    assert res_pure.pure_state is not None
    assert np.max(np.abs(res_pure.state.matrix - res_dense.state.matrix)) < 1e-8


def test_fixed_step_runs_are_deterministic():
    # the exact propagator has no step size; two default runs must agree bit for bit
    cfg = small_kerr(kappa=0.03, n_cut=4, g_q=1.0, gamma=0.002, t=30.0)
    a = evolve_lindblad(initial_state(cfg), cfg, LOOSE).blocks
    b = evolve_lindblad(initial_state(cfg), cfg, LOOSE).blocks
    assert a.keys() == b.keys()
    assert all(np.array_equal(a[key], b[key]) for key in a)


def photon_distribution(res, cfg) -> np.ndarray:
    keep = [lab for lab in cfg.space.labels if lab != "electron"]
    cav = np.real(np.diag(partial_trace(res.state, keep).matrix))
    return cav.reshape(cfg.model.n_cut + 1, -1).sum(axis=1)


@pytest.mark.parametrize("make", [small_kerr, small_jc])
@pytest.mark.parametrize("gamma", [0.0, 0.004])
def test_photon_diagnostics_match_returned_state(make, gamma):
    # photon populations, and the cutoff occupancy read from them, describe the
    # returned state; for JC adag a does not commute with H_nl, so a rotated frame shows
    cfg = make(kappa=0.05, n_cut=4, g_q=1.2, delta=0.05, gamma=gamma, t=50.0)
    res = evolve_lindblad(initial_state(cfg), cfg, LOOSE)
    want = photon_distribution(res, cfg)
    assert np.max(np.abs(res.diagnostics.photon_populations - want)) < 1e-10
    assert abs(res.diagnostics.cutoff_occupancy - want[-2:].sum()) < 1e-10


PAIRS = {"kerr": ("0", "1"), "jc": ("0*", "1+")}


@pytest.mark.parametrize("make", [small_kerr, small_jc])
@pytest.mark.parametrize("gamma", [0.0, 0.004])
@pytest.mark.parametrize("two_sectors", [False, True])
def test_sector_scores_match_dense_state(make, gamma, two_sectors):
    # the blockade fidelity and the populations the CLI reports, read from the
    # sector blocks, against the dense route through the joint-space state
    cfg = make(kappa=0.05, n_cut=4, g_q=1.2, delta=0.05, gamma=gamma, t=50.0)
    lower, upper = PAIRS[cfg.model.kind]
    psi0 = initial_state(cfg, cavity_level=lower)
    if two_sectors:  # a second sector, one rung up: off-diagonal blocks enter
        amp = psi0.amplitudes + np.roll(psi0.amplitudes, cfg.model.dim) * np.exp(0.7j)
        psi0 = StateVector(cfg.space, amp / math.sqrt(2))
    res = evolve_lindblad(psi0, cfg, LOOSE)
    assert any(k != q for k, q in res.blocks) == two_sectors
    lo, up, _ = pair_states(cfg.model, lower, upper)
    omega = blockade_angle(cfg.model, lower, upper, cfg.g_q)
    target = (scattering_blockade(omega, lo, up, cfg.space) @ psi0).normalize()
    dense = state_fidelity(frame_align(res.state, cfg), target)
    assert abs(blockade_fidelity(res, psi0, lower, upper) - dense) < 1e-12
    diag = res.diagnostics
    eels = eels_spectrum(res.state, center=cfg.ladder.center)
    reported = sideband_distribution(diag.electron_populations, cfg.ladder.center)
    assert reported.labels == eels.labels
    assert np.max(np.abs(reported.probabilities - eels.probabilities)) < 1e-12
    stats = polariton_statistics(res.state, polariton_eigenbasis(cfg.model))
    assert np.max(np.abs(stats.probabilities - diag.level_populations)) < 1e-12


# ---------------------------------------------------------------------------
# closed-form scattering matrices


def test_linear_scattering_identity_at_zero_coupling():
    cfg = small_kerr(n_cut=4)
    s = scattering_linear(0.0, cfg.model, cfg.ladder)
    assert np.max(np.abs(s.matrix - np.eye(cfg.space.dim))) < 1e-14


def test_linear_scattering_unitary():
    cfg = small_kerr(n_cut=6, rungs=11)
    s = scattering_linear(math.pi / 2, cfg.model, cfg.ladder)
    assert s.unitarity_defect() <= 1e-12


def test_linear_scattering_photon_statistics_poissonian():
    model = build_kerr(0.0, 12)
    ladder = LadderConfig(rungs=41, center=20)
    g_q = 1.0
    s = scattering_linear(g_q, model, ladder)
    cfg = SystemConfig(model=model, ladder=ladder, g_q=g_q, interaction_time=1.0)
    out = s @ initial_state(cfg)
    stats = polariton_statistics(out.normalize().to_density(), polariton_eigenbasis(model))
    poisson = poisson_reference(abs(g_q) ** 2, 12)
    assert stats.labels == poisson.labels
    tv = 0.5 * float(np.abs(stats.probabilities - poisson.probabilities).sum())
    assert tv < 1e-6


def test_blockade_scattering_identity_and_unitarity():
    cfg = small_kerr(n_cut=4)
    lo, up, _ = pair_states(cfg.model, "0", "1")
    s0 = scattering_blockade(0.0, lo, up, cfg.space)
    assert np.max(np.abs(s0.matrix - np.eye(cfg.space.dim))) < 1e-14
    s = scattering_blockade(0.5 * math.pi * np.exp(0.3j), lo, up, cfg.space)
    assert s.unitarity_defect() <= 1e-12


def test_blockade_scattering_full_transfer():
    cfg = small_kerr(n_cut=4)
    lo, up, _ = pair_states(cfg.model, "0", "1")
    arg = 0.4
    s = scattering_blockade(0.5 * math.pi * np.exp(1j * arg), lo, up, cfg.space)
    psi0 = initial_state(cfg)
    out = s @ psi0
    m = cfg.model.dim
    idx = (cfg.ladder.center - 1) * m + 1
    expected = -1j * np.exp(1j * arg)
    assert abs(out.amplitudes[idx] - expected) < 1e-12
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_blockade_scattering_matches_exponential_oracle():
    # the closed form is the exponential of the pair-restricted generator
    cfg = small_jc(n_cut=3)
    lo, up, _ = pair_states(cfg.model, "0*", "1+")
    omega = 0.77 * np.exp(0.9j)
    b = build_ladder(cfg.ladder).matrix
    gen = -1j * (
        omega * np.kron(b, np.outer(up, lo.conj()))
        + np.conj(omega) * np.kron(b.conj().T, np.outer(lo, up.conj()))
    )
    direct = expm(gen)
    s = scattering_blockade(omega, lo, up, cfg.space)
    assert np.max(np.abs(s.matrix - direct)) < 1e-12


@pytest.mark.parametrize("m", [3, 9, 22, 42])
def test_pair_rotation_blocks_sum_to_the_pair_exponential(m):
    # blockade_fidelity's sector pass: the sum of the three blocks scattering_blockade writes
    rng = np.random.default_rng(m)
    for _ in range(3):
        q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        lo, up = q[:, 0], q[:, 1]
        r = np.outer(up, lo.conj())
        for omega in (0.0, 0.5 * math.pi, complex(rng.uniform(0, 3), rng.uniform(-3, 3))):
            want = expm(-1j * (omega * r + np.conj(omega) * r.conj().T))
            assert np.max(np.abs(sum(dynamics._pair_rotation(omega, lo, up)) - want)) <= 1e-13


def test_blockade_scattering_validates_pair():
    cfg = small_kerr(n_cut=4)
    lo, up, _ = pair_states(cfg.model, "0", "1")
    with pytest.raises(ValueError):
        scattering_blockade(1.0, lo, 0.5 * up, cfg.space)
    with pytest.raises(ValueError):
        scattering_blockade(1.0, lo, lo, cfg.space)


def test_linear_limit_matches_closed_form():
    cfg = small_kerr(kappa=0.0, n_cut=12, g_q=1.0, rungs=27, t=60.0)
    psi0 = initial_state(cfg)
    res = evolve_lindblad(psi0, cfg)
    target = (scattering_linear(cfg.g_q, cfg.model, cfg.ladder) @ psi0).normalize()
    assert state_fidelity(res.state, target) >= 1.0 - 1e-6


# ---------------------------------------------------------------------------
# frame alignment


def test_frame_align_identity_on_kerr_ground_pair():
    cfg = small_kerr(kappa=0.07)
    psi0 = initial_state(cfg)
    lo, up, _ = pair_states(cfg.model, "0", "1")
    rotated = scattering_blockade(0.8, lo, up, cfg.space) @ psi0
    aligned = frame_align(rotated, cfg)
    # the ground pair has zero nonlinear shift, so nothing changes there
    assert np.max(np.abs(aligned.amplitudes - rotated.amplitudes)) < 1e-12


def test_frame_align_jc_branch_phase():
    # diagonalization oracle: |1+> acquires exp(+i kappa T) relative to |0*>
    cfg = small_jc(kappa=0.05, t=13.0)
    basis = polariton_eigenbasis(cfg.model)
    vec = (basis.state("0*") + basis.state("1+")) / math.sqrt(2)
    full = np.zeros(cfg.space.dim, dtype=complex)
    m = cfg.model.dim
    l0 = cfg.ladder.center
    full[l0 * m : (l0 + 1) * m] = vec
    aligned = frame_align(StateVector(cfg.space, full), cfg)
    block = aligned.amplitudes[l0 * m : (l0 + 1) * m]
    c0 = complex(np.vdot(basis.state("0*"), block))
    c1 = complex(np.vdot(basis.state("1+"), block))
    ratio = c1 / c0
    assert abs(ratio - np.exp(1j * cfg.model.kappa * cfg.interaction_time)) < 1e-12


def test_frame_align_round_trip():
    cfg = small_jc(kappa=0.04, gamma=0.0)
    rng = np.random.default_rng(3)
    m = rng.standard_normal((cfg.space.dim, cfg.space.dim))
    m = m @ m.T
    rho = DensityMatrix(cfg.space, (m / np.trace(m)).astype(complex))
    back = frame_align(frame_align(rho, cfg), cfg, time=-cfg.interaction_time)
    assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-12


# ---------------------------------------------------------------------------
# integrator hygiene


def test_auto_steps_floor():
    # the step controls of the retired fixed-step integrator are accepted at their defaults only
    IntegratorConfig(steps=None, phase_per_step=0.12, drive_per_step=0.04)
    with pytest.raises(ValueError):
        IntegratorConfig(steps=10)
    with pytest.raises(ValueError, match="phase_per_step"):
        IntegratorConfig(phase_per_step=0.06)
    with pytest.raises(ValueError, match="drive_per_step"):
        IntegratorConfig(drive_per_step=0.02)


def gate_and_work(cfg):
    """(halving_delta, steps) of a checked run, and steps of an unchecked one."""
    on = evolve_lindblad(initial_state(cfg), cfg, LOOSE).diagnostics
    off = evolve_lindblad(initial_state(cfg), cfg, IntegratorConfig(convergence_check=False, cutoff_bound=1.0,
                                                                    wrap_bound=1.0)).diagnostics
    assert off.halving_delta is None
    return on.halving_delta, on.steps, off.steps


def test_step_halving_gate_reports_small_delta():
    # lossy: the chain against the closed-form depth 0 and the cavity's own Lindblad
    # marginal; they differ in rounding, so the gate reads a small nonzero value.
    # steps counts the products with the chain generator: the marginal rides in the
    # same products, and the depth-0 exponential is not one, so the check adds none.
    delta, steps_on, steps_off = gate_and_work(small_kerr(kappa=0.05, g_q=1.2, gamma=0.003, t=60.0))
    assert 0.0 < delta < 1e-6
    assert 1 <= steps_off == steps_on


def test_lossless_accuracy_gate_reports_small_delta():
    # lossless: expm against the eigendecomposition; steps counts the exponentials
    delta, steps_on, steps_off = gate_and_work(small_kerr(kappa=0.05, g_q=1.2, t=60.0))
    assert 0.0 < delta < 1e-6
    assert (steps_off, steps_on) == (1, 2)


def test_trace_and_positivity_bounds_on_lossy_run():
    cfg = small_kerr(kappa=0.05, g_q=1.0, gamma=0.01, t=50.0)
    res = evolve_lindblad(initial_state(cfg), cfg, LOOSE)
    assert res.diagnostics.trace_error <= 1e-8
    assert res.diagnostics.min_eigenvalue >= -1e-8
    # the batched positivity check reads exactly what one eigvalsh per sector block reads
    assert res.diagnostics.min_eigenvalue == min(float(np.linalg.eigvalsh(x)[0]) for x in res.blocks.values())


def test_cutoff_error_raised_for_small_photon_space():
    cfg = small_kerr(kappa=0.0, n_cut=3, g_q=1.5, rungs=21, t=40.0)
    with pytest.raises(CutoffError):
        evolve_lindblad(initial_state(cfg), cfg)


def test_wraparound_error_raised_for_narrow_ladder():
    cfg = small_kerr(kappa=0.0, n_cut=8, g_q=1.5, rungs=5, t=40.0)
    with pytest.raises(WrapAroundError):
        evolve_lindblad(initial_state(cfg), cfg, IntegratorConfig(cutoff_bound=1.0))


def test_convergence_error_raised_for_unresolved_drive(monkeypatch):
    # scale the Hamiltonian of the lossless check route by 1 + 1e-5: the gate must trip
    cfg = small_kerr(kappa=0.05, n_cut=4, g_q=1.2, t=60.0)
    assert evolve_lindblad(initial_state(cfg), cfg, LOOSE).diagnostics.halving_delta < 1e-6
    exact = dynamics._unitary_eigh
    monkeypatch.setattr(dynamics, "_unitary_eigh", lambda h, t: exact(h * (1 + 1e-5), t))
    with pytest.raises(ConvergenceError):
        evolve_lindblad(initial_state(cfg), cfg, LOOSE)


def test_convergence_error_raised_for_perturbed_loss_chain(monkeypatch):
    # stretch the window of the loss chain's one series by 1e-5 of T: the chain and its
    # marginal still agree, and the closed-form depth 0 at T must trip the gate
    cfg = small_kerr(kappa=0.05, n_cut=4, g_q=1.2, gamma=0.003, t=60.0)
    exact = dynamics._chebyshev_plan
    monkeypatch.setattr(dynamics, "_chebyshev_plan", lambda gen, box, t, *pieces: exact(gen, box, t * (1 + 1e-5), *pieces))
    with pytest.raises(ConvergenceError):
        evolve_lindblad(initial_state(cfg), cfg, LOOSE)


def test_convergence_error_raised_for_chain_hamiltonian_fault(monkeypatch):
    # a Hermitian 1e-4 n error in the Hamiltonian of every chain block keeps the trace;
    # the marginal, built apart from the chain, must disagree
    cfg = small_kerr(kappa=0.05, n_cut=4, g_q=1.2, gamma=0.003, t=60.0)
    exact = dynamics._chain_generator

    def faulty(sec, blocks, *marginal):
        gen = exact(sec, blocks, *marginal)
        n, eye = np.diag(sec.n_photon.astype(float)), np.eye(sec.m)
        fault = sp.kron(sp.identity(blocks), -1e-4j * (np.kron(n, eye) - np.kron(eye, n)), format="csr")
        fault.resize(gen.shape)
        return (gen + fault).tocsr()

    monkeypatch.setattr(dynamics, "_chain_generator", faulty)
    with pytest.raises(ConvergenceError):
        evolve_lindblad(initial_state(cfg), cfg, LOOSE)


def test_jump_on_the_diagonal_block_trips_the_gate(monkeypatch):
    # photon loss kept on each depth instead of moving it one depth down: the trace and
    # the depths' sum are right, and only the closed-form depth 0 can see the fault
    cfg = small_kerr(kappa=0.05, n_cut=4, g_q=1.2, gamma=0.003, t=60.0)

    def faulty(sec, blocks, *marginal):
        gen = reference_chain_generator(sec, blocks, jump_down=0)
        if not marginal:
            return gen
        rows, cols, values = marginal[0]
        return sp.block_diag([gen, sp.csr_matrix((values, (rows, cols)), shape=(sec.m**2,) * 2)], format="csr")

    monkeypatch.setattr(dynamics, "_chain_generator", faulty)
    with pytest.raises((ConvergenceError, TraceDriftError)):
        evolve_lindblad(initial_state(cfg), cfg, LOOSE)


def test_lossy_point_makes_one_series(monkeypatch):
    # a point whose chain is not regrown plans and applies one Chebyshev series, check included
    cfg = small_kerr(kappa=0.05, n_cut=4, g_q=1.2, gamma=0.003, t=60.0)
    calls = []
    for name in ("_chebyshev_plan", "_chebyshev_action"):
        exact = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name, lambda *args, exact=exact, name=name: calls.append(name) or exact(*args))
    assert evolve_lindblad(initial_state(cfg), cfg, LOOSE).diagnostics.halving_delta < 1e-12
    assert calls == ["_chebyshev_plan", "_chebyshev_action"]


def test_series_cut_short_trips_a_bound(monkeypatch):
    # every series of the loss chain cut to 90% of its degree.  At rho T ~ 670 the cut
    # reaches below the Bessel turning point of the coefficients, and the trace bound
    # or the gate must trip; at the lossy-map points' rho T ~ 330 the same cut leaves
    # errors near 4e-9, under both bounds.
    cfg = SystemConfig(model=build_kerr(0.025, 8), ladder=LadderConfig(rungs=33, center=16), g_q=math.pi / 2,
                       interaction_time=472.43, gamma=1e-4)
    assert evolve_lindblad(initial_state(cfg), cfg, LOOSE).diagnostics.trace_error < 1e-8
    exact = dynamics._chebyshev_plan

    def cut(*args):
        plan = exact(*args)
        return plan._replace(coeffs=plan.coeffs[: int(0.9 * len(plan.coeffs))])

    monkeypatch.setattr(dynamics, "_chebyshev_plan", cut)
    with pytest.raises((ConvergenceError, TraceDriftError)):
        evolve_lindblad(initial_state(cfg), cfg, LOOSE)


def test_trace_drift_error_raised_for_cut_loss_chain(monkeypatch):
    # a chain cut after its first block, and kept there whatever its sink reads,
    # drops the population every photon loss moves down
    cfg = small_kerr(kappa=0.05, n_cut=3, g_q=0.9, gamma=0.05, t=30.0)
    assert evolve_lindblad(initial_state(cfg), cfg, LOOSE).diagnostics.trace_error < 1e-8
    monkeypatch.setattr(dynamics, "_chain_blocks", lambda sec: 1)
    monkeypatch.setattr(dynamics, "CHAIN_TAIL", math.inf)
    with pytest.raises(TraceDriftError):
        evolve_lindblad(initial_state(cfg), cfg, LOOSE)


def test_loss_chain_grows_until_its_sink_is_empty(monkeypatch):
    # a first guess of one block: the sink reads the population that leaves it, and the
    # chain doubles until that is below CHAIN_TAIL, short of the 33-rung cyclic ladder
    cfg = small_kerr(kappa=0.05, n_cut=3, g_q=0.9, gamma=0.01, t=30.0, rungs=33)
    want = evolve_lindblad(initial_state(cfg), cfg, LOOSE)
    built = []
    exact = dynamics._chain_generator

    def recorded(sec, blocks, *marginal):
        built.append(blocks)
        return exact(sec, blocks, *marginal)

    monkeypatch.setattr(dynamics, "_chain_blocks", lambda sec: 1)
    monkeypatch.setattr(dynamics, "_chain_generator", recorded)
    got = evolve_lindblad(initial_state(cfg), cfg, LOOSE)
    assert built == [1, 2, 4, 8]
    assert got.diagnostics.trace_error < 1e-12
    assert np.max(np.abs(got.diagnostics.electron_populations - want.diagnostics.electron_populations)) < 1e-12


@pytest.mark.parametrize("second_sector", [False, True])
def test_positivity_error_raised_for_negative_input(second_sector):
    # a Hermitian unit-trace input with eigenvalue -0.2: the sector-block check (one
    # occupied sector) and the dense check (two) must both trip
    cfg = small_kerr(kappa=0.05, n_cut=3, g_q=0.9, gamma=0.006, t=30.0)
    l0, m = cfg.ladder.center, cfg.model.dim
    i, j = l0 * m, ((l0 + 1) * m if second_sector else l0 * m + 1)
    rho0 = np.zeros((cfg.space.dim, cfg.space.dim), dtype=complex)
    rho0[i, i], rho0[j, j] = 1.2, -0.2
    with pytest.raises(NumericsError, match="minimum eigenvalue"):
        evolve_lindblad(DensityMatrix(cfg.space, rho0), cfg, LOOSE)


def test_hermiticity_error_raised_for_perturbed_block(monkeypatch):
    # an off-diagonal entry of one diagonal sector block moved by 1e-6 without its mirror
    cfg = small_kerr(kappa=0.05, n_cut=3, g_q=0.9, gamma=0.006, t=30.0)
    exact = dynamics._fold

    def skewed(*args):
        out = exact(*args)
        key = next(k for k in out if k[0] == k[1])
        out[key] = out[key] + 1e-6 * np.eye(cfg.model.dim, k=1)
        return out

    monkeypatch.setattr(dynamics, "_fold", skewed)
    with pytest.raises(NumericsError, match="hermiticity"):
        evolve_lindblad(initial_state(cfg), cfg, LOOSE)


def test_loss_chain_depth_folds_onto_cyclic_ladder():
    # heavy loss on a short ladder: the chain spans the whole cyclic ladder and
    # still matches the bare-basis reference
    cfg = small_kerr(kappa=0.05, n_cut=3, g_q=0.9, gamma=0.05, t=30.0, rungs=5)
    assert dynamics._chain_blocks(dynamics._Sectors(cfg)) == cfg.ladder.rungs
    psi0 = initial_state(cfg)
    rho_ref = reference_lindblad(cfg, np.outer(psi0.amplitudes, psi0.amplitudes.conj()), reference_steps(cfg))
    res = evolve_lindblad(psi0, cfg, LOOSE)
    assert np.max(np.abs(res.state.matrix - rho_ref)) < 1e-8


def lossy_map_kerr(gamma=1e-4):
    return SystemConfig(model=build_kerr(0.012, 8), ladder=LadderConfig(rungs=33, center=16), g_q=math.pi / 2,
                        interaction_time=472.43, gamma=gamma)


def lossy_jc(gamma=1e-3):
    model = build_jc(0.015, 10)
    return SystemConfig(model=model, ladder=LadderConfig(rungs=33, center=16), g_q=math.pi / math.sqrt(2),
                        interaction_time=472.43, delta=pair_detuning(model, "0*", "1-"), gamma=gamma)


KERNEL_POINTS = {
    "kerr_lossy_map": (lossy_map_kerr, "0"),
    "jc_gamma_1e-3": (lossy_jc, "0*"),
    "pure_loss": (lambda: small_kerr(kappa=0.0, g_q=0.0, gamma=0.02, t=30.0, n_cut=3), "1"),
    "heavy_loss_cyclic": (lambda: small_kerr(kappa=0.05, n_cut=3, g_q=0.9, gamma=0.05, t=30.0, rungs=5), "0"),
    # gamma T = 20: |exp| at the right edge of the numerical range alone exceeds AMPLIFICATION_LIMIT
    "long_pure_loss": (lambda: small_kerr(kappa=0.0, g_q=0.0, gamma=0.2, t=100.0, n_cut=3), "1"),
}


@pytest.mark.parametrize("name", ["kerr_lossy_map", "jc_gamma_1e-3", "heavy_loss_cyclic"])
def test_chain_generator_matches_kronecker_build(name):
    # the one-pass sparse build against Kronecker products, on sink-ended chains and
    # on the whole cyclic ladder, value for value
    sec = dynamics._Sectors(KERNEL_POINTS[name][0]())
    blocks = dynamics._chain_blocks(sec)
    assert (blocks == sec.d) == (name == "heavy_loss_cyclic")
    gen, ref = dynamics._chain_generator(sec, blocks), reference_chain_generator(sec, blocks)
    assert gen.shape == ref.shape and (gen != ref).nnz == 0


@pytest.mark.parametrize("name", sorted(KERNEL_POINTS))
def test_chebyshev_series_matches_taylor_reference(name):
    # the series against scipy's Taylor-based expm_multiply on the same generator and seeds
    make, level = KERNEL_POINTS[name]
    cfg = make()
    t = cfg.interaction_time
    sec = dynamics._Sectors(cfg)
    pairs, seeds = dynamics._seed_blocks(sec, initial_state(cfg, cavity_level=level))
    gen = dynamics._chain_generator(sec, dynamics._chain_blocks(sec))
    cols = np.zeros((gen.shape[0], len(pairs)), dtype=complex)
    cols[: sec.m * sec.m] = seeds.reshape(len(pairs), -1).T
    box = dynamics._numerical_box(gen)
    plan = dynamics._chebyshev_plan(gen, box, t)
    got = dynamics._chebyshev_action(plan, cols)
    assert np.max(np.abs(got - reference_expm_action(gen, cols, t))) < 1e-12
    if name == "kerr_lossy_map":
        assert (box[3] - box[2]) / 2 * t >= 300  # rho T: the imaginary half-width of the numerical range
    if name == "pure_loss":
        assert np.allclose(gen.diagonal().imag, 0.0)  # a real spectrum: foci on the real axis
    assert (plan.pieces > 1) == (name == "long_pure_loss")


def test_loss_chain_loads_neither_scipy_special_nor_sparse_linalg():
    # the loss chain's resident memory: scipy.sparse.linalg costs ~1.4 MB, scipy.special ~2.7 MB
    code = (
        "import sys\n"
        "from epolsim import IntegratorConfig, LadderConfig, SystemConfig, build_kerr, evolve_lindblad, initial_state\n"
        "cfg = SystemConfig(model=build_kerr(0.05, 4), ladder=LadderConfig(rungs=9, center=4), g_q=1.2,\n"
        "                   interaction_time=60.0, gamma=0.003)\n"
        "icfg = IntegratorConfig(cutoff_bound=1.0, wrap_bound=1.0)\n"
        "assert evolve_lindblad(initial_state(cfg), cfg, icfg).diagnostics.halving_delta is not None\n"
        "print(sorted(m for m in ('scipy.special', 'scipy.sparse.linalg') if m in sys.modules))\n"
    )
    src = str(Path(dynamics.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# configuration and feasibility


def test_system_config_validation():
    model = build_kerr(0.05, 4)
    ladder = LadderConfig(rungs=9, center=4)
    with pytest.raises(ValueError):
        SystemConfig(model=model, ladder=ladder, g_q=1.0, interaction_time=0.0)
    with pytest.raises(ValueError):
        SystemConfig(model=model, ladder=ladder, g_q=1.0, interaction_time=1.0, gamma=-0.1)
    with pytest.raises(ValueError):
        SystemConfig(model=model, ladder=ladder, g_q=1.0, interaction_time=1.0, delta=1.5)


def test_pair_detuning_values():
    kerr = build_kerr(0.02, 4)
    assert pair_detuning(kerr, "0", "1") == pytest.approx(0.0, abs=1e-15)
    assert pair_detuning(kerr, "1", "2") == pytest.approx(0.04, abs=1e-15)
    jc = build_jc(0.02, 4)
    assert pair_detuning(jc, "0*", "1+") == pytest.approx(0.02, abs=1e-15)
    assert pair_detuning(jc, "0*", "1-") == pytest.approx(-0.02, abs=1e-15)


def test_blockade_angle_values():
    kerr = build_kerr(0.02, 4)
    assert blockade_angle(kerr, "0", "1", math.pi / 2) == pytest.approx(math.pi / 2)
    assert blockade_angle(kerr, "1", "2", math.pi / (2 * math.sqrt(2))) == pytest.approx(math.pi / 2)
    jc = build_jc(0.02, 4)
    assert blockade_angle(jc, "0*", "1-", math.pi / math.sqrt(2)) == pytest.approx(math.pi / 2)


def test_feasibility_worked_example():
    report = check_feasibility(pm_bandwidth=7e-4, kappa=0.02, gamma=1e-5, energy_spread=1e-5, margin=10.0)
    assert report.loss_ok and report.spread_ok and report.blockade_ok and report.passed


def test_feasibility_atomic_cavity_counterexample():
    report = check_feasibility(pm_bandwidth=7e-4, kappa=1e-8, gamma=1e-5, energy_spread=1e-5, margin=10.0)
    assert report.loss_ok and report.spread_ok
    assert not report.blockade_ok and not report.passed


def test_feasibility_equal_ratios_fail():
    report = check_feasibility(pm_bandwidth=1e-3, kappa=1e-3, gamma=1e-3, energy_spread=1e-3, margin=10.0)
    assert not report.passed
    with pytest.raises(ValueError):
        check_feasibility(1e-3, 1e-2, 1e-5, 1e-5, margin=0.5)
