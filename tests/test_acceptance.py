"""Acceptance suite: every criterion at its stated tolerance, one line per verdict.

Run with `pytest tests/test_acceptance.py -v -s`.  Each criterion prints a
PASS/FAIL line before asserting, so a red assertion still reports its measured
value.  Three Jaynes-Cummings clauses (the Rabi-peak location, the 0.97
fidelity endpoint, and loss-monotonicity at the smallest nonlinearity) fail at
the published interaction length because the second-excitation ladder is only
marginally detuned there; the measured numbers and the full analysis are
recorded in notes/decisions.md.  The companion tests
`test_jc_fidelity_recovers_at_longer_interaction` and
`test_jc_peak_recovers_at_longer_interaction` demonstrate that the same
physics meets the stated numbers once the interaction window satisfies the
feasibility margin.
"""
import math
from pathlib import Path

import numpy as np
import pytest

from epolsim import (
    IntegratorConfig,
    LadderConfig,
    SystemConfig,
    blockade_angle,
    build_jc,
    build_kerr,
    check_feasibility,
    evolve_lindblad,
    frame_align,
    gate_identity_suite,
    initial_state,
    pair_detuning,
    pair_states,
    polariton_eigenbasis,
    polariton_statistics,
    scattering_blockade,
    state_fidelity,
    two_polariton_cz,
)
from epolsim.cli import build_presets, normalize_config, run_config
from oracles import poisson_reference

Q0_L = 472.43

_HYGIENE: list[tuple[str, object]] = []


def announce(criterion: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


def run_point(cfg: SystemConfig, initial_level=None, icfg=IntegratorConfig(), tag=""):
    result = evolve_lindblad(initial_state(cfg, cavity_level=initial_level), cfg, icfg)
    _HYGIENE.append((tag or "run", result.diagnostics))
    return result


def blockade_fidelity(cfg: SystemConfig, lower: str, upper: str, tag="") -> float:
    psi0 = initial_state(cfg, cavity_level=lower)
    lo, up, _ = pair_states(cfg.model, lower, upper)
    omega = blockade_angle(cfg.model, lower, upper, cfg.g_q)
    target = (scattering_blockade(omega, lo, up, cfg.space) @ psi0).normalize()
    result = evolve_lindblad(psi0, cfg, IntegratorConfig())
    _HYGIENE.append((tag or "fidelity", result.diagnostics))
    return state_fidelity(frame_align(result.state, cfg), target)


# ---------------------------------------------------------------------------
# 1. linear-cavity Poisson law


def test_criterion_01_linear_poisson_law():
    worst = 0.0
    for g_q in (0.5, 1.0, math.pi / 2):
        cfg = SystemConfig(
            model=build_kerr(0.0, 20),
            ladder=LadderConfig(rungs=65, center=32),
            g_q=g_q,
            interaction_time=Q0_L,
            delta=0.0,
            gamma=0.0,
        )
        result = run_point(cfg, tag=f"poisson g={g_q:.3f}")
        stats = polariton_statistics(result.state, polariton_eigenbasis(cfg.model))
        poisson = poisson_reference(abs(g_q) ** 2, 20)
        assert stats.labels == poisson.labels
        tv = 0.5 * float(np.abs(stats.probabilities - poisson.probabilities).sum())
        worst = max(worst, tv)
    announce("1 linear Poisson law", worst <= 1e-3, f"max total variation {worst:.2e} <= 1e-3")
    assert worst <= 1e-3


# ---------------------------------------------------------------------------
# 2. Kerr blockade inversion endpoint


def test_criterion_02_kerr_blockade_inversion():
    cfg = SystemConfig(
        model=build_kerr(0.02, 6),
        ladder=LadderConfig(rungs=33, center=16),
        g_q=math.pi / 2,
        interaction_time=472.43,
        delta=0.0,
        gamma=1e-5,
    )
    result = run_point(cfg, tag="kerr endpoint")
    stats = polariton_statistics(result.state, polariton_eigenbasis(cfg.model))
    p1 = stats.probability("1")
    p_multi = float(sum(stats.probabilities[2:]))
    ok = p1 >= 0.97 and p_multi <= 0.02
    announce("2 Kerr blockade inversion", ok, f"P(1) = {p1:.4f} >= 0.97, P(n>=2) = {p_multi:.4f} <= 0.02")
    assert p1 >= 0.97
    assert p_multi <= 0.02


# ---------------------------------------------------------------------------
# 3. JC velocity selectivity


def jc_velocity_point(ratio: float, n_cut: int, rungs: int):
    cfg = SystemConfig(
        model=build_jc(0.02, n_cut),
        ladder=LadderConfig(rungs=rungs, center=rungs // 2),
        g_q=math.pi / math.sqrt(2),
        interaction_time=Q0_L / ratio,
        delta=ratio - 1.0,
        gamma=1e-5,
    )
    result = run_point(cfg, initial_level="0*", tag=f"jc v/v0={ratio}")
    return polariton_statistics(result.state, polariton_eigenbasis(cfg.model))


def test_criterion_03_jc_velocity_selectivity():
    fast = jc_velocity_point(1.02, 10, 33)
    slow = jc_velocity_point(0.98, 10, 33)
    centre = jc_velocity_point(1.00, 22, 65)
    modal_fast = fast.labels[int(np.argmax(fast.probabilities))]
    modal_slow = slow.labels[int(np.argmax(slow.probabilities))]
    p0_centre = centre.probability("0*")
    ok = (
        modal_fast == "1+"
        and fast.probability("1-") <= 0.05
        and modal_slow == "1-"
        and slow.probability("1+") <= 0.05
        and p0_centre >= 0.5
    )
    announce(
        "3 JC velocity selectivity",
        ok,
        f"v+ modal {modal_fast} with P(1-) = {fast.probability('1-'):.4f}; "
        f"v- modal {modal_slow} with P(1+) = {slow.probability('1+'):.4f}; "
        f"P(0*) at v0 = {p0_centre:.4f} >= 0.5",
    )
    assert modal_fast == "1+" and fast.probability("1-") <= 0.05
    assert modal_slow == "1-" and slow.probability("1+") <= 0.05
    assert p0_centre >= 0.5


# ---------------------------------------------------------------------------
# 4. Rabi-oscillation peak locations


def sweep_peak(preset_name: str, target_level: str, tmp_dir: Path) -> float:
    preset = normalize_config(build_presets()[preset_name])
    assert run_config(preset, tmp_dir) == 0
    rows = (tmp_dir / "sweep_stats.csv").read_text().splitlines()[1:]
    grid: dict[float, float] = {}
    for row in rows:
        value, level, prob = row.split(",")
        if level == target_level:
            grid[float(value)] = float(prob)
    summary = (tmp_dir / "sweep_summary.csv").read_text().splitlines()[1:]
    assert all(line.split(",")[1] == "true" for line in summary), "unconverged sweep point"
    values = sorted(grid)
    populations = [grid[v] for v in values]
    return values[int(np.argmax(populations))]


def test_criterion_04_kerr_ground_pair_peak(tmp_path):
    peak = sweep_peak("fig4a", "1", tmp_path)
    target = math.pi / 2
    rel = abs(peak - target) / target
    announce("4 Kerr 0->1 Rabi peak", rel <= 0.05, f"peak at g_q = {peak:.4f}, {rel:+.2%} from pi/2")
    assert rel <= 0.05


def test_criterion_04_kerr_stimulated_pair_peak(tmp_path):
    peak = sweep_peak("fig4b", "2", tmp_path)
    target = math.pi / (2 * math.sqrt(2))
    rel = abs(peak - target) / target
    announce("4 Kerr 1->2 Rabi peak", rel <= 0.05, f"peak at g_q = {peak:.4f}, {rel:+.2%} from pi/(2 sqrt 2)")
    assert rel <= 0.05


def test_criterion_04_jc_peak(tmp_path):
    peak = sweep_peak("fig4d", "1-", tmp_path)
    target = math.pi / math.sqrt(2)
    rel = abs(peak - target) / target
    announce("4 JC 0*->1- Rabi peak", rel <= 0.05, f"peak at g_q = {peak:.4f}, {rel:+.2%} from pi/sqrt 2")
    assert rel <= 0.05, (
        f"JC first maximum sits at g_q = {peak:.4f}, {rel:.1%} below pi/sqrt(2): at the published "
        f"interaction length (kappa*T = {0.02 * Q0_L / 0.98:.1f}) the same-branch second excitation "
        "is only 0.586*kappa detuned with a (sqrt(2)+1)/2 ladder element, which drags the peak "
        "downward; see notes/decisions.md and "
        "test_jc_peak_recovers_at_longer_interaction for the in-regime verification"
    )


# ---------------------------------------------------------------------------
# 5. fidelity map behavior


def fidelity_map(kind: str, pair: tuple[str, str], g_q: float, cutoffs) -> dict:
    gammas = [1e-5, 1e-4, 1e-3]
    values = {}
    for kappa, n_cut, rungs in cutoffs:
        for gamma in gammas:
            model = (build_kerr if kind == "kerr" else build_jc)(kappa, n_cut)
            delta = pair_detuning(model, *pair)
            cfg = SystemConfig(
                model=model,
                ladder=LadderConfig(rungs=rungs, center=rungs // 2),
                g_q=g_q,
                interaction_time=Q0_L / (1.0 + delta),
                delta=delta,
                gamma=gamma,
            )
            values[(kappa, gamma)] = blockade_fidelity(cfg, *pair, tag=f"{kind} map k={kappa} g={gamma}")
    return values


@pytest.fixture(scope="module")
def kerr_map():
    return fidelity_map("kerr", ("0", "1"), math.pi / 2, [(0.005, 16, 49), (0.01, 10, 33), (0.02, 8, 33)])


@pytest.fixture(scope="module")
def jc_map():
    return fidelity_map("jc", ("0*", "1-"), math.pi / math.sqrt(2), [(0.005, 20, 49), (0.01, 12, 33), (0.02, 10, 33)])


def _assert_monotone(values: dict, label: str):
    kappas = sorted({k for k, _ in values})
    gammas = sorted({g for _, g in values})
    for kappa in kappas:
        fids = [values[(kappa, g)] for g in gammas]
        assert all(a >= b - 1e-12 for a, b in zip(fids, fids[1:])), f"{label}: not monotone in loss at kappa={kappa}"
    for gamma in gammas:
        fids = [values[(k, gamma)] for k in kappas]
        assert all(b >= a - 1e-12 for a, b in zip(fids, fids[1:])), f"{label}: not monotone in kappa at gamma={gamma}"


def test_criterion_05_kerr_fidelity_map(kerr_map):
    _assert_monotone(kerr_map, "kerr")
    endpoint = kerr_map[(0.02, 1e-5)]
    announce("5 Kerr fidelity map", endpoint >= 0.97, f"monotone in both axes; F(0.02, 1e-5) = {endpoint:.4f} >= 0.97")
    assert endpoint >= 0.97


def test_criterion_05_jc_fidelity_monotone_in_nonlinearity(jc_map):
    kappas = sorted({k for k, _ in jc_map})
    gammas = sorted({g for _, g in jc_map})
    ok = all(
        jc_map[(b, g)] >= jc_map[(a, g)] - 1e-12
        for g in gammas
        for a, b in zip(kappas, kappas[1:])
    )
    announce("5 JC fidelity monotone in nonlinearity", ok, "F nondecreasing in kappa at every loss value")
    assert ok


def test_criterion_05_jc_fidelity_monotone_in_loss(jc_map):
    kappas = sorted({k for k, _ in jc_map})
    gammas = sorted({g for _, g in jc_map})
    violations = []
    for kappa in kappas:
        fids = [jc_map[(kappa, g)] for g in gammas]
        for (g_lo, f_lo), (g_hi, f_hi) in zip(zip(gammas, fids), zip(gammas[1:], fids[1:])):
            if f_hi > f_lo + 1e-12:
                violations.append(f"kappa={kappa}: F({g_hi:.0e}) = {f_hi:.6f} > F({g_lo:.0e}) = {f_lo:.6f}")
    announce(
        "5 JC fidelity monotone in loss",
        not violations,
        "; ".join(violations) if violations else "F nonincreasing in loss at every kappa",
    )
    assert not violations, (
        "JC fidelity rises with loss in the deep-leakage regime (values converged to ~1e-10): "
        + "; ".join(violations)
        + ". At the published interaction length the small-kappa points sit far outside the blockade "
        "regime, and photon loss damps the destructively interfering leaked amplitudes faster than the "
        "two-level target amplitude; see notes/decisions.md"
    )


def test_criterion_05_jc_fidelity_endpoint(jc_map):
    endpoint = jc_map[(0.02, 1e-5)]
    announce("5 JC fidelity endpoint", endpoint >= 0.97, f"F(0.02, 1e-5) = {endpoint:.4f} vs required 0.97")
    assert endpoint >= 0.97, (
        f"JC fidelity at (kappa/omega, gamma/omega) = (0.02, 1e-5) is {endpoint:.4f}, not 0.97: with a "
        "converged photon cutoff the 0*->1- pass leaks ~24% into the two-excitation manifold at the "
        "published interaction length (the same-branch ladder element is (sqrt(2)+1)/2 against a "
        "0.586*kappa detuning, kappa*T = 9.6); see notes/decisions.md and "
        "test_jc_fidelity_recovers_at_longer_interaction for the in-regime verification"
    )


def test_jc_fidelity_recovers_at_longer_interaction():
    # same kappa and loss, interaction window lengthened until the feasibility
    # margin holds; the closed-form target is then reached
    model = build_jc(0.02, 8)
    delta = pair_detuning(model, "0*", "1-")
    cfg = SystemConfig(
        model=model,
        ladder=LadderConfig(rungs=33, center=16),
        g_q=math.pi / math.sqrt(2),
        interaction_time=2500.0 / (1.0 + delta),
        delta=delta,
        gamma=1e-5,
    )
    fid = blockade_fidelity(cfg, "0*", "1-", tag="jc long interaction")
    announce("5s JC endpoint at kappa*T = 50", fid >= 0.97, f"F = {fid:.4f} >= 0.97")
    assert fid >= 0.97


def test_jc_peak_recovers_at_longer_interaction():
    # coarse grid suffices: the peak must sit within 5% of pi/sqrt(2)
    model = build_jc(0.02, 8)
    delta = pair_detuning(model, "0*", "1-")
    target = math.pi / math.sqrt(2)
    grid = np.arange(0.85, 1.16, 0.05) * target
    populations = []
    for g_q in grid:
        cfg = SystemConfig(
            model=model,
            ladder=LadderConfig(rungs=33, center=16),
            g_q=float(g_q),
            interaction_time=2500.0 / (1.0 + delta),
            delta=delta,
            gamma=1e-5,
        )
        result = run_point(cfg, initial_level="0*", tag=f"jc long peak g={g_q:.3f}")
        stats = polariton_statistics(result.state, polariton_eigenbasis(model))
        populations.append(stats.probability("1-"))
    peak = float(grid[int(np.argmax(populations))])
    rel = abs(peak - target) / target
    announce("4s JC peak at kappa*T = 50", rel <= 0.05, f"peak at g_q = {peak:.4f}, {rel:+.2%} from pi/sqrt 2")
    assert rel <= 0.05


# ---------------------------------------------------------------------------
# 6. rotating-wave convergence


def test_criterion_06_rwa_convergence():
    fidelities = []
    for kappa_t in (5.0, 10.0, 20.0, 50.0):
        cfg = SystemConfig(
            model=build_kerr(0.02, 6),
            ladder=LadderConfig(rungs=33, center=16),
            g_q=math.pi / 2,
            interaction_time=kappa_t / 0.02,
            delta=0.0,
            gamma=0.0,
        )
        fidelities.append(blockade_fidelity(cfg, "0", "1", tag=f"rwa kT={kappa_t}"))
    monotone = all(b >= a - 1e-12 for a, b in zip(fidelities, fidelities[1:]))
    ok = monotone and fidelities[-1] >= 0.999
    announce(
        "6 RWA convergence",
        ok,
        "F(kT=5,10,20,50) = " + ", ".join(f"{f:.5f}" for f in fidelities) + "; monotone and F(50) >= 0.999",
    )
    assert monotone
    assert fidelities[-1] >= 0.999


# ---------------------------------------------------------------------------
# 7. integrator hygiene on every run above


def test_criterion_07_integrator_hygiene():
    assert _HYGIENE, "no propagation runs recorded"
    worst_trace = max(d.trace_error for _, d in _HYGIENE)
    worst_eig = min(d.min_eigenvalue for _, d in _HYGIENE if d.min_eigenvalue is not None)
    worst_halving = max(d.halving_delta for _, d in _HYGIENE if d.halving_delta is not None)
    worst_cutoff = max(d.cutoff_occupancy for _, d in _HYGIENE)
    ok = worst_trace <= 1e-8 and worst_eig >= -1e-8 and worst_halving <= 1e-6 and worst_cutoff <= 1e-6
    announce(
        "7 integrator hygiene",
        ok,
        f"{len(_HYGIENE)} runs: |trace-1| <= {worst_trace:.1e}, min eig >= {worst_eig:.1e}, "
        f"halving <= {worst_halving:.1e}, cutoff occupancy <= {worst_cutoff:.1e}",
    )
    assert worst_trace <= 1e-8
    assert worst_eig >= -1e-8
    assert worst_halving <= 1e-6
    assert worst_cutoff <= 1e-6


# ---------------------------------------------------------------------------
# 8. gate identity suite


def test_criterion_08_gate_identity_suite():
    checks, report = gate_identity_suite(rungs=7)
    failing = [c.name for c in checks if not c.passed]
    cz = two_polariton_cz(rungs=7)
    ok = not failing and cz.passed and cz.deviation <= 1e-9 and cz.ancilla_entropy <= 1e-10
    announce(
        "8 gate identity suite",
        ok,
        f"{len(checks)} identities pass; CZ deviation {cz.deviation:.2e} <= 1e-9, "
        f"ancilla entropy {cz.ancilla_entropy:.2e} <= 1e-10 over 20 random inputs",
    )
    assert not failing, failing
    assert cz.passed and cz.deviation <= 1e-9 and cz.ancilla_entropy <= 1e-10
    assert report.passed


# ---------------------------------------------------------------------------
# 9. feasibility validator


def test_criterion_09_feasibility_validator():
    worked = check_feasibility(pm_bandwidth=7e-4, kappa=0.02, gamma=1e-5, energy_spread=1e-5, margin=10.0)
    atomic = check_feasibility(pm_bandwidth=7e-4, kappa=1e-8, gamma=1e-5, energy_spread=1e-5, margin=10.0)
    ok = worked.passed and not atomic.blockade_ok and atomic.loss_ok and atomic.spread_ok
    announce(
        "9 feasibility validator",
        ok,
        "worked example passes all three inequalities; atomic-cavity case fails the blockade inequality",
    )
    assert worked.passed
    assert not atomic.blockade_ok and not atomic.passed
    assert atomic.loss_ok and atomic.spread_ok


# ---------------------------------------------------------------------------
# 10. byte-identical determinism


def test_criterion_10_preset_determinism(tmp_path):
    preset = normalize_config(build_presets()["smoke"])
    outputs = []
    for name in ("a", "b", "c"):
        out = tmp_path / name
        assert run_config(preset, out) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
    identical = outputs[0] == outputs[1] == outputs[2]
    announce("10 preset determinism", identical, "smoke preset byte-identical across three reruns")
    assert identical
