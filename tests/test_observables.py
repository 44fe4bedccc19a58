import math

import numpy as np
import pytest
from scipy.stats import poisson as poisson_dist

from epolsim import (
    DensityMatrix,
    Distribution,
    LadderConfig,
    StateVector,
    SystemConfig,
    TensorSpace,
    build_kerr,
    eels_spectrum,
    frame_align,
    initial_state,
    pair_states,
    partial_trace,
    polariton_eigenbasis,
    polariton_statistics,
    scattering_blockade,
    state_fidelity,
)
from oracles import poisson_reference


def basis_state(space, index):
    amp = np.zeros(space.dim, dtype=complex)
    amp[index] = 1.0
    return StateVector(space, amp)


def shannon_entropy(dist):
    p = dist.probabilities[dist.probabilities > 0]
    return float(-(p * np.log(p)).sum())


def blockade_setup(omega):
    cfg = SystemConfig(
        model=build_kerr(0.05, 4),
        ladder=LadderConfig(rungs=9, center=4),
        g_q=1.0,
        interaction_time=30.0,
    )
    lo, up, _ = pair_states(cfg.model, "0", "1")
    s = scattering_blockade(omega, lo, up, cfg.space)
    return cfg, (s @ initial_state(cfg)).normalize()


def test_eels_initial_product_state_is_delta():
    cfg, _ = blockade_setup(0.0)
    dist = eels_spectrum(initial_state(cfg).to_density(), center=cfg.ladder.center)
    assert dist.probability("0") == pytest.approx(1.0, abs=1e-12)
    assert abs(dist.probabilities.sum() - 1.0) < 1e-12


def test_eels_after_full_transfer():
    cfg, out = blockade_setup(0.5 * math.pi)
    dist = eels_spectrum(out.to_density(), center=cfg.ladder.center)
    assert dist.probability("-1") == pytest.approx(1.0, abs=1e-12)


def test_eels_labels_are_sorted_signed_offsets():
    cfg, out = blockade_setup(0.25 * math.pi)
    dist = eels_spectrum(out.to_density(), center=cfg.ladder.center)
    offsets = [int(lab) for lab in dist.labels]
    assert offsets == sorted(offsets)
    assert offsets[0] == -4 and offsets[-1] == 4
    assert abs(dist.probabilities.sum() - 1.0) < 1e-12


def test_polariton_statistics_vacuum():
    cfg, _ = blockade_setup(0.0)
    basis = polariton_eigenbasis(cfg.model)
    dist = polariton_statistics(initial_state(cfg).to_density(), basis)
    assert dist.probability("0") == pytest.approx(1.0, abs=1e-12)


def test_distributions_invariant_under_frame_and_global_phase():
    cfg, out = blockade_setup(0.3 * math.pi)
    basis = polariton_eigenbasis(cfg.model)
    rho = out.to_density()
    rotated = frame_align(rho, cfg)
    rephased = StateVector(cfg.space, np.exp(0.41j) * out.amplitudes).to_density()
    for ref, other in ((rho, rotated), (rho, rephased)):
        e1 = eels_spectrum(ref, center=cfg.ladder.center).probabilities
        e2 = eels_spectrum(other, center=cfg.ladder.center).probabilities
        assert np.max(np.abs(e1 - e2)) < 1e-12
        p1 = polariton_statistics(ref, basis).probabilities
        p2 = polariton_statistics(other, basis).probabilities
        assert np.max(np.abs(p1 - p2)) < 1e-12


def test_fidelity_examples():
    space = TensorSpace.single("a", 3)
    psi = basis_state(space, 1)
    assert state_fidelity(psi.to_density(), psi) == pytest.approx(1.0, abs=1e-12)
    other = basis_state(space, 2)
    assert state_fidelity(psi.to_density(), other) == pytest.approx(0.0, abs=1e-12)
    mixed = DensityMatrix(space, np.eye(3) / 3)
    assert state_fidelity(mixed, psi) == pytest.approx(1 / 3, abs=1e-12)


def test_fidelity_space_mismatch():
    psi = basis_state(TensorSpace.single("a", 2), 0)
    rho = basis_state(TensorSpace.single("b", 2), 0).to_density()
    with pytest.raises(ValueError):
        state_fidelity(rho, psi)


def test_entropy_after_quarter_blockade():
    # two-term Schmidt decomposition: cos^2(pi/4) = 1/2 on each branch
    cfg, out = blockade_setup(0.25 * math.pi)
    weights = np.linalg.eigvalsh(partial_trace(out.to_density(), ["electron"]).matrix)
    weights = weights[weights > 1e-15]
    ent = float(-(weights * np.log(weights)).sum())
    assert ent == pytest.approx(math.log(2), abs=1e-6)
    assert ent == pytest.approx(0.6931, abs=1e-4)


def test_eels_and_polariton_entropies_match_in_blockade():
    # lossless blockade correlates electron loss with polariton number one-to-one
    cfg, out = blockade_setup(0.25 * math.pi)
    basis = polariton_eigenbasis(cfg.model)
    rho = out.to_density()
    e_ent = shannon_entropy(eels_spectrum(rho, center=cfg.ladder.center))
    p_ent = shannon_entropy(polariton_statistics(rho, basis))
    assert e_ent == pytest.approx(p_ent, abs=1e-10)


def test_poisson_reference_values():
    zero = poisson_reference(0.0, 5)
    assert zero.probability("0") == 1.0
    one = poisson_reference(1.0, 20)
    assert one.probability("0") == pytest.approx(math.exp(-1), abs=1e-12)
    assert one.probability("1") == pytest.approx(math.exp(-1), abs=1e-12)
    with pytest.raises(ValueError):
        poisson_reference(-0.5, 5)


def test_poisson_truncation_error_bound():
    # oracle: exact tail mass from scipy's survival function
    mean, n_max = 2.5, 20
    truncated = poisson_reference(mean, n_max)
    exact = poisson_dist.pmf(np.arange(n_max + 1), mean)
    tail = float(poisson_dist.sf(n_max, mean))
    tv = 0.5 * (np.abs(truncated.probabilities - exact).sum() + tail)
    assert tv <= 1e-12


def test_distribution_clipping():
    d = Distribution.from_values(["a", "b"], [1.0, -1e-13])
    assert d.probability("b") == 0.0
    assert d.clipped == pytest.approx(1e-13)
    assert abs(d.probabilities.sum() - 1.0) < 1e-15
    with pytest.raises(ValueError):
        Distribution.from_values(["a", "b"], [1.0, -1e-9])


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(("a", "b"), np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        Distribution(("a",), np.array([0.5, 0.5]))
    d = Distribution(("a", "b"), np.array([0.25, 0.75]))
    with pytest.raises(KeyError):
        d.probability("c")



@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_distribution_rejects_values_that_are_not_finite(bad):
    # nan compares false with every bound: a table of nan probabilities once passed the
    # negativity and the sum checks alike
    from epolsim import ProbabilityError

    with pytest.raises(ProbabilityError, match="finite"):
        Distribution.from_values(["a", "b"], [1.0, bad])
    with pytest.raises(ProbabilityError, match="finite"):
        Distribution(("a", "b"), np.array([1.0, bad]))
