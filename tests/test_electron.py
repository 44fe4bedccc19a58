import math

import numpy as np
import pytest

from epolsim import (
    LadderConfig,
    comb_state,
    energy_to_velocity,
)
from oracles import lowering

D = 11
CFG = LadderConfig(rungs=D, center=5)


def test_shift_action():
    b = lowering(D)
    vec = np.zeros(D)
    vec[CFG.center] = 1.0
    shifted = b @ vec
    assert shifted[CFG.center - 1] == 1.0
    assert np.sum(np.abs(shifted)) == 1.0


def test_shift_exactly_unitary():
    b = lowering(D)
    assert np.array_equal(b.conj().T @ b, np.eye(D))
    assert np.array_equal(b @ b.conj().T, np.eye(D))


def test_full_cycle_is_identity():
    b = lowering(D)
    assert np.array_equal(np.linalg.matrix_power(b, D), np.eye(D))


def test_comb_norm_and_eigenvector():
    b = lowering(D)
    for m in range(D):
        phi = 2 * math.pi * m / D
        comb = comb_state(phi, CFG)
        assert abs(np.linalg.norm(comb.amplitudes) - 1.0) < 1e-14
        assert np.max(np.abs(b @ comb.amplitudes - np.exp(1j * phi) * comb.amplitudes)) < 1e-13


def test_comb_orthogonality():
    first = comb_state(0.0, CFG)
    second = comb_state(2 * math.pi / D, CFG)
    assert abs(np.vdot(first.amplitudes, second.amplitudes)) < 1e-13


def test_comb_fourier_basis():
    vectors = np.column_stack([comb_state(2 * math.pi * m / D, CFG).amplitudes for m in range(D)])
    gram = vectors.conj().T @ vectors
    assert np.max(np.abs(gram - np.eye(D))) < 1e-12


def test_ladder_validation():
    with pytest.raises(ValueError):
        LadderConfig(rungs=2, center=0)
    with pytest.raises(ValueError):
        LadderConfig(rungs=5, center=5)


def test_wrap_rungs():
    cfg = LadderConfig(rungs=33, center=16)
    wrap = set(cfg.wrap_rungs().tolist())
    assert wrap == {0, 1, 31, 32}


def test_energy_to_velocity_values():
    assert abs(energy_to_velocity(200.0) - 0.6953) < 1e-4
    assert abs(energy_to_velocity(20.0) - 0.2719) < 1e-4
    assert energy_to_velocity(0.0) == 0.0
    with pytest.raises(ValueError):
        energy_to_velocity(-1.0)

