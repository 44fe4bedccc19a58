import numpy as np
import pytest

from epolsim import (
    DensityMatrix,
    Operator,
    StateVector,
    TensorSpace,
    embed_group,
)
from epolsim.gates import _unitarity_defect
from oracles import reference_embed_group


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_matrix(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, n):
    m = random_matrix(rng, n)
    m = m @ m.conj().T
    return m / np.trace(m)


def on_factor(matrix, label, space):
    """`matrix` on the one factor `label`, lifted onto `space`."""
    return embed_group(matrix, [label], space).matrix


def test_kron_mixed_product():
    # embedded factors compose as Kronecker products: (A x B)(C x D) = (AC) x (BD)
    rng = np.random.default_rng(2)
    a, c = random_matrix(rng, 2), random_matrix(rng, 2)
    b, d = random_matrix(rng, 3), random_matrix(rng, 3)
    space = TensorSpace((("x", 2), ("y", 3)))
    lhs = on_factor(a, "x", space) @ on_factor(b, "y", space) @ on_factor(c, "x", space) @ on_factor(d, "y", space)
    assert np.max(np.abs(lhs - np.kron(a @ c, b @ d))) < 1e-12


def test_embed_sigma_x_action():
    space = TensorSpace((("atom", 2), ("photon", 3)))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    ground = np.zeros(6)
    ground[0] = 1.0  # |g, 0>
    excited = on_factor(sx, "atom", space) @ ground
    expected = np.zeros(6)
    expected[3] = 1.0  # |e, 0>
    assert np.array_equal(excited, expected)


def test_embed_identity():
    space = TensorSpace((("a", 2), ("b", 4)))
    assert np.array_equal(on_factor(np.eye(4), "b", space), np.eye(8))


def test_embedded_disjoint_factors_commute():
    rng = np.random.default_rng(4)
    space = TensorSpace((("cav", 4), ("el", 3)))
    a = on_factor(random_matrix(rng, 4), "cav", space)
    b = on_factor(random_matrix(rng, 3), "el", space)
    comm = a @ b - b @ a
    assert np.max(np.abs(comm)) < 1e-12


def test_embed_preserves_hermiticity_and_unitarity():
    rng = np.random.default_rng(5)
    space = TensorSpace((("a", 3), ("b", 2), ("c", 2)))
    h = random_matrix(rng, 2)
    h = h + h.conj().T
    hermitian = on_factor(h, "b", space)
    assert np.max(np.abs(hermitian - hermitian.conj().T)) <= 1e-12
    assert _unitarity_defect(on_factor(random_unitary(rng, 2), "b", space)) <= 1e-12


def test_embed_group_non_contiguous():
    # operator on the outer two factors of a three-factor space
    rng = np.random.default_rng(6)
    space = TensorSpace((("a", 2), ("b", 3), ("c", 2)))
    m = random_matrix(rng, 4)
    lifted = embed_group(m, ["a", "c"], space)
    # oracle: permute (a, c, b), kron, permute back via explicit basis walk
    direct = np.zeros((12, 12), dtype=complex)
    for i in range(12):
        ai, rem = divmod(i, 6)
        bi, ci = divmod(rem, 2)
        for j in range(12):
            aj, rem = divmod(j, 6)
            bj, cj = divmod(rem, 2)
            if bi == bj:
                direct[i, j] = m[2 * ai + ci, 2 * aj + cj]
    assert np.max(np.abs(lifted.matrix - direct)) < 1e-14


def test_embed_group_order_matters():
    rng = np.random.default_rng(7)
    space = TensorSpace((("a", 2), ("b", 2)))
    m = random_matrix(rng, 4)
    swapped = embed_group(m, ["b", "a"], space).matrix
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    assert np.max(np.abs(swapped - swap @ m @ swap)) < 1e-14


def test_embed_group_in_order_copies_the_matrix():
    # labels that are the space's factors in order: the lift is the matrix itself, as a copy
    rng = np.random.default_rng(9)
    space = TensorSpace((("a", 3), ("b", 2)))
    m = random_matrix(rng, 6)
    kept = m.copy()
    lifted = embed_group(m, ["a", "b"], space).matrix
    assert np.array_equal(lifted, kept)
    assert np.array_equal(lifted, reference_embed_group(m, ["a", "b"], space))
    assert not np.shares_memory(lifted, m)
    assert m.flags.writeable
    m[0, 0] += 1.0
    assert lifted[0, 0] == kept[0, 0]


def test_embed_group_same_labels_out_of_order_still_permutes():
    rng = np.random.default_rng(10)
    space = TensorSpace((("a", 3), ("b", 2)))
    m = random_matrix(rng, 6)
    swapped = embed_group(m, ["b", "a"], space).matrix
    assert np.max(np.abs(swapped - reference_embed_group(m, ["b", "a"], space))) <= 1e-14
    assert np.max(np.abs(swapped - m)) > 0.1


@pytest.mark.parametrize("rungs", [7, 18])
def test_embed_group_matches_kron_reference(rungs):
    # non-adjacent labels out of space order, every factor out of order, and in order
    rng = np.random.default_rng(rungs)
    space = TensorSpace((("electron", rungs), ("path", 2), ("pol1", 2), ("pol2", 2)))
    for labels in (["pol2", "electron"], ["pol1", "electron", "pol2"], ["path", "pol2", "electron", "pol1"],
                   ["electron", "path", "pol1", "pol2"]):
        sub = int(np.prod([space.dim_of(lab) for lab in labels]))
        m = random_matrix(rng, sub)
        lifted = embed_group(m, labels, space).matrix
        assert np.max(np.abs(lifted - reference_embed_group(m, labels, space))) <= 1e-12


def test_unitary_conjugation_preserves_trace():
    rng = np.random.default_rng(12)
    space = TensorSpace((("a", 2), ("b", 3)))
    rho = random_density(rng, 6)
    u = random_unitary(rng, 6)
    assert abs(np.trace(u @ rho @ u.conj().T) - np.trace(rho)) < 1e-12


def test_space_validation():
    with pytest.raises(ValueError):
        TensorSpace((("a", 2), ("a", 3)))
    with pytest.raises(ValueError):
        TensorSpace((("a", 0),))
    space = TensorSpace((("a", 2),))
    with pytest.raises(KeyError):
        space.axis("missing")


def test_state_and_density_validation():
    space = TensorSpace.single("a", 2)
    with pytest.raises(ValueError):
        StateVector(space, np.array([1.0, 1.0]))  # norm sqrt(2)
    with pytest.raises(ValueError):
        Operator(space, np.eye(3))
    with pytest.raises(ValueError):
        DensityMatrix(space, np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not hermitian
    with pytest.raises(ValueError):
        DensityMatrix(space, np.eye(2))  # trace 2


def test_hermitian_flag_tolerance():
    # a density matrix may be Hermitian to round-off (1e-10), not beyond
    space = TensorSpace.single("a", 2)
    rho = np.array([[0.6, 0.3 + 0.1j], [0.3 - 0.1j, 0.4]])
    DensityMatrix(space, rho + np.array([[0, 1e-11], [0, 0]]))
    with pytest.raises(ValueError, match="hermiticity"):
        DensityMatrix(space, rho + np.array([[0, 1e-6], [0, 0]]))
