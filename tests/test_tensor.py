import numpy as np
import pytest

from epolsim import (
    DensityMatrix,
    Operator,
    StateVector,
    TensorSpace,
    embed,
    embed_group,
    partial_trace,
)
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


def test_kron_mixed_product():
    # embedded factors compose as Kronecker products: (A x B)(C x D) = (AC) x (BD)
    rng = np.random.default_rng(2)
    a, c = random_matrix(rng, 2), random_matrix(rng, 2)
    b, d = random_matrix(rng, 3), random_matrix(rng, 3)
    space = TensorSpace((("x", 2), ("y", 3)))
    lhs = embed(a, "x", space) @ embed(b, "y", space) @ embed(c, "x", space) @ embed(d, "y", space)
    assert np.max(np.abs(lhs.matrix - np.kron(a @ c, b @ d))) < 1e-12


def test_embed_sigma_x_action():
    space = TensorSpace((("atom", 2), ("photon", 3)))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    lifted = embed(sx, "atom", space)
    ground = np.zeros(6)
    ground[0] = 1.0  # |g, 0>
    excited = lifted.matrix @ ground
    expected = np.zeros(6)
    expected[3] = 1.0  # |e, 0>
    assert np.array_equal(excited, expected)


def test_embed_identity():
    space = TensorSpace((("a", 2), ("b", 4)))
    assert np.array_equal(embed(np.eye(4), "b", space).matrix, np.eye(8))


def test_embedded_disjoint_factors_commute():
    rng = np.random.default_rng(4)
    space = TensorSpace((("cav", 4), ("el", 3)))
    a = embed(random_matrix(rng, 4), "cav", space)
    b = embed(random_matrix(rng, 3), "el", space)
    comm = (a @ b).matrix - (b @ a).matrix
    assert np.max(np.abs(comm)) < 1e-12


def test_embed_preserves_hermiticity_and_unitarity():
    rng = np.random.default_rng(5)
    space = TensorSpace((("a", 3), ("b", 2), ("c", 2)))
    h = random_matrix(rng, 2)
    h = h + h.conj().T
    lifted = embed(h, "b", space).matrix
    assert np.max(np.abs(lifted - lifted.conj().T)) <= 1e-12
    assert embed(random_unitary(rng, 2), "b", space).unitarity_defect() <= 1e-12


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


def test_partial_trace_product_state():
    rng = np.random.default_rng(8)
    psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    psi /= np.linalg.norm(psi)
    phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi /= np.linalg.norm(phi)
    space = TensorSpace((("one", 2), ("two", 3)))
    rho = DensityMatrix(space, np.outer(np.kron(psi, phi), np.kron(psi, phi).conj()))
    reduced = partial_trace(rho, ["one"])
    assert np.max(np.abs(reduced.matrix - np.outer(psi, psi.conj()))) < 1e-12


def test_partial_trace_bell_state():
    space = TensorSpace((("q1", 2), ("q2", 2)))
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = DensityMatrix(space, np.outer(bell, bell.conj()))
    for keep in ("q1", "q2"):
        reduced = partial_trace(rho, [keep])
        assert np.max(np.abs(reduced.matrix - 0.5 * np.eye(2))) < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(9)
    space = TensorSpace((("a", 2), ("b", 3)))
    rho = DensityMatrix(space, random_density(rng, 6))
    assert abs(np.trace(partial_trace(rho, ["b"]).matrix) - np.trace(rho.matrix)) < 1e-12


def test_partial_trace_composition_order():
    rng = np.random.default_rng(10)
    space = TensorSpace((("a", 2), ("b", 2), ("c", 3)))
    rho = DensityMatrix(space, random_density(rng, 12))
    one_shot = partial_trace(rho, ["c"]).matrix
    via_b_first = partial_trace(partial_trace(rho, ["b", "c"]), ["c"]).matrix
    direct_c = partial_trace(rho, ["c"]).matrix
    assert np.max(np.abs(one_shot - direct_c)) < 1e-12
    # reduce to a single factor along both orders
    r1 = partial_trace(partial_trace(rho, ["a", "b"]), ["a"]).matrix
    r2 = partial_trace(partial_trace(rho, ["a", "c"]), ["a"]).matrix
    assert np.max(np.abs(r1 - r2)) < 1e-12


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
