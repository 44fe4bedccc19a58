"""Independent references for dual-route checks.

The propagator integrates the master equation exactly as written: dense
matrices in the bare labeled basis, the static nonlinear Hamiltonian kept
explicitly inside the generator, plain fixed-step RK4.  It writes the
interaction Hamiltonian itself, and shares no code with the production engine
beyond the cavity model's operators and the ladder's shift operator.

The loss chain's Chebyshev series is checked against scipy's Taylor-based
action of the matrix exponential on the same generator.  The series operator,
tiled from the chain's two m^2-blocks, is checked against the whole generator
built from Kronecker products, taken to Hermitian coordinates entry by entry;
the closed-form numerical-range box against that generator's Gershgorin discs
and against its exact numerical range.

The linear cavity's photon statistics are checked against a truncated
Poisson table, and its scattering matrix against the exponential of its
generator on the whole joint space, built from Kronecker products.

The gate references build every operator on the full joint space from
Kronecker products and compose with full-space matrix products, the direct
route that the production builders avoid.  They use only the space's labels
and dimensions.  The controlled-Z circuit is scored twice: on its whole map,
through the Gram matrix of its (ancilla) x (polariton out, polariton in)
matrix, and on 25 probe inputs, one SVD each.
"""
from __future__ import annotations

import cmath
import math
from collections import namedtuple

import numpy as np

from epolsim import DensityMatrix, Distribution, SystemConfig, TensorSpace, build_ladder


def reference_lindblad(cfg: SystemConfig, rho0: np.ndarray, steps: int) -> np.ndarray:
    dim = cfg.space.dim
    d = cfg.ladder.rungs
    b = build_ladder(cfg.ladder).matrix
    a = np.kron(np.eye(d), cfg.model.a)
    a_dag = a.conj().T
    n_op = a_dag @ a
    h_nl = np.kron(np.eye(d), cfg.model.h_nl)
    bd_a = np.kron(b.conj().T, cfg.model.a)
    g = cfg.coupling_rate
    gamma = cfg.gamma

    def rhs(t, rho):
        drive = (1j * g * np.exp(1j * cfg.delta * t)) * bd_a
        h = h_nl + drive + drive.conj().T
        out = -1j * (h @ rho - rho @ h)
        if gamma:
            out = out + gamma * (a @ rho @ a_dag - 0.5 * (n_op @ rho + rho @ n_op))
        return out

    rho = np.asarray(rho0, dtype=complex).copy()
    dt = cfg.interaction_time / steps
    for i in range(steps):
        t = i * dt
        k1 = rhs(t, rho)
        k2 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, rho + 0.5 * dt * k2)
        k4 = rhs(t + dt, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
    return rho


def reference_expm_action(gen, cols: np.ndarray, t: float) -> np.ndarray:
    """exp(t gen) cols by a truncated Taylor series with scaling (Al-Mohy & Higham,
    SIAM J. Sci. Comput. 33, 2011), scipy's expm_multiply."""
    from scipy.sparse.linalg import expm_multiply

    return expm_multiply(gen * t, cols)


def reference_chain_generator(sec, blocks: int, marginal: tuple | None = None):
    """The loss chain's complex generator as Kronecker products: identity(blocks) x
    diagonal plus a shift x jump, the sink row stacked below, and the (rows, cols,
    values) of a `marginal` block, if given, placed after it on the diagonal."""
    import scipy.sparse as sp

    model, gamma, m = sec.cfg.model, sec.cfg.gamma, sec.m
    h_eff = sp.csr_matrix(sec.h - 0.5j * gamma * np.diag(sec.n_photon))
    eye = sp.identity(m, dtype=complex, format="csr")
    diagonal = -1j * (sp.kron(h_eff, eye) - sp.kron(eye, h_eff.conj()))
    a = sp.csr_matrix(model.a)
    jump = gamma * sp.kron(a, a.conj())
    shift = sp.eye(blocks, k=-1, format="csr")
    if blocks == sec.d:  # the whole cyclic ladder: the loss out of the last block re-enters the first
        shift = shift + sp.csr_matrix(([1.0], ([0], [blocks - 1])), shape=(blocks, blocks))
    gen = (sp.kron(sp.identity(blocks, format="csr"), diagonal) + sp.kron(shift, jump)).tocsr()
    if blocks < sec.d:
        size = blocks * m * m
        last = (blocks - 1) * m * m + np.arange(m) * (m + 1)
        sink = sp.csr_matrix((gamma * sec.n_photon / model.n_cut, (np.zeros(m, dtype=int), last)), shape=(1, size))
        gen = sp.vstack([gen, sink], format="csr")
        gen.resize((size + 1, size + 1))
    if marginal is not None:
        rows, cols, values = marginal
        gen = sp.block_diag([gen, sp.csr_matrix((values, (rows, cols)), shape=(m * m,) * 2)], format="csr")
    return gen


def reference_real_generator(gen, m: int, starts: list[int]):
    """A generator in the Hermitian coordinates Y = Re X + Im X of each m x m block,
    the blocks starting at `starts` in row-major vec: an entry v at (r, c) gives Re v
    at (r, c) and Im v at (r, c^T), c^T the transposed position in c's block; an
    entry outside every block (the sink) maps to itself."""
    import scipy.sparse as sp

    flip = np.arange(gen.shape[0])
    i, j = np.divmod(np.arange(m * m), m)
    for start in starts:
        flip[start + i * m + j] = start + j * m + i
    coo = gen.tocoo()
    re, im = coo.data.real != 0, coo.data.imag != 0
    values = np.concatenate([coo.data.real[re], coo.data.imag[im]])
    rows, cols = np.concatenate([coo.row[re], coo.row[im]]), np.concatenate([coo.col[re], flip[coo.col[im]]])
    return sp.csr_matrix((values, (rows, cols)), shape=gen.shape)


def reference_numerical_box(gen) -> tuple[float, float, float, float]:
    """The Gershgorin rectangle of a real sparse matrix's numerical range, from the
    whole matrix: the discs of (R + R^T) / 2 and (R - R^T) / 2i."""
    sym = (gen + gen.T) * 0.5
    centre = sym.diagonal()
    radius = np.asarray(abs(sym).sum(axis=1)).ravel() - np.abs(centre)
    height = float(np.max(abs(gen - gen.T).sum(axis=1))) * 0.5
    return float(np.min(centre - radius)), float(np.max(centre + radius)), -height, height


def reference_numerical_range(gen) -> tuple[float, float, float, float]:
    """The bounding rectangle of a sparse matrix's numerical range W, exactly: Re W spans the
    spectrum of (G + G^H) / 2 and Im W that of (G - G^H) / 2i.  Their extreme eigenvalues come
    from eigvalsh of the dense parts up to 1000 rows; beyond, where a dense part costs seconds
    and hundreds of MB (735 MB at 6777 rows), from Lanczos (eigsh) to a relative 1e-10, from
    inside."""
    parts = ((gen + gen.conj().T) * 0.5, (gen - gen.conj().T) * -0.5j)
    if gen.shape[0] <= 1000:
        return tuple(float(x) for part in parts for x in np.linalg.eigvalsh(part.toarray())[[0, -1]])
    from scipy.sparse.linalg import eigsh

    return tuple(float(eigsh(part.tocsr(), k=1, which=which, tol=1e-10, return_eigenvectors=False)[0])
                 for part in parts for which in ("SA", "LA"))


def reference_steps(cfg: SystemConfig) -> int:
    """Step count resolving the raw nonlinear phases this picture retains."""
    n = cfg.model.n_cut
    rate = max(
        abs(cfg.delta),
        cfg.model.kappa * n * n,
        2.0 * abs(cfg.coupling_rate) * np.sqrt(cfg.model.dim),
        cfg.gamma * n,
    )
    return max(200, int(np.ceil(cfg.interaction_time * rate / 0.03)))


def reference_scattering_linear(g_q: complex, model, ladder) -> np.ndarray:
    """exp(g_q bdag x a - g_q* b x adag) on the whole (rungs m)-sized joint space."""
    from scipy.linalg import expm

    b = build_ladder(ladder).matrix
    return expm(g_q * np.kron(b.conj().T, model.a) - np.conj(g_q) * np.kron(b, model.a_dag))


def poisson_reference(mean: float, n_max: int) -> Distribution:
    """Truncated, renormalized Poisson table on photon numbers 0..n_max."""
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean}")
    n = np.arange(n_max + 1)
    if mean == 0:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
    else:
        logp = -mean + n * math.log(mean) - np.array([math.lgamma(k + 1) for k in n])
        p = np.exp(logp)
    return Distribution.from_values([str(int(k)) for k in n], p)


# ---------------------------------------------------------------------------
# gates

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
QUBIT_ZERO = np.array([1.0, 0.0], dtype=complex)
QUBIT_ONE = np.array([0.0, 1.0], dtype=complex)


def reference_scattering_blockade(omega: complex, lower: np.ndarray, upper: np.ndarray, rungs: int) -> np.ndarray:
    """Blockade pass on (electron ladder x cavity) as a sum of Kronecker products."""
    m = lower.size
    mag = abs(omega)
    arg = cmath.phase(omega) if mag > 0 else 0.0
    b = np.zeros((rungs, rungs), dtype=complex)
    cols = np.arange(rungs)
    b[(cols - 1) % rungs, cols] = 1.0
    proj = np.outer(lower, lower.conj()) + np.outer(upper, upper.conj())
    raise_pair = np.outer(upper, lower.conj())
    mat = np.eye(rungs * m, dtype=complex)
    mat += (math.cos(mag) - 1.0) * np.kron(np.eye(rungs), proj)
    mat += -1j * math.sin(mag) * (
        np.exp(1j * arg) * np.kron(b, raise_pair) + np.exp(-1j * arg) * np.kron(b.conj().T, raise_pair.conj().T)
    )
    return mat


def reference_embed_group(matrix: np.ndarray, labels, space: TensorSpace) -> np.ndarray:
    """kron(matrix, identity on the other factors), its tensor axes permuted into space order."""
    axes = [space.axis(lab) for lab in labels]
    rest = [i for i in range(len(space.factors)) if i not in axes]
    rest_dim = math.prod(space.dims[i] for i in rest)
    big = np.kron(np.asarray(matrix, dtype=complex), np.eye(rest_dim, dtype=complex))
    order = axes + rest
    inv = list(np.argsort(order))
    k = len(space.factors)
    dims = [space.dims[i] for i in order]
    tensor = np.transpose(big.reshape(dims + dims), inv + [k + i for i in inv])
    return tensor.reshape(space.dim, space.dim)


def reference_pass(omega: complex, space: TensorSpace, qubit: str, conditioned: bool) -> np.ndarray:
    """p0 + p1 @ s on the full space (just s when not conditioned on the path)."""
    d = space.dim_of("electron")
    s = reference_embed_group(reference_scattering_blockade(omega, QUBIT_ZERO, QUBIT_ONE, d),
                              ["electron", qubit], space)
    if not conditioned:
        return s
    p0 = reference_embed_group(np.diag([1.0, 0.0]), ["path"], space)
    p1 = reference_embed_group(np.diag([0.0, 1.0]), ["path"], space)
    return p0 + p1 @ s


def reference_cep_rz(phi: float, space: TensorSpace, qubit: str, conditioned: bool) -> np.ndarray:
    half_pi = 0.5 * math.pi
    return reference_pass(half_pi * cmath.exp(1j * phi), space, qubit, conditioned) @ reference_pass(
        half_pi, space, qubit, conditioned)


def cep_rz_target(phi: float) -> np.ndarray:
    """Polariton factor the two-pass z-rotation leaves on its interacting branch."""
    return -np.diag([cmath.exp(-1j * phi), cmath.exp(1j * phi)]).astype(complex)


def reference_cpe_path(space: TensorSpace, center: int, qubit: str, phase_first: float,
                       loss_to_path: int) -> np.ndarray:
    """Conditioned pass, spectrometer, pass at omega = pi/2, each on the full space."""
    d = space.dim_of("electron")
    flip = (center - 1) % d if loss_to_path == 0 else (center + 1) % d
    router = np.zeros((2 * d, 2 * d), dtype=complex)
    for rung in range(d):
        router[2 * rung : 2 * rung + 2, 2 * rung : 2 * rung + 2] = PAULI_X if rung == flip else np.eye(2)
    half_pi = 0.5 * math.pi
    first = reference_pass(half_pi * cmath.exp(1j * phase_first), space, qubit, True)
    second = reference_pass(half_pi, space, qubit, False)
    return second @ reference_embed_group(router, ["electron", "path"], space) @ first


def reference_cz_stages(space: TensorSpace, center: int, delta: float, loss_to: int) -> list[np.ndarray]:
    """The controlled-Z circuit's five gates on the full space, in the order they act."""
    h = reference_embed_group(HADAMARD, ["path"], space)
    rz1 = reference_cep_rz(0.5 * math.pi, space, "pol1", True)
    rz2 = reference_cep_rz(0.5 * math.pi, space, "pol2", True)
    return [reference_cpe_path(space, center, "pol1", delta, loss_to), rz2, h, rz1, h]


CzScore = namedtuple("CzScore", "induced ancilla entropy")


def _phase_fixed(anc: np.ndarray) -> np.ndarray:
    """`anc` with its largest entry real positive, the last of entries equal to 1e-12."""
    mags = np.abs(anc)
    k = np.flatnonzero(mags >= mags.max() - 1e-12)[-1]
    return anc * np.exp(-1j * np.angle(anc[k]))


def _entropy(p: np.ndarray) -> float:
    p = p[p > 1e-15]
    return float(-(p * np.log(p)).sum())


def cz_scores(u: np.ndarray, rungs: int, seed: int = 7) -> tuple[CzScore, CzScore]:
    """The dense circuit `u` on (electron, path, pol1, pol2), entered at the centre rung on the near path.

    Returns two scores.  The whole-map one reads M, the (ancilla) x (polariton
    out, polariton in) matrix, from the Gram matrix M M^dag: its top eigenvector
    is the ancilla and its normalized eigenvalues give the Schmidt entropy.  The
    probe one takes the ancilla from the uniform input's output (its leading left
    singular vector) and the largest entropy over the four basis, the uniform and
    20 random inputs drawn from `seed`.  Either induced map is ancilla^dag M.
    """
    anc_in = np.zeros(2 * rungs, dtype=complex)
    anc_in[2 * (rungs // 2) + 1] = 1.0
    m = (u @ np.kron(anc_in[:, None], np.eye(4))).reshape(2 * rungs, 16)
    gram, vecs = np.linalg.eigh(m @ m.conj().T)
    anc = _phase_fixed(vecs[:, -1])
    whole = CzScore((anc.conj() @ m).reshape(4, 4), anc, _entropy(np.clip(gram, 0, None) / gram.sum()))

    rng = np.random.default_rng(seed)
    probes = list(np.eye(4, dtype=complex)) + [0.5 * np.ones(4, dtype=complex)]
    for _ in range(20):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        probes.append(v / np.linalg.norm(v))
    outputs = [m.reshape(2 * rungs, 4, 4) @ chi for chi in probes]  # (ancilla) x (polariton out)
    anc = _phase_fixed(np.linalg.svd(outputs[4])[0][:, 0])
    entropy = max(_entropy(np.linalg.svd(out, compute_uv=False) ** 2) for out in outputs)
    return whole, CzScore((anc.conj() @ m).reshape(4, 4), anc, entropy)


def reference_cz(rungs: int, calibration: dict | None = None, seed: int = 7):
    """The controlled-Z at one calibration, scored on the dense circuit u = h rz1 h rz2 cpe.

    The default calibration is pass phase difference pi/4, spectrometer loss
    sector to path 0.  Returns (calibration, whole-map score, probe score), as
    `cz_scores` gives them.
    """
    if calibration is None:
        calibration = {"pass_phase_difference": math.pi / 4, "loss_to_path": 0}
    space = TensorSpace((("electron", rungs), ("path", 2), ("pol1", 2), ("pol2", 2)))
    stages = reference_cz_stages(space, rungs // 2, calibration["pass_phase_difference"],
                                 calibration["loss_to_path"])
    return calibration, *cz_scores(np.linalg.multi_dot(stages[::-1]), rungs, seed)
