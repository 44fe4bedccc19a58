"""Independent references for dual-route checks.

The propagator integrates the master equation exactly as written: dense
matrices in the bare labeled basis, the static nonlinear Hamiltonian kept
explicitly inside the generator, plain fixed-step RK4.  It writes the
interaction Hamiltonian itself, and shares no code with the production engine
beyond the cavity model's operators and the ladder's shift operator.

The loss chain's Chebyshev series is checked against scipy's Taylor-based
action of the matrix exponential on the same sparse generator, and the
generator's one-pass sparse build against one from Kronecker products.

The linear cavity's photon statistics are checked against a truncated
Poisson table.

The gate references build every operator on the full joint space from
Kronecker products and compose with full-space matrix products, the direct
route that the production builders avoid.  They use only the space's labels
and dimensions.
"""
from __future__ import annotations

import cmath
import math

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


def reference_chain_generator(sec, blocks: int, jump_down: int = 1):
    """The loss chain's generator (`dynamics._chain_generator` without a marginal
    block) as Kronecker products: identity(blocks) x diagonal plus a shift x jump,
    the sink row stacked below.  `jump_down` 0 puts the jump on the diagonal
    blocks instead of one depth down, a fault that keeps the trace."""
    import scipy.sparse as sp

    model, gamma, m = sec.cfg.model, sec.cfg.gamma, sec.m
    h_eff = sp.csr_matrix(sec.h - 0.5j * gamma * np.diag(sec.n_photon))
    eye = sp.identity(m, dtype=complex, format="csr")
    diagonal = -1j * (sp.kron(h_eff, eye) - sp.kron(eye, h_eff.conj()))
    a = sp.csr_matrix(model.a)
    jump = gamma * sp.kron(a, a.conj())
    shift = sp.eye(blocks, k=-jump_down, format="csr")
    if blocks == sec.d and jump_down:  # the whole cyclic ladder: the loss out of the last block re-enters the first
        shift = shift + sp.csr_matrix(([1.0], ([0], [blocks - 1])), shape=(blocks, blocks))
    gen = (sp.kron(sp.identity(blocks, format="csr"), diagonal) + sp.kron(shift, jump)).tocsr()
    if blocks == sec.d:
        return gen
    size = blocks * m * m
    last = (blocks - 1) * m * m + np.arange(m) * (m + 1)
    sink = sp.csr_matrix((gamma * sec.n_photon / model.n_cut, (np.zeros(m, dtype=int), last)), shape=(1, size))
    gen = sp.vstack([gen, sink], format="csr")
    gen.resize((size + 1, size + 1))
    return gen


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


def reference_cz(rungs: int, calibration: dict | None = None, seed: int = 7):
    """The controlled-Z at one calibration, scored on the dense circuit u = h rz1 h rz2 cpe.

    The default calibration is pass phase difference pi/4, spectrometer loss
    sector to path 0.  Returns (calibration, induced map, ancilla state, max
    entropy over the four basis, the uniform and 20 random probes).  The
    ancilla phase is fixed on its largest entry, the last of entries equal to 1e-12.
    """
    if calibration is None:
        calibration = {"pass_phase_difference": math.pi / 4, "loss_to_path": 0}
    center = rungs // 2
    space = TensorSpace((("electron", rungs), ("path", 2), ("pol1", 2), ("pol2", 2)))
    rng = np.random.default_rng(seed)
    probes = list(np.eye(4, dtype=complex)) + [0.5 * np.ones(4, dtype=complex)]
    for _ in range(20):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        probes.append(v / np.linalg.norm(v))
    anc_in = np.zeros(2 * rungs, dtype=complex)
    anc_in[2 * center + 1] = 1.0  # centre rung, near path
    stages = reference_cz_stages(space, center, calibration["pass_phase_difference"], calibration["loss_to_path"])
    u = np.linalg.multi_dot(stages[::-1])
    left = np.linalg.svd((u @ np.kron(anc_in, probes[4])).reshape(2 * rungs, 4))[0]
    anc_out = left[:, 0]
    mags = np.abs(anc_out)
    k = np.flatnonzero(mags >= mags.max() - 1e-12)[-1]
    anc_out = anc_out * np.exp(-1j * np.angle(anc_out[k]))
    entropy = 0.0
    for chi in probes:
        p = np.linalg.svd((u @ np.kron(anc_in, chi)).reshape(2 * rungs, 4), compute_uv=False) ** 2
        p = p[p > 1e-15]
        entropy = max(entropy, float(-(p * np.log(p)).sum()))
    induced = np.stack([anc_out.conj() @ (u @ np.kron(anc_in, e)).reshape(2 * rungs, 4) for e in probes[:4]], axis=1)
    return calibration, induced, anc_out, entropy
