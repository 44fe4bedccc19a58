"""Labeled tensor-product spaces and dense complex operator algebra.

Every factor of a joint Hilbert space carries a text label; all higher-level
code addresses factors by label, never by raw index position.  Operators,
state vectors and density matrices are immutable value objects wrapping dense
complex numpy arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "TensorSpace",
    "Operator",
    "StateVector",
    "DensityMatrix",
    "kron",
    "embed",
    "embed_group",
    "partial_trace",
    "expectation",
]

HERMITICITY_TOL = 1e-10
NORM_TOL = 1e-12


@dataclass(frozen=True)
class TensorSpace:
    """Ordered list of (label, dimension) factors; leftmost factor varies slowest."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        factors = tuple((str(lab), int(dim)) for lab, dim in self.factors)
        object.__setattr__(self, "factors", factors)
        labels = [lab for lab, _ in factors]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate factor labels in {labels}")
        for lab, dim in factors:
            if dim < 1:
                raise ValueError(f"factor {lab!r} has non-positive dimension {dim}")

    @classmethod
    def single(cls, label: str, dim: int) -> "TensorSpace":
        return cls(((label, dim),))

    @property
    def dim(self) -> int:
        return math.prod(d for _, d in self.factors)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    def axis(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.factors):
            if lab == label:
                return i
        raise KeyError(f"unknown factor label {label!r}; have {self.labels}")

    def dim_of(self, label: str) -> int:
        return self.factors[self.axis(label)][1]

    def tensor(self, other: "TensorSpace") -> "TensorSpace":
        return TensorSpace(self.factors + other.factors)

    def __eq__(self, other) -> bool:
        return isinstance(other, TensorSpace) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)


def _as_square(matrix: np.ndarray, dim: int, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"{what} has shape {m.shape}, expected {(dim, dim)}")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class Operator:
    """Dense complex matrix acting on a labeled tensor-product space."""

    space: TensorSpace
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_square(self.matrix, self.space.dim, "operator matrix"))

    @classmethod
    def identity(cls, space: TensorSpace) -> "Operator":
        return cls(space, np.eye(space.dim, dtype=complex))

    def dagger(self) -> "Operator":
        return Operator(self.space, self.matrix.conj().T)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def unitarity_defect(self) -> float:
        d = self.matrix @ self.matrix.conj().T - np.eye(self.space.dim)
        return float(np.max(np.abs(d)))

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return self.hermiticity_defect() <= tol

    def is_unitary(self, tol: float = 1e-12) -> bool:
        return self.unitarity_defect() <= tol

    def _require_same_space(self, other: "Operator"):
        if self.space != other.space:
            raise ValueError(f"operator spaces differ: {self.space.labels} vs {other.space.labels}")

    def __matmul__(self, other):
        if isinstance(other, Operator):
            self._require_same_space(other)
            return Operator(self.space, self.matrix @ other.matrix)
        if isinstance(other, StateVector):
            if self.space != other.space:
                raise ValueError("operator/state space mismatch")
            return StateVector(other.space, self.matrix @ other.amplitudes, normalized=False)
        return NotImplemented

    def __add__(self, other: "Operator") -> "Operator":
        self._require_same_space(other)
        return Operator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        self._require_same_space(other)
        return Operator(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(self.space, self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Operator":
        return Operator(self.space, -self.matrix)


@dataclass(frozen=True)
class StateVector:
    """Pure state with unit norm on a labeled space."""

    space: TensorSpace
    amplitudes: np.ndarray
    normalized: bool = field(default=True, repr=False)

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.shape != (self.space.dim,):
            raise ValueError(f"state has length {amp.shape[0]}, expected {self.space.dim}")
        if self.normalized:
            nrm = float(np.linalg.norm(amp))
            if abs(nrm - 1.0) > NORM_TOL:
                raise ValueError(f"state norm {nrm!r} deviates from 1 beyond {NORM_TOL}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def basis(cls, space: TensorSpace, index: int) -> "StateVector":
        amp = np.zeros(space.dim, dtype=complex)
        amp[index] = 1.0
        return cls(space, amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalize(self) -> "StateVector":
        return StateVector(self.space, self.amplitudes / np.linalg.norm(self.amplitudes))

    def overlap(self, other: "StateVector") -> complex:
        if self.space != other.space:
            raise ValueError("state spaces differ")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(self.space, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state: Hermitian, unit trace (within drift bound), positive."""

    space: TensorSpace
    matrix: np.ndarray
    trace_tol: float = field(default=1e-8, repr=False)

    def __post_init__(self):
        m = _as_square(self.matrix, self.space.dim, "density matrix")
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"density matrix hermiticity defect {herm:.3e} exceeds {HERMITICITY_TOL}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > self.trace_tol:
            raise ValueError(f"density matrix trace {tr!r} deviates from 1 beyond {self.trace_tol}")
        object.__setattr__(self, "matrix", m)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    def check_positive(self, bound: float = -1e-8) -> float:
        """Return the minimum eigenvalue; raise if it falls below `bound`."""
        lo = self.min_eigenvalue()
        if lo < bound:
            raise ValueError(f"density matrix min eigenvalue {lo:.3e} below bound {bound:.3e}")
        return lo


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor product with a's factors leftmost (slowest varying)."""
    return Operator(a.space.tensor(b.space), np.kron(a.matrix, b.matrix))


def embed(local: Operator | np.ndarray, target_label: str, space: TensorSpace) -> Operator:
    """Lift an operator on a single named factor to the full space."""
    matrix = local.matrix if isinstance(local, Operator) else np.asarray(local, dtype=complex)
    d = space.dim_of(target_label)
    if matrix.shape != (d, d):
        raise ValueError(
            f"local operator shape {matrix.shape} does not match factor {target_label!r} of dimension {d}"
        )
    return embed_group(matrix, [target_label], space)


def embed_group(matrix: np.ndarray, labels: Sequence[str], space: TensorSpace) -> Operator:
    """Lift an operator acting jointly on the named factors (in the given order).

    The factors need not be adjacent in the space; the result acts as the
    identity on every unnamed factor.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if not labels:
        raise ValueError("embed_group needs at least one target label")
    axes = [space.axis(lab) for lab in labels]
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate labels in {labels}")
    sub_dim = math.prod(space.dims[a] for a in axes)
    if matrix.shape != (sub_dim, sub_dim):
        raise ValueError(f"group operator shape {matrix.shape}, expected {(sub_dim, sub_dim)}")
    k = len(space.factors)
    rest = [i for i in range(k) if i not in axes]
    t, r = len(axes), len(rest)
    rest_dims = [space.dims[i] for i in rest]
    identity = np.eye(math.prod(rest_dims), dtype=complex).reshape(rest_dims * 2)
    tensor = np.multiply.outer(matrix.reshape([space.dims[a] for a in axes] * 2), identity)
    # tensor axes are (target rows, target cols, rest rows, rest cols); reorder to
    # (rows, cols), each in canonical factor order
    position = np.argsort(axes + rest)
    rows = [p if p < t else p + t for p in position]
    cols = [p + t if p < t else p + t + r for p in position]
    return Operator(space, np.transpose(tensor, rows + cols).reshape(space.dim, space.dim))


def partial_trace(rho: DensityMatrix, keep_labels: Iterable[str]) -> DensityMatrix:
    """Trace out every factor not named in keep_labels; kept factor order preserved."""
    keep = list(keep_labels)
    if not keep:
        raise ValueError("partial_trace needs at least one label to keep")
    keep_axes = sorted(rho.space.axis(lab) for lab in keep)
    k = len(rho.space.factors)
    dims = rho.space.dims
    tensor = rho.matrix.reshape(dims + dims)
    # contract each traced factor's row/col axis pair
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if 2 * k > len(letters):
        raise ValueError("too many factors for partial trace")
    row = list(letters[:k])
    col = list(letters[k : 2 * k])
    out = []
    for i in range(k):
        if i in keep_axes:
            out.append(row[i])
        else:
            col[i] = row[i]
    out += [col[i] for i in keep_axes]
    reduced = np.einsum("".join(row + col) + "->" + "".join(out), tensor)
    sub_dim = math.prod(dims[i] for i in keep_axes)
    new_space = TensorSpace(tuple(rho.space.factors[i] for i in keep_axes))
    reduced = reduced.reshape(sub_dim, sub_dim)
    reduced = 0.5 * (reduced + reduced.conj().T)
    return DensityMatrix(new_space, reduced, trace_tol=rho.trace_tol)


def expectation(rho: DensityMatrix, op: Operator) -> complex:
    """trace(rho @ op); real to round-off when op is Hermitian."""
    if rho.space != op.space:
        raise ValueError(f"state/operator spaces differ: {rho.space.labels} vs {op.space.labels}")
    return complex(np.trace(rho.matrix @ op.matrix))
