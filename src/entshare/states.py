"""Dense multipartite pure and mixed states, built-in families, sampling, JSON I/O.

Party 0 is always "A"; the remaining parties are B1, B2, ... in index order.
Everything is immutable after construction, so all operations are pure
functions and safe to call concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidPartitionError, InvalidStateError

NORM_TOL = 1e-12
HERM_TOL = 1e-10
EIG_CLAMP = 1e-10


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized pure state with explicit local dimensions."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 2 for d in dims):
            raise InvalidStateError(f"dims must be non-empty with every entry >= 2, got {dims}")
        if amps.size != math.prod(dims):
            raise InvalidStateError(
                f"amplitude length {amps.size} does not match prod(dims) = {math.prod(dims)}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise InvalidStateError(f"state norm {norm!r} deviates from 1 by more than {NORM_TOL}")
        object.__setattr__(self, "amplitudes", _freeze(amps))
        object.__setattr__(self, "dims", dims)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def density(self) -> DensityMatrix:
        rho = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityMatrix(rho, self.dims)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator with party structure."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        dims = tuple(int(d) for d in self.dims)
        side = math.prod(dims)
        if mat.shape != (side, side):
            raise InvalidStateError(f"matrix shape {mat.shape} does not match dims {dims}")
        if np.max(np.abs(mat - mat.conj().T)) > HERM_TOL:
            raise InvalidStateError("matrix is not Hermitian within tolerance")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > HERM_TOL:
            raise InvalidStateError(f"trace {tr!r} deviates from 1")
        if np.linalg.eigvalsh((mat + mat.conj().T) / 2).min() < -EIG_CLAMP:
            raise InvalidStateError("matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "matrix", _freeze(mat))
        object.__setattr__(self, "dims", dims)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (clamped at 0) and eigenvectors, ascending."""
        w, v = np.linalg.eigh((self.matrix + self.matrix.conj().T) / 2)
        return np.clip(w, 0.0, None), v

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def as_pure(self, tol: float = 1e-10) -> PureState | None:
        """Dominant eigenvector as a PureState if the operator is pure, else None."""
        if abs(self.purity() - 1.0) > tol:
            return None
        w, v = self.eigensystem()
        vec = v[:, int(np.argmax(w))]
        return PureState(vec / np.linalg.norm(vec), self.dims)


@dataclass(frozen=True)
class Bipartition:
    """A cut of the parties into two disjoint non-empty sides."""

    side_a: frozenset[int]
    side_b: frozenset[int]

    def __init__(self, side_a, side_b):
        a, b = frozenset(side_a), frozenset(side_b)
        if not a or not b:
            raise InvalidPartitionError("both sides of a bipartition must be non-empty")
        if a & b:
            raise InvalidPartitionError(f"sides overlap: {sorted(a & b)}")
        object.__setattr__(self, "side_a", a)
        object.__setattr__(self, "side_b", b)

    def parties(self) -> frozenset[int]:
        return self.side_a | self.side_b

    def covers(self, n_parties: int) -> bool:
        return self.parties() == frozenset(range(n_parties))


def cut_a_vs_rest(n_parties: int) -> Bipartition:
    """The A|B1...B_{N-1} cut."""
    return Bipartition({0}, set(range(1, n_parties)))


def partial_trace(state: PureState | DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the `keep` parties, preserving party order.

    `keep` must be a non-empty strict subset of the parties.
    """
    if isinstance(state, PureState):
        rho, dims = np.outer(state.amplitudes, state.amplitudes.conj()), state.dims
    else:
        rho, dims = state.matrix, state.dims
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep or any(k < 0 or k >= n for k in keep):
        raise InvalidPartitionError(f"keep set {keep} is not a valid non-empty subset of 0..{n - 1}")
    if len(keep) == n:
        raise InvalidPartitionError("keep set equals all parties; nothing to trace out")
    work_dims = list(dims)
    r = rho.reshape(work_dims + work_dims)
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        r = np.trace(r, axis1=idx, axis2=idx + len(work_dims))
        del work_dims[idx]
    d = math.prod(work_dims)
    return DensityMatrix(r.reshape(d, d), tuple(work_dims))


def purify(rho: DensityMatrix) -> PureState:
    """Pure state on system x ancilla whose system reduction equals `rho`.

    The ancilla dimension is max(rank, 2) and is appended as a new party.
    """
    w, v = rho.eigensystem()
    keep = w > 1e-12
    r = int(np.count_nonzero(keep))
    if r == 0:
        raise InvalidStateError("cannot purify an operator with no positive spectrum")
    anc = max(r, 2)
    d = rho.matrix.shape[0]
    psi = np.zeros((d, anc), dtype=complex)
    cols = np.flatnonzero(keep)
    for j, c in enumerate(cols):
        psi[:, j] = np.sqrt(w[c]) * v[:, c]
    vec = psi.reshape(-1)
    vec = vec / np.linalg.norm(vec)
    return PureState(vec, rho.dims + (anc,))


_FAMILY_IDS = ("3q", "4q-theta", "w4", "w5", "ghz")


def make_family(name: str, params=()) -> PureState:
    """Built-in state families.

    - "3q": three qubits, params (l0..l4[, phi]); li >= 0 with sum of squares 1.
    - "4q-theta": four qubits, params (theta0, theta1[, phi]) in [0, pi/2].
    - "w4", "w5": four/five-qubit W states, no params.
    - "ghz": n-qubit GHZ, params (n,) with n >= 3.
    """
    params = [float(p) for p in params]
    if name == "3q":
        return _family_3q(params)
    if name == "4q-theta":
        return _family_4q_theta(params)
    if name == "w4":
        return w_state(4)
    if name == "w5":
        return w_state(5)
    if name == "ghz":
        if len(params) != 1 or params[0] != int(params[0]) or int(params[0]) < 3:
            raise InvalidParameterError("ghz family needs a single integer party count n >= 3")
        return ghz_state(int(params[0]))
    raise InvalidParameterError(f"unknown family {name!r}; known: {_FAMILY_IDS}")


def _family_3q(params) -> PureState:
    if len(params) not in (5, 6):
        raise InvalidParameterError("3q family needs 5 amplitudes l0..l4 plus optional phase")
    lams, phi = params[:5], (params[5] if len(params) == 6 else 0.0)
    if any(l < 0 for l in lams):
        raise InvalidParameterError("3q family amplitudes must be non-negative")
    if abs(sum(l * l for l in lams) - 1.0) > 1e-6:
        raise InvalidParameterError("3q family amplitudes must have unit sum of squares")
    scale = 1.0 / math.sqrt(sum(l * l for l in lams))
    l0, l1, l2, l3, l4 = (l * scale for l in lams)
    v = np.zeros(8, dtype=complex)
    v[0b000] = l0
    v[0b100] = l1 * np.exp(1j * phi)
    v[0b101] = l2
    v[0b110] = l3
    v[0b111] = l4
    return PureState(v, (2, 2, 2))


def _family_4q_theta(params) -> PureState:
    if len(params) not in (2, 3):
        raise InvalidParameterError("4q-theta family needs (theta0, theta1) plus optional phase")
    t0, t1 = params[0], params[1]
    phi = params[2] if len(params) == 3 else 0.0
    if not (0.0 <= t0 <= math.pi / 2 + 1e-12 and 0.0 <= t1 <= math.pi / 2 + 1e-12):
        raise InvalidParameterError("theta parameters must lie in [0, pi/2]")
    s = math.sin(t0) * math.sin(t1)
    v = np.zeros(16, dtype=complex)
    v[0b0000] = math.cos(t0)
    v[0b1000] = math.sin(t0) * math.cos(t1) * np.exp(1j * phi)
    v[0b1010] = 0.5 * s
    v[0b1100] = 0.75 * s
    v[0b1110] = (math.sqrt(3) / 4) * s
    return PureState(v, (2, 2, 2, 2))


def w_state(n: int) -> PureState:
    v = np.zeros(2**n, dtype=complex)
    for k in range(n):
        v[1 << (n - 1 - k)] = 1.0 / math.sqrt(n)
    return PureState(v, (2,) * n)


def ghz_state(n: int) -> PureState:
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1.0 / math.sqrt(2)
    return PureState(v, (2,) * n)


def haar_random_pure(dims, seed: int) -> PureState:
    """Haar-random pure state; deterministic for a fixed seed.

    Sampling: complex standard normal vector (numpy default_rng / PCG64 stream
    identified by `seed`), normalized.
    """
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng(seed)
    d = math.prod(dims)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(z / np.linalg.norm(z), dims)


def state_to_json(state: PureState) -> str:
    """Serialize to the dims/amplitudes JSON schema (zero amplitudes omitted)."""
    dims = list(state.dims)
    entries = []
    for flat, amp in enumerate(state.amplitudes):
        if amp == 0:
            continue
        idx = []
        rem = flat
        for d in reversed(dims):
            idx.append(rem % d)
            rem //= d
        entries.append({"index": idx[::-1], "re": float(amp.real), "im": float(amp.imag)})
    return json.dumps({"dims": dims, "amplitudes": entries}, indent=2)


def state_from_json(text: str) -> PureState:
    """Load a state from the JSON schema; renormalizes only tiny deviations (< 1e-6)."""
    doc = json.loads(text)
    dims = tuple(int(d) for d in doc["dims"])
    v = np.zeros(math.prod(dims), dtype=complex)
    for entry in doc["amplitudes"]:
        idx = entry["index"]
        if len(idx) != len(dims) or any(not (0 <= i < d) for i, d in zip(idx, dims)):
            raise InvalidStateError(f"amplitude index {idx} out of range for dims {dims}")
        flat = 0
        for i, d in zip(idx, dims):
            flat = flat * d + int(i)
        v[flat] = complex(entry.get("re", 0.0), entry.get("im", 0.0))
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-6:
        raise InvalidStateError(f"state in JSON has norm {norm!r}; refusing to normalize")
    return PureState(v / norm, dims)
