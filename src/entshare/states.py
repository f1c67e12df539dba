"""Dense multipartite pure and mixed states, built-in families, sampling, JSON I/O.

Party 0 is always "A"; the remaining parties are B1, B2, ... in index order.
Everything is immutable after construction, so all operations are pure
functions and safe to call concurrently.
"""

from __future__ import annotations

import json
import math
import numbers
import reprlib
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, InvalidPartitionError, InvalidStateError

NORM_TOL = 1e-12
HERM_TOL = 1e-10
EIG_CLAMP = 1e-10
RANK_TOL = 1e-12  # eigenvalues above this count toward the rank, wherever rank is read
# The most amplitudes a state may have. partial_trace builds the d x d density
# matrix of the whole state, 256 MiB of complex entries at d = 4,096, while no
# state in the tests, the output digests or the benchmark has more than 64.
MAX_AMPLITUDES = 4096


def check_size(dims, source: str) -> None:
    """Raise InvalidStateError when `dims` multiply past MAX_AMPLITUDES, before any allocation.

    The product stops at the first factor past the limit, so a lazy iterable
    of any length is checked without building it.
    """
    size = 1
    for d in dims:
        size *= d
        if size > MAX_AMPLITUDES:
            raise InvalidStateError(f"{source}: more than {MAX_AMPLITUDES} amplitudes, "
                                    f"the most a state may have")


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
        if not abs(norm - 1.0) <= NORM_TOL:  # written so that a NaN fails it
            raise InvalidStateError(f"state norm {float(norm)} deviates from 1 "
                                    f"by more than {NORM_TOL}")
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
    """Hermitian, unit-trace, PSD operator with party structure, diagonalized once when built."""

    matrix: np.ndarray
    dims: tuple[int, ...]
    _spectrum: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        mat = _freeze(np.asarray(self.matrix, dtype=complex))
        dims = tuple(int(d) for d in self.dims)
        side = math.prod(dims)
        if mat.shape != (side, side):
            raise InvalidStateError(f"matrix shape {mat.shape} does not match dims {dims}")
        # finite first, so the Hermitian residual never computes inf - inf
        if not (np.isfinite(mat).all() and np.max(np.abs(mat - mat.conj().T)) <= HERM_TOL):
            raise InvalidStateError("matrix is not finite and Hermitian within tolerance")
        tr = np.trace(mat).real
        if not abs(tr - 1.0) <= HERM_TOL:
            raise InvalidStateError(f"trace {tr!r} deviates from 1")
        w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
        if w.min() < -EIG_CLAMP:
            raise InvalidStateError("matrix has an eigenvalue below -1e-10")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_spectrum", (_freeze(np.clip(w, 0.0, None)), _freeze(v)))

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (clamped at 0) and eigenvectors, ascending; read-only."""
        return self._spectrum


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
    keep = list(keep)
    if not all(isinstance(k, numbers.Integral) for k in keep):
        raise InvalidPartitionError(f"keep set {keep} holds a party that is not an integer")
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


_FAMILY_IDS = ("3q", "4q-theta", "w4", "w5", "ghz")


def make_family(name: str, params=()) -> PureState:
    """Built-in state families.

    - "3q": three qubits, params (l0..l4[, phi]); li >= 0 with sum of squares 1.
    - "4q-theta": four qubits, params (theta0, theta1[, phi]) in [0, pi/2].
    - "w4", "w5": four/five-qubit W states, no params.
    - "ghz": n-qubit GHZ, params (n,) with n >= 3.
    """
    try:
        params = [float(p) for p in params]
    except ValueError:
        raise InvalidParameterError(f"{name} family params must be numbers, "
                                    f"got {params!r}") from None
    if name == "3q":
        return _family_3q(params)
    if name == "4q-theta":
        return _family_4q_theta(params)
    if name in ("w4", "w5"):
        if params:
            raise InvalidParameterError(f"{name} family takes no params")
        return w_state(int(name[1]))
    if name == "ghz":
        if len(params) != 1 or not params[0].is_integer() or params[0] < 3:
            raise InvalidParameterError("ghz family needs a single integer party count n >= 3")
        return ghz_state(int(params[0]))
    raise InvalidParameterError(f"unknown family {name!r}; known: {_FAMILY_IDS}")


def _family_3q(params) -> PureState:
    if len(params) not in (5, 6):
        raise InvalidParameterError("3q family needs 5 amplitudes l0..l4 plus optional phase")
    lams, phi = params[:5], (params[5] if len(params) == 6 else 0.0)
    if not math.isfinite(phi):
        raise InvalidParameterError(f"3q family phase must be finite, got {phi}")
    if not all(l >= 0 for l in lams):  # written so that a NaN fails it
        raise InvalidParameterError("3q family amplitudes must be non-negative numbers")
    if not abs(sum(l * l for l in lams) - 1.0) <= 1e-6:
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
    if not math.isfinite(phi):
        raise InvalidParameterError(f"4q-theta family phase must be finite, got {phi}")
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
    check_size((2 for _ in range(n)), f"a {n}-qubit W state")
    v = np.zeros(2**n, dtype=complex)
    for k in range(n):
        v[1 << (n - 1 - k)] = 1.0 / math.sqrt(n)
    return PureState(v, (2,) * n)


def ghz_state(n: int) -> PureState:
    check_size((2 for _ in range(n)), f"a {n}-qubit GHZ state")
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1.0 / math.sqrt(2)
    return PureState(v, (2,) * n)


def haar_random_pure(dims, seed: int) -> PureState:
    """Haar-random pure state; deterministic for a fixed seed.

    Sampling: complex standard normal vector (numpy default_rng / PCG64 stream
    identified by `seed`), normalized.
    """
    dims = tuple(int(d) for d in dims)
    check_size(dims, "a Haar-random state")
    rng = np.random.default_rng(seed)
    d = math.prod(dims)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(z / np.linalg.norm(z), dims)


_ESCAPE = json.encoder.encode_basestring_ascii  # the C string escaper json.dumps uses


def _json_float(x: float) -> str:
    """float.__repr__, or NaN, Infinity and -Infinity as json.dumps writes them."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _json_rows(items, pad: str) -> str | None:
    """The items of a list of flat float rows of one length, through one %r row template.

    None sends the list to the general path: an item that is not a tuple or list
    of the first one's length, a cell that is not exactly a float (%r of a float
    subclass need not be its digits) or a non-finite cell (%r writes nan and
    inf). A sum is finite only when every term is, so one sum checks every cell;
    a sum that overflows sends the list to the general path too.
    """
    if {*map(type, items)} - {tuple, list} or len({*map(len, items)}) != 1 or not items[0]:
        return None
    k = len(items[0])
    cells = [x for row in items for x in row]
    if {*map(type, cells)} != {float} or not math.isfinite(sum(cells)):
        return None
    sep = ",\n" + pad + "  "
    row = "[" + sep[1:] + sep.join(["%r"] * k) + "\n" + pad + "]"
    return (",\n" + pad).join(map(row.__mod__, map(tuple, items)))


def _json(o, pad: str) -> str:
    """o as json.dumps(o, indent=2, sort_keys=True) writes it, its lines indented by pad."""
    if isinstance(o, str):
        return _ESCAPE(o)
    if isinstance(o, float):
        return _json_float(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    inner = pad + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        body = _json_rows(o, inner) or (",\n" + inner).join([_json(x, inner) for x in o])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        body = (",\n" + inner).join([f"{_ESCAPE(k)}: {_json(v, inner)}"
                                     for k, v in sorted(o.items())])
        return f"{{\n{inner}{body}\n{pad}}}"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def json_text(doc) -> str:
    """doc as json.dumps(doc, indent=2, sort_keys=True) writes it: the package's one JSON writer.

    Dicts, lists and tuples, str, int, float, bool and None; any other type,
    and a dict key that is not a str, raises TypeError. Key-sorted dicts, a
    two-space indent, ints through int.__repr__, floats (subclasses too)
    through float.__repr__ and strings through json's C escaper. A list of
    flat float rows, such as a scan profile, is written through one %r row
    template (_json_rows).
    """
    return _json(doc, "")


def state_to_json(state: PureState) -> str:
    """Serialize to the dims/amplitudes JSON schema (zero amplitudes omitted), keys sorted."""
    psi = state.amplitudes.reshape(state.dims)
    entries = [{"index": [int(i) for i in idx], "re": float(psi[idx].real),
                "im": float(psi[idx].imag)} for idx in zip(*np.nonzero(psi))]
    return json_text({"dims": list(state.dims), "amplitudes": entries})


def _integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _finite_real(x) -> bool:
    """A JSON number, not a bool, that a float holds finitely."""
    if isinstance(x, float):
        return math.isfinite(x)
    return _integer(x) and abs(x) <= sys.float_info.max


def state_from_json(text: str) -> PureState:
    """Load a state from the JSON schema; renormalizes only tiny deviations (< 1e-6).

    One schema check, each rule an InvalidStateError: an object with lists
    `dims` (integers of 2 or more) and `amplitudes`, each amplitude an object
    with a distinct `index` (a list of in-range integers) and finite real
    `re` and `im` (0 when absent). A message quotes only the head of a long
    offending value (reprlib.repr), so it stays one short line.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise InvalidStateError("the state JSON nests too deeply to read") from None
    if not (isinstance(doc, dict) and isinstance(doc.get("dims"), list)
            and isinstance(doc.get("amplitudes"), list)):
        raise InvalidStateError("a state is an object with lists 'dims' and 'amplitudes'")
    dims = tuple(doc["dims"])
    if not dims or not all(_integer(d) and d >= 2 for d in dims):
        raise InvalidStateError(f"dims must be integers of 2 or more, "
                                f"got {reprlib.repr(doc['dims'])}")
    check_size(dims, "the JSON dims")
    v = np.zeros(dims, dtype=complex)
    seen = set()
    for entry in doc["amplitudes"]:
        idx = entry.get("index") if isinstance(entry, dict) else None
        if not (isinstance(idx, list) and len(idx) == len(dims)
                and all(_integer(i) and 0 <= i < d for i, d in zip(idx, dims))):
            raise InvalidStateError(f"amplitude index {reprlib.repr(idx)} is not a list of "
                                    f"in-range integers for dims {list(dims)}")
        if tuple(idx) in seen:
            raise InvalidStateError(f"amplitude index {idx} appears twice")
        seen.add(tuple(idx))
        parts = entry.get("re", 0.0), entry.get("im", 0.0)
        if not all(_finite_real(x) for x in parts):
            raise InvalidStateError(f"amplitude {idx}: re and im must be finite reals, "
                                    f"got {reprlib.repr(parts)}")
        v[tuple(idx)] = complex(*parts)
    v = v.reshape(-1)
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= 1e-6:
        raise InvalidStateError(f"state in JSON has norm {norm!r}; refusing to normalize")
    return PureState(v / norm, dims)
