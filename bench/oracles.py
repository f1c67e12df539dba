"""Independent reference math for the benchmark's output checks.

Nothing here imports entshare or the test suite: reduced states come from
reshaping the amplitude tensor, the two-qubit concurrence from the Hermitian
square-root route to the spin-flip spectrum, and the roof brackets from
Jensen's inequality and the Chen-Albeverio-Fei bound.
"""

from __future__ import annotations

import math

import numpy as np

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY)


def haar_amplitudes(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    """Haar-random pure state as a normalized complex Gaussian vector."""
    d = 2**n_qubits
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def state_json(amps: np.ndarray, dims: tuple[int, ...]) -> dict:
    """The CLI's --state schema, one entry per basis index in row-major order."""
    entries = []
    for flat, index in enumerate(np.ndindex(*dims)):
        a = complex(amps[flat])
        entries.append({"index": list(index), "re": a.real, "im": a.imag})
    return {"dims": list(dims), "amplitudes": entries}


def reduce(amps: np.ndarray, dims: tuple[int, ...], keep: list[int]) -> np.ndarray:
    """Density matrix of the `keep` parties (in index order) of a pure state."""
    rest = [i for i in range(len(dims)) if i not in keep]
    dk = math.prod(dims[i] for i in keep)
    m = amps.reshape(dims).transpose(sorted(keep) + rest).reshape(dk, -1)
    return m @ m.conj().T


def jensen_bound(amps: np.ndarray, dims: tuple[int, ...]) -> float:
    """sqrt(2 (1 - tr rho_A^2)): no decomposition average across A|S exceeds it."""
    rho_a = reduce(amps, dims, [0])
    return math.sqrt(max(0.0, 2.0 * (1.0 - float(np.trace(rho_a @ rho_a).real))))


def _trace_norm_hermitian(m: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh((m + m.conj().T) / 2)).sum())


def caf_bound(rho: np.ndarray, da: int, db: int) -> float:
    """Chen-Albeverio-Fei lower bound on the concurrence across the da x db cut.

    sqrt(2 / (m (m - 1))) * (max(||rho^T_A||_1, ||R(rho)||_1) - 1) with
    m = min(da, db), in the sqrt(2 (1 - tr rho_A^2)) normalization.
    """
    t = rho.reshape(da, db, da, db)
    pt = t.transpose(2, 1, 0, 3).reshape(da * db, da * db)
    realigned = t.transpose(0, 2, 1, 3).reshape(da * da, db * db)
    norm = max(_trace_norm_hermitian(pt), float(np.linalg.svd(realigned, compute_uv=False).sum()))
    m = min(da, db)
    return math.sqrt(2.0 / (m * (m - 1))) * (norm - 1.0)


def wootters(rho: np.ndarray) -> float:
    """Two-qubit concurrence from sqrt(sqrt(rho) rho~ sqrt(rho))."""
    w, v = np.linalg.eigh(rho)
    sq = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = sq @ (_YY @ rho.conj() @ _YY) @ sq
    lam = np.sort(np.sqrt(np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0.0, None)))
    return max(0.0, float(lam[3] - lam[2] - lam[1] - lam[0]))


def family_3q(params: list[float]) -> np.ndarray:
    """l0|000> + l1|100> + l2|101> + l3|110> + l4|111>, party A most significant."""
    v = np.zeros(8, dtype=complex)
    for index, amp in zip((0b000, 0b100, 0b101, 0b110, 0b111), params):
        v[index] = amp
    return v / np.linalg.norm(v)


def family_4q_theta(t0: float, t1: float) -> np.ndarray:
    s = math.sin(t0) * math.sin(t1)
    v = np.zeros(16, dtype=complex)
    v[0b0000] = math.cos(t0)
    v[0b1000] = math.sin(t0) * math.cos(t1)
    v[0b1010] = 0.5 * s
    v[0b1100] = 0.75 * s
    v[0b1110] = (math.sqrt(3) / 4) * s
    return v


# Accuracy of the oracle's exact components: the square-root route to the
# spin-flip spectrum keeps about half the digits on rank-deficient states, and
# the program computes a vanishing concurrence as a few 1e-16, which any
# exponent near 0 lifts towards 1. Every component is therefore an interval.
EPS = 1e-8


def _interval(q: float) -> tuple[float, float]:
    return max(0.0, q - EPS), q + EPS


def residual_3q(amps: np.ndarray):
    """Lower and upper oracle curves for q_AB^a + q_AC^a - q_A|BC^a, a > 0."""
    dims = (2, 2, 2)
    ab_lo, ab_hi = _interval(wootters(reduce(amps, dims, [0, 1])))
    ac_lo, ac_hi = _interval(wootters(reduce(amps, dims, [0, 2])))
    j_lo, j_hi = _interval(jensen_bound(amps, dims))  # exact for a pure state

    def lo(a):
        return ab_lo**a + ac_lo**a - j_hi**a

    def hi(a):
        return ab_hi**a + ac_hi**a - j_lo**a

    return lo, hi


def beta_bracket_4q(amps: np.ndarray):
    """Lower and upper oracle curves for the empirical-beta function of a four-qubit state.

    That function is bound(a) - lhs^a plus a margin below 1e-6. With three B
    parties the residual-max bound is the minimum over pairs (i, j) of
    q_k^a + q_ij^a, k the third party. The marginals q_k and the joint q_123
    are exact; each pair value q_ij is a roof estimate, which lies between
    its Chen-Albeverio-Fei bound and q_123.
    """
    dims = (2, 2, 2, 2)
    q = {k: _interval(wootters(reduce(amps, dims, [0, k]))) for k in (1, 2, 3)}
    caf = {k: max(0.0, caf_bound(reduce(amps, dims, [0, i, j]), 2, 4) - EPS)
           for i, j, k in ((1, 2, 3), (1, 3, 2), (2, 3, 1))}
    j_lo, j_hi = _interval(jensen_bound(amps, dims))

    def lo(a):
        return min(q[k][0] ** a + caf[k] ** a for k in q) - j_hi**a

    def hi(a):
        return min(q[k][1] ** a for k in q) + j_hi**a - j_lo**a

    return lo, hi
