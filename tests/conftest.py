"""Shared fixtures and independent oracle implementations.

The oracles here deliberately avoid the package's own code paths: partial
traces by explicit index summation, and the two-qubit spin-flip spectrum via
the Hermitian square-root construction, so tests cross-check rather than echo
the implementation.
"""

from itertools import combinations

import numpy as np
import pytest

from entshare.states import PureState, haar_random_pure, w_state


def oracle_reduce(amps: np.ndarray, dims, keep) -> np.ndarray:
    """Reduced density matrix by direct summation over the traced basis."""
    dims = list(dims)
    keep = sorted(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep]))
    psi = amps.reshape(dims)
    rho = np.zeros((dk, dk), dtype=complex)
    tr_shapes = [range(dims[i]) for i in traced]
    import itertools

    for assign in itertools.product(*tr_shapes):
        slicer = [slice(None)] * len(dims)
        for ax, val in zip(traced, assign):
            slicer[ax] = val
        block = psi[tuple(slicer)].reshape(-1)
        rho += np.outer(block, block.conj())
    return rho


_SY = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_SY, _SY)


def oracle_spin_flip_spectrum(rho: np.ndarray) -> np.ndarray:
    """Spin-flip lambdas via the Hermitian sqrt(sqrt(rho) rho~ sqrt(rho)) route.

    On a rank-deficient rho the vanishing lambdas come out as square roots of
    eigenvalue rounding noise, about sqrt(eps) ~ 1e-8 rather than 0, so the
    oracles built on it carry errors of about 1e-7 there (every pair
    reduction of a pure three-qubit state): compare them no tighter.
    """
    w, v = np.linalg.eigh(rho)
    sq = (v * np.sqrt(np.clip(w, 0, None))) @ v.conj().T
    tilde = _YY @ rho.conj() @ _YY
    inner = sq @ tilde @ sq
    lam2 = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0, None)
    return np.sort(np.sqrt(lam2))[::-1]


def oracle_wootters(rho: np.ndarray) -> float:
    lam = oracle_spin_flip_spectrum(rho)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def oracle_lambda_sum(rho: np.ndarray) -> float:
    return float(oracle_spin_flip_spectrum(rho).sum())


def random_two_qubit_mixed(seed: int, rank: int) -> np.ndarray:
    """Induced-measure random two-qubit state of the given rank."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    z /= np.linalg.norm(z)
    return z @ z.conj().T


@pytest.fixture
def bell() -> PureState:
    return PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))


def all_subsets(n_b: int) -> list[tuple[int, ...]]:
    """Every non-empty subset of the B parties 1..n_b, as a sorted tuple."""
    return [s for r in range(1, n_b + 1) for s in combinations(range(1, n_b + 1), r)]


def near_w(n: int, eps: float = 1e-3) -> PureState:
    """w_state(n) plus eps times a Haar-random state, renormalized.

    At the default eps every reduced state of a joint with two or more B
    parties keeps a rank above 2, so these joints still need a convex roof
    after the dispatch restricts them to their supports: tables of this
    state carry estimates.
    """
    amps = w_state(n).amplitudes + eps * haar_random_pure((2,) * n, 0).amplitudes
    return PureState(amps / np.linalg.norm(amps), (2,) * n)


@pytest.fixture
def no_roof(monkeypatch):
    """Make convex_roof raise, so a test sees every value come from an exact path."""
    from entshare import measures

    def raising(*args, **kwargs):
        raise AssertionError("convex_roof called")

    monkeypatch.setattr(measures, "convex_roof", raising)
