"""Bipartite correlation measures: exact closed forms and a convex-roof optimizer.

Built-in measures are the concurrence and the concurrence of assistance,
registered as concurrence_assistance and under its alias tau_assistance (the
name the polygamy bounds use). Rank-1 states (by the spectrum each
DensityMatrix stores) are exact at any dimension; on two qubits both have a
closed form via the spin-flip spectrum. A mixed cut larger than 2x2 is first
restricted to the supports of its two reduced states: both measures are
invariant under a local isometry, and the ensembles of rho map one-to-one
onto those of its restriction. A side of rank 1 makes the value 0, a 2x2
restriction reaches the closed forms, and only what remains is estimated by
the convex-roof optimizer, flagged as an estimate.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    InvalidParameterError,
    InvalidPartitionError,
    OptimizerConfigError,
)
from .states import RANK_TOL, Bipartition, DensityMatrix, PureState

EXACT = "exact"
UPPER_ESTIMATE = "upper-estimate"
LOWER_ESTIMATE = "lower-estimate"

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY)


@dataclass(frozen=True)
class MeasureValue:
    """A measure evaluation plus how much to trust it."""

    value: float
    exactness: str
    optimizer_meta: dict = field(default_factory=dict)
    # a plain field, not a property: bound arithmetic reads it on every table lookup
    exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.value < 0:
            raise InvalidParameterError(f"measure value must be non-negative, got {self.value}")
        if self.exactness not in (EXACT, UPPER_ESTIMATE, LOWER_ESTIMATE):
            raise InvalidParameterError(f"unknown exactness flag {self.exactness!r}")
        if self.exactness == EXACT and self.optimizer_meta:
            raise InvalidParameterError("exact values carry no optimizer metadata")
        object.__setattr__(self, "exact", self.exactness == EXACT)


@dataclass(frozen=True)
class OptimizerConfig:
    """Convex-roof optimizer settings.

    ensemble_size None means rank + 2; the two spare ensemble members matter
    for separable states, whose optimal decompositions can need more members
    than the rank.
    """

    ensemble_size: int | None = None
    restarts: int = 16
    max_iters: int = 500
    tol: float = 1e-8
    seed: int = 17

    def __post_init__(self):
        counts = {"restarts": self.restarts, "max_iters": self.max_iters}
        if self.ensemble_size is not None:
            counts["ensemble_size"] = self.ensemble_size
        for name, value in counts.items():
            if not isinstance(value, numbers.Integral) or value < 1:
                raise OptimizerConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if not isinstance(self.tol, numbers.Real) or not 0 < self.tol < math.inf:
            raise OptimizerConfigError(f"tol must be a positive finite number, got {self.tol!r}")

    def margin(self) -> float:
        """Comparison margin for estimate-backed inequalities."""
        return 10.0 * self.tol + 1e-9


DEFAULT_OPT = OptimizerConfig()


@dataclass(frozen=True)
class CorrelationMeasure:
    """A named bipartite measure with its configured exponent powers.

    beta_max is the largest exponent for which the power-sum lower-bound
    relation is taken to hold, x_min the smallest exponent for the power-sum
    upper-bound relation. Both are per-measure configuration.
    """

    name: str
    beta_max: float = 2.0
    x_min: float = 2.0

    def __post_init__(self):
        if self.beta_max <= 0 or self.x_min <= 0:
            raise InvalidParameterError("beta_max and x_min must be positive")

    @property
    def assistance(self) -> bool:
        """True for the maximizing measure, under its own name or its alias."""
        return _MEASURES.get(self.name) is CONCURRENCE_ASSISTANCE


CONCURRENCE = CorrelationMeasure("concurrence")
CONCURRENCE_ASSISTANCE = CorrelationMeasure("concurrence_assistance")
# another name for the same measure (same value, flags and powers), kept so specs still parse
TAU_ASSISTANCE = CONCURRENCE_ASSISTANCE

_MEASURES = {"concurrence": CONCURRENCE, "concurrence_assistance": CONCURRENCE_ASSISTANCE,
             "tau_assistance": CONCURRENCE_ASSISTANCE}


def get_measure(name: str) -> CorrelationMeasure:
    try:
        return _MEASURES[name]
    except KeyError:
        raise InvalidParameterError(
            f"unsupported measure {name!r}; built-ins: {sorted(_MEASURES)}"
        ) from None


def _cut_shape(state_dims: tuple[int, ...], cut: Bipartition) -> tuple[list[int], int, int]:
    """Permutation bringing side_a parties first, plus the two side dimensions."""
    n = len(state_dims)
    if not cut.covers(n):
        raise InvalidPartitionError(
            f"cut {sorted(cut.side_a)}|{sorted(cut.side_b)} does not cover parties 0..{n - 1}"
        )
    order = sorted(cut.side_a) + sorted(cut.side_b)
    da = math.prod(state_dims[i] for i in cut.side_a)
    db = math.prod(state_dims[i] for i in cut.side_b)
    return order, da, db


def _cut_matrix(state: PureState, cut: Bipartition) -> np.ndarray:
    """Amplitudes reshaped to a (side_a x side_b) matrix."""
    order, da, db = _cut_shape(state.dims, cut)
    t = state.amplitudes.reshape(state.dims).transpose(order)
    return t.reshape(da, db)


def _pure_value(s2: np.ndarray) -> np.ndarray:
    """2 sqrt(sum_{i<j} s_i^2 s_j^2) over the squared singular values s2 on the last axis.

    Equal to sqrt(2 (t^2 - sum s^4)), t = sum s^2, but with no cancellation
    under the root: a near-product state gives no rounding noise.
    """
    tail = np.cumsum(s2[..., :0:-1], axis=-1)[..., ::-1]  # entry i: sum of s2[..., i + 1:]
    return 2.0 * np.sqrt((s2[..., :-1] * tail).sum(axis=-1))


def concurrence_pure(state: PureState, cut: Bipartition) -> MeasureValue:
    """sqrt(2 (1 - tr rho_A^2)) across the cut over the Schmidt weights above RANK_TOL; exact."""
    s2 = np.linalg.svd(_cut_matrix(state, cut), compute_uv=False) ** 2
    return MeasureValue(float(_pure_value(s2[s2 > RANK_TOL])), EXACT)


def _spin_flip_spectrum(rho: DensityMatrix) -> np.ndarray:
    """Spin-flip lambdas as singular values of Y^T (sy x sy) Y with rho = Y Y^H.

    Equivalent to the square roots of the eigenvalues of rho rho~, but exact
    for rank-deficient states where the non-Hermitian eigenvalue route loses
    half the working precision.
    """
    if rho.dims != (2, 2):
        raise DimensionError(f"two-qubit operator required, got dims {rho.dims}")
    w, v = rho.eigensystem()
    keep = w > 1e-15
    y = v[:, keep] * np.sqrt(w[keep])
    t = y.T @ _YY.real @ y
    lam = np.zeros(4)
    sv = np.linalg.svd(t, compute_uv=False)
    lam[: sv.size] = sv
    return lam


def wootters_concurrence(rho: DensityMatrix) -> MeasureValue:
    """Two-qubit mixed-state concurrence, max(0, l1 - l2 - l3 - l4)."""
    lam = _spin_flip_spectrum(rho)
    return MeasureValue(max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3])), EXACT)


def assistance_2q(rho: DensityMatrix) -> MeasureValue:
    """Two-qubit assistance value, l1 + l2 + l3 + l4."""
    lam = _spin_flip_spectrum(rho)
    return MeasureValue(float(lam.sum()), EXACT)


def _cut_factor(rho: DensityMatrix, order: list[int]) -> np.ndarray:
    """Y with rho = Y Y^H: the sqrt(w)-weighted eigenvectors above RANK_TOL, rows in cut order."""
    w, v = rho.eigensystem()
    keep = w > RANK_TOL
    vfac = v[:, keep] * np.sqrt(w[keep])
    # gather map: row in cut order = row[original order] at these indices
    flatperm = np.arange(vfac.shape[0]).reshape(rho.dims).transpose(order).reshape(-1)
    return vfac[flatperm, :]


def _support(f: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the range of f f^H (singular values with s^2 > RANK_TOL)."""
    u, s, _ = np.linalg.svd(f, full_matrices=False)
    return u[:, s * s > RANK_TOL]


def _compress(rho: DensityMatrix, cut: Bipartition) -> tuple[DensityMatrix, Bipartition] | None:
    """rho restricted to supp(rho_A) x supp(rho_B) across the cut, or None when a side has rank 1.

    Returns (rho, cut) unchanged when neither side shrinks. The restriction is
    not renormalized: its trace falls short of 1 only by the reduced-state
    weight below RANK_TOL.
    """
    order, da, db = _cut_shape(rho.dims, cut)
    y = _cut_factor(rho, order).reshape(da, db, -1)
    ua = _support(y.reshape(da, -1))
    ub = _support(y.transpose(1, 0, 2).reshape(db, -1))
    ra, rb = ua.shape[1], ub.shape[1]
    if ra == 1 or rb == 1:
        return None
    if ra == da and rb == db:
        return rho, cut
    y = np.einsum("ai,abk,bj->ijk", ua.conj(), y, ub.conj()).reshape(ra * rb, -1)
    return DensityMatrix(y @ y.conj().T, (ra, rb)), Bipartition({0}, {1})


def measure_bipartite(
    measure: CorrelationMeasure,
    state: PureState | DensityMatrix,
    cut: Bipartition,
    opt: OptimizerConfig = DEFAULT_OPT,
) -> MeasureValue:
    """Dispatch a measure across a cut: exact where possible, roof estimate otherwise.

    Exact paths: rank-1 states (a PureState, or one eigenvalue above RANK_TOL),
    via the pure concurrence (the assistance measure reduces to it there: the
    ensemble is forced), and 2x2 mixed states via the spin-flip closed forms.
    A larger mixed cut is restricted to the supports of its reduced states
    first: a side of rank 1 is a product state (value 0), a 2x2 restriction
    takes the closed forms, and any other restriction goes to convex_roof.
    """
    if measure.name not in _MEASURES:
        raise InvalidParameterError(f"unsupported measure {measure.name!r}")
    if isinstance(state, PureState):
        return concurrence_pure(state, cut)
    w, v = state.eigensystem()
    if np.count_nonzero(w > RANK_TOL) == 1:
        top = v[:, -1] / np.linalg.norm(v[:, -1])
        return concurrence_pure(PureState(top, state.dims), cut)
    if _cut_shape(state.dims, cut)[1:] != (2, 2):
        compressed = _compress(state, cut)
        if compressed is None:
            return MeasureValue(0.0, EXACT)
        state, cut = compressed
    if state.dims == (2, 2):
        # the cut is A|B or B|A of a two-qubit state; SWAP commutes with sy x sy,
        # so the spin-flip spectrum is the same in either party order
        return assistance_2q(state) if measure.assistance else wootters_concurrence(state)
    direction = "maximize" if measure.assistance else "minimize"
    return convex_roof(state, cut, direction, opt)


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first roof call so that commands
    without a roof never load scipy.optimize."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


# --- convex-roof optimizer ----------------------------------------------------
#
# Every size-m ensemble of rho arises as psi_k = sum_j W_kj sqrt(mu_j) |e_j>
# with W the first r columns of an m x m unitary U = exp(iH). The m^2 real
# parameters theta fill the Hermitian generator H directly: with npair =
# m(m-1)/2, theta[:npair] = re and theta[npair:2 npair] = im give the strict
# upper triangle in row-major order as H_ij = im - i re (the lower triangle is
# its conjugate), and theta[2 npair:] is the real diagonal. This placement is
# one gather map per m, computed once; the gradient flows back through the
# same map. From eigh(H) = V diag(lam) V^H only the m x r block
# W = V e^{i lam} V[:r]^H is formed, and one matmul with the eigenvector factor
# of rho gives every member M_k as a da x db matrix. With g_k = M_k M_k^H,
# t_k = tr g_k and f_k = sum |g_k|^2, the average concurrence is sum_k of the
# degree-2 homogeneous pure value c_k = sqrt(2 (t_k^2 - f_k)), smoothed near
# its kinks so L-BFGS gets an exact analytic gradient; reported values are
# always re-evaluated unsmoothed, so a minimize result is a true achievable
# ensemble average.


@functools.lru_cache(maxsize=None)
def _generator_layout(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather map (src, sgn): the float view of H is theta[src] * sgn.

    The imaginary diagonal has sgn 0. The map is linear, so a gradient in the
    float view of H pulls back to theta as bincount(src, sgn * grad).
    """
    iu, ju = np.triu_indices(m, 1)
    up, lo, dg = 2 * (iu * m + ju), 2 * (ju * m + iu), 2 * (m + 1) * np.arange(m)
    npair = iu.size
    re, im = np.arange(npair), npair + np.arange(npair)
    src = np.zeros(2 * m * m, dtype=np.intp)
    sgn = np.zeros(2 * m * m)
    for pos, idx, c in ((up, im, 1.0), (up + 1, re, -1.0), (lo, im, 1.0), (lo + 1, re, 1.0),
                        (dg, 2 * npair + np.arange(m), 1.0)):
        src[pos], sgn[pos] = idx, c
    src.flags.writeable = sgn.flags.writeable = False
    return src, sgn


def _members(theta, vfac, m, r, da, db):
    src, sgn = _generator_layout(m)
    lam, v = np.linalg.eigh((theta[src] * sgn).view(complex).reshape(m, m))
    vh = v.conj().T
    ph = np.exp(1j * lam)
    mem = ((v * ph) @ vh[:, :r] @ vfac.T).reshape(m, da, db)
    return mem, (lam, v, vh, ph)


def _gram(mem):
    """Per member: g = M M^H, t = tr g and f = sum |g|^2."""
    g = mem @ mem.conj().transpose(0, 2, 1)
    t = g.trace(axis1=1, axis2=2).real
    gf = g.reshape(len(g), -1).view(float)
    return g, t, (gf * gf).sum(axis=1)


def _member_values(mem) -> np.ndarray:
    """Unsmoothed member values: the pure value of every member's singular values."""
    return _pure_value(np.linalg.svd(mem, compute_uv=False) ** 2)


def _roof_objective(theta, vfac, m, r, da, db, sign, eps2):
    """Smoothed ensemble average and its gradient in the theta parameters."""
    mem, (lam, v, vh, ph) = _members(theta, vfac, m, r, da, db)
    g, t, f = _gram(mem)
    ce = np.sqrt(np.maximum(2.0 * (t * t - f), 0.0) + eps2)
    val = sign * float(ce.sum())

    k = (4.0 / ce)[:, None, None] * (t[:, None, None] * mem - g @ mem)
    gw = k.reshape(m, da * db) @ vfac.conj()
    p = vh @ (gw @ v[:r])
    dl = lam[:, None] - lam[None, :]
    close = np.abs(dl) < 1e-12
    gam = np.where(close, ph[:, None], (ph[:, None] - ph[None, :]) / (1j * np.where(close, 1.0, dl)))
    # gradient in the real and imaginary parts of H's entries, scattered back onto theta
    gh = -1j * (v @ (p * gam.conj()) @ vh)
    src, sgn = _generator_layout(m)
    return val, sign * np.bincount(src, sgn * gh.reshape(-1).view(float), m * m)


def convex_roof(
    rho: DensityMatrix,
    cut: Bipartition,
    direction: str,
    opt: OptimizerConfig = DEFAULT_OPT,
) -> MeasureValue:
    """Optimize the ensemble-average pure concurrence over all decompositions of rho.

    Returns the best value across restarts: an upper estimate when
    minimizing, a lower estimate when maximizing. Deterministic for a fixed
    (seed, restarts); ties go to the earliest restart.
    """
    if direction not in ("minimize", "maximize"):
        raise InvalidParameterError(f"direction must be minimize or maximize, got {direction!r}")
    order, da, db = _cut_shape(rho.dims, cut)
    vfac_cut = _cut_factor(rho, order)
    r = vfac_cut.shape[1]
    m = opt.ensemble_size if opt.ensemble_size is not None else r + 2
    if m < r:
        raise OptimizerConfigError(f"ensemble_size {m} is below the state rank {r}")
    sign, flag = (1.0, UPPER_ESTIMATE) if direction == "minimize" else (-1.0, LOWER_ESTIMATE)

    rng = np.random.default_rng(opt.seed)
    best = math.inf
    best_meta = {}
    for rs in range(opt.restarts):
        x0 = np.zeros(m * m) if rs == 0 else rng.standard_normal(m * m) * 0.7
        res = minimize(
            _roof_objective,
            x0,
            args=(vfac_cut, m, r, da, db, sign, 1e-12),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": opt.max_iters, "ftol": opt.tol * 1e-4, "gtol": 1e-10},
        )
        mem, _ = _members(res.x, vfac_cut, m, r, da, db)
        val = float(_member_values(mem).sum())
        if sign * val < best:
            best = sign * val
            best_meta = {"restarts": opt.restarts, "best_restart": rs,
                         "iterations": int(res.nit), "converged": bool(res.success)}
    return MeasureValue(max(0.0, sign * best), flag, best_meta)
