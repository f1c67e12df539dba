"""Bipartite correlation measures: exact closed forms and a convex-roof optimizer.

Built-in measures are the concurrence and the concurrence of assistance,
registered as concurrence_assistance and under its alias tau_assistance (the
name the polygamy bounds use). Rank-1 states (by the spectrum each
DensityMatrix stores) are exact at any dimension; on two qubits both have a
closed form via the spin-flip spectrum, read as an exact 0 below its rounding
bound (derived beside _LAMBDA_ROUNDING and _SUM_ROUNDING). A mixed cut larger
than 2x2 is first restricted to the supports of its two reduced states: both
measures are invariant under a local isometry, and the ensembles of rho map
one-to-one onto those of its restriction. A side of rank 1 makes the value 0,
a 2x2 restriction reaches the closed forms, and only what remains is
estimated by the convex-roof optimizer, flagged as an estimate.
"""

from __future__ import annotations

import functools
import math
import numbers
import weakref
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
    # a plain field, not a property: each plan reads it once per component it fetches
    exact: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.value < 0:
            raise InvalidParameterError(f"measure value must be non-negative, got {self.value}")
        if self.exactness not in (EXACT, UPPER_ESTIMATE, LOWER_ESTIMATE):
            raise InvalidParameterError(f"unknown exactness flag {self.exactness!r}")
        if self.exactness == EXACT and self.optimizer_meta:
            raise InvalidParameterError("exact values carry no optimizer metadata")
        object.__setattr__(self, "exact", self.exactness == EXACT)


# The most restarts one roof may run: 64 times the default. The restarts run as
# one batch, so a typo such as 1e9 would otherwise try to allocate over 100 GiB.
MAX_RESTARTS = 1024


@dataclass(frozen=True)
class OptimizerConfig:
    """Convex-roof optimizer settings."""

    restarts: int = 16
    max_iters: int = 500
    tol: float = 1e-8
    seed: int = 17

    def __post_init__(self):
        for name, value, least in (("restarts", self.restarts, 1),
                                   ("max_iters", self.max_iters, 1), ("seed", self.seed, 0)):
            if not isinstance(value, numbers.Integral) or value < least:
                raise OptimizerConfigError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.restarts > MAX_RESTARTS:
            raise OptimizerConfigError(f"restarts must be at most {MAX_RESTARTS}, "
                                       f"got {self.restarts}")
        if not isinstance(self.tol, numbers.Real) or not 0 < self.tol < math.inf:
            raise OptimizerConfigError(f"tol must be a positive finite number, got {self.tol!r}")


DEFAULT_OPT = OptimizerConfig()


@dataclass(frozen=True)
class CorrelationMeasure:
    """A named bipartite measure with its fixed exponent powers.

    beta_max is the largest exponent for which the power-sum lower-bound
    relation is taken to hold, x_min the smallest exponent for the power-sum
    upper-bound relation; both are 2 for every measure.
    """

    name: str
    beta_max = 2.0  # unannotated: class attributes, not constructor fields
    x_min = 2.0

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


_PURE_CUTS = weakref.WeakKeyDictionary()  # PureState -> {cut: value}; freed with the state


def concurrence_pure(state: PureState, cut: Bipartition) -> MeasureValue:
    """sqrt(2 (1 - tr rho_A^2)) across the cut over the Schmidt weights above RANK_TOL; exact."""
    s2 = np.linalg.svd(_cut_matrix(state, cut), compute_uv=False) ** 2
    return MeasureValue(float(_pure_value(s2[s2 > RANK_TOL])), EXACT)


_KEEP = 1e-15  # eigenvalues of rho at or below this leave Y out of _spin_flip_spectrum
_SPECTRA = weakref.WeakKeyDictionary()  # DensityMatrix -> its lambdas; freed with it


def _spin_flip_spectrum(rho: DensityMatrix) -> np.ndarray:
    """Spin-flip lambdas as singular values of Y^T (sy x sy) Y with rho = Y Y^H; read-only.

    Equivalent to the square roots of the eigenvalues of rho rho~, but exact
    for rank-deficient states where the non-Hermitian eigenvalue route loses
    half the working precision. Computed once per DensityMatrix.
    """
    if rho.dims != (2, 2):
        raise DimensionError(f"two-qubit operator required, got dims {rho.dims}")
    if rho in _SPECTRA:  # both closed forms read one spectrum per matrix
        return _SPECTRA[rho]
    w, v = rho.eigensystem()
    keep = w > _KEEP
    y = v[:, keep] * np.sqrt(w[keep])
    t = y.T @ _YY.real @ y
    lam = np.zeros(4)
    sv = np.linalg.svd(t, compute_uv=False)
    lam[: sv.size] = sv
    lam.setflags(write=False)
    _SPECTRA[rho] = lam
    return lam


# Rounding bound on l1 - l2 - l3 - l4 in units of eps tr rho, for 4 x 4 operands:
# (a) the stored eigendecomposition, the 1e-15 cut in _spin_flip_spectrum and
#     the sqrt(w) scaling give Y Y^H = rho + E with
#     ||E||_1 <= 4 (4 + 3) eps tr rho + 3e-15 <= 42 eps tr rho;
# (b) under E, l1 - l2 - l3 - l4 moves by about 2 ||E||_1 at most (the largest
#     ratio over 4,000 sampled separable states is 1.7): 84;
# (c) the two products forming T and its SVD move each lambda by at most
#     (2 * 4 + 4) eps tr rho: 48 for the four.
# Below the sum, 174 eps tr rho (3.9e-14 at unit trace), a computed value
# cannot be told from 0; separable states, whose exact value is 0, reach 7.2 eps.
_LAMBDA_ROUNDING = 174 * np.finfo(float).eps

# Rounding bound on l1 + l2 + l3 + l4, eps tr rho (48 + 80 sqrt(tr rho / w_min))
# with w_min the smallest eigenvalue kept in Y. The sum is 0 exactly when the
# range of rho is isotropic for sy x sy (T = 0), that is when rho is a product
# with a pure side, so a floor is all such states need. Unlike l1 - l2 - l3 - l4
# in (b), the sum is not Lipschitz in rho (near a product with a pure side it
# grows like the square root of a perturbation), but it is in Y:
# (a') the eigendecomposition (residual 7 eps tr rho per pair, as in (a)) and
#      entries rounded once each (norm at most eps tr rho, as |rho_ij| <=
#      sqrt(rho_ii rho_jj)) make a perturbation of norm 8 eps tr rho. A kept
#      column sqrt(w_k) v_k moves by 4 eps tr rho / sqrt(w_k) through w_k, by
#      8 through the turn of v_k toward the null space (8 eps tr rho / w_k at
#      most) and by no more than 8 through a turn between kept columns (up to
#      a unitary Y -> Y U, which leaves every lambda as it is): 20 eps tr rho /
#      sqrt(w_k), so Y moves by ||D||_F <= 40 eps tr rho / sqrt(w_min);
# (b') the sum is the trace norm of T, and ||A^T (sy x sy) B||_1 <=
#      ||A||_F ||B||_F, so it moves by (2 ||Y||_F + ||D||_F) ||D||_F, about
#      2 sqrt(tr rho) ||D||_F: 80 eps tr rho sqrt(tr rho / w_min);
# (c') the products and the SVD, as in (c): 48 eps tr rho.
# Products |a><a| x rho_B with rho_B a mixture of two random pure states reach
# 121 eps; as rho_B nears a pure state the noise grows as 5 eps / sqrt(w_min).
_SUM_ROUNDING = 48 * np.finfo(float).eps
_SUM_FACTOR_ROUNDING = 80 * np.finfo(float).eps


def _floored(value: float, rho: DensityMatrix, total: bool) -> MeasureValue:
    """An exact value, or an exact 0 at or below its rounding bound: the sum's if total."""
    w = rho.eigensystem()[0]
    tr = w.sum()
    bound = (tr * (_SUM_ROUNDING + _SUM_FACTOR_ROUNDING * math.sqrt(tr / w[w > _KEEP].min()))
             if total else _LAMBDA_ROUNDING * tr)
    return MeasureValue(value if value > bound else 0.0, EXACT)


def wootters_concurrence(rho: DensityMatrix) -> MeasureValue:
    """Two-qubit mixed-state concurrence, max(0, l1 - l2 - l3 - l4); an exact 0 below rounding."""
    lam = _spin_flip_spectrum(rho)
    return _floored(float(lam[0] - lam[1] - lam[2] - lam[3]), rho, total=False)


def assistance_2q(rho: DensityMatrix) -> MeasureValue:
    """Two-qubit assistance value, l1 + l2 + l3 + l4; an exact 0 below rounding."""
    return _floored(float(_spin_flip_spectrum(rho).sum()), rho, total=True)


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
    ensemble is forced; a PureState's value is computed once per cut, for every
    measure and table on it), and 2x2 mixed states via the spin-flip closed forms.
    A larger mixed cut is restricted to the supports of its reduced states
    first: a side of rank 1 is a product state (value 0), a 2x2 restriction
    takes the closed forms, and any other restriction goes to convex_roof.
    """
    if measure.name not in _MEASURES:
        raise InvalidParameterError(f"unsupported measure {measure.name!r}")
    if isinstance(state, PureState):  # the pure concurrence whatever the measure: once per cut
        memo = _PURE_CUTS.setdefault(state, {})
        return memo[cut] if cut in memo else memo.setdefault(cut, concurrence_pure(state, cut))
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


# --- convex-roof optimizer ----------------------------------------------------
#
# Every size-m ensemble of rho arises as psi_k = sum_j W_kj sqrt(mu_j) |e_j>
# with W the first r columns of an m x m unitary U = exp(iH). The m^2 real
# parameters theta fill the Hermitian generator H directly: with npair =
# m(m-1)/2, theta[:npair] = re and theta[npair:2 npair] = im give the strict
# upper triangle in row-major order as H_ij = im - i re (the lower triangle is
# its conjugate), and theta[2 npair:] is the real diagonal. This placement is
# one linear map per m, computed once; the gradient flows back through its
# transpose. From eigh(H) = V diag(lam) V^H only the m x r block
# W = V e^{i lam} V[:r]^H is formed, and one matmul with the eigenvector factor
# of rho gives every member M_k as a da x db matrix. With g_k = M_k M_k^H,
# t_k = tr g_k and f_k = sum |g_k|^2, the average concurrence is sum_k of the
# degree-2 homogeneous pure value c_k = sqrt(2 (t_k^2 - f_k)), smoothed near
# its kinks so L-BFGS gets an exact analytic gradient; reported values are
# always re-evaluated unsmoothed, so a minimize result is a true achievable
# ensemble average.
#
# The R restarts of one roof run as one batch. theta is stacked as (R, m^2);
# the kernel takes any leading axes (one stacked eigh on (R, m, m)), and
# minimize drives every row with its own L-BFGS state: its last _MEMORY steps
# for the two-loop recursion and its own weak Wolfe line search. Every
# operation acts row by row, so a restart's path does not depend on which
# restarts share its batch, and the batch pays numpy's per-call overhead once
# per step instead of once per restart. For that the kernel writes p times
# conj(gam) as np.multiply(p, gam.conj()), not p * gam.conj(): once the
# temporary gam.conj() reaches 256 KiB (R m^2 > 16,384), numpy's operator
# reuses it in place as gam.conj() *= p, and a complex product with swapped
# operands rounds differently, so a large batch would move its rows. A
# restart converges when a step lowers its objective by at most
# opt.tol * 1e-4 relative to max(|f|, 1), or when no gradient entry exceeds
# 1e-10; it then leaves the batch, which ends when no restart is left or
# after opt.max_iters iterations.


@functools.lru_cache(maxsize=None)
def _generator_layout(m: int) -> np.ndarray:
    """The linear map L (m^2 x 2m^2) with the float view of H = theta @ L.

    Each column of L holds at most one +-1, so theta @ L is exact; each row
    holds at most two, so a gradient in the float view of H pulls back to
    theta as grad @ L.T with one rounding per entry, in any summation order.
    """
    iu, ju = np.triu_indices(m, 1)
    up, lo, dg = 2 * (iu * m + ju), 2 * (ju * m + iu), 2 * (m + 1) * np.arange(m)
    npair = iu.size
    re, im = np.arange(npair), npair + np.arange(npair)
    lay = np.zeros((m * m, 2 * m * m))
    for pos, idx, c in ((up, im, 1.0), (up + 1, re, -1.0), (lo, im, 1.0), (lo + 1, re, 1.0),
                        (dg, 2 * npair + np.arange(m), 1.0)):
        lay[idx, pos] = c
    lay.flags.writeable = False
    return lay


def _members(theta, vfac, m, r, da, db):
    lead = theta.shape[:-1]
    h = (theta @ _generator_layout(m)).view(complex).reshape(*lead, m, m)
    lam, v = np.linalg.eigh(h)
    vh = v.conj().swapaxes(-1, -2)
    ph = np.exp(1j * lam)
    mem = ((v * ph[..., None, :]) @ vh[..., :r] @ vfac.T).reshape(*lead, m, da, db)
    return mem, (lam, v, vh, ph)


def _gram(mem):
    """Per member: g = M M^H, t = tr g and f = sum |g|^2."""
    g = mem @ mem.conj().swapaxes(-1, -2)
    t = g.trace(axis1=-2, axis2=-1).real
    gf = g.reshape(*g.shape[:-2], -1).view(float)
    return g, t, (gf * gf).sum(axis=-1)


def _member_values(mem) -> np.ndarray:
    """Unsmoothed member values: the pure value of every member's singular values."""
    return _pure_value(np.linalg.svd(mem, compute_uv=False) ** 2)


def _roof_objective(theta, vfac, m, r, da, db, sign, eps2):
    """Smoothed ensemble average and its gradient in theta, over theta's leading axes."""
    mem, (lam, v, vh, ph) = _members(theta, vfac, m, r, da, db)
    g, t, f = _gram(mem)
    ce = np.sqrt(np.maximum(2.0 * (t * t - f), 0.0) + eps2)
    val = sign * ce.sum(axis=-1)

    k = (4.0 / ce)[..., None, None] * (t[..., None, None] * mem - g @ mem)
    gw = k.reshape(*k.shape[:-2], da * db) @ vfac.conj()
    p = vh @ (gw @ v[..., :r, :])
    dl = lam[..., :, None] - lam[..., None, :]
    close = np.abs(dl) < 1e-12
    gam = np.where(close, ph[..., :, None],
                   (ph[..., :, None] - ph[..., None, :]) / (1j * np.where(close, 1.0, dl)))
    # gradient in the real and imaginary parts of H's entries, pulled back onto theta
    gh = -1j * (v @ np.multiply(p, gam.conj()) @ vh)
    return val, sign * (gh.reshape(*gh.shape[:-2], -1).view(float) @ _generator_layout(m).T)


_MEMORY = 10  # (s, y) pairs each restart keeps for its two-loop recursion
_ARMIJO, _CURVATURE = 1e-4, 0.9  # weak Wolfe constants
_MAX_TRIALS = 20  # objective evaluations per line search
_EPS = np.finfo(float).eps
_EYE = np.eye(_MEMORY)
_STRICT_UPPER = np.triu(np.ones((_MEMORY, _MEMORY)), 1)


@dataclass(frozen=True)
class BatchResult:
    """Where a minimize batch ended: per-restart points and stop flags, summed work counts."""

    x: np.ndarray  # (R, n): every restart's last point
    fun: float  # the lowest objective in the batch
    success: np.ndarray  # (R,): the stopping rule was met
    iterations: np.ndarray  # (R,)
    nit: int  # iterations summed over the restarts
    nfev: int  # objective evaluations summed over the restarts


def _two_loop(g, s_mem, y_mem, rho, gamma):
    """The L-BFGS product H g for every row, from that row's pairs (oldest first).

    Each loop of the recursion is a unit triangular system: the first gives
    alpha_j = rho_j (s_j.g - sum_{i>j} alpha_i s_j.y_i), the second
    beta_j = rho_j (y_j.q + sum_{i<j} (alpha_i - beta_i) y_j.s_i) with
    q = gamma (g - sum_i alpha_i y_i); one batched solve takes each. Empty
    slots hold s = y = 0 and rho = 0 and add nothing.
    """
    sy = s_mem @ y_mem.swapaxes(1, 2)  # sy[:, j, i] = s_j . y_i
    upper = rho[:, :, None] * (sy * _STRICT_UPPER)
    alpha = np.linalg.solve(_EYE + upper, rho[:, :, None] * (s_mem @ g[:, :, None]))[:, :, 0]
    q = gamma[:, None] * (g - (alpha[:, None] @ y_mem)[:, 0])
    lower = sy.swapaxes(1, 2) * _STRICT_UPPER.T  # y_j . s_i below the diagonal
    rhs = (y_mem @ q[:, :, None])[:, :, 0] + (lower @ alpha[:, :, None])[:, :, 0]
    beta = np.linalg.solve(_EYE + rho[:, :, None] * lower, (rho * rhs)[:, :, None])[:, :, 0]
    return q + ((alpha - beta)[:, None] @ s_mem)[:, 0]


def _line_search(fun, args, x, f, g, d, t):
    """A weak Wolfe step along d from every row of x: (step, f, grad, evaluations).

    Each row starts at its t, bisects between its largest step that met the
    Armijo condition and its smallest that failed it, and doubles while none
    has failed, until a step also meets the curvature condition or
    _MAX_TRIALS evaluations have passed. The last Armijo step is returned;
    step 0 means none was found, or d is not a descent direction.
    """
    gd = (g * d).sum(axis=1)

    def trial(rows):
        ft, gt = fun(x[rows] + t[rows, None] * d[rows], *args)
        armijo = (ft <= f[rows] + _ARMIJO * t[rows] * gd[rows]) & (gd[rows] < 0)
        return ft, gt, armijo, armijo & ((gt * d[rows]).sum(axis=1) >= _CURVATURE * gd[rows])

    ft, gt, armijo, wolfe = trial(slice(None))
    if wolfe.all():  # the common case: every row takes its first step
        return t, ft, gt, len(x)
    todo, nfev = np.arange(len(x)), len(x)
    lo, hi = np.zeros(len(x)), np.full(len(x), np.inf)
    step, f_new, g_new = np.zeros(len(x)), f.copy(), g.copy()
    for i in range(_MAX_TRIALS):
        ok, bad = todo[armijo], todo[~armijo]
        step[ok], f_new[ok], g_new[ok], lo[ok] = t[ok], ft[armijo], gt[armijo], t[ok]
        hi[bad] = t[bad]
        todo = todo[~wolfe & (gd[todo] < 0)]
        if todo.size == 0 or i == _MAX_TRIALS - 1:
            break
        t[todo] = np.where(np.isinf(hi[todo]), 2.0 * lo[todo], 0.5 * (lo[todo] + hi[todo]))
        ft, gt, armijo, wolfe = trial(todo)
        nfev += todo.size
    return step, f_new, g_new, nfev


def minimize(fun, x0, args=(), *, max_iters, ftol, gtol) -> BatchResult:
    """L-BFGS from every row of x0 at once; fun(x, *args) gives (f, grad) for a stack of rows.

    A row stops as converged when a step lowers f by at most
    ftol * max(|f|, |f_new|, 1) or when max |grad| <= gtol. It stops as not
    converged after max_iters iterations, or when its line search finds no
    step from steepest descent; a failed search from stored pairs forgets
    them and retries from steepest descent. Only running rows are evaluated:
    their state is compacted whenever one stops.
    """
    x = np.array(x0, dtype=float)
    nrow, n = x.shape
    f, g = fun(x, *args)
    nfev = nrow
    success = np.abs(g).max(axis=1) <= gtol
    iterations = np.zeros(nrow, dtype=int)
    rows = np.flatnonzero(~success)
    xr, fr, gr = x[rows], f[rows], g[rows]
    s_mem, y_mem = np.zeros((rows.size, _MEMORY, n)), np.zeros((rows.size, _MEMORY, n))
    rho, gamma = np.zeros((rows.size, _MEMORY)), np.ones(rows.size)
    for _ in range(max_iters):
        if rows.size == 0:
            break
        iterations[rows] += 1
        fresh = ~rho.any(axis=1)
        d = -_two_loop(gr, s_mem, y_mem, rho, gamma)
        t = np.where(fresh, np.minimum(1.0, 1.0 / np.sqrt((gr * gr).sum(axis=1))), 1.0)
        step, f_new, g_new, evals = _line_search(fun, args, xr, fr, gr, d, t)
        nfev += evals

        # a row that did not move has s = y = 0, so it skips its pair like a
        # pair without positive curvature does
        s, y = step[:, None] * d, g_new - gr
        sy, yy = (s * y).sum(axis=1), (y * y).sum(axis=1)
        keep = sy > _EPS * yy
        for mem_, latest in ((s_mem, s), (y_mem, y),
                             (rho, np.divide(1.0, sy, out=np.zeros(len(sy)), where=keep))):
            mem_[:, :-1] = mem_[:, 1:]
            mem_[:, -1] = latest
        np.divide(sy, yy, out=gamma, where=keep)
        lost = step == 0
        rho[lost], gamma[lost] = 0.0, 1.0

        scale = np.maximum(np.maximum(np.abs(fr), np.abs(f_new)), 1.0)
        done = ~lost & ((fr - f_new <= ftol * scale) | (np.abs(g_new).max(axis=1) <= gtol))
        xr, fr, gr = xr + s, f_new, g_new
        stop = done | (lost & fresh)
        if stop.any():
            x[rows], f[rows] = xr, fr
            success[rows[done]] = True
            rows, xr, fr, gr, s_mem, y_mem, rho, gamma = (
                a[~stop] for a in (rows, xr, fr, gr, s_mem, y_mem, rho, gamma))
    x[rows], f[rows] = xr, fr
    return BatchResult(x, float(f.min()), success, iterations, int(iterations.sum()), nfev)


def convex_roof(
    rho: DensityMatrix,
    cut: Bipartition,
    direction: str,
    opt: OptimizerConfig = DEFAULT_OPT,
) -> MeasureValue:
    """Optimize the ensemble-average pure concurrence over all decompositions of rho.

    Returns the best value across restarts: an upper estimate when
    minimizing, a lower estimate when maximizing. The restarts run as one
    minimize batch: restart 0 from theta = 0, the others from seeded normal
    draws. Deterministic for a fixed (seed, restarts); ties go to the earliest
    restart.
    """
    if direction not in ("minimize", "maximize"):
        raise InvalidParameterError(f"direction must be minimize or maximize, got {direction!r}")
    order, da, db = _cut_shape(rho.dims, cut)
    vfac_cut = _cut_factor(rho, order)
    r = vfac_cut.shape[1]
    m = r + 2  # separable states can need more ensemble members than the rank
    sign, flag = (1.0, UPPER_ESTIMATE) if direction == "minimize" else (-1.0, LOWER_ESTIMATE)

    rng = np.random.default_rng(opt.seed)
    x0 = np.zeros((opt.restarts, m * m))
    x0[1:] = rng.standard_normal((opt.restarts - 1, m * m)) * 0.7
    res = minimize(_roof_objective, x0, (vfac_cut, m, r, da, db, sign, 1e-12),
                   max_iters=opt.max_iters, ftol=opt.tol * 1e-4, gtol=1e-10)
    mem, _ = _members(res.x, vfac_cut, m, r, da, db)
    values = _member_values(mem).sum(axis=-1)
    best = int(np.argmin(sign * values))
    meta = {"restarts": opt.restarts, "best_restart": best,
            "iterations": int(res.iterations[best]), "converged": bool(res.success[best])}
    return MeasureValue(max(0.0, float(values[best])), flag, meta)
