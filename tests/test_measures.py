import math

import numpy as np
import pytest

from conftest import oracle_lambda_sum, oracle_wootters, random_two_qubit_mixed
from entshare.errors import DimensionError, InvalidParameterError, OptimizerConfigError
from entshare.measures import (
    CONCURRENCE,
    TAU_ASSISTANCE,
    MeasureValue,
    OptimizerConfig,
    _member_values,
    _members,
    _roof_objective,
    assistance_2q,
    concurrence_pure,
    convex_roof,
    get_measure,
    measure_bipartite,
    wootters_concurrence,
)
from entshare.states import (
    Bipartition,
    DensityMatrix,
    PureState,
    cut_a_vs_rest,
    haar_random_pure,
    make_family,
    partial_trace,
    w_state,
)

AB = Bipartition({0}, {1})


class TestMeasureValue:
    def test_non_negative(self):
        with pytest.raises(InvalidParameterError):
            MeasureValue(-0.1, "exact")

    def test_exact_has_no_meta(self):
        with pytest.raises(InvalidParameterError):
            MeasureValue(0.5, "exact", {"restarts": 3})

    def test_measure_registry(self):
        assert get_measure("tau_assistance").beta_max == 2.0
        assert get_measure("concurrence").x_min == 2.0
        with pytest.raises(InvalidParameterError):
            get_measure("negativity")


class TestPureConcurrence:
    def test_bell(self, bell):
        assert concurrence_pure(bell, AB).value == pytest.approx(1.0, abs=1e-12)

    def test_3q_family_joint_cut(self):
        s = make_family("3q", [1 / math.sqrt(5)] * 5 + [1.1])
        mv = concurrence_pure(s, cut_a_vs_rest(3))
        assert mv.value == pytest.approx(2 * math.sqrt(3) / 5, abs=1e-12)
        assert mv.exact

    def test_w4_joint_cut(self):
        mv = concurrence_pure(w_state(4), cut_a_vs_rest(4))
        assert mv.value == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_cut_swap_symmetry(self, seed):
        s = haar_random_pure((2, 2, 2), seed)
        c1 = concurrence_pure(s, Bipartition({0}, {1, 2})).value
        c2 = concurrence_pure(s, Bipartition({1, 2}, {0})).value
        assert c1 == pytest.approx(c2, abs=1e-10)

    def test_cut_must_cover_parties(self, bell):
        from entshare.errors import InvalidPartitionError

        with pytest.raises(InvalidPartitionError):
            concurrence_pure(haar_random_pure((2, 2, 2), 0), AB)


class TestTwoQubitClosedForms:
    def test_w4_marginal_concurrence(self):
        rho = partial_trace(w_state(4), {0, 1})
        assert wootters_concurrence(rho).value == pytest.approx(0.5, abs=1e-10)

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        assert wootters_concurrence(rho).value == pytest.approx(0.0, abs=1e-12)
        # lambda_i = 1/4 each, so the assistance sum is 1
        assert assistance_2q(rho).value == pytest.approx(1.0, abs=1e-12)

    def test_theta_state_marginals(self):
        t0 = t1 = math.pi / 4
        s = make_family("4q-theta", [t0, t1, 0.4])
        scale = math.cos(t0) * math.sin(t0) * math.sin(t1)
        values = sorted(
            wootters_concurrence(partial_trace(s, {0, i})).value for i in (1, 2, 3)
        )
        assert values[0] == pytest.approx(0.0, abs=1e-10)
        assert values[1] == pytest.approx(scale, abs=1e-10)
        assert values[2] == pytest.approx(1.5 * scale, abs=1e-10)

    def test_w5_marginal_assistance(self):
        rho = partial_trace(w_state(5), {0, 1})
        assert assistance_2q(rho).value == pytest.approx(0.4, abs=1e-10)

    def test_pure_two_qubit_assistance_equals_concurrence(self, bell):
        rho = bell.density()
        assert assistance_2q(rho).value == pytest.approx(1.0, abs=1e-10)

    def test_dimension_guard(self):
        rho = DensityMatrix(np.eye(8) / 8, (2, 2, 2))
        with pytest.raises(DimensionError):
            wootters_concurrence(rho)

    @pytest.mark.parametrize("seed", range(10))
    def test_wootters_matches_pure_formula(self, seed):
        s = haar_random_pure((2, 2), seed)
        assert wootters_concurrence(s.density()).value == pytest.approx(
            concurrence_pure(s, AB).value, abs=1e-10
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_assistance_dominates_concurrence(self, seed):
        rho = DensityMatrix(random_two_qubit_mixed(seed, (seed % 4) + 1), (2, 2))
        assert assistance_2q(rho).value >= wootters_concurrence(rho).value - 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_against_independent_spectrum_oracle(self, seed):
        rho = random_two_qubit_mixed(100 + seed, 4)
        dm = DensityMatrix(rho, (2, 2))
        assert wootters_concurrence(dm).value == pytest.approx(oracle_wootters(rho), abs=1e-9)
        assert assistance_2q(dm).value == pytest.approx(oracle_lambda_sum(rho), abs=1e-9)


class TestDispatch:
    def test_pure_state_exact_any_measure(self):
        w5 = w_state(5)
        mv = measure_bipartite(TAU_ASSISTANCE, w5, cut_a_vs_rest(5))
        assert mv.value == pytest.approx(0.8, abs=1e-12)
        assert mv.exact

    def test_two_qubit_mixed_closed_forms(self):
        rho = partial_trace(w_state(5), {0, 1})
        assert measure_bipartite(TAU_ASSISTANCE, rho, AB).value == pytest.approx(0.4, abs=1e-10)
        assert measure_bipartite(CONCURRENCE, rho, AB).value == pytest.approx(0.4, abs=1e-10)

    def test_product_state_zero(self):
        psi = np.kron([1, 0], np.kron([0, 1], [1, 0]))
        s = PureState(psi, (2, 2, 2))
        assert measure_bipartite(CONCURRENCE, s, cut_a_vs_rest(3)).value == pytest.approx(0.0)

    def test_mixed_higher_dim_is_estimate(self):
        rho = partial_trace(w_state(4), {0, 1, 2})
        mv = measure_bipartite(CONCURRENCE, rho, Bipartition({0}, {1, 2}),
                               OptimizerConfig(restarts=4))
        assert mv.exactness == "upper-estimate"
        assert mv.value == pytest.approx(math.sqrt(2) / 2, abs=5e-3)

    def test_unsupported_measure(self):
        from entshare.measures import CorrelationMeasure

        with pytest.raises(InvalidParameterError):
            measure_bipartite(CorrelationMeasure("negativity"), w_state(4), cut_a_vs_rest(4))

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("measure", [CONCURRENCE, TAU_ASSISTANCE])
    def test_two_qubit_cut_order_irrelevant(self, measure, rank):
        for seed in range(5):
            rho = DensityMatrix(random_two_qubit_mixed(300 + seed, rank), (2, 2))
            ab = measure_bipartite(measure, rho, AB).value
            ba = measure_bipartite(measure, rho, Bipartition({1}, {0})).value
            assert ba == pytest.approx(ab, abs=1e-12)

    def test_pure_density_matrix_detected(self, bell):
        mv = measure_bipartite(CONCURRENCE, bell.density(), AB)
        assert mv.exact and mv.value == pytest.approx(1.0, abs=1e-10)


class TestConvexRoof:
    def test_pure_input_trivial(self, bell):
        mv = convex_roof(bell.density(), AB, None, "minimize")
        assert mv.value == pytest.approx(1.0, abs=1e-10)
        assert mv.optimizer_meta.get("rank") == 1

    def test_ensemble_size_below_rank_rejected(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        with pytest.raises(OptimizerConfigError):
            convex_roof(rho, AB, None, "minimize", OptimizerConfig(ensemble_size=2))

    def test_direction_validated(self, bell):
        with pytest.raises(InvalidParameterError):
            convex_roof(bell.density(), AB, None, "down")

    @pytest.mark.parametrize("seed", range(12))
    def test_two_qubit_oracle_bracket(self, seed):
        rank = (seed % 4) + 1
        rho = random_two_qubit_mixed(seed, rank)
        dm = DensityMatrix(rho, (2, 2))
        lo = convex_roof(dm, AB, None, "minimize", OptimizerConfig(seed=seed))
        hi = convex_roof(dm, AB, None, "maximize", OptimizerConfig(seed=seed))
        cw, cs = oracle_wootters(rho), oracle_lambda_sum(rho)
        assert -1e-9 <= lo.value - cw <= 1e-3
        assert -1e-9 <= cs - hi.value <= 1e-3

    def test_w3_mixture_paper_value(self):
        rho = partial_trace(w_state(4), {0, 1, 2})
        mv = convex_roof(rho, Bipartition({0}, {1, 2}), None, "minimize")
        assert mv.value == pytest.approx(math.sqrt(2) / 2, abs=5e-3)
        assert mv.exactness == "upper-estimate"

    def test_best_so_far_monotone_in_restarts(self):
        rho = DensityMatrix(random_two_qubit_mixed(3, 3), (2, 2))
        values = [
            convex_roof(rho, AB, None, "minimize", OptimizerConfig(restarts=r, seed=5)).value
            for r in (1, 2, 4, 8)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_local_unitary_invariance(self):
        rho = partial_trace(w_state(4), {0, 1, 2})
        rng = np.random.default_rng(8)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u_b, _ = np.linalg.qr(z)
        u = np.kron(np.eye(2), u_b)
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, (2, 2, 2))
        cut = Bipartition({0}, {1, 2})
        a = convex_roof(rho, cut, None, "minimize", OptimizerConfig(seed=0))
        b = convex_roof(rotated, cut, None, "minimize", OptimizerConfig(seed=1))
        assert a.value == pytest.approx(b.value, abs=1e-5)

    def test_custom_pure_fn_path(self):
        rho = DensityMatrix(random_two_qubit_mixed(9, 2), (2, 2))
        fn = lambda ps: concurrence_pure(ps, AB).value
        generic = convex_roof(rho, AB, fn, "minimize", OptimizerConfig(restarts=6, seed=2))
        builtin = convex_roof(rho, AB, None, "minimize", OptimizerConfig(restarts=6, seed=2))
        assert generic.value == pytest.approx(builtin.value, abs=1e-5)

    def test_deterministic_given_seed(self):
        rho = DensityMatrix(random_two_qubit_mixed(4, 3), (2, 2))
        a = convex_roof(rho, AB, None, "minimize", OptimizerConfig(seed=11))
        b = convex_roof(rho, AB, None, "minimize", OptimizerConfig(seed=11))
        assert a.value == b.value


class TestOptimizerConfig:
    @pytest.mark.parametrize("bad", [
        {"restarts": 0}, {"restarts": 2.5}, {"max_iters": 0}, {"tol": 0.0}, {"tol": -1e-8},
        {"tol": float("nan")}, {"tol": float("inf")}, {"ensemble_size": 0},
    ])
    def test_invalid_settings_rejected(self, bad):
        with pytest.raises(OptimizerConfigError):
            OptimizerConfig(**bad)
        with pytest.raises(OptimizerConfigError):
            OptimizerConfig.from_dict(bad)

    def test_smallest_valid_settings(self):
        opt = OptimizerConfig(ensemble_size=1, restarts=1, max_iters=1, tol=1e-12)
        assert opt.restarts == 1 and opt.ensemble_size == 1


KERNEL_CASES = pytest.mark.parametrize("shape, at_zero", [
    pytest.param(shape, at_zero, id="m%d-r%d-%dx%d-" % shape + ("theta0" if at_zero else "random"))
    for shape in [(4, 2, 2, 2), (4, 2, 2, 4), (6, 4, 2, 4), (4, 2, 2, 8)]
    for at_zero in (True, False)
])


def _kernel_input(m, r, da, db, at_zero):
    """A unit-trace eigenvector factor of rank r and a parameter point."""
    rng = np.random.default_rng(1000 * m + 100 * r + db)
    vfac = rng.standard_normal((da * db, r)) + 1j * rng.standard_normal((da * db, r))
    theta = np.zeros(m * m) if at_zero else 0.7 * rng.standard_normal(m * m)
    return vfac / np.linalg.norm(vfac), theta


class TestRoofKernel:
    @KERNEL_CASES
    def test_gradient_matches_central_differences(self, shape, at_zero):
        m, r, da, db = shape
        vfac, theta = _kernel_input(m, r, da, db, at_zero)
        objective = lambda x: _roof_objective(x, vfac, m, r, da, db, -1.0, 1e-12)
        _, grad = objective(theta)
        h = 1e-6
        fd = np.array([(objective(theta + h * e)[0] - objective(theta - h * e)[0]) / (2 * h)
                       for e in np.eye(m * m)])
        assert np.max(np.abs(grad - fd)) <= 1e-8

    @KERNEL_CASES
    def test_members_reconstruct_state(self, shape, at_zero):
        m, r, da, db = shape
        vfac, theta = _kernel_input(m, r, da, db, at_zero)
        mem, _ = _members(theta, vfac, m, r, da, db)
        psi = mem.reshape(m, da * db)
        assert np.allclose(psi.T @ psi.conj(), vfac @ vfac.conj().T, rtol=0, atol=1e-12)
        cut = Bipartition({0}, {1})
        weighted = [
            p * concurrence_pure(PureState(v / math.sqrt(p), (da, db)), cut).value
            for v, p in zip(psi, np.sum(np.abs(psi) ** 2, axis=1))
            if p > 1e-14
        ]
        assert float(_member_values(mem).sum()) == pytest.approx(sum(weighted), abs=1e-12)
