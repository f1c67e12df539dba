import math

import numpy as np
import pytest

from conftest import near_w, oracle_lambda_sum, oracle_wootters, random_two_qubit_mixed
from entshare import measures
from entshare.errors import DimensionError, InvalidParameterError, OptimizerConfigError
from entshare.measures import (
    CONCURRENCE,
    CONCURRENCE_ASSISTANCE,
    TAU_ASSISTANCE,
    CorrelationMeasure,
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
    RANK_TOL,
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


def _unit(rng, d):
    """A random complex unit vector in dimension d."""
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


class TestMeasureValue:
    def test_non_negative(self):
        with pytest.raises(InvalidParameterError):
            MeasureValue(-0.1, "exact")

    def test_exact_has_no_meta(self):
        with pytest.raises(InvalidParameterError):
            MeasureValue(0.5, "exact", {"restarts": 3})

    def test_unknown_exactness_flag_rejected(self):
        with pytest.raises(InvalidParameterError, match="exactness flag 'estimate'"):
            MeasureValue(0.5, "estimate", {"restarts": 3})

    def test_measure_registry(self):
        assert get_measure("tau_assistance").beta_max == 2.0
        assert get_measure("concurrence").x_min == 2.0
        with pytest.raises(InvalidParameterError):
            get_measure("negativity")

    def test_tau_assistance_is_an_alias(self):
        assert TAU_ASSISTANCE is CONCURRENCE_ASSISTANCE
        assert get_measure("tau_assistance") is get_measure("concurrence_assistance")
        assert get_measure("tau_assistance") is CONCURRENCE_ASSISTANCE

    def test_exact_flag_is_a_plain_field(self):
        assert MeasureValue(0.5, "exact").exact
        assert not MeasureValue(0.5, "upper-estimate", {"restarts": 1}).exact
        assert "exact" in vars(MeasureValue(0.5, "lower-estimate"))
        assert MeasureValue(0.5, "exact") == MeasureValue(0.5, "exact")


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

    @pytest.mark.parametrize("measure", [CONCURRENCE, CONCURRENCE_ASSISTANCE])
    def test_product_cut_is_exactly_zero(self, measure):
        # the Schmidt weight ~1e-32 that rounding leaves is below RANK_TOL; the
        # old 2 (1 - sum s^4) form gave 2.98e-8 here
        state = PureState(np.kron([0.6, 0.8], np.full(4, 0.5)), (2, 2, 2))
        assert concurrence_pure(state, cut_a_vs_rest(3)) == MeasureValue(0.0, "exact")
        assert measure_bipartite(measure, state, cut_a_vs_rest(3)).value == 0.0

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

    def test_separable_mixtures_read_an_exact_zero(self):
        # rank 2 forces l1 = l2 on a mixture of two product states, so the
        # concurrence is 0; the raw l1 - l2 - l3 - l4 keeps rounding noise
        rng = np.random.default_rng(0)
        raw = []
        for _ in range(2000):
            a, b = (np.kron(_unit(rng, 2), _unit(rng, 2)) for _ in range(2))
            p = rng.uniform(0.1, 0.9)
            rho = DensityMatrix(p * np.outer(a, a.conj()) + (1 - p) * np.outer(b, b.conj()), (2, 2))
            lam = measures._spin_flip_spectrum(rho)
            raw.append(lam[0] - lam[1] - lam[2] - lam[3])
            assert wootters_concurrence(rho) == MeasureValue(0.0, "exact")
        assert sum(x > 0 for x in raw) > 1000 and max(raw) < 1e-14

    def test_a_small_concurrence_survives_the_rounding_floor(self):
        # (1 - p)|00><00| + p|Phi+><Phi+| has concurrence p
        p = 1e-12
        phi = np.array([1, 0, 0, 1]) / math.sqrt(2)
        rho = (1 - p) * np.diag([1.0, 0, 0, 0]) + p * np.outer(phi, phi)
        assert wootters_concurrence(DensityMatrix(rho, (2, 2))).value == pytest.approx(p, rel=1e-3)

    @pytest.mark.parametrize("closeness", [1.0, 1e-2, 1e-4, 1e-6])
    def test_products_with_a_pure_side_read_an_exact_zero(self, closeness):
        # |a><a| x rho_B and rho_B x |a><a|, rho_B = p|b1><b1| + (1 - p)|b2><b2|
        # with b2 within `closeness` of b1: sy x sy maps the range of rho onto
        # its orthogonal complement, so every lambda is 0, but the raw sum keeps
        # rounding noise that grows as rho_B nears a pure state
        rng = np.random.default_rng(0)
        raw = []
        for k in range(2000 if closeness == 1.0 else 200):
            a, b1 = _unit(rng, 2), _unit(rng, 2)
            b2 = b1 + closeness * _unit(rng, 2)
            b2 /= np.linalg.norm(b2)
            p = rng.uniform(0.1, 0.9)
            rho_b = p * np.outer(b1, b1.conj()) + (1 - p) * np.outer(b2, b2.conj())
            pair = (np.outer(a, a.conj()), rho_b)
            rho = DensityMatrix(np.kron(*pair[::-1 if k % 2 else 1]), (2, 2))
            raw.append(measures._spin_flip_spectrum(rho).sum())
            for measure in (CONCURRENCE, CONCURRENCE_ASSISTANCE):
                assert measure_bipartite(measure, rho, AB) == MeasureValue(0.0, "exact")
        assert min(raw) > 0

    @pytest.mark.parametrize("p", [1e-6, 1e-12, 1e-13])
    def test_a_small_assistance_survives_the_rounding_floor(self, p):
        # (1 - p)|00><00| + p|Phi+><Phi+| has l1 + l2 + l3 + l4 = sqrt(2p (1 - p / 2))
        phi = np.array([1, 0, 0, 1]) / math.sqrt(2)
        rho = DensityMatrix((1 - p) * np.diag([1.0, 0, 0, 0]) + p * np.outer(phi, phi), (2, 2))
        want = math.sqrt(2 * p * (1 - p / 2))
        assert assistance_2q(rho).value == pytest.approx(want, rel=1e-6)

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
        # rho_{B1B2} of a Haar 4-qubit state has full rank: the 2x4 cut needs a roof
        rho = partial_trace(haar_random_pure((2, 2, 2, 2), 0), {0, 1, 2})
        cut = Bipartition({0}, {1, 2})
        mv = measure_bipartite(CONCURRENCE, rho, cut, OptimizerConfig(restarts=4))
        assert mv.exactness == "upper-estimate"
        best = measure_bipartite(CONCURRENCE, rho, cut, OptimizerConfig(restarts=16, seed=3))
        assert mv.value == pytest.approx(best.value, abs=5e-3)
        assert mv.value <= measure_bipartite(CONCURRENCE_ASSISTANCE, rho, cut,
                                             OptimizerConfig(restarts=4)).value

    def test_hand_built_alias_maximizes(self):
        rho = partial_trace(haar_random_pure((2, 2, 2, 2), 0), {0, 1, 2})
        cut, opt = Bipartition({0}, {1, 2}), OptimizerConfig(restarts=2)
        mv = measure_bipartite(CorrelationMeasure("tau_assistance"), rho, cut, opt)
        assert mv.exactness == "lower-estimate"
        assert mv.value == measure_bipartite(CONCURRENCE_ASSISTANCE, rho, cut, opt).value

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

    @pytest.mark.parametrize("measure", [CONCURRENCE, CONCURRENCE_ASSISTANCE])
    def test_rank_one_two_by_four_is_exact_without_a_roof(self, no_roof, measure):
        # a Bell pair on A,B1 next to |00> on B2,B3: the A,B1,B2 reduction is pure
        psi = np.zeros(16)
        psi[0b0000] = psi[0b1100] = 1 / math.sqrt(2)
        rho = partial_trace(PureState(psi, (2, 2, 2, 2)), (0, 1, 2))
        assert np.count_nonzero(rho.eigensystem()[0] > 1e-12) == 1
        mv = measure_bipartite(measure, rho, Bipartition({0}, {1, 2}))
        assert mv.exact and mv.value == pytest.approx(1.0, abs=1e-12)


class TestSupportRestriction:
    @pytest.mark.parametrize("measure", [CONCURRENCE, CONCURRENCE_ASSISTANCE])
    def test_w_class_cut_takes_the_closed_forms(self, no_roof, measure):
        # rho_{B1B2} of w4 has rank 2: the 2x4 cut restricts to 2x2 (Kim-Sanders value)
        rho = partial_trace(w_state(4), {0, 1, 2})
        mv = measure_bipartite(measure, rho, Bipartition({0}, {1, 2}))
        assert mv.exact and mv.value == pytest.approx(math.sqrt(2) / 2, abs=1e-14)

    @pytest.mark.parametrize("measure", [CONCURRENCE, CONCURRENCE_ASSISTANCE])
    def test_a_side_of_rank_one_gives_an_exact_zero(self, no_roof, measure):
        # |+> on A next to a mixed B1B2: a product state across A|B1B2
        bc = random_two_qubit_mixed(7, 3)
        rho = DensityMatrix(np.kron(np.full((2, 2), 0.5), bc), (2, 2, 2))
        for cut in (Bipartition({0}, {1, 2}), Bipartition({1, 2}, {0})):
            assert measure_bipartite(measure, rho, cut) == MeasureValue(0.0, "exact")

    @pytest.mark.parametrize("measure, direction", [(CONCURRENCE, "minimize"),
                                                    (CONCURRENCE_ASSISTANCE, "maximize")])
    def test_uncompressible_cut_reaches_the_roof_unchanged(self, monkeypatch, measure,
                                                            direction):
        from entshare import measures

        calls = []

        def recording(rho, cut, how, opt):
            calls.append((rho, cut, how))
            return MeasureValue(0.5, "upper-estimate", {"restarts": 1})

        monkeypatch.setattr(measures, "convex_roof", recording)
        rho = partial_trace(haar_random_pure((2, 2, 2, 2), 0), {0, 1, 2})
        cut = Bipartition({1, 2}, {0})
        measure_bipartite(measure, rho, cut)
        assert len(calls) == 1 and calls[0][0] is rho and calls[0][1:] == (cut, direction)

    @pytest.mark.parametrize("measure", [CONCURRENCE, CONCURRENCE_ASSISTANCE])
    def test_compressed_roof_equals_the_full_roof(self, measure):
        # A|B1B2B3 of a Haar 5-qubit state: rho_{B1B2B3} has rank 4, so 2x8 becomes 2x4
        rho = partial_trace(haar_random_pure((2,) * 5, 1), {0, 1, 2, 3})
        cut, opt = Bipartition({0}, {1, 2, 3}), OptimizerConfig(restarts=3)
        compressed = measures._compress(rho, cut)[0]
        assert compressed.dims == (2, 4)
        mv = measure_bipartite(measure, rho, cut, opt)
        direction = "maximize" if measure.assistance else "minimize"
        full = convex_roof(rho, cut, direction, opt)
        assert mv.exactness == full.exactness
        assert mv.value == pytest.approx(full.value, abs=1e-9)

    def test_separable_two_by_four_mixture_reads_an_exact_zero(self, no_roof):
        # p|a><a| x |u><u| + (1 - p)|b><b| x |v><v|: rho_{B1B2} has rank 2, so the
        # cut restricts to 2x2 and takes the Wootters form
        rng = np.random.default_rng(1)
        cut = Bipartition({0}, {1, 2})
        for _ in range(200):
            a, b = (np.kron(_unit(rng, 2), _unit(rng, 4)) for _ in range(2))
            p = rng.uniform(0.1, 0.9)
            rho = DensityMatrix(p * np.outer(a, a.conj()) + (1 - p) * np.outer(b, b.conj()),
                                (2, 2, 2))
            assert measures._compress(rho, cut)[0].dims == (2, 2)
            assert measure_bipartite(CONCURRENCE, rho, cut) == MeasureValue(0.0, "exact")

    @pytest.mark.parametrize("eps", [0.0, 1e-8, 1e-7])
    def test_rank_cut_discards_only_weight_below_the_rank_tolerance(self, eps):
        # the Haar admixture adds reduced-state eigenvalues of order eps^2, below RANK_TOL
        rho = partial_trace(near_w(4, eps), {0, 1, 2})
        compressed, _ = measures._compress(rho, Bipartition({0}, {1, 2}))
        assert compressed.dims == (2, 2)
        w_b = np.linalg.eigvalsh(partial_trace(rho, {1, 2}).matrix)
        dropped = w_b[w_b <= RANK_TOL].clip(0.0, None).sum()
        lost = 1.0 - np.trace(compressed.matrix).real
        assert -1e-15 <= lost <= dropped + 1e-15
        assert lost <= 2 * RANK_TOL


class TestConvexRoof:
    def test_pure_input_trivial(self, bell):
        mv = convex_roof(bell.density(), AB, "minimize")
        assert mv.value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_ensemble_has_rank_plus_two_members(self, monkeypatch, rank):
        starts, real = [], measures.minimize

        def recording(fun, x0, *args, **kwargs):
            starts.append(x0.shape)
            return real(fun, x0, *args, **kwargs)

        monkeypatch.setattr(measures, "minimize", recording)
        rho = DensityMatrix(random_two_qubit_mixed(rank, rank), (2, 2))
        convex_roof(rho, AB, "minimize", OptimizerConfig(restarts=3, max_iters=2))
        assert starts == [(3, (rank + 2) ** 2)]

    def test_direction_validated(self, bell):
        with pytest.raises(InvalidParameterError):
            convex_roof(bell.density(), AB, "down")

    @pytest.mark.parametrize("seed", range(12))
    def test_two_qubit_oracle_bracket(self, seed):
        rank = (seed % 4) + 1
        rho = random_two_qubit_mixed(seed, rank)
        dm = DensityMatrix(rho, (2, 2))
        lo = convex_roof(dm, AB, "minimize", OptimizerConfig(seed=seed))
        hi = convex_roof(dm, AB, "maximize", OptimizerConfig(seed=seed))
        cw, cs = oracle_wootters(rho), oracle_lambda_sum(rho)
        assert -1e-9 <= lo.value - cw <= 1e-3
        assert -1e-9 <= cs - hi.value <= 1e-3

    def test_w3_mixture_paper_value(self):
        rho = partial_trace(w_state(4), {0, 1, 2})
        mv = convex_roof(rho, Bipartition({0}, {1, 2}), "minimize")
        assert mv.value == pytest.approx(math.sqrt(2) / 2, abs=5e-3)
        assert mv.exactness == "upper-estimate"

    def test_best_so_far_monotone_in_restarts(self):
        rho = DensityMatrix(random_two_qubit_mixed(3, 3), (2, 2))
        values = [
            convex_roof(rho, AB, "minimize", OptimizerConfig(restarts=r, seed=5)).value
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
        a = convex_roof(rho, cut, "minimize", OptimizerConfig(seed=0))
        b = convex_roof(rotated, cut, "minimize", OptimizerConfig(seed=1))
        assert a.value == pytest.approx(b.value, abs=1e-5)

    def test_builtin_roof_matches_wootters(self):
        rho = DensityMatrix(random_two_qubit_mixed(9, 2), (2, 2))
        roof = convex_roof(rho, AB, "minimize", OptimizerConfig(restarts=6, seed=2))
        assert roof.exactness == "upper-estimate"
        assert roof.value == pytest.approx(wootters_concurrence(rho).value, abs=1e-5)

    def test_deterministic_given_seed(self):
        # a 2x2 rank-3 state and a 2x4 rank-4 reduction, both directions
        rho_2x4 = partial_trace(haar_random_pure((2,) * 5, 2), {0, 1, 2})
        cases = [(DensityMatrix(random_two_qubit_mixed(4, 3), (2, 2)), AB),
                 (rho_2x4, Bipartition({0}, {1, 2}))]
        for rho, cut in cases:
            for direction in ("minimize", "maximize"):
                a = convex_roof(rho, cut, direction, OptimizerConfig(restarts=5, seed=11))
                b = convex_roof(rho, cut, direction, OptimizerConfig(restarts=5, seed=11))
                assert a == b and a.value.hex() == b.value.hex()

    def test_one_iteration_is_not_converged(self):
        rho = DensityMatrix(random_two_qubit_mixed(3, 3), (2, 2))
        mv = convex_roof(rho, AB, "minimize", OptimizerConfig(restarts=3, max_iters=1))
        assert mv.optimizer_meta["converged"] is False
        assert mv.optimizer_meta["iterations"] == 1


class TestBatchMinimize:
    def test_quadratics_reach_their_minimizers(self):
        # every row carries its own centre in its last three entries; their
        # gradient is 0, so they never move and each row keeps its own quadratic
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = (q * [1.0, 10.0, 100.0]) @ q.T

        def fun(x):
            r = x[:, :3] - x[:, 3:]
            return 0.5 * np.einsum("ki,ij,kj->k", r, a, r), np.hstack([r @ a, np.zeros_like(r)])

        centres = rng.standard_normal((5, 3))
        x0 = np.hstack([3.0 * rng.standard_normal((5, 3)), centres])
        res = measures.minimize(fun, x0, max_iters=100, ftol=0.0, gtol=1e-12)
        assert res.success.all()
        assert np.array_equal(res.x[:, 3:], centres)
        assert np.max(np.abs(res.x[:, :3] - centres)) <= 1e-10
        assert type(res.fun) is float and res.nit == res.iterations.sum()

    def test_a_restart_does_not_depend_on_its_batch(self):
        rho = partial_trace(haar_random_pure((2,) * 5, 2), {0, 1, 2})
        vfac = measures._cut_factor(rho, [0, 1, 2])
        r = vfac.shape[1]
        m = r + 2
        draws = 0.7 * np.random.default_rng(3).standard_normal((3, m * m))
        x0 = np.vstack([np.zeros(m * m), draws])
        args = (vfac, m, r, 2, 4, 1.0, 1e-12)
        settings = {"max_iters": 500, "ftol": 1e-12, "gtol": 1e-10}
        four = measures.minimize(_roof_objective, x0, args, **settings)
        two = measures.minimize(_roof_objective, x0[:2], args, **settings)
        assert np.max(np.abs(two.x - four.x[:2])) <= 1e-12
        assert two.iterations.tolist() == four.iterations[:2].tolist()
        assert two.success.tolist() == four.success[:2].tolist()
        assert four.nfev > four.nit >= four.iterations.max() > 1
        # past R m^2 = 16,384 numpy reuses 256 KiB temporaries in place, which
        # must not reorder a complex product in the kernel
        rows = 16384 // (m * m) + 1
        wide_x0 = np.vstack([x0, 0.7 * np.random.default_rng(4).standard_normal((rows - 4, m * m))])
        short = {**settings, "max_iters": 25}
        wide = measures.minimize(_roof_objective, wide_x0, args, **short)
        narrow = measures.minimize(_roof_objective, x0[:2], args, **short)
        assert wide_x0.shape[0] * m * m > 16384
        assert np.array_equal(narrow.x, wide.x[:2])


class TestOptimizerConfig:
    @pytest.mark.parametrize("bad", [
        {"restarts": 0}, {"restarts": 2.5}, {"max_iters": 0}, {"tol": 0.0}, {"tol": -1e-8},
        {"tol": float("nan")}, {"tol": float("inf")}, {"restarts": measures.MAX_RESTARTS + 1},
        {"seed": -1}, {"seed": 1.5},
    ])
    def test_invalid_settings_rejected(self, bad):
        with pytest.raises(OptimizerConfigError):
            OptimizerConfig(**bad)

    def test_smallest_valid_settings(self):
        opt = OptimizerConfig(restarts=1, max_iters=1, tol=1e-12)
        assert (opt.restarts, opt.max_iters, opt.tol) == (1, 1, 1e-12)

    def test_most_restarts_accepted(self):
        assert OptimizerConfig(restarts=measures.MAX_RESTARTS).restarts == measures.MAX_RESTARTS


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

    @pytest.mark.parametrize("da, db", [(2, 4), (2, 8), (4, 4)])
    def test_member_values_of_product_members_carry_no_rounding_noise(self, da, db):
        rng = np.random.default_rng(da * db)
        u = rng.standard_normal((200, da)) + 1j * rng.standard_normal((200, da))
        v = rng.standard_normal((200, db)) + 1j * rng.standard_normal((200, db))
        mem = u[:, :, None] * v[:, None, :]
        mem /= np.linalg.norm(mem.reshape(200, -1), axis=1)[:, None, None]
        # sqrt(2 (t^2 - f)) of the same members reaches ~1e-8 from rounding alone
        assert np.max(_member_values(mem)) < 1e-12

    @KERNEL_CASES
    def test_member_values_keep_their_bytes(self, shape, at_zero):
        # the pure-value helper the roof shares with concurrence_pure, written out per member
        m, r, da, db = shape
        vfac, theta = _kernel_input(m, r, da, db, at_zero)
        mem, _ = _members(theta, vfac, m, r, da, db)
        s2 = np.linalg.svd(mem, compute_uv=False) ** 2
        tail = np.cumsum(s2[:, :0:-1], axis=1)[:, ::-1]
        assert _member_values(mem).tobytes() == (
            2.0 * np.sqrt((s2[:, :-1] * tail).sum(axis=1))).tobytes()
