import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_reduce
from entshare.errors import InvalidParameterError, InvalidPartitionError, InvalidStateError
from entshare.states import (
    Bipartition,
    DensityMatrix,
    PureState,
    _json_rows,
    check_size,
    haar_random_pure,
    json_text,
    make_family,
    partial_trace,
    state_from_json,
    state_to_json,
    w_state,
)


class TestInvariants:
    def test_norm_enforced(self):
        with pytest.raises(InvalidStateError):
            PureState(np.array([1.0, 1.0]), (2,))

    def test_dims_validated(self):
        with pytest.raises(InvalidStateError):
            PureState(np.array([1.0]), (1,))
        with pytest.raises(InvalidStateError):
            PureState(np.array([1.0, 0, 0]), (2,))
        with pytest.raises(InvalidStateError, match="does not match dims"):
            DensityMatrix(np.eye(2) / 2, (2, 2))

    def test_density_hermitian_and_trace(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.array([[0.5, 0.2], [0.1, 0.5]]), (2,))
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.eye(2), (2,))

    def test_density_positivity(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.diag([1.5, -0.5]), (2,))

    def test_spectrum_stored_once(self):
        rho = DensityMatrix(np.diag([0.75, 0.25 + 1e-11, -1e-11]), (3,))
        w, v = rho.eigensystem()
        assert rho.eigensystem()[0] is w and rho.eigensystem()[1] is v
        assert not w.flags.writeable and not v.flags.writeable
        # the small negative eigenvalue is clamped to 0
        assert w[0] == 0.0 and w[1:] == pytest.approx([0.25, 0.75], abs=1e-10)

    def test_bipartition_rules(self):
        with pytest.raises(InvalidPartitionError):
            Bipartition(set(), {1})
        with pytest.raises(InvalidPartitionError):
            Bipartition({0, 1}, {1})

    def test_nan_fails_every_state_check(self):
        with pytest.raises(InvalidStateError, match="norm"):
            PureState(np.array([np.nan, 1.0]), (2,))
        with pytest.raises(InvalidStateError, match="Hermitian"):
            DensityMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]), (2,))
        # a NaN on the diagonal only: the Hermitian residual is NaN too
        with pytest.raises(InvalidStateError, match="Hermitian"):
            DensityMatrix(np.diag([0.5, np.nan]), (2,))
        with pytest.raises(InvalidStateError, match="finite"):
            state_from_json('{"dims": [2], "amplitudes": [{"index": [0], "re": NaN}]}')
        with pytest.raises(InvalidParameterError, match="non-negative"):
            make_family("3q", [math.nan, 0.5, 0.5, 0.5, 0.5])
        with pytest.raises(InvalidParameterError, match="phase"):
            make_family("3q", [1 / math.sqrt(5)] * 5 + [math.nan])

    def test_norm_error_prints_a_plain_number(self):
        with pytest.raises(InvalidStateError, match=r"state norm 2\.0 deviates"):
            PureState(np.array([2.0, 0.0]), (2,))

    def test_infinite_entry_raises_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidStateError, match="finite"):
                DensityMatrix([[0.5, np.inf], [np.inf, 0.5]], (2,))

    def test_states_immutable(self, bell):
        with pytest.raises(ValueError):
            bell.amplitudes[0] = 0.0


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self, bell):
        red = partial_trace(bell, {0})
        assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)

    def test_w4_three_party_marginal(self):
        # direct-summation oracle and the closed mixture form
        w4 = w_state(4)
        red = partial_trace(w4, {0, 1, 2})
        assert np.allclose(red.matrix, oracle_reduce(w4.amplitudes, w4.dims, [0, 1, 2]), atol=1e-12)
        w3 = w_state(3).amplitudes
        zero = np.zeros(8)
        zero[0] = 1.0
        mixture = 0.75 * np.outer(w3, w3.conj()) + 0.25 * np.outer(zero, zero)
        assert np.allclose(red.matrix, mixture, atol=1e-12)

    def test_product_state_factor(self):
        psi = np.kron([1, 0], np.array([1, 1j]) / np.sqrt(2))
        state = PureState(psi, (2, 2))
        red = partial_trace(state, {0})
        assert np.allclose(red.matrix, [[1, 0], [0, 0]], atol=1e-12)

    def test_keep_set_must_be_strict_subset(self, bell):
        with pytest.raises(InvalidPartitionError):
            partial_trace(bell, set())
        with pytest.raises(InvalidPartitionError):
            partial_trace(bell, {0, 1})
        # int() would truncate [0.9, 1] to the A,B1 reduction
        for keep in ([0.9, 1], [0, 1.5], [0, 1, 1.0], [np.float64(1.0)], ["1"]):
            with pytest.raises(InvalidPartitionError):
                partial_trace(w_state(3), keep)

    def test_numpy_integer_parties_are_kept(self):
        red = partial_trace(w_state(3), [np.int64(0), np.int32(1)])
        assert np.array_equal(red.matrix, partial_trace(w_state(3), [0, 1]).matrix)

    @pytest.mark.parametrize("seed", range(6))
    def test_composition_and_structure_preserved(self, seed):
        state = haar_random_pure((2, 2, 2, 2), seed)
        big = partial_trace(state, {0, 1, 2})
        small_direct = partial_trace(state, {0, 2})
        small_via_big = partial_trace(big, {0, 2})
        assert np.max(np.abs(small_direct.matrix - small_via_big.matrix)) < 1e-10
        assert abs(np.trace(big.matrix) - 1) < 1e-10
        assert np.max(np.abs(big.matrix - big.matrix.conj().T)) < 1e-10

    def test_mixed_input(self):
        rho = partial_trace(w_state(4), {0, 1, 2})
        again = partial_trace(rho, {0, 1})
        assert np.allclose(again.matrix, oracle_reduce(w_state(4).amplitudes, (2,) * 4, [0, 1]),
                           atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_qutrit_party_against_oracle(self, seed):
        # a dimension-3 party in the middle: pure input, then a mixed input traced again
        state = haar_random_pure((2, 3, 2), seed)
        for keep in ([0, 1], [1], [1, 2], [0, 2]):
            red = partial_trace(state, keep)
            assert red.dims == tuple(state.dims[k] for k in keep)
            assert np.allclose(red.matrix, oracle_reduce(state.amplitudes, state.dims, keep),
                               atol=1e-12)
        mixed = partial_trace(state, {0, 1})
        for keep in ([0], [1]):  # parties 0 and 1 keep their indices in the reduction
            again = partial_trace(mixed, keep)
            assert np.allclose(again.matrix, oracle_reduce(state.amplitudes, state.dims, keep),
                               atol=1e-12)


class TestFamilies:
    def test_3q_amplitude_layout(self):
        lam = [0.5, 1 / math.sqrt(6), 0.5, 1 / math.sqrt(6), 1 / math.sqrt(6)]
        s = make_family("3q", lam + [0.9])
        amps = s.amplitudes
        assert amps[0b000] == pytest.approx(0.5)
        assert abs(amps[0b100]) == pytest.approx(lam[1])
        assert np.angle(amps[0b100]) == pytest.approx(0.9)
        assert amps[0b101] == pytest.approx(0.5)
        assert amps[0b110] == pytest.approx(lam[3])
        assert amps[0b111] == pytest.approx(lam[4])

    def test_3q_rejects_unnormalized(self):
        with pytest.raises(InvalidParameterError):
            make_family("3q", [0.5, 0.5, 0.5, 0.5, 0.5])

    def test_w5_amplitudes(self):
        s = make_family("w5")
        hot = [1 << k for k in range(5)]
        assert all(s.amplitudes[i] == pytest.approx(1 / math.sqrt(5)) for i in hot)
        assert np.count_nonzero(s.amplitudes) == 5

    def test_ghz(self):
        s = make_family("ghz", [3])
        assert s.amplitudes[0] == pytest.approx(1 / math.sqrt(2))
        assert s.amplitudes[7] == pytest.approx(1 / math.sqrt(2))
        with pytest.raises(InvalidParameterError):
            make_family("ghz", [2])

    @pytest.mark.parametrize("build", [lambda: make_family("ghz", [40]), lambda: w_state(40),
                                       lambda: haar_random_pure((2,) * 40, 0)],
                             ids=["ghz", "w", "haar"])
    def test_states_past_the_size_limit_rejected(self, build):
        with pytest.raises(InvalidStateError, match="4096 amplitudes"):
            build()
        check_size((2,) * 12, "twelve qubits")
        with pytest.raises(InvalidStateError):
            check_size((2,) * 12 + (2,), "thirteen qubits")

    @pytest.mark.parametrize("name, params, message", [
        ("3q", [1, 0, 0, 0, 0, math.inf], "phase"), ("4q-theta", [0.5, 0.5, math.nan], "phase"),
        ("4q-theta", [0.5], "theta0"), ("4q-theta", [0.5] * 4, "theta0"),
        ("w4", [1], "no params"), ("w5", [0.3], "no params"),
        ("ghz", [math.inf], "integer"), ("3q", ["1", "0", "0", "0", "zz"], "params .*'zz'"),
    ])
    def test_bad_params_rejected_by_name(self, name, params, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match=message):
                make_family(name, params)

    def test_4q_theta_range_checked(self):
        with pytest.raises(InvalidParameterError):
            make_family("4q-theta", [2.0, 0.3])

    def test_unknown_family(self):
        with pytest.raises(InvalidParameterError):
            make_family("nope")

    @given(
        raw=st.lists(st.floats(0.01, 1.0), min_size=5, max_size=5),
        phi=st.floats(0, 2 * math.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_3q_normalized_for_valid_params(self, raw, phi):
        norm = math.sqrt(sum(x * x for x in raw))
        lam = [x / norm for x in raw]
        s = make_family("3q", lam + [phi])
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-12)

    @given(t0=st.floats(0, math.pi / 2), t1=st.floats(0, math.pi / 2))
    @settings(max_examples=60, deadline=None)
    def test_4q_theta_normalized(self, t0, t1):
        s = make_family("4q-theta", [t0, t1])
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestHaar:
    def test_single_qubit_norm(self):
        s = haar_random_pure((2,), 0)
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        a = haar_random_pure((2, 2, 2), 42)
        b = haar_random_pure((2, 2, 2), 42)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        c = haar_random_pure((2, 2, 2), 43)
        assert not np.array_equal(a.amplitudes, c.amplitudes)

    def test_marginal_purity_moment(self):
        # Monte Carlo check of the qubit-marginal purity moment
        # (d_A + d_B)/(d_A d_B + 1): 2/3 for a qubit inside three, 4/5 inside two.
        rng = np.random.default_rng(123)
        z = rng.standard_normal((10_000, 8)) + 1j * rng.standard_normal((10_000, 8))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        m = z.reshape(-1, 2, 4)
        g = np.einsum("kab,kcb->kac", m, m.conj())
        purity3 = np.einsum("kab,kba->k", g, g).real
        assert abs(purity3.mean() - 2 / 3) < 0.01

        z = rng.standard_normal((10_000, 4)) + 1j * rng.standard_normal((10_000, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        m = z.reshape(-1, 2, 2)
        g = np.einsum("kab,kcb->kac", m, m.conj())
        purity2 = np.einsum("kab,kba->k", g, g).real
        assert abs(purity2.mean() - 4 / 5) < 0.01

        sampled = partial_trace(haar_random_pure((2, 2, 2), 7), {0}).matrix
        assert 0.5 <= np.trace(sampled @ sampled).real <= 1.0


class TestJson:
    @pytest.mark.parametrize("s", [make_family("3q", [1 / math.sqrt(5)] * 5 + [0.7]),
                                   haar_random_pure((3, 2, 4), 5)], ids=["3q", "dims-3-2-4"])
    def test_roundtrip(self, s):
        entries = json.loads(state_to_json(s))["amplitudes"]
        # each nonzero amplitude in flat order, its index the row-major digits of its position
        flat = [k for k, amp in enumerate(s.amplitudes) if amp != 0]
        assert [e["index"] for e in entries] == [
            [k // math.prod(s.dims[j + 1:]) % d for j, d in enumerate(s.dims)] for k in flat]
        assert [complex(e["re"], e["im"]) for e in entries] == [s.amplitudes[k] for k in flat]
        again = state_from_json(state_to_json(s))
        assert again.dims == s.dims
        assert np.max(np.abs(again.amplitudes - s.amplitudes)) < 1e-12

    def test_sparse_entries_and_zero_default(self):
        doc = {"dims": [2, 2], "amplitudes": [
            {"index": [0, 0], "re": 0.7071067811865476, "im": 0.0},
            {"index": [1, 1], "re": 0.7071067811865476, "im": 0.0},
        ]}
        s = state_from_json(json.dumps(doc))
        assert s.amplitudes[1] == 0 and s.amplitudes[2] == 0

    def test_small_norm_deviation_normalized(self):
        doc = {"dims": [2], "amplitudes": [{"index": [0], "re": 1.0 + 5e-7, "im": 0.0}]}
        s = state_from_json(json.dumps(doc))
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_large_norm_deviation_rejected(self):
        doc = {"dims": [2], "amplitudes": [{"index": [0], "re": 1.1, "im": 0.0}]}
        with pytest.raises(InvalidStateError):
            state_from_json(json.dumps(doc))

    def test_bad_index_rejected(self):
        doc = {"dims": [2], "amplitudes": [{"index": [2], "re": 1.0, "im": 0.0}]}
        with pytest.raises(InvalidStateError):
            state_from_json(json.dumps(doc))


def dumps(doc) -> str:
    """The oracle: what json_text must write."""
    return json.dumps(doc, indent=2, sort_keys=True)


# str with non-ASCII, quotes, backslashes and control characters; float pairs and
# float lists, which the row template writes when they are all finite floats
_TEXT = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é€😀\u2028", "a\"b\\c\n"])
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT
_ROWS = st.lists(st.tuples(_FLOATS, _FLOATS) | st.lists(st.floats(), min_size=1, max_size=3))
_DOCS = st.recursive(_SCALARS | _ROWS, lambda inner: (
    st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_TEXT, inner)), max_leaves=20)


class TestJsonText:
    @given(doc=_DOCS)
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_bytes_of_json_dumps(self, doc):
        assert json_text(doc) == dumps(doc)

    @pytest.mark.parametrize("doc", [
        0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308, 0.1 + 0.2, np.float64(0.1),
        np.float64(math.nan), 0, -7, 2**70, True, False, None, "", [], (), {}, [[]], [{}],
        {"a": [], "b": {}, "c": ()}, {"z": 1, "a": {"y": [1.5, "x"], "b": None}},
        [0.5, 0.25], [(0.5, 0.25), (0.75, -1.0)], [[0.5], [0.25]],
    ])
    def test_edge_cases(self, doc):
        assert json_text(doc) == dumps(doc)

    @pytest.mark.parametrize("rows", [
        [(0.5, math.nan)], [(0.5, -math.inf)], [(0.5, np.float64(0.25))], [(0.5, 1)],
        [(0.5, True)], [(1e308, 1e308)], [(0.5, 0.25), (0.75,)], [(0.5, 0.25), 0.75], [()],
    ], ids=["nan", "inf", "np-float64", "int", "bool", "overflowing-sum", "ragged", "scalar",
            "empty-row"])
    def test_rows_outside_the_template_take_the_general_path(self, rows):
        assert _json_rows(rows, "  ") is None
        assert json_text({"rows": rows}) == dumps({"rows": rows})

    def test_a_scan_profile_takes_the_row_template(self):
        profile = tuple((x / 8, math.sin(x) - 0.5) for x in range(9))
        doc = {"root": 0.5, "scan_profile": profile}
        assert _json_rows(profile, "    ") is not None
        assert json_text(doc) == dumps(doc)

    @pytest.mark.parametrize("bad", [set(), np.int64(1), np.bool_(True), {"a": [1, set()]}])
    def test_type_error_as_json_dumps(self, bad):
        with pytest.raises(TypeError) as want:
            dumps(bad)
        with pytest.raises(TypeError) as got:
            json_text(bad)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("doc", [{1: 2.0}, {"a": {None: 1}}])
    def test_keys_must_be_str(self, doc):
        with pytest.raises(TypeError):
            json_text(doc)

    def test_state_json_is_key_sorted(self):
        text = state_to_json(w_state(3))
        assert text == dumps(json.loads(text))
