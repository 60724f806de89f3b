import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oncograde.core import (
    _SCALARS,
    RngStream,
    as_matrix,
    derive_stream,
    json_array,
    json_value,
    parallel_map,
    shuffle,
)
from oncograde.models.base import proba_to_labels

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def reference_splitmix64(state: int, count: int) -> list[int]:
    """Independently coded splitmix64 recurrence, used as the oracle."""
    out = []
    for _ in range(count):
        state = (state + GOLDEN) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


# One draw at a time from a stream's state: the references its block draws
# (`uniforms`, `randints`, `normals`, `shuffle`) are checked against.


def next_u64(s: RngStream) -> int:
    (word,) = reference_splitmix64(s.state, 1)
    s.state = (s.state + GOLDEN) & MASK
    return word


def uniform(s: RngStream) -> float:
    # top 53 bits -> [0, 1)
    return (next_u64(s) >> 11) * 2.0**-53


def normal(s: RngStream) -> float:
    # Box-Muller; u clamped away from 0 so log stays finite
    u = max(uniform(s), 2.0**-53)
    v = uniform(s)
    return float(np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * np.pi * v))


def randint(s: RngStream, n: int) -> int:
    """Uniform integer in [0, n)."""
    return int(uniform(s) * n)


class TestRngStream:
    def test_matches_reference_recurrence_from_seed_zero(self):
        s = RngStream(0)
        words = reference_splitmix64(0, 6)
        assert s.uniforms(5).tolist() == [(w >> 11) * 2.0**-53 for w in words[:5]]
        assert next_u64(s) == words[5]
        # frozen first word, computed from the reference recurrence
        assert words[0] == 0xE220A8397B1DCDAF

    def test_same_seed_same_sequence(self):
        a, b = RngStream(42), RngStream(42)
        assert a.uniforms(1000).tolist() == b.uniforms(1000).tolist()

    @given(st.integers(min_value=0, max_value=MASK))
    def test_uniform_in_unit_interval(self, seed):
        u = RngStream(seed).uniforms(20)
        assert ((0.0 <= u) & (u < 1.0)).all()

    def test_derive_is_stable_and_disjoint(self):
        base = RngStream(99)
        s1, s2 = base.derive(3), base.derive(3)
        a1 = [uniform(s1) for _ in range(4)]
        a2 = [uniform(s2) for _ in range(4)]
        assert a1 == a2
        # four words from each derived stream, and no word repeats across streams
        seqs = [tuple(next_u64(s) for _ in range(4)) for s in map(base.derive, range(50))]
        assert len(set(seqs)) == 50
        assert len({w for seq in seqs for w in seq}) == 200

    def test_derive_does_not_consume_parent_state(self):
        a, b = RngStream(5), RngStream(5)
        a.derive(1)
        assert next_u64(a) == next_u64(b)

    @pytest.mark.parametrize("n", [1, 2, 3, 150, 1100, 2**31 + 7])
    def test_randints_match_scalar_draws(self, n):
        for seed in (0, 9, MASK):
            scalar, block = RngStream(seed), RngStream(seed)
            expected = [randint(scalar, n) for _ in range(257)]
            drawn = block.randints(n, 257)
            assert drawn.tolist() == expected
            assert next_u64(block) == next_u64(scalar)

    def test_randints_empty_and_invalid(self):
        s = RngStream(4)
        assert s.randints(5, 0).size == 0
        assert next_u64(s) == next_u64(RngStream(4))
        with pytest.raises(ValueError):
            s.randints(0, 3)

    @pytest.mark.parametrize("size", [0, 1, 257])
    def test_uniforms_and_normals_match_scalar_draws(self, size):
        for seed in (0, 9, MASK):
            scalar, block = RngStream(seed), RngStream(seed)
            assert block.uniforms(size).tolist() == [uniform(scalar) for _ in range(size)]
            assert block.normals(size).tolist() == [normal(scalar) for _ in range(size)]
            assert next_u64(block) == next_u64(scalar)

    def test_derive_stream_helper(self):
        assert next_u64(derive_stream(7, 2)) == next_u64(RngStream(7).derive(2))


def reference_shuffle(indices, stream: RngStream) -> list:
    """Fisher-Yates with one scalar draw per step, used as the oracle."""
    out = list(indices)
    for i in range(len(out) - 1, 0, -1):
        j = randint(stream, i + 1)
        out[i], out[j] = out[j], out[i]
    return out


class TestShuffle:
    @pytest.mark.parametrize("n", [0, 1, 2, 1000])
    def test_matches_scalar_fisher_yates(self, n):
        for seed in (0, 9, MASK):
            scalar, block = RngStream(seed), RngStream(seed)
            assert shuffle(range(n), block) == reference_shuffle(range(n), scalar)
            assert next_u64(block) == next_u64(scalar)

    def test_empty(self, stream):
        assert shuffle([], stream) == []

    @given(st.lists(st.integers(), max_size=60), st.integers(min_value=0, max_value=2**32))
    def test_permutation_property(self, values, seed):
        out = shuffle(values, RngStream(seed))
        assert sorted(out) == sorted(values)

    def test_deterministic(self):
        v = list(range(10))
        assert shuffle(v, RngStream(7)) == shuffle(v, RngStream(7))

    def test_actually_shuffles(self):
        v = list(range(100))
        assert shuffle(v, RngStream(3)) != v


class TestArgmaxTiebreakLow:
    """Row-wise argmax of ``proba_to_labels``: equal maxima resolve to the lowest index."""

    @pytest.mark.parametrize(
        "values,expected",
        [([0.1, 0.7, 0.2], 1), ([0.5, 0.5, 0.5], 0), ([-3, -1, -1], 1)],
    )
    def test_examples(self, values, expected):
        assert proba_to_labels(np.array([values])).tolist() == [expected]

    def test_no_rows_give_no_labels(self):
        labels = proba_to_labels(np.empty((0, 3)))
        assert labels.shape == (0,) and labels.dtype == np.int64

    @given(
        st.lists(st.integers(-(2**20), 2**20).map(lambda n: n / 4.0), min_size=1, max_size=20),
        st.integers(-(2**20), 2**20).map(lambda n: n / 4.0),
    )
    def test_invariant_under_constant_shift(self, values, c):
        # dyadic grid keeps the addition exact, so ties are preserved
        shifted = [v + c for v in values]
        assert proba_to_labels(np.array([values])).tolist() == proba_to_labels(np.array([shifted])).tolist()


class TestAsMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[1.0, float("nan")]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])


class TestJsonChoice:
    """A tuple of JSON values reads a value equal to one of them, with the same type."""

    def test_reads_a_choice(self):
        assert json_value(("hard", "soft"), "soft", "mode") == "soft"
        assert json_value((True,), True, "leaf") is True

    @pytest.mark.parametrize(
        "choices, value, message",
        [
            (("hard", "soft"), "Soft", 'mode must be "hard" or "soft", got "Soft"'),
            (("hard", "soft"), None, 'mode must be "hard" or "soft", got null'),
            ((True,), 1, "mode must be true, got 1"),
            ((True,), [], "mode must be true, got []"),
            ((1,), 1.0, "mode must be 1, got 1.0"),
        ],
    )
    def test_refuses_any_other_value(self, choices, value, message):
        with pytest.raises(ValueError) as info:
            json_value(choices, value, "mode")
        assert str(info.value) == message


json_scalars = st.one_of(
    st.integers(-(10**400), 10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)


class TestJsonArray:
    def test_reads_nested_lists(self):
        got = json_array(float, [[1, 2.5], [-3, 0.0]], "{0}")
        assert got.dtype == np.float64 and got.tolist() == [[1.0, 2.5], [-3.0, 0.0]]
        got = json_array(int, [[0, 5.0], [2, 22]], "{0}")
        assert got.dtype == np.int64 and got.tolist() == [[0, 5], [2, 22]]
        assert json_array(float, 0.5, "{0}").shape == () and json_array(int, [], "{0}").shape == (0,)

    @pytest.mark.parametrize(
        "tp, value, message",
        [
            (float, [1.0, "0.5"], "1: '0.5'"),
            (float, [0.5, True], "1: True"),
            (int, [[1, 2], [3, False]], "1: [3, False]"),
            (float, [None], "0: None"),
            (float, "abc", "0: 'abc'"),
            (float, [[1.0, 2.0], [3.0], [4.0, 5.0]], "1: [3.0]"),
            (int, [[1, 2, 3], [2, 5], [4, 6]], "0: [1, 2, 3]"),
            (float, [0.0, float("nan")], "1: nan"),
            (float, [float("-inf")], "0: -inf"),
            (int, [0.9, 5], "0: 0.9"),
            (int, [2**63], f"0: {2**63}"),
        ],
    )
    def test_refuses_with_the_index_and_entry(self, tp, value, message):
        with pytest.raises(ValueError) as info:
            json_array(tp, value, "{0}: {1!r}")
        assert str(info.value) == message

    @given(st.lists(json_scalars, max_size=6), st.sampled_from([int, float]))
    def test_follows_the_config_scalar_rule(self, values, tp):
        def follows(v):
            # the config rule, within the float range and, for an index, within int64
            in_range = _SCALARS[float][2](v) and (tp is float or abs(v) < 2**63)
            return not isinstance(v, bool) and _SCALARS[tp][2](v) and in_range

        if all(follows(v) for v in values):
            assert json_array(tp, values, "{0}").tolist() == [tp(v) for v in values]
        else:
            with pytest.raises(ValueError):
                json_array(tp, values, "{0}")


class TestParallelMap:
    def test_preserves_order_sequential_and_threaded(self, monkeypatch):
        items = list(range(17))
        monkeypatch.setenv("ONCOGRADE_THREADS", "0")
        seq = parallel_map(lambda x: x * x, items)
        monkeypatch.setenv("ONCOGRADE_THREADS", "8")
        par = parallel_map(lambda x: x * x, items)
        assert seq == par == [x * x for x in items]

    def test_nested_map_runs_on_callers_thread(self, monkeypatch):
        monkeypatch.setenv("ONCOGRADE_THREADS", "4")

        def inner(_):
            caller = threading.get_ident()
            return caller, parallel_map(lambda _: threading.get_ident(), list(range(5)))

        results = parallel_map(inner, list(range(6)))
        assert all(caller != threading.get_ident() for caller, _ in results)
        assert all(threads == [caller] * 5 for caller, threads in results)
        # only the main thread starts a pool: a map back on it threads again
        later = parallel_map(lambda _: threading.get_ident(), list(range(4)))
        assert threading.get_ident() not in later

    def test_map_off_the_main_thread_runs_on_callers_thread(self, monkeypatch):
        monkeypatch.setenv("ONCOGRADE_THREADS", "4")
        results = {}

        def caller():
            results["caller"] = threading.get_ident()
            results["items"] = parallel_map(lambda _: threading.get_ident(), list(range(6)))

        thread = threading.Thread(target=caller)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert results["items"] == [results["caller"]] * 6
