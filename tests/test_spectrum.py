"""Tests for spectrum enumeration, digit words, and strata."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernspec.exact import BernoulliParams, QuarterInt, in_zero_set
from bernspec.spectrum import (
    ITEM_BUDGET,
    TILDE_ONE_POINT,
    TILDE_OTHER,
    check_budget,
    check_word,
    enumerate_spectrum,
    index_word,
    parse_word,
    point_numerators,
    scale_value,
    stratum_index,
    tilde_stratum_index,
    word_indices,
    word_to_bits,
    word_value,
)

N2 = BernoulliParams(2)
N3 = BernoulliParams(3)
N4 = BernoulliParams(4)

def canonical_words(max_len: int = 10):
    return st.integers(0, max_len).flatmap(
        lambda m: st.just(()) if m == 0 else st.tuples(
            *([st.integers(0, 1)] * (m - 1))
        ).map(lambda bits: bits + (1,))
    )


class TestWordValue:
    def test_examples(self):
        assert word_value((), N2) == QuarterInt(0)
        assert word_value((1,), N2) == QuarterInt.from_int(1)
        assert word_value((1, 1), N2) == QuarterInt.from_int(5)
        assert word_value((0, 1), N3) == QuarterInt.from_int(9)
        assert word_value((1,), N3) == QuarterInt(6)  # 3/2

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            word_value((1, 0), N2)
        with pytest.raises(ValueError):
            word_value((2,), N2)

    @given(canonical_words(), st.sampled_from([N2, N3, N4]))
    def test_closed_form(self, word, params):
        expected = sum(bit * params.base ** (i + 1) for i, bit in enumerate(word))
        assert word_value(word, params).numerator == expected


class TestCheckWord:
    @pytest.mark.parametrize("word", [(), (1,), (0, 1), (1, 0, 1)])
    def test_accepts_canonical(self, word):
        check_word(word)

    @pytest.mark.parametrize("word", [(0,), (1, 0), (2,), (1, 2, 1), (-1, 1)])
    def test_rejects_trailing_zero_or_bad_bit(self, word):
        with pytest.raises(ValueError, match="not a canonical digit word"):
            check_word(word)


class TestSerialization:
    def test_round_trip(self):
        for w in enumerate_spectrum(N2, 5):
            assert parse_word(word_to_bits(w)) == w

    def test_bit_order(self):
        assert word_to_bits((1, 0, 1)) == "101"
        assert word_to_bits(()) == ""

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_word("102")
        with pytest.raises(ValueError):
            parse_word("10")  # trailing zero: not canonical


class TestEnumerate:
    def test_value_order_n2(self):
        values = [
            word_value(w, N2).numerator // 4
            for w in enumerate_spectrum(N2, 3)
        ]
        assert values == [0, 1, 4, 5, 16, 17, 20, 21]

    def test_strata_order_n2(self):
        values = [
            word_value(w, N2).numerator // 4
            for w in enumerate_spectrum(N2, 3, order="strata")
        ]
        assert values == [0, 1, 5, 17, 21, 4, 20, 16]

    def test_zero_digits(self):
        assert enumerate_spectrum(N2, 0) == [()]

    def test_count(self):
        for d in range(0, 9):
            assert len(enumerate_spectrum(N3, d)) == 2 ** d

    @pytest.mark.parametrize("n", range(1, 7))
    def test_value_order_is_counting_order_and_a_prefix(self, n):
        params = BernoulliParams(n)
        deeper = enumerate_spectrum(params, 0)
        for d in range(0, 8):
            words, deeper = deeper, enumerate_spectrum(params, d + 1)
            assert words == sorted(words, key=lambda w: word_value(w, params))
            assert deeper[:len(words)] == words

    @pytest.mark.parametrize("n", range(1, 7))
    def test_point_numerators_are_word_values(self, n):
        params = BernoulliParams(n)
        for d in range(0, 8):
            assert point_numerators(params, d) == [
                word_value(w, params).numerator
                for w in enumerate_spectrum(params, d)]

    @pytest.mark.parametrize("params", [N2, N3, N4])
    def test_strata_order_sorts_by_stratum_then_value(self, params):
        for d in range(0, 8):
            expected = sorted(enumerate_spectrum(params, d), key=lambda w: (
                -1 if not w else stratum_index(w), word_value(w, params)))
            assert enumerate_spectrum(params, d, order="strata") == expected

    @pytest.mark.parametrize("order", ["value", "strata"])
    @pytest.mark.parametrize("params", [BernoulliParams(1), N2, N4],
                             ids=["n=1", "n=2", "n=4"])
    def test_words_are_the_tuples_of_word_indices(self, params, order):
        # the doubled list against one index_word per index
        for d in range(0, 11):
            assert enumerate_spectrum(params, d, order) == [
                index_word(m) for m in word_indices(d, order)]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            enumerate_spectrum(N2, -1)
        with pytest.raises(ValueError):
            enumerate_spectrum(N2, 3, order="sideways")

    def test_size_budget(self):
        # decided on the projected count, before any word is listed
        check_budget(22, "words")
        check_budget(11, "word pairs", 4)
        for d in (23, 64):
            with pytest.raises(ValueError, match=(
                    f"max_digits {d} needs {2**d} words, "
                    f"over the size budget of {ITEM_BUDGET}")):
                enumerate_spectrum(N2, d)
            with pytest.raises(ValueError, match="over the size budget"):
                point_numerators(N2, d)
        # past 64 digits the count is named as a power, which is never built
        for d in (65, 10**9):
            for per_digit, items in ((2, "words"), (4, "word pairs")):
                with pytest.raises(ValueError, match=re.escape(
                        f"max_digits {d} needs {per_digit}^{d} {items}, "
                        f"over the size budget of {ITEM_BUDGET}")):
                    check_budget(d, items, per_digit)
        # a negative depth is left to the depth check
        check_budget(-1, "words")

    @pytest.mark.parametrize("params", [N2, N3, N4])
    def test_self_similarity(self, params):
        # Gamma = 2n*Gamma  u  (2n*Gamma + n/2), disjointly (truncated form)
        base, half = params.base, params.half_n
        inner = [word_value(w, params) for w in enumerate_spectrum(params, 4)]
        outer = {
            word_value(w, params).numerator
            for w in enumerate_spectrum(params, 5)
        }
        scaled = {(base * v).numerator for v in inner}
        shifted = {(base * v + half).numerator for v in inner}
        assert scaled | shifted == outer
        assert not scaled & shifted

    @pytest.mark.parametrize("params", [N2, N3, N4])
    def test_orthogonality_differences(self, params):
        # distinct spectrum points differ by a zero-set member
        points = [word_value(w, params) for w in enumerate_spectrum(params, 6)]
        for i, a in enumerate(points):
            for b in points[i + 1:]:
                assert in_zero_set(a - b, params), (str(a), str(b))


class TestStrata:
    def test_examples(self):
        assert stratum_index(()) is None
        assert stratum_index((1, 1)) == 0
        assert stratum_index((0, 1)) == 1
        assert stratum_index((0, 0, 1)) == 2

    @given(canonical_words(8), st.sampled_from([N2, N3, N4]))
    def test_decomposition(self, word, params):
        # stratum k point = (2n)^k * (n/2 + 2n * gamma), gamma the tail point
        k = stratum_index(word)
        if k is None:
            assert word == ()
            return
        tail = word[k + 1:]
        value = word_value(word, params)
        inner = params.half_n + params.base * word_value(tail, params)
        assert value == params.base ** k * inner

    def test_partition(self):
        words = enumerate_spectrum(N2, 7)
        by_stratum: dict[int, int] = {}
        for w in words:
            k = stratum_index(w)
            if k is not None:
                by_stratum[k] = by_stratum.get(k, 0) + 1
        assert sum(by_stratum.values()) == len(words) - 1
        # stratum k of a depth-7 truncation has 2^(7-k-1) words
        assert by_stratum == {k: 2 ** (7 - k - 1) for k in range(7)}


class TestTildeStrata:
    def test_examples(self):
        assert tilde_stratum_index((1,), N2) == TILDE_ONE_POINT
        assert tilde_stratum_index((1, 1), N2) == 0          # value 5
        assert tilde_stratum_index((1, 0, 1), N2) == 1        # value 17
        assert tilde_stratum_index((1, 1, 1), N2) == 0        # value 21
        assert tilde_stratum_index((1, 0, 0, 1), N2) == 2

    def test_other_for_n3(self):
        assert tilde_stratum_index((1, 1), N3) == TILDE_OTHER

    def test_rejects_outside_stratum_zero(self):
        with pytest.raises(ValueError):
            tilde_stratum_index((0, 1), N2)
        with pytest.raises(ValueError):
            tilde_stratum_index((), N2)

    def test_value_form(self):
        # class k values are 1 + 4^(k+1) * (1 + 4 * gamma)
        gamma_values = {
            word_value(w, N2).numerator // 4 for w in enumerate_spectrum(N2, 5)
        }
        for w in enumerate_spectrum(N2, 7):
            if not w or w[0] != 1:
                continue
            k = tilde_stratum_index(w, N2)
            value = word_value(w, N2).numerator // 4
            if k == TILDE_ONE_POINT:
                assert value == 1
            else:
                shifted = (value - 1) // 4 ** (k + 1)
                assert (value - 1) % 4 ** (k + 1) == 0
                assert shifted % 4 == 1
                assert (shifted - 1) // 4 in gamma_values


class TestScaleValue:
    def test_example(self):
        assert scale_value((0, 1), BernoulliParams(2, 5)) == QuarterInt.from_int(20)

    def test_requires_p(self):
        with pytest.raises(ValueError):
            scale_value((1,), N2)
