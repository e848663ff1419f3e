"""Tests for the word isometries, expansions, and the scaled operator."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bernspec import operators
from bernspec.exact import BernoulliParams, QuarterInt, in_zero_set, mu_hat
from bernspec.operators import (
    expand_exponential,
    parseval_partial,
    parseval_table,
    prepend_one,
    prepend_zero,
    strip_one,
    strip_zero,
    verify_cuntz_relations,
)
from bernspec.spectrum import (
    enumerate_spectrum,
    scale_value,
    stratum_index,
    word_value,
)

N2 = BernoulliParams(2)
P25 = BernoulliParams(2, 5)
P43 = BernoulliParams(4, 3)


def canonical_words(max_len: int = 8):
    return st.integers(0, max_len).flatmap(
        lambda m: st.just(()) if m == 0 else st.tuples(
            *([st.integers(0, 1)] * (m - 1))
        ).map(lambda bits: bits + (1,))
    )


class TestIsometries:
    def test_prepend(self):
        assert prepend_zero(()) == ()          # fixes the zero word
        assert prepend_zero((1,)) == (0, 1)
        assert prepend_one(()) == (1,)
        assert prepend_one((0, 1)) == (1, 0, 1)

    def test_strip(self):
        assert strip_zero((0, 1)) == (1,)
        assert strip_zero((1,)) is None
        assert strip_zero(()) == ()            # adjoint also fixes it
        assert strip_one((1,)) == ()
        assert strip_one((1, 0, 1)) == (0, 1)
        assert strip_one(()) is None
        assert strip_one((0, 1)) is None

    @given(canonical_words(), st.sampled_from([N2, BernoulliParams(3)]))
    def test_value_semantics(self, word, params):
        v = word_value(word, params)
        assert word_value(prepend_zero(word), params) == params.base * v
        assert word_value(prepend_one(word), params) == \
            params.base * v + params.half_n

    @given(canonical_words())
    def test_relations_pointwise(self, word):
        assert strip_zero(prepend_zero(word)) == word
        assert strip_one(prepend_one(word)) == word
        assert strip_one(prepend_zero(word)) is None
        assert strip_zero(prepend_one(word)) is None

    def test_verify_cuntz(self):
        for n in (2, 3, 4):
            report = verify_cuntz_relations(BernoulliParams(n), 6)
            assert report.passed, report.lines()
            assert report.checked == 7 * 2**6  # seven checks per word

    @pytest.mark.parametrize("name,broken", [
        # a strip that returns a wrong word: drops two digits
        ("strip_one", lambda w: w[2:] if w and w[0] == 1 else None),
        # a strip that fails to annihilate words starting with 1
        ("strip_zero", lambda w: w[1:]),
        # a prepend that returns a wrong word: two zero digits
        ("prepend_zero", lambda w: (0, 0) + w if w else ()),
        # a prepend whose value has one extra top digit
        ("prepend_one", lambda w: (1,) + w + (1,)),
    ])
    def test_verify_cuntz_rejects_broken_isometry(self, monkeypatch, name, broken):
        monkeypatch.setattr(operators, name, broken)
        for n in (2, 3, 4):
            assert not verify_cuntz_relations(BernoulliParams(n), 4).passed


def operator_column(word, params, max_digits):
    """Column of the scaled operator at a word: the expansion at p*gamma."""
    return expand_exponential(scale_value(word, params), params, max_digits)


class TestOperatorColumn:
    def test_zero_word_is_fixed(self):
        col = operator_column((), P25, 4)
        assert col.coefficients == {(): 1.0}
        assert col.residual_bound == 0.0

    def test_point_one_maps_to_point_five(self):
        # 5 * 1 = 5 is itself a spectrum point: the column is a delta
        col = operator_column((1,), P25, 4)
        assert col.coefficients == {(1, 1): 1.0}
        assert col.error_bounds[(1, 1)] == 0.0
        assert col.residual_bound == 0.0

    def test_point_five_column(self):
        col = operator_column((1, 1), P25, 5)
        coeff, err = col.get((1,))
        # frozen from the 64-term product oracle: transform at 5*5 - 1 = 24
        assert coeff == pytest.approx(0.5811539214293868, abs=1e-12)
        assert abs(coeff - 0.5811539214293868) <= err + 1e-12
        assert all(c != 0.0 for c in col.coefficients.values())

    @pytest.mark.parametrize("params,digits", [(P25, 5), (P43, 4)])
    def test_support_stays_in_stratum(self, params, digits):
        # the column at a stratum-k word is supported in stratum k
        for w in enumerate_spectrum(params, digits):
            col = operator_column(w, params, digits)
            for s in col.coefficients:
                assert stratum_index(s) == stratum_index(w), (w, s)

    def test_requires_p(self):
        with pytest.raises(ValueError):
            operator_column((1,), N2, 4)


class TestExpandExponential:
    def test_spectrum_point_gives_exact_delta(self):
        vec = expand_exponential(QuarterInt.from_int(5), N2, 4)
        assert vec.coefficients == {(1, 1): 1.0}
        assert vec.residual_bound == 0.0

    def test_orthogonality_pairs(self):
        # distinct truncated points expand with no cross terms at all
        for w in enumerate_spectrum(N2, 4):
            vec = expand_exponential(word_value(w, N2), N2, 4)
            assert vec.coefficients == {w: 1.0}

    def test_generic_point_mass_accumulates(self):
        norms = [
            expand_exponential(0.3, N2, d).norm_sq() for d in (1, 3, 5, 7)
        ]
        assert norms == sorted(norms)
        assert norms[-1] > 0.999
        vec = expand_exponential(0.3, N2, 7)
        assert vec.norm_sq() <= 1.0 + vec.residual_bound + 1e-12

    def test_json_shape(self):
        obj = expand_exponential(0.3, N2, 3).to_json_obj()
        assert set(obj) == {"entries", "residual_bound"}
        words = [e["word"] for e in obj["entries"]]
        assert words == sorted(words, key=lambda s: (len(s), s[::-1]))
        for entry in obj["entries"]:
            assert set(entry) == {"word", "coefficient", "error_bound"}


class TestParseval:
    def test_exact_at_zero(self):
        assert parseval_partial(QuarterInt(0), N2, 4).value == 1.0

    def test_monotone_and_bounded(self):
        prev = 0.0
        for d in range(0, 9):
            ps = parseval_partial(0.3, N2, d)
            assert ps.value >= prev
            assert ps.value <= 1.0 + ps.error_bound
            prev = ps.value
        assert prev == pytest.approx(0.9999969552476108, abs=1e-10)

    def test_scaled_basis(self):
        ps = parseval_partial(0.1, P25, 4, basis="scaled")
        assert 0.99 <= ps.value <= 1.0 + ps.error_bound

    def test_scaled_needs_p(self):
        with pytest.raises(ValueError):
            parseval_partial(0.1, N2, 3, basis="scaled")

    def test_rejects_unknown_basis(self):
        with pytest.raises(ValueError):
            parseval_partial(0.1, N2, 3, basis="fourier")

    @pytest.mark.parametrize("t", [QuarterInt(-39), QuarterInt(17), 0.3, -41.7])
    @pytest.mark.parametrize("basis", ["spectrum", "scaled"])
    def test_table_rows_equal_partial_sums(self, t, basis):
        table = parseval_table(t, P25, 8, basis)
        scale = 5 if basis == "scaled" else 1
        points = [scale * word_value(w, P25) for w in enumerate_spectrum(P25, 8)]
        exact_t = Fraction(t.numerator, 4) if isinstance(t, QuarterInt) else Fraction(t)
        squares = [mu_hat(exact_t - Fraction(p.numerator, 4), P25).value ** 2
                   for p in points]
        assert len(table) == 9
        for d, row in enumerate(table):
            assert row == parseval_partial(t, P25, d, basis)
            assert abs(row.value - math.fsum(squares[:2 ** d])) <= row.error_bound

    def test_exact_argument_path(self):
        # quarter-integer arguments route through certified evaluation
        ps = parseval_partial(QuarterInt(1), N2, 6)
        assert ps.value <= 1.0 + ps.error_bound
        assert ps.error_bound < 1e-10


class TestScaledOrthogonality:
    @pytest.mark.parametrize("params,digits", [(P25, 6), (P43, 5)])
    def test_scaled_differences_vanish(self, params, digits):
        # p*gamma - p*gamma' stays in the zero set for distinct points
        points = [
            params.p * word_value(w, params)
            for w in enumerate_spectrum(params, digits)
        ]
        for i, a in enumerate(points):
            for b in points[i + 1:]:
                assert in_zero_set(a - b, params)
