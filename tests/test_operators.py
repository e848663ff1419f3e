"""Tests for the word isometries, expansions, and the scaled operator."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernspec import cli, operators
from bernspec.exact import (
    BernoulliParams,
    QuarterInt,
    _cospi_ratio,
    _tail,
    _times,
    in_zero_set,
    mu_hat,
    mu_hat_differences,
)
from bernspec.matrixlab import (
    TruncatedMatrix,
    analyze_w0_sparsity,
    verify_w0_sparsity,
)
from bernspec.operators import (
    CoeffVector,
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
    index_bits,
    index_word,
    point_numerators,
    word_value,
)
from digit_words import bits, stratum, word

N2 = BernoulliParams(2)
P25 = BernoulliParams(2, 5)
P43 = BernoulliParams(4, 3)


# word indices of up to 10 digits
word_indices = st.integers(0, 2**10 - 1)


class TestIsometries:
    def test_prepend(self):
        assert prepend_zero(0) == 0          # fixes the zero word
        assert prepend_zero(1) == 2          # (1,) -> (0, 1)
        assert prepend_one(0) == 1           # () -> (1,)
        assert prepend_one(2) == 5           # (0, 1) -> (1, 0, 1)

    def test_strip(self):
        assert strip_zero(2) == 1            # (0, 1) -> (1,)
        assert strip_zero(1) is None
        assert strip_zero(0) == 0            # adjoint also fixes it
        assert strip_one(1) == 0             # (1,) -> ()
        assert strip_one(5) == 2             # (1, 0, 1) -> (0, 1)
        assert strip_one(0) is None
        assert strip_one(2) is None

    @given(word_indices)
    def test_digit_tuple_semantics(self, m):
        # the tuple forms are references only: prepend or strip one digit
        word = index_word(m)
        assert index_word(prepend_zero(m)) == ((0,) + word if m else ())
        assert index_word(prepend_one(m)) == (1,) + word
        if not word or word[0] == 0:
            assert strip_one(m) is None
            assert index_word(strip_zero(m)) == word[1:]
        else:
            assert strip_zero(m) is None
            assert index_word(strip_one(m)) == word[1:]

    @given(word_indices, st.sampled_from([N2, BernoulliParams(3)]))
    def test_value_semantics(self, m, params):
        v = word_value(index_word(m), params)
        assert word_value(index_word(prepend_zero(m)), params) == params.base * v
        assert word_value(index_word(prepend_one(m)), params) == \
            params.base * v + params.half_n

    @given(word_indices)
    def test_relations_pointwise(self, m):
        assert strip_zero(prepend_zero(m)) == m
        assert strip_one(prepend_one(m)) == m
        assert strip_one(prepend_zero(m)) is None
        assert strip_zero(prepend_one(m)) is None

    def test_rejects_anything_but_a_word_index(self):
        for isometry in (prepend_zero, prepend_one, strip_zero, strip_one):
            # a digit tuple would pass through 2 * m as (1, 1)
            for bad in ((1,), (), 2.0, "1", True, None):
                with pytest.raises(TypeError, match="not a word index"):
                    isometry(bad)
            for bad in (-1, -2**70):
                with pytest.raises(ValueError, match="not a word index"):
                    isometry(bad)

    def test_verify_cuntz(self):
        for n in (2, 3, 4):
            report = verify_cuntz_relations(BernoulliParams(n), 6)
            assert report.passed, report.lines()
            assert report.checked == 7 * 2**6  # seven checks per word

    @pytest.mark.parametrize("name,broken", [
        # a strip that returns a wrong word: drops two digits
        ("strip_one", lambda m: m >> 2 if m & 1 else None),
        # a strip that fails to annihilate words starting with 1
        ("strip_zero", lambda m: m >> 1),
        # a prepend that returns a wrong word: two zero digits
        ("prepend_zero", lambda m: 4 * m),
        # a prepend whose value has one extra top digit
        ("prepend_one", lambda m: 2 * m + 1 + (1 << (m.bit_length() + 1))),
    ])
    def test_verify_cuntz_rejects_broken_isometry(self, monkeypatch, name, broken):
        monkeypatch.setattr(operators, name, broken)
        for n in (2, 3, 4):
            assert not verify_cuntz_relations(BernoulliParams(n), 4).passed

    def test_verify_cuntz_reaches_no_tuple_word(self, monkeypatch, capsys):
        # the suites, expansions, census, matrix and CLI run on indices and
        # numerators: no word tuple, no tuple value
        namespaces = [module for name, module in sys.modules.items()
                      if name == "bernspec" or name.startswith("bernspec.")]
        for module in namespaces:
            for name in ("word_value", "enumerate_spectrum", "check_word",
                         "index_word"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, None)
        for n in (2, 3, 4):
            report = verify_cuntz_relations(BernoulliParams(n), 8)
            assert report.passed, report.lines()
            assert report.checked == 7 * 2**8
        vec = expand_exponential(0.3, P25, 6)
        assert list(vec.coefficients) == [index_bits(m) for m in range(2**6)]
        assert vec.get("101") == (vec.coefficients["101"], vec.error_bounds["101"])
        assert len(parseval_table(0.3, P25, 6, "scaled")) == 7
        census = analyze_w0_sparsity(6)
        assert census.passed
        assert sum(b.witness is not None for b in census.blocks) == 9
        assert verify_w0_sparsity(7, 4, require_witnesses=True).passed
        m = TruncatedMatrix.build(P25, 3)
        assert m.to_csv_text().count("\n") == 1 + 8 * 8
        assert m.to_json_obj()["size"] == 8
        assert m.to_pgm_bytes().startswith(b"P5\n8 8\n")
        assert m.to_svg_text().startswith("<svg")
        assert cli.main(["spectrum", "--max-digits", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "111,21,0"
        assert cli.main(["verify", "all"]) == 0
        assert capsys.readouterr().out.count(": PASS") == 12

    @pytest.mark.parametrize("digits,message", [
        (-1, "max_digits must be >= 0"),
        # the budget is on the 2^d words, not on the one deeper level
        (23, "max_digits 23 needs 8388608 words, over the size budget of 4194304"),
    ], ids=["negative", "over-budget"])
    def test_verify_cuntz_rejects_depth(self, digits, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify_cuntz_relations(N2, digits)


def operator_column(word, params, max_digits):
    """Column of the scaled operator at a word: the expansion at p*gamma."""
    return expand_exponential(
        params.require_p() * word_value(word, params), params, max_digits)


def tree_frequencies(n: int, scale: int, max_digits: int):
    """Frequencies for the digit-tree walk, exact differences of every kind."""
    base = 2 * n
    points = point_numerators(BernoulliParams(n), max_digits)
    return st.one_of(
        # quarter-integers, mostly off the zero set
        st.integers(-40_000, 40_000).map(QuarterInt),
        # zero-set members (2n)^k (2j + 1) / 4
        st.builds(lambda k, j: QuarterInt(base**k * (2 * j + 1)),
                  st.integers(1, 6), st.integers(-50, 50)),
        # scaled spectrum points: every difference is an exact zero or 0
        st.integers(0, len(points) - 1).map(
            lambda m: QuarterInt(scale * points[m])),
        # decimals, a huge float, a tiny one, and numerators past 2^62
        st.floats(-2000.0, 2000.0, allow_nan=False),
        st.just(1.2345e20),
        st.just(1e-300),
        st.builds(lambda a, s: QuarterInt(s * a), st.integers(2**62, 2**70),
                  st.sampled_from((-1, 1))),
    )


def exact_frequency(t: QuarterInt | float) -> Fraction:
    if isinstance(t, QuarterInt):
        return Fraction(t.numerator, 4)
    return Fraction(t)


def composed_pair(t, params, points, scale, m):
    """Word m's pair from the scalar helpers, one factor at a time.

    Over den = lcm(denominator of t, 4), the difference t - scale * gamma is
    diff / den with diff = numer - scale (den / 4) points[m].  Node k of a
    word of length L, k = 1..L, is the cosine at 2|diff_k| / (den (2n)^k)
    mod 2, diff_k the difference at m mod 2^k; then the tail _tail(diff,
    den (2n)^L), the cap 1 + |prod| and the sign of digits b_1..b_(L-1).
    """
    x = exact_frequency(t)
    den = math.lcm(x.denominator, 4)
    numer, step = x.numerator * (den // x.denominator), scale * (den // 4)
    base = params.base
    prod, err = 1.0, 0.0
    for k in range(1, m.bit_length() + 1):
        den *= base
        diff = numer - step * points[m % 2**k]
        factor = _cospi_ratio(2 * abs(diff) % (2 * den), den)
        if factor is None:
            return None
        prod, err = _times(prod, err, *factor)
    diff = numer - step * points[m]
    if diff:
        tail = _tail(diff, den, base)
        if tail is None:
            return None
        prod, err = _times(prod, err, *tail)
    err = min(err, 1.0 + abs(prod))
    if scale * params.n % 2 and (m >> 1).bit_count() % 2:
        return 0.0 - prod, err
    return prod + 0.0, err


class TestDigitTree:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_tree_pinned_to_scalar_reference(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        scale = data.draw(st.sampled_from((1, 3, 5, 7)), label="scale")
        depth = data.draw(st.integers(0, 8), label="depth")
        t = data.draw(tree_frequencies(n, scale, depth), label="t")
        # a tol past 1 must not cut a tail short of its zero factor
        tol = data.draw(st.sampled_from((1e-12, 1e-6, 1e3)), label="tol")
        params = BernoulliParams(n)
        points = point_numerators(params, depth + 3)
        deeper = list(mu_hat_differences(t, params, points, scale, tol))
        values = list(mu_hat_differences(
            t, params, points[:2**depth], scale, tol))
        # a word's value does not depend on the truncation depth
        assert values == deeper[:2**depth]
        # bit for bit the composition of the scalar helpers
        assert values == [composed_pair(t, params, points, scale, m)
                          for m in range(2**depth)]
        for m, c in enumerate(values):
            ref = mu_hat(exact_frequency(t) - Fraction(scale * points[m], 4),
                         params, tol)
            # None is an exact zero, and only there
            assert (c is None) == ref.exact_zero, m
            if c is None:
                continue
            value, bound = c
            assert abs(value - ref.value) <= bound + ref.error_bound, m
            # a magnitude past its own bound certifies the sign
            if abs(value) > bound and ref.magnitude > ref.error_bound:
                assert (value < 0.0) == (ref.sign < 0), m

    def test_cosine_rounded_to_zero_is_not_an_exact_zero(self):
        # t - 1/2 rounds to -1/2 in the node's ratio, where the cosine
        # vanishes: the value is 0.0 within its bound, not an exact zero
        params = BernoulliParams(1)
        t = 1e-300
        c = list(mu_hat_differences(t, params, point_numerators(params, 1)))[1]
        ref = mu_hat(Fraction(t) - Fraction(1, 2), params)
        assert c is not None and not ref.exact_zero
        value, bound = c
        assert abs(value) <= bound
        # the cosine's -0.0 comes out as 0.0, the value mu_hat reports
        assert math.copysign(1.0, value) == math.copysign(1.0, ref.value) == 1.0

    def test_rejects_a_truncation_of_the_wrong_size(self):
        for points in ([0, 8, 32], []):
            with pytest.raises(ValueError, match="2\\^d numerators"):
                next(mu_hat_differences(0.3, N2, points))


class TestOperatorColumn:
    def test_zero_word_is_fixed(self):
        col = operator_column((), P25, 4)
        assert col.coefficients == {"": 1.0}
        assert col.residual_bound == 0.0

    def test_point_one_maps_to_point_five(self):
        # 5 * 1 = 5 is itself a spectrum point: the column is a delta
        col = operator_column((1,), P25, 4)
        assert col.coefficients == {"11": 1.0}
        assert col.error_bounds["11"] == 0.0
        assert col.residual_bound == 0.0

    def test_point_five_column(self):
        col = operator_column((1, 1), P25, 5)
        coeff, err = col.get("1")
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
                assert stratum(word(s)) == stratum(w), (w, s)

    def test_requires_p(self):
        with pytest.raises(ValueError):
            operator_column((1,), N2, 4)


class TestExpandExponential:
    def test_spectrum_point_gives_exact_delta(self):
        vec = expand_exponential(QuarterInt.from_int(5), N2, 4)
        assert vec.coefficients == {"11": 1.0}
        assert vec.residual_bound == 0.0

    def test_orthogonality_pairs(self):
        # distinct truncated points expand with no cross terms at all
        for w in enumerate_spectrum(N2, 4):
            vec = expand_exponential(word_value(w, N2), N2, 4)
            assert vec.coefficients == {bits(w): 1.0}

    def test_generic_point_mass_accumulates(self):
        norms = [
            expand_exponential(0.3, N2, d).norm_sq() for d in (1, 3, 5, 7)
        ]
        assert norms == sorted(norms)
        assert norms[-1] > 0.999
        vec = expand_exponential(0.3, N2, 7)
        assert vec.norm_sq() <= 1.0 + vec.residual_bound + 1e-12

    def test_residual_bound_sums_exactly(self):
        # both sums rounded once, as Fractions do it, so the bound and the
        # norm are the same on every Python (the builtin sum compensates
        # from 3.12 on)
        vec = expand_exponential(-734.123456, N2, 10)
        accounted = sum(Fraction(c * c) for c in vec.coefficients.values())
        padding = sum(Fraction(abs(c) * vec.error_bounds[w])
                      for w, c in vec.coefficients.items())
        assert vec.residual_bound == max(
            0.0, 1.0 - float(accounted) + 2.0 * float(padding))
        assert vec.norm_sq() == float(accounted)

    @pytest.mark.parametrize("bad", [(1, 0), (1,), (), "10", "0", "12", " 1", 5, None],
                             ids=["tuple-trailing-zero", "tuple", "empty-tuple",
                                  "trailing-zero", "zero", "digit-2", "space", "int",
                                  "none"])
    def test_get_rejects_a_non_word(self, bad):
        # a non-word has no coefficient, not a zero one
        vec = CoeffVector({"1": 0.5, "11": 0.25}, {"1": 0.0, "11": 1e-17}, 0.6875)
        assert vec.get("") == (0.0, 0.0)
        assert vec.get("11") == (0.25, 1e-17)
        with pytest.raises(ValueError, match="not a canonical bit-string word"):
            vec.get(bad)

    def test_walk_does_not_import_numpy(self):
        # a fresh interpreter: the expansion is pure Python
        script = ("import sys\n"
                  "from bernspec.exact import BernoulliParams\n"
                  "from bernspec.operators import expand_exponential\n"
                  "expand_exponential(0.3, BernoulliParams(2), 6)\n"
                  "print('numpy' in sys.modules)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, env=env,
                                check=True)
        assert result.stdout.split() == ["False"]

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

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError, match="max_digits must be >= 0"):
            parseval_table(0.1, N2, -1)

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
