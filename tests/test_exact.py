"""Tests for exact zero-set arithmetic and certified evaluation."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernspec.exact import (
    BernoulliParams,
    MuHatValue,
    QuarterInt,
    chaos_game_estimate,
    in_zero_set,
    mu_hat,
    mu_hat_product,
    reduce_argument,
    reduce_arguments,
)

N2 = BernoulliParams(2)
N3 = BernoulliParams(3)

PARAM_POOL = [BernoulliParams(1), N2, N3, BernoulliParams(4), BernoulliParams(6)]


def zero_set_oracle(t: QuarterInt, params: BernoulliParams, k_max: int = 10,
                    m_max: int = 10**6) -> bool:
    # brute force: 4t = (2n)^k (2m+1) for some k >= 1, |m| <= m_max
    numer = t.numerator
    for k in range(1, k_max + 1):
        power = params.base ** k
        if numer % power == 0:
            odd = numer // power
            if odd % 2 != 0 and abs(odd) <= 2 * m_max + 1:
                return True
    return False


# ---------------------------------------------------------------------------
# QuarterInt


class TestQuarterInt:
    def test_fraction_strings(self):
        assert str(QuarterInt.from_int(5)) == "5"
        assert str(QuarterInt(6)) == "3/2"
        assert str(QuarterInt(-5)) == "-5/4"
        assert str(QuarterInt(0)) == "0"

    def test_parse(self):
        assert QuarterInt.parse("5") == QuarterInt.from_int(5)
        assert QuarterInt.parse("-3/2") == QuarterInt(-6)
        assert QuarterInt.parse("21/4") == QuarterInt(21)
        with pytest.raises(ValueError):
            QuarterInt.parse("1/3")

    @given(st.integers(-10**9, 10**9))
    def test_parse_str_round_trip(self, numer):
        q = QuarterInt(numer)
        assert QuarterInt.parse(str(q)) == q

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
           st.integers(-1000, 1000))
    def test_arithmetic_matches_fractions(self, a, b, c):
        fa, fb = Fraction(a, 4), Fraction(b, 4)
        qa, qb = QuarterInt(a), QuarterInt(b)
        assert Fraction((qa + qb).numerator, 4) == fa + fb
        assert Fraction((qa - qb).numerator, 4) == fa - fb
        assert Fraction((c * qa).numerator, 4) == c * fa
        assert Fraction((-qa).numerator, 4) == -fa
        assert (qa < qb) == (fa < fb)
        assert float(qa) == a / 4

    def test_is_integer(self):
        assert QuarterInt.from_int(7).is_integer
        assert not QuarterInt(6).is_integer


class TestParams:
    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            BernoulliParams(0)
        with pytest.raises(ValueError):
            BernoulliParams(-3)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            BernoulliParams(2, 4)
        with pytest.raises(ValueError):
            BernoulliParams(2, 1)

    def test_rejects_bool(self):
        # bool is an int subclass; True must not pass as n = 1 or p = 1
        with pytest.raises(ValueError):
            BernoulliParams(True)
        with pytest.raises(ValueError):
            BernoulliParams(2, True)

    def test_require_p(self):
        assert BernoulliParams(2, 5).require_p() == 5
        with pytest.raises(ValueError):
            BernoulliParams(2).require_p()

    def test_derived_quantities(self):
        assert BernoulliParams(3).base == 6
        assert float(BernoulliParams(3).half_n) == 1.5


# ---------------------------------------------------------------------------
# zero-set predicate


class TestZeroSet:
    @pytest.mark.parametrize("value,expected", [
        (1, True),     # 4*1 = 4^1 * 1
        (4, True),     # 4*4 = 4^2 * 1
        (5, True),     # 4*5 = 4^1 * 5
        (20, True),    # 4*20 = 4^2 * 5
        (-3, True),    # 4*(-3) = 4^1 * (-3)
        (0, False),
        (2, False),    # 4*2 = 2^3, odd valuation
        (8, False),    # 4*8 = 2^5, odd valuation
        (10, False),
    ])
    def test_n2_integers(self, value, expected):
        assert in_zero_set(QuarterInt.from_int(value), N2) is expected

    def test_n3(self):
        assert in_zero_set(QuarterInt.from_int(9), N3)        # 36 = 6^2
        assert in_zero_set(QuarterInt(6), N3)                 # 3/2 -> 6 = 6^1
        assert not in_zero_set(QuarterInt.from_int(3), N3)    # 12 = 6*2, even
        assert not in_zero_set(QuarterInt(2), N3)

    def test_quarter_points_n2(self):
        # 4t odd can never be (2n)^k * odd with k >= 1
        assert not in_zero_set(QuarterInt(1), N2)
        assert in_zero_set(QuarterInt(4), N2)   # t = 1

    def test_matches_oracle_exhaustive(self):
        for numer in range(-700, 701):
            t = QuarterInt(numer)
            for params in PARAM_POOL:
                assert in_zero_set(t, params) == zero_set_oracle(t, params), (
                    f"predicate disagrees with brute force at 4t={numer}, "
                    f"n={params.n}")

    @given(st.integers(-10**12, 10**12), st.sampled_from(PARAM_POOL))
    @settings(max_examples=500)
    def test_matches_oracle(self, numer, params):
        t = QuarterInt(numer)
        assert in_zero_set(t, params) == zero_set_oracle(t, params, k_max=45,
                                                         m_max=10**12)

    @given(st.integers(-10**9, 10**9), st.sampled_from(PARAM_POOL))
    def test_symmetric(self, numer, params):
        assert in_zero_set(QuarterInt(numer), params) == \
            in_zero_set(QuarterInt(-numer), params)

    @given(st.integers(-10**9, 10**9), st.sampled_from(PARAM_POOL))
    def test_scale_invariant(self, numer, params):
        # t in Z  =>  (2n) t in Z
        t = QuarterInt(numer)
        if in_zero_set(t, params):
            assert in_zero_set(params.base * t, params)


# ---------------------------------------------------------------------------
# argument reduction


class TestReduceArgument:
    def test_examples(self):
        assert reduce_argument(QuarterInt.from_int(6), N2) == (-1, QuarterInt(6))
        assert reduce_argument(QuarterInt.from_int(24), N2) == (-1, QuarterInt(6))
        assert reduce_argument(QuarterInt.from_int(0), N2) == (1, QuarterInt(0))
        sign, _ = reduce_argument(QuarterInt.from_int(1), N2)
        assert sign == 0

    def test_full_reduction_of_zero_set_member(self):
        # 20 is in the zero set (80 = 4^2 * 5), so the sign must be 0
        assert reduce_argument(QuarterInt.from_int(20), N2) == (0, QuarterInt(5))

    @given(st.integers(-10**12, 10**12), st.sampled_from(PARAM_POOL))
    @settings(max_examples=500)
    def test_invariants(self, numer, params):
        t = QuarterInt(numer)
        sign, reduced = reduce_argument(t, params)
        assert (sign == 0) == in_zero_set(t, params)
        if reduced.numerator != 0:
            assert reduced.numerator % params.base != 0
        # t = (2n)^j * reduced for some j >= 0
        j = 0
        scaled = reduced.numerator
        while abs(scaled) < abs(numer):
            scaled *= params.base
            j += 1
        assert scaled == numer

    @pytest.mark.parametrize("numer", [8, 96, 17, -640, 6**3 * 2, 5 * 6**4])
    @pytest.mark.parametrize("params", [N2, N3])
    def test_value_guarantee(self, numer, params):
        # mu_hat(t) = sign * mu_hat(reduced), checked numerically
        t = QuarterInt(numer)
        sign, reduced = reduce_argument(t, params)
        full = mu_hat_product(t, params, 72)
        part = mu_hat_product(reduced, params, 72)
        if sign == 0:
            assert full.exact_zero
        else:
            assert abs(full.value - sign * part.value) <= \
                full.error_bound + part.error_bound


@st.composite
def reduction_numerators(draw, base):
    """Numerators that reach every branch of the reduction: 0, small and
    negative ones, zero-set members (2n)^k (2m+1), multiples of (2n)^k * 4
    and ones between 2^62 and 2^70."""
    k = draw(st.integers(1, 12))
    sign = draw(st.sampled_from([-1, 1]))
    return sign * draw(st.one_of(
        st.just(0),
        st.integers(0, 10**6),
        st.integers(-10**6, 10**6).map(lambda m: base**k * (2 * m + 1)),
        st.integers(0, 10**6).map(lambda m: base**k * 4 * m),
        st.integers(2**62, 2**70),
    ))


class TestReduceArguments:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_scalar_reduction(self, data):
        # every element gets reduce_argument's (sign, reduced) pair, in an
        # int64 array and in an object array of Python ints alike
        params = BernoulliParams(data.draw(st.integers(1, 7)))
        numers = data.draw(st.lists(reduction_numerators(params.base),
                                    min_size=1, max_size=40))
        dtype = data.draw(st.sampled_from([np.int64, object]))
        if dtype is np.int64:
            numers = [x for x in numers if abs(x) < 2**63] or [0]
        signs, reduced = reduce_arguments(np.array(numers, dtype=dtype), params)
        assert signs.shape == reduced.shape == (len(numers),)
        assert reduced.dtype == dtype
        for numer, sign, numer_reduced in zip(numers, signs, reduced):
            assert (int(sign), QuarterInt(int(numer_reduced))) == \
                reduce_argument(QuarterInt(numer), params)

    def test_keeps_shape_and_input(self):
        grid = np.array([[0, 24, 4], [-24, 96, 2**40]], dtype=np.int64)
        before = grid.copy()
        signs, reduced = reduce_arguments(grid, N2)
        assert np.array_equal(grid, before)
        assert signs.tolist() == [[1, -1, 0], [-1, -1, 0]]
        assert reduced.tolist() == [[0, 6, 1], [-6, 6, 1]]


# ---------------------------------------------------------------------------
# truncated product


class TestMuHatProduct:
    def test_t_zero(self):
        res = mu_hat_product(QuarterInt(0), N2, 8)
        assert (res.sign, res.magnitude, res.error_bound) == (1, 1.0, 0.0)

    def test_first_factor_zero_is_exact(self):
        # cos(2 pi / 4) = 0 kills the product at the first factor
        res = mu_hat_product(QuarterInt.from_int(1), N2, 1)
        assert res.exact_zero

    def test_frozen_value_t2(self):
        # frozen from a 64-term run of this product
        res = mu_hat_product(QuarterInt.from_int(2), N2, 64)
        assert res.sign == -1
        assert res.magnitude == pytest.approx(0.6926289126994459, abs=1e-13)
        assert res.error_bound < 1e-12

    def test_truncation_consistency(self):
        a = mu_hat_product(QuarterInt.from_int(2), N2, 32)
        b = mu_hat_product(QuarterInt.from_int(2), N2, 64)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound

    @pytest.mark.parametrize("numer", [1, 2, 3, 5, 10, 99, -6, 1234, -4321])
    @pytest.mark.parametrize("params", [N2, N3, BernoulliParams(4)])
    def test_bound_honesty(self, numer, params):
        # a 4x deeper truncation must land inside the shallow bound
        t = QuarterInt(numer)
        shallow = mu_hat_product(t, params, 16)
        deep = mu_hat_product(t, params, 64)
        assert abs(shallow.value - deep.value) <= \
            shallow.error_bound + deep.error_bound

    def test_float_and_ratio_paths_agree(self):
        for numer in (2, 5, -14, 601):
            for params in (N2, N3):
                t = QuarterInt(numer)
                a = mu_hat_product(t, params, 48)
                b = mu_hat_product(float(t), params, 48)
                assert abs(a.value - b.value) <= a.error_bound + b.error_bound

    def test_generic_float_argument(self):
        res = mu_hat_product(0.3, N2, 48)
        assert abs(res.value) < 1.0
        assert res.error_bound < 1e-12

    def test_rejects_zero_terms(self):
        with pytest.raises(ValueError):
            mu_hat_product(QuarterInt(1), N2, 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            mu_hat_product(float("nan"), N2, 8)


# ---------------------------------------------------------------------------
# full certified evaluation


class TestMuHat:
    def test_exact_zero_member(self):
        res = mu_hat(QuarterInt.from_int(1), N2)
        assert res.exact_zero
        assert res.magnitude == 0.0 and res.error_bound == 0.0

    def test_t_zero_is_exact_one(self):
        res = mu_hat(QuarterInt(0), N2)
        assert (res.value, res.error_bound) == (1.0, 0.0)

    def test_frozen_values(self):
        # frozen from 64-term oracle runs of the truncated product
        v2 = mu_hat(QuarterInt.from_int(2), N2)
        assert v2.value == pytest.approx(-0.6926289126994459, abs=1e-12)
        v24 = mu_hat(QuarterInt.from_int(24), N2)
        assert v24.value == pytest.approx(0.5811539214293868, abs=1e-12)
        assert v24.sign == 1

    def test_tolerance_met_on_quarter_grid(self):
        for numer in (1, 2, 3, 5, 7, 50, 1001, -7, 6**4 * 5 + 2):
            for params in (N2, N3, BernoulliParams(4)):
                res = mu_hat(QuarterInt(numer), params)
                assert res.error_bound <= 1e-12, (numer, params.n)

    @given(st.integers(-10**7, 10**7), st.sampled_from([N2, N3]))
    @settings(max_examples=300)
    def test_zero_classification_matches_predicate(self, numer, params):
        t = QuarterInt(numer)
        res = mu_hat(t, params)
        assert res.exact_zero == in_zero_set(t, params)
        if not res.exact_zero:
            assert res.magnitude > res.error_bound

    @given(st.integers(-10**7, 10**7), st.sampled_from([N2, N3]))
    @settings(max_examples=200)
    def test_even_symmetry(self, numer, params):
        a = mu_hat(QuarterInt(numer), params)
        b = mu_hat(QuarterInt(-numer), params)
        assert a.value == b.value and a.exact_zero == b.exact_zero

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            mu_hat(QuarterInt(1), N2, tol=0.0)

    @pytest.mark.parametrize("tol", [-1e-12, math.inf, -math.inf, math.nan])
    def test_rejects_negative_or_non_finite_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            mu_hat(0.3, N2, tol=tol)

    def test_float_argument_sizes_its_product(self):
        # a fixed 64-term product leaves a bound above the value here
        res = mu_hat(3.3e38, N2)
        deep = mu_hat_product(3.3e38, N2, 200)
        assert res.error_bound <= 1e-12
        assert res.magnitude > 1e3 * res.error_bound
        assert abs(res.value - deep.value) <= res.error_bound + deep.error_bound
        assert mu_hat(0.3, N2).value == pytest.approx(
            mu_hat_product(0.3, N2, 48).value, abs=1e-12)

    @pytest.mark.parametrize("x", [9e307, 1.5e308, 1.7e308, -1.7e308])
    @pytest.mark.parametrize("params", [N2, N3, BernoulliParams(4)])
    def test_huge_float_agrees_with_quarter_path(self, x, params):
        # 2x overflows here; a float this large is an integer, so the
        # quarter-integer path evaluates the same point exactly
        res = mu_hat(x, params)
        exact = mu_hat(QuarterInt(4 * int(x)), params)
        assert res.exact_zero == exact.exact_zero
        assert abs(res.value - exact.value) <= res.error_bound + exact.error_bound

    @pytest.mark.parametrize("x", [1e20, 1e200, 9e307])
    @pytest.mark.parametrize("n", [3, 5, 6])
    def test_huge_float_bound_is_capped(self, x, n):
        # 2n is not a power of two, so every factor carries half an ulp of
        # |x/n| as argument error; |mu_hat| <= 1 keeps the bound informative
        params = BernoulliParams(n)
        res = mu_hat(x, params)
        exact = mu_hat(QuarterInt(4 * int(x)), params)
        assert res.error_bound <= 1.0 + res.magnitude
        assert abs(res.value - exact.value) <= res.error_bound + exact.error_bound

    @pytest.mark.parametrize("x", [2.5, -7.25, 1.5, 1e200, 9e307])
    @pytest.mark.parametrize("params", [N2, N3, BernoulliParams(5)])
    def test_quarter_valued_float_takes_the_integer_path(self, x, params):
        # the same exact point gives the same certified value either way
        quarter = QuarterInt(int(4 * Fraction(x)))
        assert mu_hat(x, params) == mu_hat(quarter, params)

    def test_float_argument_must_be_finite(self):
        for x in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="finite"):
                mu_hat(x, N2)


# ---------------------------------------------------------------------------
# Monte-Carlo cross-check


class TestChaosGame:
    def test_t_zero(self):
        est = chaos_game_estimate(0.0, N2, 500, seed=3)
        assert est.estimate == 1.0
        assert est.std_error == 0.0

    def test_deterministic_for_fixed_seed(self):
        a = chaos_game_estimate(1.5, N2, 4000, seed=42)
        b = chaos_game_estimate(1.5, N2, 4000, seed=42)
        assert a == b
        c = chaos_game_estimate(1.5, N2, 4000, seed=43)
        assert a != c

    @pytest.mark.parametrize("t,params,seed", [
        (2.0, N2, 11), (0.7, N2, 5), (1.25, N3, 7), (-3.0, N3, 9),
    ])
    def test_matches_product(self, t, params, seed):
        est = chaos_game_estimate(t, params, 200_000, seed=seed)
        ref = mu_hat_product(t, params, 64)
        assert abs(est.estimate - ref.value) <= \
            4.0 * est.std_error + ref.error_bound

    def test_single_sample(self):
        est = chaos_game_estimate(1.0, N2, 1, seed=0)
        assert math.isinf(est.std_error)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            chaos_game_estimate(1.0, N2, 0)


class TestMuHatValueInvariants:
    def test_exact_zero_shape(self):
        z = MuHatValue.zero()
        assert z.value == 0.0

    def test_rejects_inconsistent_zero(self):
        with pytest.raises(ValueError):
            MuHatValue(True, 1, 0.5, 0.0)

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            MuHatValue(False, 0, 1.0, 0.0)
