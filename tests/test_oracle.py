"""Certified transform values against an independent 60-digit oracle.

`bench/oracle.py` does not import bernspec: it tests zero-set membership
straight from its definition and builds the transform with `decimal` and
`fractions`, reducing each cosine argument exactly.  It is loaded here by
path and read only.  Checked are `mu_hat` itself, and the expansion
coefficients and Parseval rows built from it at decimal frequencies.
"""

from __future__ import annotations

import functools
import importlib.util
import random
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

from bernspec.exact import BernoulliParams, QuarterInt, mu_hat, mu_hat_product
from bernspec.operators import expand_exponential, parseval_table
from bernspec.spectrum import enumerate_spectrum, word_value
from digit_words import bits

_ORACLE_PATH = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("bernspec_bench_oracle", _ORACLE_PATH)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)
# expansions and spectrum-basis Parseval rows share their arguments
transform = functools.lru_cache(maxsize=None)(oracle.transform)

NS = (1, 2, 3, 4, 5, 6, 7)
# decimal frequencies for expansions and Parseval tables; 12345.5 and
# 1.2345e20 are quarter-integers, the others are not
DECIMALS = (0.3, -41.7, 123.456789, 12345.5, 1.2345e20)
SCALED_P = {2: 5, 3: 5, 4: 3}
DIGITS = 6
# the most error_bound any value or Parseval row may carry
BOUND_LIMIT = 1e-12


def quarter_points(n: int) -> list[QuarterInt]:
    """Small, 60-digit and 401-digit numerators, zero-set members among them."""
    base = 2 * n
    rng = random.Random(1000 + n)
    numerators = [1, 2, 3, 5, 6, 7, 10, 24, 99, -1234, 6**4 * 5 + 2]
    numerators += [base**k * odd for k in (1, 2, 3) for odd in (1, -3, 7)]
    numerators += [base**k * 2 * odd for k in (1, 2) for odd in (1, 5)]
    for digits in (60, 401):
        low, high = 10 ** (digits - 1), 10**digits - 1
        numerators += [rng.randint(low, high), -rng.randint(low, high)]
        # a member, and a point one reduction step away from one
        k = digits // 2
        odd = 2 * rng.randint(10 ** (digits // 3), 10 ** (digits // 3 + 1)) + 1
        numerators += [base**k * odd, base**k * 2 * odd]
    return [QuarterInt(numer) for numer in numerators]


def float_points(n: int) -> list[float]:
    """Floats from 1e-3 to the largest float, quarter-valued ones included."""
    rng = random.Random(2000 + n)
    points = [1e-3, 0.3, 0.7, 1.0, 1.5, 2.5, -7.25, float(n) / 2,
              123456789012.3, 3.3e38, 1e200, -1e200, 1e308, -1.7e308]
    points += [rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-3, 307)
               for _ in range(24)]
    return points


def switch_points(n: int) -> list[Fraction]:
    """Points whose closed-form tail starts just below, at or just above 1/64.

    At x = (2n)^j / 128 * (1 + e 2^-20), s_j = 2|x| / (2n)^j is 1/64 moved
    by e 2^-20, and the walk takes the factors from s_j or from s_(j+1) on
    in closed form.
    """
    base = 2 * n
    return [sign * Fraction(base**j, 128) * (1 + Fraction(e, 2**20))
            for j in (0, 1, 2, 3, 6) for e in (-1, 0, 1) for sign in (1, -1)]


def exact_value(t: QuarterInt | Fraction | float) -> Fraction:
    if isinstance(t, QuarterInt):
        return Fraction(t.numerator, 4)
    return Fraction(t)


def value_problem(label: str, x: Fraction, n: int, exact_zero: bool,
                  value: float, bound: float) -> str | None:
    """Why a value of the transform at x, within bound, is wrong, or None.

    An exact zero must be a zero-set member and every other value must hold
    the oracle's within its bound, which may not exceed BOUND_LIMIT.
    """
    quarter = 4 * x
    expected_zero = (quarter.denominator == 1
                     and oracle.in_zero_set(int(quarter), n))
    if exact_zero != expected_zero:
        return f"{label}: exact_zero={exact_zero}, zero set says {expected_zero}"
    if exact_zero:
        return None
    if bound > BOUND_LIMIT:
        return f"{label}: error_bound {bound!r} above {BOUND_LIMIT}"
    problem = oracle.certified_problem(
        -1 if value < 0.0 else 1, abs(value), bound, transform(x, n))
    return f"{label}: {problem}" if problem else None


def problems_for(n: int, points) -> list[str]:
    params = BernoulliParams(n)
    problems = []
    for t in points:
        result = mu_hat(t, params)
        problem = value_problem(f"n={n} t={t}", exact_value(t), n,
                                result.exact_zero, result.value,
                                result.error_bound)
        if problem:
            problems.append(problem)
    return problems


@pytest.mark.parametrize("n", NS)
def test_quarter_integers_within_bounds(n):
    assert problems_for(n, quarter_points(n)) == []


@pytest.mark.parametrize("n", NS)
def test_floats_within_bounds(n):
    assert problems_for(n, float_points(n)) == []


@pytest.mark.parametrize("n", NS)
def test_series_switch_within_bounds(n):
    points = switch_points(n)
    assert problems_for(n, points + [float(x) for x in points]) == []


def viete(x: Fraction) -> Decimal:
    """sin(2 pi x) / (2 pi x): the transform at n = 1 in closed form."""
    with localcontext(Context(prec=oracle.PRECISION)):
        # sin(2 pi x) = cos(pi (2x - 1/2)), reduced exactly by the oracle
        return oracle.cospi(2 * x - Fraction(1, 2)) / (
            2 * oracle.PI * Decimal(x.numerator) / Decimal(x.denominator))


def test_n1_matches_viete():
    # prod_k cos(2 pi x / 2^k) = sin(2 pi x) / (2 pi x): a check that does
    # not walk the product at all.  Its zeros are the nonzero
    # half-integers, the zero set at n = 1.
    params = BernoulliParams(1)
    points = [*switch_points(1), *float_points(1)[:8], Fraction(1, 3),
              Fraction(-22, 7),
              *(QuarterInt(k) for k in (1, 2, 3, 6, -9, 4001))]
    problems = []
    for t in points:
        x = exact_value(t)
        result = mu_hat(t, params)
        if result.exact_zero != ((2 * x).denominator == 1):
            problems.append(f"t={t}: exact_zero={result.exact_zero}")
        elif not result.exact_zero:
            problem = oracle.certified_problem(
                result.sign, result.magnitude, result.error_bound, viete(x))
            if problem:
                problems.append(f"t={t}: {problem}")
    assert problems == []


def test_product_too_short_for_its_argument():
    # at t = 10^30 / 4 the one factor kept is cos(0) = 1, and the dropped
    # tail bounds nothing: the bound is the vacuous 1 + |prod|.  The oracle's
    # value is 0, since t is a zero-set member through its 15th factor.
    x = Fraction(10**30, 4)
    result = mu_hat_product(QuarterInt(10**30), BernoulliParams(2), 1)
    assert (result.value, result.error_bound) == (1.0, 2.0)
    assert transform(x, 2) == 0
    assert oracle.certified_problem(
        result.sign, result.magnitude, result.error_bound, transform(x, 2)) is None


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("t", DECIMALS)
def test_expansion_at_decimal_t(t, n):
    # every coefficient, stored or exactly zero, at the exact t - gamma
    params = BernoulliParams(n)
    vector = expand_exponential(t, params, DIGITS)
    problems = []
    for w in enumerate_spectrum(params, DIGITS):
        value, bound = vector.get(bits(w))  # keys are bit strings
        problem = value_problem(
            f"n={n} t={t} word={w}",
            Fraction(t) - exact_value(word_value(w, params)), n,
            bits(w) not in vector.coefficients, value, bound)
        if problem:
            problems.append(problem)
    assert problems == []


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("t", DECIMALS)
@pytest.mark.parametrize("basis", ["spectrum", "scaled"])
def test_parseval_rows_at_decimal_t(basis, t, n):
    # row d holds the sum of the oracle's squares over the first 2^d points
    params = BernoulliParams(n, SCALED_P[n])
    scale = SCALED_P[n] if basis == "scaled" else 1
    table = parseval_table(t, params, DIGITS, basis)
    squares = [
        oracle.square(transform(
            Fraction(t) - exact_value(scale * word_value(w, params)), n))
        for w in enumerate_spectrum(params, DIGITS)]
    problems = []
    for d, row in enumerate(table):
        label = f"n={n} t={t} {basis} row {d}"
        if row.error_bound > BOUND_LIMIT:
            problems.append(f"{label}: error_bound {row.error_bound!r} "
                            f"above {BOUND_LIMIT}")
        problem = oracle.certified_problem(
            1, row.value, row.error_bound, sum(squares[:2**d]))
        if problem:
            problems.append(f"{label}: {problem}")
    assert problems == []
