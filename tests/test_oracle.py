"""Certified transform values against an independent 60-digit oracle.

`bench/oracle.py` does not import bernspec: it tests zero-set membership
straight from its definition and builds the transform with `decimal` and
`fractions`, reducing each cosine argument exactly.  It is loaded here by
path and read only.
"""

from __future__ import annotations

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from bernspec.exact import DEFAULT_TOL, BernoulliParams, QuarterInt, mu_hat

_ORACLE_PATH = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("bernspec_bench_oracle", _ORACLE_PATH)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

NS = (2, 3, 4, 5, 7)


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


def exact_value(t: QuarterInt | float) -> Fraction:
    if isinstance(t, QuarterInt):
        return Fraction(t.numerator, 4)
    return Fraction(t)


def problems_for(n: int, points) -> list[str]:
    params = BernoulliParams(n)
    problems = []
    for t in points:
        x = exact_value(t)
        result = mu_hat(t, params)
        quarter = 4 * x
        expected_zero = (quarter.denominator == 1
                         and oracle.in_zero_set(int(quarter), n))
        label = f"n={n} t={t}"
        if result.exact_zero != expected_zero:
            problems.append(f"{label}: exact_zero={result.exact_zero}, "
                            f"zero set says {expected_zero}")
            continue
        if result.exact_zero:
            continue
        if result.error_bound > DEFAULT_TOL:
            problems.append(f"{label}: error_bound {result.error_bound!r} "
                            f"above the default tol")
        problem = oracle.certified_problem(
            result.sign, result.magnitude, result.error_bound,
            oracle.transform(x, n))
        if problem:
            problems.append(f"{label}: {problem}")
    return problems


@pytest.mark.parametrize("n", NS)
def test_quarter_integers_within_bounds(n):
    assert problems_for(n, quarter_points(n)) == []


@pytest.mark.parametrize("n", NS)
def test_floats_within_bounds(n):
    assert problems_for(n, float_points(n)) == []

