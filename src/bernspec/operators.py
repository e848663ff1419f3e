"""Isometries on digit words, exponential expansions, and the scaled operator.

The two isometries act on basis exponentials indexed by spectrum points:
one sends a point to 2n times it (prepend bit 0), the other to 2n times it
plus n/2 (prepend bit 1).  Together they satisfy the Cuntz relations: each
adjoint strips a matching leading bit and annihilates otherwise, and the
two ranges resolve the identity.  The scaled operator sends the basis
exponential at gamma to the exponential at p*gamma; its column at gamma is
the expansion of that exponential back in the basis, with coefficients
given by the transform at difference arguments.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from bernspec.exact import (
    DEFAULT_TOL,
    BernoulliParams,
    MuHatValue,
    QuarterInt,
    exact_value,
    mu_hat,
)
from bernspec.report import CheckReport
from bernspec.spectrum import (
    Word,
    check_word,
    enumerate_spectrum,
    point_numerators,
    word_to_bits,
    word_value,
)

_EPS = sys.float_info.epsilon


# ---------------------------------------------------------------------------
# word-level isometries


def prepend_zero(word: Word) -> Word:
    """Isometry gamma -> 2n * gamma; fixes the zero word."""
    check_word(word)
    return (0,) + word if word else ()


def prepend_one(word: Word) -> Word:
    """Isometry gamma -> 2n * gamma + n/2."""
    check_word(word)
    return (1,) + word


def strip_zero(word: Word) -> Word | None:
    """Adjoint of prepend_zero: remove a leading 0 bit, else annihilate."""
    check_word(word)
    if not word:
        return ()
    return word[1:] if word[0] == 0 else None


def strip_one(word: Word) -> Word | None:
    """Adjoint of prepend_one: remove a leading 1 bit, else annihilate."""
    check_word(word)
    if word and word[0] == 1:
        return word[1:]
    return None


def verify_cuntz_relations(params: BernoulliParams, max_digits: int) -> CheckReport:
    """Check the Cuntz relations on every word of the truncated spectrum.

    Seven checks per word w: adjoints invert their isometries at w (two),
    mismatched adjoints annihilate (two), the two ranges resolve the
    identity (exactly one of strip_zero(w), strip_one(w) is defined, counting
    the zero word under bit 0, and the matching isometry maps it back to
    w), and both isometries have their value-level semantics (two).

    These imply the inner-product adjointness <S_i w, v> = <w, S_i* v> on
    every pair (w, v) of the truncation, so no pair is visited:
    if prepend_i(w) == v, then strip_i(v) == strip_i(prepend_i(w)) == w;
    if strip_i(v) == w, then prepend_i(w) == v by the resolution check at v.
    """
    report = CheckReport(f"cuntz(n={params.n}, digits<={max_digits})")
    base, half = params.base, params.half_n
    for w in enumerate_spectrum(params, max_digits):
        report.checked += 7
        bits = word_to_bits(w)
        up_zero, up_one = prepend_zero(w), prepend_one(w)
        if strip_zero(up_zero) != w:
            report.add(f"strip0(prepend0) != id at {bits!r}")
        if strip_one(up_one) != w:
            report.add(f"strip1(prepend1) != id at {bits!r}")
        if strip_one(up_zero) is not None:
            report.add(f"strip1(prepend0) != 0 at {bits!r}")
        if strip_zero(up_one) is not None:
            report.add(f"strip0(prepend1) != 0 at {bits!r}")
        down_zero, down_one = strip_zero(w), strip_one(w)
        if (down_zero is None) == (down_one is None) or w != (
                prepend_zero(down_zero) if down_one is None
                else prepend_one(down_one)):
            report.add(f"identity resolution fails at {bits!r}")
        value = word_value(w, params)
        if word_value(up_zero, params) != base * value:
            report.add(f"prepend0 value wrong at {bits!r}")
        if word_value(up_one, params) != base * value + half:
            report.add(f"prepend1 value wrong at {bits!r}")
    return report


# ---------------------------------------------------------------------------
# expansions in the exponential basis


@dataclass
class CoeffVector:
    """Expansion of a vector over basis exponentials of the spectrum.

    Exact-zero coefficients are never stored.  residual_bound bounds the
    squared mass a unit vector can carry outside the stored support, padded
    for the coefficient error bounds.
    """

    coefficients: dict[Word, float]
    error_bounds: dict[Word, float]
    residual_bound: float

    def norm_sq(self) -> float:
        return sum(c * c for c in self.coefficients.values())

    def get(self, word: Word) -> tuple[float, float]:
        """(coefficient, error_bound), zero for words outside the support."""
        if word in self.coefficients:
            return self.coefficients[word], self.error_bounds[word]
        return 0.0, 0.0

    def to_json_obj(self) -> dict:
        return {
            "entries": [
                {
                    "word": word_to_bits(w),
                    "coefficient": self.coefficients[w],
                    "error_bound": self.error_bounds[w],
                }
                for w in self.coefficients
            ],
            "residual_bound": self.residual_bound,
        }


def _coefficients(
    t: QuarterInt | float,
    params: BernoulliParams,
    max_digits: int,
    scale: int,
    tol: float,
) -> Iterator[tuple[Word, MuHatValue]]:
    # (word, transform at t - scale * gamma) over the truncation in counting
    # order.  t is lifted to its exact value once: a quarter-integer
    # subtracts as a QuarterInt, and any other float is numer / 2^e with
    # e >= 3, so each argument is one integer multiply-subtract over 2^e.
    t = exact_value(t)
    words = enumerate_spectrum(params, max_digits)
    points = point_numerators(params, max_digits)
    if isinstance(t, QuarterInt):
        arguments = (QuarterInt(t.numerator - scale * point) for point in points)
    else:
        numer, denom = t.numerator, t.denominator
        step = scale * (denom // 4)
        arguments = (Fraction(numer - point * step, denom) for point in points)
    for w, argument in zip(words, arguments):
        yield w, mu_hat(argument, params, tol)


def expand_exponential(
    t: QuarterInt | float,
    params: BernoulliParams,
    max_digits: int,
    tol: float = DEFAULT_TOL,
) -> CoeffVector:
    """Expand the exponential at frequency t over the truncated spectrum.

    Coefficient at gamma is the transform evaluated at the exact difference
    t - gamma, so every coefficient is certified exact-or-bounded; a
    spectrum point t yields exactly its own delta vector.
    """
    coefficients: dict[Word, float] = {}
    error_bounds: dict[Word, float] = {}
    for w, c in _coefficients(t, params, max_digits, 1, tol):
        if not c.exact_zero:
            coefficients[w], error_bounds[w] = c.value, c.error_bound
    accounted = sum(c * c for c in coefficients.values())
    padding = 2.0 * sum(
        abs(coefficients[w]) * error_bounds[w] for w in coefficients)
    residual = max(0.0, 1.0 - accounted + padding)
    return CoeffVector(coefficients, error_bounds, residual)


class ParsevalSum(NamedTuple):
    value: float
    error_bound: float


def parseval_table(
    t: QuarterInt | float,
    params: BernoulliParams,
    max_digits: int,
    basis: str = "spectrum",
    tol: float = DEFAULT_TOL,
) -> list[ParsevalSum]:
    """Partial Parseval sums of |<exp(t), exp(b)>|^2 at depths 0..max_digits.

    basis "spectrum" sums over the spectrum points, "scaled" over p times
    them.  For a complete orthonormal family the full sum is 1, so the
    partial sums increase toward 1 as the depth grows.  Row d is the running
    sum of one walk after its first 2^d words, which are depth d's words.
    """
    if basis not in ("spectrum", "scaled"):
        raise ValueError(f"unknown basis {basis!r}")
    scale = params.require_p() if basis == "scaled" else 1
    rows = []
    total = 0.0
    err = 0.0
    for index, (_, c) in enumerate(
            _coefficients(t, params, max_digits, scale, tol)):
        if not c.exact_zero:
            coeff, coeff_err = c.value, c.error_bound
            total += coeff * coeff
            err += 2.0 * abs(coeff) * coeff_err + coeff_err * coeff_err
            err += _EPS * abs(total)  # summation rounding
        if index & (index + 1) == 0:  # the first 2^d words are done
            rows.append(ParsevalSum(total, err))
    return rows


def parseval_partial(
    t: QuarterInt | float,
    params: BernoulliParams,
    max_digits: int,
    basis: str = "spectrum",
    tol: float = DEFAULT_TOL,
) -> ParsevalSum:
    """The last row of parseval_table: the partial sum at depth max_digits."""
    return parseval_table(t, params, max_digits, basis, tol)[-1]
