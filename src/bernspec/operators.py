"""Isometries on word indices, exponential expansions, and the scaled operator.

The two isometries act on basis exponentials indexed by spectrum points:
one sends a point to 2n times it (prepend bit 0, word m to word 2m), the
other to 2n times it plus n/2 (prepend bit 1, word m to word 2m + 1).
Together they satisfy the Cuntz relations: each adjoint strips a matching
leading bit (halves the index) and annihilates otherwise, and the two
ranges resolve the identity.  The scaled operator sends the basis
exponential at gamma to the exponential at p*gamma; its column at gamma is
the expansion of that exponential back in the basis, with coefficients
given by the transform at difference arguments.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from bernspec.exact import (
    BernoulliParams,
    QuarterInt,
    mu_hat_differences,
)
from bernspec.report import CheckReport
from bernspec.spectrum import check_index, index_bits, point_numerators

_EPS = sys.float_info.epsilon


# ---------------------------------------------------------------------------
# isometries on word indices
#
# Word m is the binary digits of m, low digit first, so prepending a digit
# b is m -> 2m + b and stripping the leading digit is m -> m >> 1.


def prepend_zero(m: int) -> int:
    """Isometry gamma -> 2n * gamma: word m to word 2m; fixes the zero word."""
    check_index(m)
    return 2 * m


def prepend_one(m: int) -> int:
    """Isometry gamma -> 2n * gamma + n/2: word m to word 2m + 1."""
    check_index(m)
    return 2 * m + 1


def strip_zero(m: int) -> int | None:
    """Adjoint of prepend_zero: halve an even index, else annihilate."""
    check_index(m)
    return None if m & 1 else m >> 1


def strip_one(m: int) -> int | None:
    """Adjoint of prepend_one: halve an odd index, else annihilate."""
    check_index(m)
    return m >> 1 if m & 1 else None


def verify_cuntz_relations(params: BernoulliParams, max_digits: int) -> CheckReport:
    """Check the Cuntz relations on every word of the truncated spectrum.

    Seven checks per word m: adjoints invert their isometries at m (two),
    mismatched adjoints annihilate (two), the two ranges resolve the
    identity (exactly one of strip_zero(m), strip_one(m) is defined, counting
    the zero word under bit 0, and the matching isometry maps it back to
    m), and both isometries have their value-level semantics (two), read
    from the numerators 4 * gamma of point_numerators.

    These imply the inner-product adjointness <S_i w, v> = <w, S_i* v> on
    every pair (w, v) of the truncation, so no pair is visited:
    if prepend_i(w) == v, then strip_i(v) == strip_i(prepend_i(w)) == w;
    if strip_i(v) == w, then prepend_i(w) == v by the resolution check at v.
    """
    report = CheckReport(f"cuntz(n={params.n}, digits<={max_digits})")
    base = params.base  # 4 * (n/2), the numerator of the added digit
    numers = point_numerators(params, max_digits)  # checks depth and budget
    count = len(numers)
    # one level deeper, where the isometries land: word m + 2^d adds the
    # digit (n/2)(2n)^d, whose numerator is base^(d + 1)
    top = base ** (max_digits + 1)
    numers += [numer + top for numer in numers]
    size = len(numers)
    for m in range(count):
        up_zero, up_one = prepend_zero(m), prepend_one(m)
        if strip_zero(up_zero) != m:
            report.add(f"strip0(prepend0) != id at {index_bits(m)!r}")
        if strip_one(up_one) != m:
            report.add(f"strip1(prepend1) != id at {index_bits(m)!r}")
        if strip_one(up_zero) is not None:
            report.add(f"strip1(prepend0) != 0 at {index_bits(m)!r}")
        if strip_zero(up_one) is not None:
            report.add(f"strip0(prepend1) != 0 at {index_bits(m)!r}")
        down_zero, down_one = strip_zero(m), strip_one(m)
        if (down_zero is None) == (down_one is None) or m != (
                prepend_zero(down_zero) if down_one is None
                else prepend_one(down_one)):
            report.add(f"identity resolution fails at {index_bits(m)!r}")
        scaled = base * numers[m]
        # an index outside the table is a wrong word, so a wrong value
        if not 0 <= up_zero < size or numers[up_zero] != scaled:
            report.add(f"prepend0 value wrong at {index_bits(m)!r}")
        if not 0 <= up_one < size or numers[up_one] != scaled + base:
            report.add(f"prepend1 value wrong at {index_bits(m)!r}")
    report.checked = 7 * count
    return report


# ---------------------------------------------------------------------------
# expansions in the exponential basis


@dataclass
class CoeffVector:
    """Expansion of a vector over basis exponentials of the spectrum.

    Both dicts are keyed by the bit string index_bits(m) of each word m,
    in index order.  Exact-zero coefficients are never stored.
    residual_bound bounds the squared mass a unit vector can carry outside
    the stored support, padded for the coefficient error bounds.
    """

    coefficients: dict[str, float]
    error_bounds: dict[str, float]
    residual_bound: float

    def norm_sq(self) -> float:
        # fsum: exactly rounded, so the norm is the same on every Python
        return math.fsum(c * c for c in self.coefficients.values())

    def get(self, word: str) -> tuple[float, float]:
        """(coefficient, error_bound) at a bit-string word, zero outside
        the support; ValueError for anything but a canonical bit string."""
        if not isinstance(word, str) or word.strip("01") or word.endswith("0"):
            raise ValueError(f"not a canonical bit-string word: {word!r}")
        if word in self.coefficients:
            return self.coefficients[word], self.error_bounds[word]
        return 0.0, 0.0

    def to_json_obj(self) -> dict:
        return {
            "entries": [
                {
                    "word": w,
                    "coefficient": self.coefficients[w],
                    "error_bound": self.error_bounds[w],
                }
                for w in self.coefficients
            ],
            "residual_bound": self.residual_bound,
        }


def expand_exponential(
    t: QuarterInt | float,
    params: BernoulliParams,
    max_digits: int,
) -> CoeffVector:
    """Expand the exponential at frequency t over the truncated spectrum.

    Coefficient at gamma is the transform evaluated at the exact difference
    t - gamma, so every coefficient is certified exact-or-bounded; a
    spectrum point t yields exactly its own delta vector.  The walk yields
    word m's coefficient m-th, and its key is index_bits(m).
    """
    coefficients: dict[str, float] = {}
    error_bounds: dict[str, float] = {}
    for m, c in enumerate(mu_hat_differences(
            t, params, point_numerators(params, max_digits))):
        if c is not None:
            w = index_bits(m)
            coefficients[w], error_bounds[w] = c
    # fsum: exactly rounded, so the bound is the same on every Python
    accounted = math.fsum(c * c for c in coefficients.values())
    padding = 2.0 * math.fsum(
        abs(c) * e for c, e in zip(coefficients.values(), error_bounds.values()))
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
    for index, c in enumerate(
            mu_hat_differences(t, params, point_numerators(params, max_digits),
                               scale)):
        if c is not None:
            coeff, coeff_err = c
            total += coeff * coeff
            err += 2.0 * abs(coeff) * coeff_err + coeff_err * coeff_err
            err += _EPS * abs(total)  # summation rounding
        if index & (index + 1) == 0:  # the first 2^d words are done
            rows.append(ParsevalSum(total, err))
    return rows


# kept because bench/tracing.py wraps it by name; nothing in bernspec calls it
def parseval_partial(
    t: QuarterInt | float,
    params: BernoulliParams,
    max_digits: int,
    basis: str = "spectrum",
) -> ParsevalSum:
    """The last row of parseval_table: the partial sum at depth max_digits."""
    return parseval_table(t, params, max_digits, basis)[-1]
