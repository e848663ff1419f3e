"""Exact zero-set arithmetic and certified transform evaluation.

The measure with contraction ratio 1/(2n) has Fourier transform

    mu_hat(t) = prod_{k >= 1} cos(2 pi t / (2n)^k),

which vanishes exactly at the points (2n)^k * (odd integer) / 4, k >= 1.
All structural questions (membership, argument reduction, factor signs)
are decided on quarter-integers in plain integer arithmetic; floats enter
only through cosine factors that carry a certified absolute error bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

_EPS = sys.float_info.epsilon

# Per-factor slop for a libm cosine at a reduced argument: pi*|u| <= pi/4
# after range reduction, so argument scaling costs < eps and sin/cos < 2 ulp.
_COSPI_SLOP = 4.0 * _EPS

# A factor built from an integer ratio costs one rounded division (abs error
# < 2^-52 since the reduced ratio is < 2) on top of the cosine slop.
_RATIO_FACTOR_ERR = math.pi * 2.0 ** -52 + _COSPI_SLOP

# Default target for the truncation part of a certified transform value.
DEFAULT_TOL = 1e-12


@dataclass(frozen=True, slots=True, order=True)
class QuarterInt:
    """An element of (1/4)Z, stored as the integer numerator over 4."""

    numerator: int

    @classmethod
    def from_int(cls, value: int) -> QuarterInt:
        return cls(4 * value)

    @classmethod
    def parse(cls, text: str) -> QuarterInt:
        """Parse "a", "a/2" or "a/4" with a an integer."""
        body = text.strip()
        if "/" in body:
            num_text, den_text = body.split("/", 1)
            den = int(den_text)
            if den not in (1, 2, 4):
                raise ValueError(f"denominator must divide 4: {text!r}")
            return cls(int(num_text) * (4 // den))
        return cls.from_int(int(body))

    @property
    def is_integer(self) -> bool:
        return self.numerator % 4 == 0

    def __add__(self, other: QuarterInt) -> QuarterInt:
        if not isinstance(other, QuarterInt):
            return NotImplemented
        return QuarterInt(self.numerator + other.numerator)

    def __sub__(self, other: QuarterInt) -> QuarterInt:
        if not isinstance(other, QuarterInt):
            return NotImplemented
        return QuarterInt(self.numerator - other.numerator)

    def __neg__(self) -> QuarterInt:
        return QuarterInt(-self.numerator)

    def __mul__(self, scale: int) -> QuarterInt:
        # only integer scaling keeps us inside (1/4)Z
        if not isinstance(scale, int):
            return NotImplemented
        return QuarterInt(self.numerator * scale)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.numerator != 0

    def __float__(self) -> float:
        return self.numerator / 4

    def __str__(self) -> str:
        g = math.gcd(self.numerator, 4)
        num, den = self.numerator // g, 4 // g
        return str(num) if den == 1 else f"{num}/{den}"


@dataclass(frozen=True, slots=True)
class BernoulliParams:
    """Parameters: contraction ratio 1/(2n) and optional odd scale factor p.

    n = 1 is accepted by the arithmetic layer; the operator-level results
    need n >= 2 and are only exercised there.
    """

    n: int
    p: int | None = None

    def __post_init__(self) -> None:
        # type(...) is int also turns away bool, an int subclass
        if type(self.n) is not int or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if self.p is not None and (
            type(self.p) is not int or self.p < 3 or self.p % 2 == 0
        ):
            raise ValueError(f"p must be an odd integer >= 3, got {self.p!r}")

    @property
    def base(self) -> int:
        """The expansion base 2n."""
        return 2 * self.n

    @property
    def half_n(self) -> QuarterInt:
        """The nonzero digit n/2."""
        return QuarterInt(2 * self.n)

    def require_p(self) -> int:
        if self.p is None:
            raise ValueError("this operation needs the scale factor p")
        return self.p


@dataclass(frozen=True, slots=True)
class MuHatValue:
    """A certified transform value: sign * magnitude, within error_bound.

    exact_zero means the value is zero by exact arithmetic (zero-set
    membership or an exactly evaluated cosine factor), not merely small;
    it forces magnitude = error_bound = 0.
    """

    exact_zero: bool
    sign: int
    magnitude: float
    error_bound: float

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be -1 or +1, got {self.sign!r}")
        if self.magnitude < 0.0 or self.error_bound < 0.0:
            raise ValueError("magnitude and error_bound must be nonnegative")
        if self.exact_zero and (self.magnitude != 0.0 or self.error_bound != 0.0):
            raise ValueError("exact zero carries magnitude 0 and error_bound 0")

    @classmethod
    def zero(cls) -> MuHatValue:
        return cls(True, 1, 0.0, 0.0)

    @property
    def value(self) -> float:
        return 0.0 if self.exact_zero else self.sign * self.magnitude


def in_zero_set(t: QuarterInt, params: BernoulliParams) -> bool:
    """Exact membership of t in the vanishing set of the transform.

    The zeros are (2n)^k * (2m+1)/4 for k >= 1, m integer.  Write
    2n = 2^s * u with u odd.  Then 4t = (2n)^k * (2m+1) forces the 2-adic
    valuation of the numerator to be exactly s*k and the odd part to be
    divisible by u^k; both are decidable in integer arithmetic.
    """
    numer = t.numerator
    if numer == 0:
        return False
    base = params.base
    s = (base & -base).bit_length() - 1
    u = base >> s
    a = (numer & -numer).bit_length() - 1
    if a == 0 or a % s != 0:
        return False
    k = a // s
    odd = abs(numer) >> a
    return odd % u**k == 0


def reduce_argument(t: QuarterInt, params: BernoulliParams) -> tuple[int, QuarterInt]:
    """Strip all factors of 2n from t, collecting the removed cosines.

    Each step uses mu_hat((2n) r) = cos(2 pi r) mu_hat(r): after dividing
    the numerator by 2n, its residue mod 4 gives the removed factor exactly
    (0 -> +1, 2 -> -1, odd -> 0).  Returns (sign, reduced) with sign in
    {-1, 0, +1} and mu_hat(t) = sign * mu_hat(reduced).  The sign is 0 if
    and only if t lies in the zero set; the reduced numerator is never
    divisible by 2n (except when t = 0).
    """
    base = params.base
    numer = t.numerator
    sign = 1
    while numer != 0 and numer % base == 0:
        numer //= base
        residue = numer % 4
        if residue == 2:
            sign = -sign
        elif residue != 0:
            sign = 0
    return sign, QuarterInt(numer)


# ---------------------------------------------------------------------------
# certified cosine factors


def _cospi_reduced(r: float) -> tuple[float, bool]:
    # cos(pi*r) for r in [0, 2]; flag marks exactly-known grid values.
    # Shifted branches keep the libm argument small near the zeros of cos,
    # and every shift below is exact (Sterbenz or shared binade).
    if r == 0.0:
        return 1.0, True
    if r == 0.5 or r == 1.5:
        return 0.0, True
    if r == 1.0:
        return -1.0, True
    if r <= 0.25:
        return math.cos(math.pi * r), False
    if r < 0.75:
        return -math.sin(math.pi * (r - 0.5)), False
    if r <= 1.25:
        return -math.cos(math.pi * (r - 1.0)), False
    if r < 1.75:
        return math.sin(math.pi * (r - 1.5)), False
    return math.cos(math.pi * (r - 2.0)), False


def _cospi(y: float) -> tuple[float, bool]:
    # cos(pi*y) with range reduction; fmod is exact, the negative-branch
    # shift costs at most one rounding (covered by _COSPI_SLOP).
    r = math.fmod(y, 2.0)
    if r < 0.0:
        r += 2.0
    return _cospi_reduced(r)


def _ratio_factors(numer: int, base: int, terms: int) -> Iterator[tuple[float, float]]:
    # Factor k of the product is cos(pi * |numer| / (2 * base^k)).  The
    # argument is reduced mod 2 exactly as an integer ratio, so grid values
    # (0, +-1 and the zeros) are recognized without any float comparison.
    n_abs = abs(numer)
    power = 1
    for _ in range(terms):
        power *= base
        den = 2 * power
        num = n_abs % (2 * den)
        if num == 0:
            yield 1.0, 0.0
        elif 2 * num == den or 2 * num == 3 * den:
            yield 0.0, 0.0
        elif num == den:
            yield -1.0, 0.0
        else:
            value, _ = _cospi_reduced(num / den)
            yield value, _RATIO_FACTOR_ERR


def _float_factors(x: float, base: int, terms: int) -> Iterator[tuple[float, float]]:
    # Generic real argument: divide down by the base, tracking an absolute
    # error bound on the argument (division is exact when 2n is a power of
    # two, else costs half an ulp per step).  The first step takes 2x/(2n)
    # as x/n, one rounding of the same real, so 2x cannot overflow.
    exact_division = base & (base - 1) == 0
    y = x
    y_err = 0.0
    divisor = base // 2
    for _ in range(terms):
        y = y / divisor
        y_err = y_err / divisor
        if not exact_division:
            y_err += 0.5 * _EPS * abs(y)
        divisor = base
        value, on_grid = _cospi(y)
        if on_grid and y_err == 0.0:
            yield value, 0.0
        else:
            yield value, math.pi * y_err + _COSPI_SLOP


def _tail_bound(x: float, base: int, terms: int) -> float:
    # Bound on |1 - prod_{k > terms} cos(2 pi x / base^k)|.  With
    # a_k = (2 pi x)^2 / (2 base^(2k)) the dropped factors lie in
    # [1 - a_k, 1], and 1 - prod(1 - a_k) <= sum a_k = S whenever S < 1.
    # Worked in the log domain so huge |x| cannot overflow.
    if x == 0.0:
        return 0.0
    log_s = (
        math.log(2.0)
        + 2.0 * math.log(math.pi)
        + 2.0 * math.log(abs(x))
        - math.log(float(base * base - 1))
        - 2.0 * terms * math.log(float(base))
    )
    if log_s >= 0.0:
        return 2.0
    return min(2.0, math.exp(log_s) * (1.0 + 1e-9))


def mu_hat_product(
    t: QuarterInt | float, params: BernoulliParams, terms: int
) -> MuHatValue:
    """Truncated product for the transform, with a certified total bound.

    Evaluates prod_{k=1..terms} cos(2 pi t / (2n)^k); error_bound covers
    the accumulated rounding of the partial product AND the dropped tail,
    so the infinite product lies within error_bound of sign * magnitude.
    Quarter-integer arguments get exact per-factor reduction: zero factors
    are then recognized exactly and short-circuit to an exact zero.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if isinstance(t, QuarterInt):
        x = float(t)
        factors = _ratio_factors(t.numerator, params.base, terms)
    else:
        x = float(t)
        if not math.isfinite(x):
            raise ValueError(f"t must be finite, got {t!r}")
        factors = _float_factors(x, params.base, terms)

    prod = 1.0
    err = 0.0
    for value, factor_err in factors:
        if factor_err == 0.0:
            if value == 0.0:
                return MuHatValue.zero()
            if value == 1.0:
                continue
            if value == -1.0:
                # sign flip is exact; error carries over unchanged
                prod = -prod
                continue
        new_prod = prod * value
        # |fl(p~ f~) - p f| <= eps/2 |p~ f~| + |p~| ef + |f| * (p-error)
        err = (
            0.5 * _EPS * abs(new_prod)
            + abs(prod) * factor_err
            + err * min(1.0, abs(value) + factor_err)
        )
        prod = new_prod

    bound = err + (abs(prod) + err) * _tail_bound(x, params.base, terms)
    # |mu_hat| <= 1, so 1 + |prod| is always honest; it caps the bound of a
    # huge float whose per-factor argument errors add up to more
    bound = min(bound, 1.0 + abs(prod))
    sign = -1 if prod < 0.0 else 1
    return MuHatValue(False, sign, abs(prod), bound)


def _terms_for(x: float, base: int, tol: float) -> int:
    # smallest truncation depth putting the geometric tail under tol/2
    if x == 0.0:
        return 1
    log_s0 = (
        math.log(2.0)
        + 2.0 * math.log(math.pi)
        + 2.0 * math.log(abs(x))
        - math.log(float(base * base - 1))
    )
    k = (log_s0 - math.log(tol / 2.0)) / (2.0 * math.log(float(base)))
    return max(4, math.ceil(k) + 2)


def mu_hat(t: QuarterInt | float, params: BernoulliParams,
           tol: float = DEFAULT_TOL) -> MuHatValue:
    """Certified transform value at a quarter-integer or a real point.

    Zero-set members return an exact zero.  Otherwise the argument is fully
    reduced and the truncated product is evaluated with enough terms to put
    the truncation part of the bound below tol.  The reported error_bound
    is the honest total (truncation plus rounding), so it can exceed an
    extremely small tol; it is never understated.  A float t skips the
    integer reduction: one product, sized the same way, over its factors.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if not isinstance(t, QuarterInt):
        x = float(t)
        if not math.isfinite(x):
            raise ValueError(f"t must be finite, got {t!r}")
        return mu_hat_product(x, params, _terms_for(x, params.base, tol))
    if in_zero_set(t, params):
        return MuHatValue.zero()
    sign, reduced = reduce_argument(t, params)
    if reduced.numerator == 0:
        return MuHatValue(False, sign, 1.0, 0.0)
    terms = _terms_for(float(reduced), params.base, tol)
    result = mu_hat_product(reduced, params, terms)
    if not result.exact_zero and result.error_bound > tol:
        result = mu_hat_product(reduced, params, 2 * terms)
    if result.exact_zero:
        return result
    return MuHatValue(False, sign * result.sign, result.magnitude, result.error_bound)


class ChaosEstimate(NamedTuple):
    estimate: float
    std_error: float


def chaos_game_estimate(
    t: QuarterInt | float,
    params: BernoulliParams,
    samples: int,
    seed: int = 0,
) -> ChaosEstimate:
    """Monte-Carlo estimate of the transform at t via random expansions.

    Samples x = sum_k eps_k (2n)^-k with independent signs eps_k = +-1 and
    averages cos(2 pi t x); the mean converges to the transform value.  The
    expansion is truncated once (2n)^-k falls below float resolution, which
    biases the mean by far less than the Monte-Carlo standard error.
    Returns (estimate, std_error) with the sample standard error of the
    mean; a single sample reports an infinite std_error.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    base = params.base
    depth = math.ceil(53.0 * math.log(2.0) / math.log(base)) + 1
    rng = np.random.default_rng(seed)
    x = np.zeros(samples)
    scale = 1.0
    for _ in range(depth):
        scale /= base
        x += scale * (2.0 * rng.integers(0, 2, size=samples) - 1.0)
    phases = np.cos((2.0 * math.pi * float(t)) * x)
    estimate = float(phases.mean())
    if samples == 1:
        return ChaosEstimate(estimate, float("inf"))
    std_error = float(phases.std(ddof=1)) / math.sqrt(samples)
    return ChaosEstimate(estimate, std_error)
