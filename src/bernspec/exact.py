"""Exact zero-set arithmetic and certified transform evaluation.

The measure with contraction ratio 1/(2n) has Fourier transform

    mu_hat(t) = prod_{k >= 1} cos(2 pi t / (2n)^k),

which vanishes exactly at the points (2n)^k * (odd integer) / 4, k >= 1.
All structural questions (membership, argument reduction, factor signs)
are decided on quarter-integers in plain integer arithmetic; floats enter
only through cosine factors that carry a certified absolute error bound.
reduce_numerator is the one scalar reduction: reduce_argument wraps it for
a QuarterInt, and the verifiers call it on bare numerators.
Every argument, a quarter-integer, a fraction or a float, is evaluated
through its exact ratio numerator/denominator, so one factor walk serves
them all.  The walk takes the whole infinite product: a cosine per factor
while 2|t|/(2n)^k > 1/64, then the rest in closed form as exp(-S), S a
certified series for the sum of -ln cos.  Its bound is at the rounding
level, so evaluation takes no tolerance; mu_hat_product is the
fixed-length truncation, an independent reference.  mu_hat_differences takes the transform at
t - scale * gamma over a whole spectrum truncation along the digit tree of
the Cuntz isometries, one pass per tree level: one cosine per tree node,
and for each word one difference that serves its own node and the factors
below it.  It yields plain (value, error_bound) pairs, None for an exact
zero, and writes _tail and the bound arithmetic out in its word loop, with
the same bits.
mu_hat_many is mu_hat over an array of quarter-integers as codes into a
table of values: one reduction, one batched walk over the distinct
|reduced|, and the same bits as the scalar mu_hat, which stays the
reference.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, NamedTuple

if TYPE_CHECKING:
    import numpy as np

_EPS = sys.float_info.epsilon

# Per-factor slop for a libm cosine at a reduced argument: pi*|u| <= pi/4
# after range reduction, so argument scaling costs < eps and sin/cos < 2 ulp.
_COSPI_SLOP = 4.0 * _EPS

# A factor built from an integer ratio costs one rounded division (abs error
# < 2^-52 since the reduced ratio is < 2) on top of the cosine slop.
_RATIO_FACTOR_ERR = math.pi * 2.0 ** -52 + _COSPI_SLOP

# A rounded product below 2^-1022 can also lose 2^-1075 outright, and so can
# each of the three products of its bound: 2^-1073 per multiplication keeps
# a product that underflows (|mu_hat| < 1e-308 at n = 1) honest.
_UNDERFLOW = 2.0 ** -1073

# A cosine at y = s_k < 1, one rounded division of integers, costs pi times
# half an ulp of y on top of the cosine slop.
_HALF_ULP_PI = math.pi * 0.5 * _EPS

# The certified walk takes the factors with 2|x| / (2n)^k <= 1/_SERIES_FROM
# together, in closed form (_series_sum).
_SERIES_FROM = 64

# -ln cos z = sum_{i >= 1} c_i z^(2i) (Abramowitz-Stegun 4.3.71), every c_i
# positive: c_1..c_6 as (numerator, denominator).
_LOG_COS = ((1, 2), (1, 12), (1, 45), (17, 2520), (31, 14175), (691, 935550))

# Bound on |(sum_j -ln cos(pi y_true / b^j)) - S| / S for the rounded Horner
# sum S at y = fl(y_true) <= 1/64 (_series_sum).  The rounding of pi * y, of
# its square, of each coefficient and of the Horner steps is at most
# (1 + 7i) half-ulps for the term of degree i <= 6: 21.5 eps.  y is one
# rounded division off y_true, and the derivative of the sum is at most
# pi^2 y b^2/(b^2 - 1) tan(z)/z <= 13.2 y, so that costs 6.6 eps y^2 <=
# 1.4 eps S (S >= (pi y)^2 / 2).
_SERIES_SLOP = 32.0 * _EPS

# The terms i >= 7 of the sum: c_i <= sum_i c_i = -ln cos 1 < 0.61563 and
# b^(2i)/(b^(2i) - 1) <= 4/3 (n = 1), so for z = pi y <= pi/64 they add at
# most 4/3 * 0.61563 * z^14 / (1 - z^2) < 0.823 z^14.
_SERIES_REMAINDER = 0.83

# Most items one request may hold: spectrum words, matrix entries, verifier
# word pairs, chaos samples or product factors.  A built matrix keeps 4
# bytes per entry (an int32 code into its table of distinct values) plus the
# table.  Its build peaks while the int64 argument grid, its reduced copy and
# their int8 signs are alive, near 17.5 bytes per entry: 70 MiB at the budget
# (11 digits) for n = 2, p = 5 (tracemalloc).  Where one entry in four is a
# distinct value (n = 4, p = 3) the table adds to that, and the peak is
# 283 MiB.  A chaos run at the budget peaks at 68 MiB: its float64 sum, one
# table lookup of the same size and one byte per sample (tracemalloc).
ITEM_BUDGET = 1 << 22

# Elements reduce_arguments steps through at once.
_REDUCE_CHUNK = 1 << 16


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


def reduce_numerator(numer: int, base: int) -> tuple[int, int]:
    """Strip all factors of base = 2n from a numerator over 4.

    Each step uses mu_hat((2n) r) = cos(2 pi r) mu_hat(r): after dividing
    the numerator by 2n, its residue mod 4 gives the removed factor exactly
    (0 -> +1, 2 -> -1, odd -> 0).  Returns (sign, reduced) with sign in
    {-1, 0, +1} and mu_hat(numer/4) = sign * mu_hat(reduced/4).  The sign
    is 0 if and only if numer/4 lies in the zero set; the reduced numerator
    is never divisible by 2n (except when numer = 0).
    """
    sign = 1
    while numer != 0 and numer % base == 0:
        numer //= base
        residue = numer % 4
        if residue == 2:
            sign = -sign
        elif residue != 0:
            sign = 0
    return sign, numer


def reduce_argument(t: QuarterInt, params: BernoulliParams) -> tuple[int, QuarterInt]:
    """Strip all factors of 2n from t: reduce_numerator on its numerator.

    Returns (sign, reduced) with mu_hat(t) = sign * mu_hat(reduced); the
    sign is 0 if and only if t lies in the zero set.
    """
    sign, reduced = reduce_numerator(t.numerator, params.base)
    return sign, QuarterInt(reduced)


def reduce_arguments(numers: np.ndarray,
                     params: BernoulliParams) -> tuple[np.ndarray, np.ndarray]:
    """reduce_numerator over an array of quarter-integer numerators.

    Returns (signs, reduced): int8 signs in {-1, 0, +1} and the reduced
    numerators, each the pair reduce_numerator gives for its element.  The
    steps are the scalar ones, the same floor // and % and residue rule,
    applied to the elements still divisible by 2n.  The numerators only
    shrink, so an int64 array cannot overflow here; numerators past the
    int64 range go in an object array of Python ints, which runs the same
    code.  The input is left as it is.
    """
    import numpy as np

    base = params.base
    reduced = np.array(numers)
    signs = np.ones(reduced.shape, dtype=np.int8)
    flat, flat_signs = reduced.reshape(-1), signs.reshape(-1)
    # a chunk at a time, so the temporaries of a step (at n = 2 every
    # element is active at the first) stay small next to the output
    for start in range(0, flat.size, _REDUCE_CHUNK):
        part = flat[start:start + _REDUCE_CHUNK]
        part_signs = flat_signs[start:start + _REDUCE_CHUNK]
        active = np.flatnonzero((part != 0) & (part % base == 0))
        while active.size:
            numer = part[active] // base
            part[active] = numer
            residue = numer % 4
            part_signs[active[residue == 2]] *= -1
            part_signs[active[residue % 2 == 1]] = 0
            active = active[numer % base == 0]
    return signs, reduced


# ---------------------------------------------------------------------------
# certified cosine factors


def _ratio(t: QuarterInt | Fraction | float) -> tuple[int, int]:
    # the argument as its exact ratio numer/denom, denom > 0
    if isinstance(t, QuarterInt):
        return t.numerator, 4
    if isinstance(t, Fraction):
        return t.numerator, t.denominator
    x = float(t)
    if not math.isfinite(x):
        raise ValueError(f"t must be finite, got {t!r}")
    return x.as_integer_ratio()


def _log_tail(numer: int, denom: int, base: int) -> float:
    # log of sum_{k >= 1} (2 pi x)^2 / (2 base^(2k)) = 2 pi^2 x^2 / (base^2 - 1)
    # for x = numer/denom != 0; the sum past `terms` factors is this times
    # base^(-2 terms).  math.log takes any int, so neither a numerator nor
    # a base past the float range is ever converted.
    return (
        math.log(2.0)
        + 2.0 * math.log(math.pi)
        + 2.0 * (math.log(abs(numer)) - math.log(denom))
        - math.log(base * base - 1)
    )


def _cospi_reduced(r: float) -> float:
    # cos(pi*r) for r in [0, 2] off the grid {0, 1/2, 1, 3/2}, which
    # _cospi_ratio decides in integers.  Shifted branches keep the libm
    # argument small near the zeros of cos, and every shift below is exact
    # (Sterbenz or shared binade).
    if r <= 0.25:
        return math.cos(math.pi * r)
    if r < 0.75:
        return -math.sin(math.pi * (r - 0.5))
    if r <= 1.25:
        return -math.cos(math.pi * (r - 1.0))
    if r < 1.75:
        return math.sin(math.pi * (r - 1.5))
    return math.cos(math.pi * (r - 2.0))


def _cospi_many(r: np.ndarray) -> np.ndarray:
    # _cospi_reduced over a float64 array: its branches and exact shifts in
    # numpy, and the libm cos or sin per element, as the slop assumes libm
    import numpy as np

    shift = np.select([r <= 0.25, r < 0.75, r <= 1.25, r < 1.75],
                      [0.0, 0.5, 1.0, 1.5], 2.0)
    arg = math.pi * (r - shift)
    sine = (shift == 0.5) | (shift == 1.5)
    value = np.empty(len(r))
    value[~sine] = list(map(math.cos, arg[~sine].tolist()))
    value[sine] = list(map(math.sin, arg[sine].tolist()))
    negated = (shift == 0.5) | (shift == 1.0)
    value[negated] *= -1.0
    return value


def _cospi_ratio(num: int, den: int) -> tuple[float, float] | None:
    # cos(pi num/den) for 0 <= num < 2 den with its absolute error bound,
    # None at an exact zero.  The grid values 0, +-1 and the zeros are
    # decided on the integers; any other ratio costs one rounded division
    # and the cosine, whose value may round to 0.0 without being a zero.
    if num == 0:
        return 1.0, 0.0
    if 2 * num == den or 2 * num == 3 * den:
        return None
    if num == den:
        return -1.0, 0.0
    return _cospi_reduced(num / den), _RATIO_FACTOR_ERR


def _times(prod: float, err: float, value: float,
           value_err: float) -> tuple[float, float]:
    # (prod +- err) * (value +- value_err) with |true value| <= 1, and the
    # bound of the rounded product: |fl(p~ f~) - p f| <= eps/2 |p~ f~| +
    # |p~| ef + |f| * (p-error).  An exact +-1 multiplies exactly.
    if value_err == 0.0 and (value == 1.0 or value == -1.0):
        return prod * value, err
    new_prod = prod * value
    return new_prod, (0.5 * _EPS * abs(new_prod) + abs(prod) * value_err
                      + err * min(1.0, abs(value) + value_err) + _UNDERFLOW)


def _tail_bound(log_tail: float, base: int, terms: int) -> float:
    # Bound on |1 - prod_{k > terms} cos(2 pi x / base^k)|.  With
    # a_k = (2 pi x)^2 / (2 base^(2k)) the dropped factors lie in
    # [1 - a_k, 1], and 1 - prod(1 - a_k) <= sum a_k = S whenever S < 1.
    # Worked in the log domain so huge |x| cannot overflow.
    log_s = log_tail - 2.0 * terms * math.log(base)
    if log_s >= 0.0:
        return 2.0
    return min(2.0, math.exp(log_s) * (1.0 + 1e-9))


@functools.lru_cache(maxsize=64)
def _series(base: int) -> tuple[float, ...]:
    # a_i = c_i b^(2i) / (b^(2i) - 1), the coefficient of (pi y)^(2i) in
    # sum_{j >= 0} -ln cos(pi y / b^j) (a geometric sum over j), each one
    # int / int division rounded once; it is c_i for a base past the float
    # range, and nothing overflows
    coefficients = []
    for i, (num, den) in enumerate(_LOG_COS, 1):
        power = base ** (2 * i)
        coefficients.append(num * power / (den * (power - 1)))
    return tuple(coefficients)


def _series_sum(y: float | np.ndarray,
                base: int) -> tuple[float | np.ndarray, float | np.ndarray]:
    # The rest of the walk in closed form: for 0 <= y <= 1/64,
    # prod_{j >= 0} cos(pi y / b^j) = exp(-F(y)), and F(y) is S, the Horner
    # sum of a_i (pi y)^(2i) for i <= 6, within slop.  slop covers the
    # rounding of S and of y (_SERIES_SLOP) and the terms i >= 7
    # (_SERIES_REMAINDER); exp(-F) moves by at most |F - S| since F, S >= 0.
    # Underflow in either costs less than 1e-300.  y is a float or a float64
    # array: the float operations are the same, element by element.
    a1, a2, a3, a4, a5, a6 = _series(base)
    z2 = math.pi * y
    z2 = z2 * z2
    s = z2 * (a1 + z2 * (a2 + z2 * (a3 + z2 * (a4 + z2 * (a5 + z2 * a6)))))
    z4 = z2 * z2
    return s, _SERIES_SLOP * s + _SERIES_REMAINDER * (z4 * z4 * z4 * z2)


def _tail(numer: int, denom: int, base: int) -> tuple[float, float] | None:
    # The certified walk: mu_hat at x = numer/denom, the whole infinite
    # product, and a bound that covers every rounding; None when a factor
    # is exactly zero.
    #
    # Factor k is cos(pi r_k) with r_k = s_k mod 2 and s_k = 2|x| / base^k.
    # While s_k >= 1, r_k is reduced exactly as an integer ratio, so grid
    # values (0, +-1 and the zeros) are decided on integers and only one
    # rounded division reaches the cosine.  Once s_k < 1 is off the grid, no
    # later s_j wraps or lands on the grid (they lie in (0, 1/2)): while
    # s_k > 1/64, factor k is the cosine at y = s_k, one rounded division
    # of integers (at most 3 factors for n >= 2, 6 for n = 1).  The factors
    # from the first s_K <= 1/64 on are exp(-S) (_series_sum), and one more
    # ulp covers the libm exp.  |mu_hat| <= 1, so 1 + |prod| is always
    # honest.
    if numer == 0:
        return 1.0, 0.0
    prod = 1.0
    err = 0.0
    twice = 2 * abs(numer)
    den = denom * base
    while twice >= den or 2 * twice == den:
        factor = _cospi_ratio(twice % (2 * den), den)
        if factor is None:
            return None
        prod, err = _times(prod, err, *factor)
        den *= base
    cos, pi = math.cos, math.pi
    limit = _SERIES_FROM * twice
    while den < limit:
        # _times and the first branch of _cospi_reduced, inlined: this
        # loop is the hot path, and y <= 1/4 from its second factor on
        y = twice / den
        value = cos(pi * y) if y <= 0.25 else _cospi_reduced(y)
        factor_err = _HALF_ULP_PI * y + _COSPI_SLOP
        new_prod = prod * value
        growth = abs(value) + factor_err
        err = (0.5 * _EPS * abs(new_prod) + abs(prod) * factor_err
               + err * (growth if growth < 1.0 else 1.0) + _UNDERFLOW)
        prod = new_prod
        den *= base
    s, slop = _series_sum(twice / den, base)
    # _times, inlined: its exact +-1 case needs value_err = 0, and this
    # value_err is positive; then min(err, 1 + |prod|)
    value = math.exp(-s)
    value_err = slop + _EPS * value
    new_prod = prod * value
    growth = abs(value) + value_err
    err = (0.5 * _EPS * abs(new_prod) + abs(prod) * value_err
           + err * (growth if growth < 1.0 else 1.0) + _UNDERFLOW)
    cap = 1.0 + abs(new_prod)
    return new_prod, (cap if cap < err else err)


def _products(numers: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    # _tail at the quarter-integers numers / 4, over an array.  The keys are
    # reduced, positive and not divisible by base, so no factor lands on the
    # grid {0, 1/2, 1, 3/2} (each grid point needs base | numer) and none is
    # an exact zero.  Every step is _tail's, for all keys at one s_k at a
    # time: r = (twice % (2 den)) / den, a Python int division per element,
    # and the cosine at r with the error of its phase (r = s_k < 1 is the
    # float phase); then _series_sum on the float64 array of each key's
    # s_K.  The float operations of the bound run in numpy in the same
    # order, and each libm call per element, so every key gets the same
    # bits.  numers is int64 only while 256 numers and 2 base numers fit
    # it: an active key has 2 den < 128 twice, and a leaving one den / 64 <
    # base twice.
    import numpy as np

    twice = 2 * numers
    prod = np.ones(len(numers))
    err = np.zeros(len(numers))
    y = np.zeros(len(numers))
    active = np.arange(len(numers))
    den = 4
    while active.size:
        den *= base
        part = twice[active]
        leaving = part <= den // _SERIES_FROM
        y[active[leaving]] = [x / den for x in part[leaving].tolist()]
        active, part = active[~leaving], part[~leaving]
        r = np.array([x / den for x in (part % (2 * den)).tolist()])
        value = _cospi_many(r)
        factor_err = np.where(part < den, _HALF_ULP_PI * r + _COSPI_SLOP,
                              _RATIO_FACTOR_ERR)
        old = prod[active]
        prod[active] = old * value
        growth = np.abs(value) + factor_err
        err[active] = (0.5 * _EPS * np.abs(prod[active])
                       + np.abs(old) * factor_err
                       + err[active] * np.where(growth < 1.0, growth, 1.0)
                       + _UNDERFLOW)
    s, slop = _series_sum(y, base)
    value = np.array(list(map(math.exp, (-s).tolist())))
    # _times, whose exact +-1 case needs value_err = 0
    value_err = slop + _EPS * value
    new_prod = prod * value
    growth = np.abs(value) + value_err
    err = (0.5 * _EPS * np.abs(new_prod) + np.abs(prod) * value_err
           + err * np.where(growth < 1.0, growth, 1.0) + _UNDERFLOW)
    cap = 1.0 + np.abs(new_prod)
    return new_prod, np.where(cap < err, cap, err)


def mu_hat_product(
    t: QuarterInt | Fraction | float, params: BernoulliParams, terms: int
) -> MuHatValue:
    """Truncated product for the transform, with a certified total bound.

    Evaluates prod_{k=1..terms} cos(2 pi t / (2n)^k); error_bound covers
    the accumulated rounding of the partial product AND the dropped tail,
    so the infinite product lies within error_bound of sign * magnitude.
    Every argument is walked as its exact ratio (a quarter-integer as
    numerator/4, a fraction or a float as its integer ratio): a zero factor
    is then recognized exactly and short-circuits to an exact zero.  terms
    must lie in 1..ITEM_BUDGET.  This fixed-length walk is independent of
    the closed-form tail of mu_hat.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if terms > ITEM_BUDGET:
        raise ValueError(
            f"terms {terms} is over the size budget of {ITEM_BUDGET}")
    numer, denom = _ratio(t)
    if numer == 0:
        return MuHatValue(False, 1, 1.0, 0.0)
    # The truncated walk: prod_{k=1..terms} cos(2 pi x / base^k) at
    # x = numer/denom != 0, and a bound that covers the rounding AND the
    # dropped tail.
    #
    # Factor k is cos(pi r_k) with r_k = s_k mod 2 and s_k = 2|x| / base^k.
    # While s_k >= 1, r_k is reduced exactly as an integer ratio, so grid
    # values (0, +-1 and the zeros) are decided on integers and only one
    # rounded division reaches the cosine.  Once s_k < 1 is off the grid, no
    # later s_j = s_k / base^(j-k) wraps or lands on the grid (they lie in
    # (0, 1/2)), so the walk goes on in floats from half an ulp of argument
    # error: division is exact when 2n is a power of two, else costs half
    # an ulp per step.  A base past the float range divides by inf, which
    # sends y to 0 from below 2^-1023: far inside the cosine slop.
    # |mu_hat| <= 1, so 1 + |prod| is always honest; it caps the bound of
    # a product too short for its argument.
    base = params.base
    log_tail = _log_tail(numer, denom, base)
    prod = 1.0
    err = 0.0
    twice = 2 * abs(numer)
    den = denom
    k = 0
    while k < terms:
        den *= base
        if twice < den and 2 * twice != den:
            break
        factor = _cospi_ratio(twice % (2 * den), den)
        if factor is None:
            return MuHatValue.zero()
        prod, err = _times(prod, err, *factor)
        k += 1
    if k < terms:
        cos, pi = math.cos, math.pi
        exact_division = base & (base - 1) == 0
        step = float(base) if base.bit_length() < 1024 else math.inf
        y = twice / den
        y_err = 0.5 * _EPS * y
        for _ in range(k, terms):
            # _times and the first branch of _cospi_reduced, inlined: y < 1/4
            # from the second factor on
            value = cos(pi * y) if y <= 0.25 else _cospi_reduced(y)
            factor_err = pi * y_err + _COSPI_SLOP
            new_prod = prod * value
            growth = abs(value) + factor_err
            err = (0.5 * _EPS * abs(new_prod) + abs(prod) * factor_err
                   + err * (growth if growth < 1.0 else 1.0) + _UNDERFLOW)
            prod = new_prod
            y /= step
            y_err /= step
            if not exact_division:
                y_err += 0.5 * _EPS * y
    bound = err + (abs(prod) + err) * _tail_bound(log_tail, base, terms)
    return MuHatValue(False, -1 if prod < 0.0 else 1, abs(prod),
                      min(bound, 1.0 + abs(prod)))


def mu_hat(t: QuarterInt | Fraction | float,
           params: BernoulliParams) -> MuHatValue:
    """Certified transform value at a quarter-integer or a real point.

    A quarter-integer, and a fraction or float whose exact value is one
    (every float of magnitude 2^50 or more, and decimals such as 2.5), is
    decided in integers: a zero-set member returns an exact zero, and any
    other point is fully reduced before its product.  The whole infinite
    product is then evaluated, its factors past 2|t|/(2n)^k <= 1/64 in
    closed form, so error_bound is the honest total rounding error, at the
    level of a few ulps times the factor count.
    """
    numer, denom = _ratio(t)
    sign = 1
    if 4 % denom == 0:
        sign, reduced = reduce_argument(QuarterInt(numer * (4 // denom)), params)
        if sign == 0:
            return MuHatValue.zero()
        numer, denom = reduced.numerator, 4
    result = _tail(numer, denom, params.base)
    if result is None:
        return MuHatValue.zero()
    prod, bound = result
    return MuHatValue(False, sign * (-1 if prod < 0.0 else 1), abs(prod), bound)


def mu_hat_many(numers: np.ndarray,
                params: BernoulliParams) -> tuple[np.ndarray, list[MuHatValue]]:
    """mu_hat at the quarter-integers numers / 4, as codes into a value table.

    numers is an int64 array, or an object array of Python ints, of any
    shape.  Returns (codes, values): an int32 array of that shape and the
    distinct values, with values[codes[i]] equal (==) to
    mu_hat(QuarterInt(numers[i]), params), bit for bit.  Code 0 is the
    exact zero, and every other value is taken by some element.  One
    reduce_arguments call gives each element (sign, reduced); mu_hat is
    even and mu_hat(t) = sign * mu_hat(|reduced|), so the signed key
    sign * |reduced| names each value.  The certified walk of each distinct
    |reduced| runs once, all of them together, with the integer phase, the
    float operations and the libm calls of the scalar walk (see _products).
    Nothing here keeps numers past its reduction, so an array passed as a
    temporary is freed there.
    """
    import numpy as np

    base = params.base
    signs, reduced = reduce_arguments(numers, params)
    del numers
    live = signs != 0
    keys = np.abs(reduced[live])
    del reduced
    np.negative(keys, out=keys, where=signs[live] < 0)
    keys, index = np.unique(keys, return_inverse=True)
    magnitudes, key_magnitude = np.unique(np.abs(keys), return_inverse=True)
    # argument 0 is the one key off the walk: mu_hat(0) = 1 exactly
    skip = int(magnitudes.size > 0 and magnitudes[0] == 0)
    magnitudes = magnitudes[skip:]
    # the walk's integers reach 256 |numer| and 2 base |numer|; past int64,
    # Python ints
    if magnitudes.dtype != object and magnitudes.size and (
            magnitudes[-1] >= 2**55 // base):
        magnitudes = magnitudes.astype(object)
    prod, bound = _products(magnitudes, base)
    prod = [1.0] * skip + prod.tolist()
    bound = [0.0] * skip + bound.tolist()
    values = [MuHatValue.zero()]
    for negated, k in zip((keys < 0).tolist(), key_magnitude.tolist()):
        sign = -1 if (prod[k] < 0.0) != negated else 1
        values.append(MuHatValue(False, sign, abs(prod[k]), bound[k]))
    codes = np.zeros(signs.shape, dtype=np.int32)
    index += 1
    codes[live] = index
    return codes, values


def mu_hat_differences(
    t: QuarterInt | Fraction | float,
    params: BernoulliParams,
    points: list[int],
    scale: int = 1,
) -> Iterator[tuple[float, float] | None]:
    """The transform at t - scale * gamma for every point of a truncation.

    points holds 4 * gamma for the 2^d spectrum words m = 0, 1, ... in
    counting order (spectrum.point_numerators).  The walk follows the digit
    tree of the Cuntz isometries, gamma = b_0 n/2 + 2n gamma': with
    gamma_<k the point of the low k digits of m, factor k of the transform
    at t - scale * gamma is

        (-1)^(scale n b_k) cos(2 pi (t - scale gamma_<k) / (2n)^k).

    So node (k, r), r < 2^k, needs one cosine, decided on its exact ratio
    like every factor of mu_hat, and it serves every word whose low k
    digits are r.  Word m of length L is the product of its nodes
    (k, m mod 2^k), k = 1..L, times the sign of its digits b_1..b_(L-1) and
    the tail mu_hat((t - scale gamma_m) / (2n)^L), which holds the factors
    k > L.  The tail sits at the word's own length, so a value does not
    depend on d.  Each level is one pass: a word's difference
    t - scale gamma_m, taken once, gives both its own node (L, m) and its
    tail, _tail written out with the same float operations; the lower half
    of a level serves only longer words, and the last level keeps no
    nodes.  Values come out in counting order, one tree level at a
    time, as pairs (value, error_bound): the signed value, 0.0 when it is
    zero without being an exact zero, and its certified bound.  A zero
    factor, at a node or in a tail, gives None, an exact zero.  The bound
    covers the value mu_hat certifies at the same exact difference, and
    None comes exactly where mu_hat returns an exact zero.
    """
    depth = len(points).bit_length() - 1
    if depth < 0 or len(points) != 1 << depth:
        raise ValueError(f"points must hold 2^d numerators, got {len(points)}")
    numer, denom = _ratio(t)
    # over a denominator divisible by 4, scale * gamma = scale * point / 4
    # is an integer multiple of 1 / denom
    lift = 4 // math.gcd(denom, 4)
    numer, denom = numer * lift, denom * lift
    step = scale * (denom // 4)
    base = params.base
    odd = scale * params.n % 2 == 1
    # the hot loops below are _cospi_ratio, _times and _tail written out,
    # with the same float operations in the same order
    cos, exp, pi, cospi = math.cos, math.exp, math.pi, _cospi_reduced
    half_eps, underflow, factor_err = 0.5 * _EPS, _UNDERFLOW, _RATIO_FACTOR_ERR
    a1, a2, a3, a4, a5, a6 = _series(base)

    # a node (k, r) is (prod, err), or None for an exact zero; the pass over
    # level k reads the nodes of level k - 1 (parents) and collects its own
    # (level) only when a longer word needs them.  The words of length k
    # are 2^(k-1) <= m < 2^k.  The zero word, of length 0, has no node
    # factor: modulo 1 its num is 0, the factor 1.
    level: list[tuple[float, float] | None] = [(1.0, 0.0)]
    half, end, mask, den, den2, zeros = 0, 1, 0, denom, 1, ()
    for length in range(depth + 1):
        parents = level
        if length:
            # den is denom (2n)^k
            den *= base
            half = len(parents)
            end, mask, den2 = 2 * half, half - 1, 2 * den
            zeros = (den // 2, 3 * den // 2)
        level = []
        keep = level.append if length < depth else None
        # node (length, m) of every m < end, from one difference; the
        # lower half m < half only serves longer words, so it is walked
        # only when a level is kept, and the words m >= half take the tail
        tail_den = den * base
        for m in range(0 if keep else half, end):
            node = parents[m & mask]
            if node is not None:
                diff = numer - step * points[m]
                twice = 2 * abs(diff)
                num = twice % den2
                if num in zeros:
                    node = None
                elif num == den:
                    node = (-node[0], node[1])
                elif num:
                    prod, err = node
                    value = cospi(num / den)
                    new_prod = prod * value
                    growth = abs(value) + factor_err
                    node = (new_prod,
                            half_eps * abs(new_prod) + abs(prod) * factor_err
                            + err * (growth if growth < 1.0 else 1.0)
                            + underflow)
            if keep:
                keep(node)
                if m < half:
                    continue
            if node is None:
                yield None
                continue
            prod, err = node
            # the whole tail below the word's nodes, every zero factor
            # decided; at t - scale gamma_m = 0 it is exactly 1
            if diff:
                # _tail: the factors with s_k >= 1 on integers, then the
                # cosines while s_k > 1/64, then exp(-S)
                tail_prod, tail_err, d = 1.0, 0.0, tail_den
                zero = False
                while twice >= d or 2 * twice == d:
                    factor = _cospi_ratio(twice % (2 * d), d)
                    if factor is None:
                        zero = True
                        break
                    tail_prod, tail_err = _times(tail_prod, tail_err, *factor)
                    d *= base
                if zero:
                    yield None
                    continue
                limit = _SERIES_FROM * twice
                while d < limit:
                    y = twice / d
                    value = cos(pi * y) if y <= 0.25 else cospi(y)
                    value_err = _HALF_ULP_PI * y + _COSPI_SLOP
                    new_prod = tail_prod * value
                    growth = abs(value) + value_err
                    tail_err = (half_eps * abs(new_prod)
                                + abs(tail_prod) * value_err
                                + tail_err * (growth if growth < 1.0 else 1.0)
                                + underflow)
                    tail_prod = new_prod
                    d *= base
                # _series_sum at y = s_K, with the coefficients hoisted
                z2 = pi * (twice / d)
                z2 = z2 * z2
                s = z2 * (a1 + z2 * (a2 + z2 * (a3 + z2 * (a4 + z2 * (
                    a5 + z2 * a6)))))
                z4 = z2 * z2
                value = exp(-s)
                value_err = (_SERIES_SLOP * s + _SERIES_REMAINDER
                             * (z4 * z4 * z4 * z2) + _EPS * value)
                new_prod = tail_prod * value
                growth = abs(value) + value_err
                tail_err = (half_eps * abs(new_prod) + abs(tail_prod) * value_err
                            + tail_err * (growth if growth < 1.0 else 1.0)
                            + underflow)
                cap = 1.0 + abs(new_prod)
                value, value_err = new_prod, (cap if cap < tail_err else tail_err)
                # the tail times the word's nodes
                new_prod = prod * value
                growth = abs(value) + value_err
                err = (half_eps * abs(new_prod) + abs(prod) * value_err
                       + err * (growth if growth < 1.0 else 1.0) + underflow)
                prod = new_prod
            cap = 1.0 + abs(prod)
            # the digits' sign; 0.0 - and + 0.0 also turn a -0.0 into 0.0
            value = (0.0 - prod if odd and (m >> 1).bit_count() & 1
                     else prod + 0.0)
            yield value, (cap if cap < err else err)


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
    averages cos(2 pi t x); the mean converges to the transform value.  One
    random byte gives 8 signs at a time, through a table of their 256 sums.
    The expansion is truncated at the first whole byte past float
    resolution, which biases the mean by far less than the Monte-Carlo
    standard error.
    Returns (estimate, std_error) with the sample standard error of the
    mean; a single sample reports an infinite std_error.  The phase
    frequency 2 pi t must be a finite float, samples must lie in
    1..ITEM_BUDGET, and seed must be >= 0.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > ITEM_BUDGET:
        raise ValueError(
            f"samples {samples} is over the size budget of {ITEM_BUDGET}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    try:
        omega = 2.0 * math.pi * float(t)
    except OverflowError:
        omega = math.inf
    if not math.isfinite(omega):
        raise ValueError(f"2 pi t must be a finite float, got t = {t}")
    import numpy as np

    base = params.base
    depth = math.ceil(53.0 * math.log(2.0) / math.log(base)) + 1
    # one random byte draws 8 signs: table[byte] = sum_i (2 b_i - 1)
    # base^-(i+1) over its bits b_i, low bit first.  Every weight is a
    # rounded int / int division, so a huge base underflows to 0, never
    # overflows.
    codes = np.arange(256)
    table = np.zeros(256)
    for i in range(8):
        table += (2.0 * ((codes >> i) & 1) - 1.0) * (1 / base ** (i + 1))
    rng = np.random.default_rng(seed)
    x = table[rng.integers(0, 256, size=samples, dtype=np.uint8)]
    for byte in range(1, -(-depth // 8)):
        # the signs 8 byte + 1 .. 8 byte + 8, scaled by base^(-8 byte)
        part = table[rng.integers(0, 256, size=samples, dtype=np.uint8)]
        part *= 1 / base ** (8 * byte)
        x += part
        del part
    x *= omega
    phases = np.cos(x, out=x)
    estimate = float(phases.mean())
    if samples == 1:
        return ChaosEstimate(estimate, float("inf"))
    std_error = float(phases.std(ddof=1)) / math.sqrt(samples)
    return ChaosEstimate(estimate, std_error)
