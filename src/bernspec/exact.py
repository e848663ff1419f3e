"""Exact zero-set arithmetic and certified transform evaluation.

The measure with contraction ratio 1/(2n) has Fourier transform

    mu_hat(t) = prod_{k >= 1} cos(2 pi t / (2n)^k),

which vanishes exactly at the points (2n)^k * (odd integer) / 4, k >= 1.
All structural questions (membership, argument reduction, factor signs)
are decided on quarter-integers in plain integer arithmetic; floats enter
only through cosine factors that carry a certified absolute error bound.
Every argument, a quarter-integer, a fraction or a float, is evaluated
through its exact ratio numerator/denominator, so one factor walk serves
them all.  mu_hat_differences takes the transform at t - scale * gamma over
a whole spectrum truncation along the digit tree of the Cuntz isometries:
one cosine per tree node, and one walk per point for the factors below it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
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

# Most items one request may hold: spectrum words, matrix entries, verifier
# word pairs, chaos samples or product factors.  A built matrix keeps about
# 10 bytes per entry (a reference to a value shared by every entry with the
# same reduced argument), and its int64 argument arrays peak near 50 bytes
# per entry, ~210 MB at the budget (11 digits); a chaos run at the budget
# holds two arrays of 32 MB.
ITEM_BUDGET = 1 << 22


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


def reduce_arguments(numers: np.ndarray,
                     params: BernoulliParams) -> tuple[np.ndarray, np.ndarray]:
    """reduce_argument over an array of quarter-integer numerators.

    Returns (signs, reduced): int8 signs in {-1, 0, +1} and the reduced
    numerators, each the pair reduce_argument gives for its element.  The
    steps are the scalar ones, the same floor // and % and residue rule,
    applied to the elements still divisible by 2n.  The numerators only
    shrink, so an int64 array cannot overflow here; numerators past the
    int64 range go in an object array of Python ints, which runs the same
    code.
    """
    base = params.base
    reduced = np.array(numers)
    signs = np.ones(reduced.shape, dtype=np.int8)
    flat, flat_signs = reduced.reshape(-1), signs.reshape(-1)
    active = np.flatnonzero((flat != 0) & (flat % base == 0))
    while active.size:
        numer = flat[active] // base
        flat[active] = numer
        residue = numer % 4
        flat_signs[active[residue == 2]] *= -1
        flat_signs[active[residue % 2 == 1]] = 0
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
    # base^(-2 terms).  math.log takes any int, so a numerator past the
    # float range is never converted.
    return (
        math.log(2.0)
        + 2.0 * math.log(math.pi)
        + 2.0 * (math.log(abs(numer)) - math.log(denom))
        - math.log(float(base * base - 1))
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
                      + err * min(1.0, abs(value) + value_err))


def _tail_bound(log_tail: float, base: int, terms: int) -> float:
    # Bound on |1 - prod_{k > terms} cos(2 pi x / base^k)|.  With
    # a_k = (2 pi x)^2 / (2 base^(2k)) the dropped factors lie in
    # [1 - a_k, 1], and 1 - prod(1 - a_k) <= sum a_k = S whenever S < 1.
    # Worked in the log domain so huge |x| cannot overflow.
    log_s = log_tail - 2.0 * terms * math.log(float(base))
    if log_s >= 0.0:
        return 2.0
    return min(2.0, math.exp(log_s) * (1.0 + 1e-9))


def _product(numer: int, denom: int, base: int, terms: int,
             log_tail: float) -> tuple[float, float] | None:
    # The certified walk: prod_{k=1..terms} cos(2 pi x / base^k) at
    # x = numer/denom != 0 and a bound that covers the rounding AND the
    # dropped tail; None when a factor is exactly zero.  log_tail is
    # _log_tail(numer, denom, base).
    #
    # Factor k is cos(pi r_k) with r_k = s_k mod 2 and s_k = 2|x| / base^k.
    # While s_k >= 1, r_k is reduced exactly as an integer ratio, so grid
    # values (0, +-1 and the zeros) are decided on integers and only one
    # rounded division reaches the cosine.  Once s_k < 1 is off the grid, no
    # later s_j = s_k / base^(j-k) wraps or lands on the grid (they lie in
    # (0, 1/2)), so the walk goes on in floats from half an ulp of argument
    # error: division is exact when 2n is a power of two, else costs half
    # an ulp per step.  |mu_hat| <= 1, so 1 + |prod| is always honest; it
    # caps the bound of a product too short for its argument.
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
            return None
        prod, err = _times(prod, err, *factor)
        k += 1
    if k < terms:
        cos, pi = math.cos, math.pi
        exact_division = base & (base - 1) == 0
        y = twice / den
        y_err = 0.5 * _EPS * y
        for _ in range(k, terms):
            # _times and the first branch of _cospi_reduced, inlined: this
            # loop is the hot path, and y < 1/4 from its second factor on
            value = cos(pi * y) if y <= 0.25 else _cospi_reduced(y)
            factor_err = pi * y_err + _COSPI_SLOP
            new_prod = prod * value
            growth = abs(value) + factor_err
            err = (0.5 * _EPS * abs(new_prod) + abs(prod) * factor_err
                   + err * (growth if growth < 1.0 else 1.0))
            prod = new_prod
            y /= base
            y_err /= base
            if not exact_division:
                y_err += 0.5 * _EPS * y
    bound = err + (abs(prod) + err) * _tail_bound(log_tail, base, terms)
    return prod, min(bound, 1.0 + abs(prod))


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
    must lie in 1..ITEM_BUDGET.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if terms > ITEM_BUDGET:
        raise ValueError(
            f"terms {terms} is over the size budget of {ITEM_BUDGET}")
    numer, denom = _ratio(t)
    if numer == 0:
        return MuHatValue(False, 1, 1.0, 0.0)
    result = _product(numer, denom, params.base, terms,
                      _log_tail(numer, denom, params.base))
    if result is None:
        return MuHatValue.zero()
    prod, bound = result
    return MuHatValue(False, -1 if prod < 0.0 else 1, abs(prod), bound)


def _terms_for(log_tail: float, base: int, tol: float) -> int:
    # smallest truncation depth putting the geometric tail under tol/2
    k = (log_tail - math.log(tol / 2.0)) / (2.0 * math.log(float(base)))
    return max(4, math.ceil(k) + 2)


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def mu_hat(t: QuarterInt | Fraction | float, params: BernoulliParams,
           tol: float = DEFAULT_TOL) -> MuHatValue:
    """Certified transform value at a quarter-integer or a real point.

    A quarter-integer, and a fraction or float whose exact value is one
    (every float of magnitude 2^50 or more, and decimals such as 2.5), is
    decided in integers: a zero-set member returns an exact zero, and any
    other point is fully reduced before its product.  The truncated product
    is then evaluated with enough terms to put the truncation part of the
    bound below tol, which must be finite and positive.  The reported
    error_bound is the honest total (truncation plus rounding), so it can
    exceed an extremely small tol; it is never understated.
    """
    _check_tol(tol)
    numer, denom = _ratio(t)
    sign = 1
    if 4 % denom == 0:
        sign, t = reduce_argument(QuarterInt(numer * (4 // denom)), params)
        if sign == 0:
            return MuHatValue.zero()
        numer, denom = t.numerator, 4
    if numer == 0:
        return MuHatValue(False, 1, 1.0, 0.0)
    terms = _terms_for(_log_tail(numer, denom, params.base), params.base, tol)
    result = mu_hat_product(t, params, terms)
    if not result.exact_zero and result.error_bound > tol:
        result = mu_hat_product(t, params, 2 * terms)
    if result.exact_zero:
        return result
    return MuHatValue(False, sign * result.sign, result.magnitude, result.error_bound)


def _tail(numer: int, denom: int, base: int,
          tol: float) -> tuple[float, float] | None:
    # mu_hat at numer/denom without its integer reduction or its tracing:
    # the walk sized for tol and retried at twice the length when its bound
    # misses tol.  It is sized for min(tol, 1), which costs nothing a tol
    # above 1 could ask for and keeps every zero factor inside the walk (a
    # zero at factor j needs |x| >= base^j / 4).
    if numer == 0:
        return 1.0, 0.0
    log_tail = _log_tail(numer, denom, base)
    terms = _terms_for(log_tail, base, min(tol, 1.0))
    result = _product(numer, denom, base, terms, log_tail)
    if result is not None and result[1] > tol:
        result = _product(numer, denom, base, 2 * terms, log_tail)
    return result


def mu_hat_differences(
    t: QuarterInt | Fraction | float,
    params: BernoulliParams,
    points: list[int],
    scale: int = 1,
    tol: float = DEFAULT_TOL,
) -> Iterator[MuHatValue]:
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
    depend on d.  Values come out in counting order, one tree level at a
    time, each within its certified error_bound; a zero factor, at a node
    or in a tail, gives an exact zero.
    """
    _check_tol(tol)
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

    def child(parent: tuple[float, float] | None, r: int,
              den: int) -> tuple[float, float] | None:
        # node (k, r) from its parent (k - 1, r mod 2^(k-1)); den is
        # denom (2n)^k, and None marks an exact zero
        if parent is None:
            return None
        factor = _cospi_ratio(
            2 * abs(numer - step * points[r]) % (2 * den), den)
        return None if factor is None else _times(*parent, *factor)

    def word(m: int, node: tuple[float, float] | None, den: int) -> MuHatValue:
        tail = None if node is None else _tail(
            numer - step * points[m], den, base, tol)
        if tail is None:
            return MuHatValue.zero()
        prod, err = _times(*node, *tail)
        if odd and (m >> 1).bit_count() % 2 == 1:
            prod = -prod
        return MuHatValue(False, -1 if prod < 0.0 else 1, abs(prod),
                          min(err, 1.0 + abs(prod)))

    nodes: list[tuple[float, float] | None] = [(1.0, 0.0)]
    yield word(0, nodes[0], denom)
    den = denom
    for length in range(1, depth + 1):
        den *= base
        half = len(nodes)
        deeper = length < depth
        # the words of this length are the upper half of the level
        for r in range(half):
            node = child(nodes[r], half + r, den)
            yield word(half + r, node, den)
            if deeper:
                nodes.append(node)
        # the lower half only serves longer words; it replaces its parents
        if deeper:
            for r in range(half):
                nodes[r] = child(nodes[r], r, den)


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
    mean; a single sample reports an infinite std_error.  The phase
    frequency 2 pi t must be a finite float, and samples must lie in
    1..ITEM_BUDGET.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > ITEM_BUDGET:
        raise ValueError(
            f"samples {samples} is over the size budget of {ITEM_BUDGET}")
    try:
        omega = 2.0 * math.pi * float(t)
    except OverflowError:
        omega = math.inf
    if not math.isfinite(omega):
        raise ValueError(f"2 pi t must be a finite float, got t = {t}")
    base = params.base
    depth = math.ceil(53.0 * math.log(2.0) / math.log(base)) + 1
    rng = np.random.default_rng(seed)
    x = np.zeros(samples)
    scale = 1.0
    for _ in range(depth):
        scale /= base
        x += scale * (2.0 * rng.integers(0, 2, size=samples) - 1.0)
    phases = np.cos(omega * x)
    estimate = float(phases.mean())
    if samples == 1:
        return ChaosEstimate(estimate, float("inf"))
    std_error = float(phases.std(ddof=1)) / math.sqrt(samples)
    return ChaosEstimate(estimate, std_error)
