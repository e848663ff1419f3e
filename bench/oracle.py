"""Independent reference arithmetic for checking bernspec outputs.

Nothing here imports bernspec.  Zero-set membership is tested straight from
its definition, spectrum points are summed from their digits, and transform
values come from a high-precision product built with `decimal` and
`fractions`, with each cosine argument reduced exactly as a rational number.
"""

from __future__ import annotations

from decimal import Context, Decimal, localcontext
from fractions import Fraction

PRECISION = 60  # significant digits of the reference product
_CONTEXT = Context(prec=PRECISION)
_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)
# Once |2x / (2n)^k| drops below this, every later factor is 1 to within
# pi^2 * 1e-60, far below any bound the program reports.
_NEGLIGIBLE = Fraction(1, 10**30)


def _compute_pi() -> Decimal:
    # the pi() recipe from the decimal module documentation
    with localcontext(Context(prec=PRECISION + 5)):
        three = Decimal(3)
        lasts, t, s, n, na, d, da = 0, three, 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    with localcontext(_CONTEXT):
        return +s


PI = _compute_pi()


def in_zero_set(numerator: int, n: int) -> bool:
    """Whether t = numerator/4 is a zero: 4t = (2n)^k (2m + 1) with k >= 1."""
    base = 2 * n
    rest = abs(numerator)
    power = base
    while power <= rest:
        quotient, remainder = divmod(rest, power)
        if remainder:
            return False
        if quotient % 2 == 1:
            return True
        power *= base
    return False


def point_numerator(bits: str, n: int) -> int:
    """4 * the spectrum point of a digit word written low digit first."""
    base = 2 * n
    return sum(base ** (i + 1) for i, bit in enumerate(bits) if bit == "1")


def words(max_digits: int) -> list[str]:
    """Every canonical digit word (empty or ending in 1) of length <= max_digits."""
    out = [""]
    for length in range(1, max_digits + 1):
        for mask in range(1 << (length - 1)):
            out.append("".join(str((mask >> i) & 1) for i in range(length - 1)) + "1")
    return out


def leading_zeros(bits: str) -> int | None:
    """Stratum of a word: its leading-zero count, None for the zero word."""
    return bits.index("1") if bits else None


def strata_order(all_words: list[str], n: int) -> list[str]:
    """Zero word first, then each stratum in increasing index, by value inside."""
    return sorted(all_words, key=lambda w: (
        -1 if not w else leading_zeros(w), point_numerator(w, n)))


def frequency(text: str) -> Fraction:
    """The exact frequency the command line reads from text.

    "a", "a/2" and "a/4" are exact quarter-integers; anything else is the
    binary float that float(text) gives.
    """
    body = text.strip()
    try:
        if "/" in body:
            num, den = body.split("/", 1)
            if int(den) in (1, 2, 4):
                return Fraction(int(num), int(den))
        else:
            return Fraction(int(body))
    except ValueError:
        pass
    return Fraction(float(body))


def _to_decimal(value: Fraction) -> Decimal:
    return Decimal(value.numerator) / Decimal(value.denominator)


def _cos_series(x: Decimal) -> Decimal:
    total = term = Decimal(1)
    x2 = x * x
    tiny = Decimal(10) ** -(PRECISION + 2)
    i = 0
    while abs(term) > tiny:
        i += 2
        term = -term * x2 / (i * (i - 1))
        total += term
    return total


def _sin_series(x: Decimal) -> Decimal:
    total = term = x
    x2 = x * x
    tiny = abs(x) * Decimal(10) ** -(PRECISION + 2)
    i = 1
    while abs(term) > tiny:
        i += 2
        term = -term * x2 / (i * (i - 1))
        total += term
    return total


def cospi(r: Fraction) -> Decimal:
    """cos(pi r), folded exactly onto [0, 1/4] so the series stays accurate."""
    r %= 2
    if r > 1:
        r = 2 - r
    sign = 1
    if r > _HALF:
        r, sign = 1 - r, -1
    if r == _HALF:
        return Decimal(0)
    if r <= _QUARTER:
        value = _cos_series(PI * _to_decimal(r))
    else:
        value = _sin_series(PI * _to_decimal(_HALF - r))
    return value if sign > 0 else -value


def transform(x: Fraction, n: int) -> Decimal:
    """mu_hat(x) = prod_{k >= 1} cos(2 pi x / (2n)^k) to about PRECISION digits."""
    base = 2 * n
    with localcontext(_CONTEXT):
        product = Decimal(1)
        r = 2 * x  # factor k is cos(pi r_k) with r_k = 2x / (2n)^k
        while True:
            r /= base
            if abs(r) < _NEGLIGIBLE:
                return product
            factor = cospi(r)
            if not factor:
                return Decimal(0)
            product *= factor


def square(x: Decimal) -> Decimal:
    with localcontext(_CONTEXT):
        return x * x


def certified_problem(sign: int, magnitude: float, bound: float,
                      reference: Decimal) -> str | None:
    """Why sign * magnitude +- bound fails to hold the reference, or None."""
    with localcontext(_CONTEXT):
        value = Decimal(sign) * Decimal(magnitude)
        error = abs(value - reference)
        # the reference itself is good to ~1e-55 relative
        if error > Decimal(bound) + abs(reference) * Decimal("1e-50"):
            return (f"|value - reference| = {float(error):.3e} exceeds "
                    f"error_bound {bound!r}")
        if abs(reference) > Decimal(bound) and (reference > 0) != (sign > 0):
            return f"sign {sign} disagrees with reference {float(reference):.6e}"
    return None
