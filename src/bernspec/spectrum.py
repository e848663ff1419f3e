"""The canonical spectrum, its digit words, and its strata.

Spectrum points are the finite sums  sum_i b_i * (n/2) * (2n)^i  with bits
b_i in {0, 1}.  A point's digit word is held as its index m, the integer
whose binary digits, low digit first, are b_0, b_1, ...: the zero point is
m = 0, and prepending a digit b is m -> 2m + b.  A result object shows a
word as its bit string index_bits(m), canonical like every digit word:
empty, or ending in a 1.  The spectrum splits into the zero point and the
strata indexed by the number of leading zero bits; for n = 2 the stratum of
index 0 splits further by the gap between the first two 1-bits.
"""

from __future__ import annotations

from bernspec.exact import ITEM_BUDGET, BernoulliParams, QuarterInt

Word = tuple[int, ...]  # digit tuple of the names bench/tracing.py still wraps

# the label of the point 1 in the finer split of stratum 0 (defined for n = 2)
TILDE_ONE_POINT = "one-point"


def check_budget(max_digits: int, items: str, per_digit: int = 2) -> None:
    """Raise ValueError, before anything is allocated, when the
    per_digit^max_digits items of a depth are over ITEM_BUDGET.

    Past 64 digits every count is over the budget, so it is named as the
    power and never built.
    """
    if max_digits > 64:
        count = f"{per_digit}^{max_digits}"
    elif per_digit**max_digits > ITEM_BUDGET:
        count = str(per_digit**max_digits)
    else:
        return
    raise ValueError(
        f"max_digits {max_digits} needs {count} {items}, over the size "
        f"budget of {ITEM_BUDGET}")


# kept for word_value, which bench/tracing.py wraps by name
def check_word(word: Word) -> None:
    """Raise ValueError unless the word is canonical: 0/1 bits, empty or ending in 1."""
    if any(bit not in (0, 1) for bit in word) or (word and word[-1] != 1):
        raise ValueError(f"not a canonical digit word: {word!r}")


def check_index(m: int) -> None:
    """Raise TypeError unless m is an int (bool excluded), ValueError if negative."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise TypeError(f"not a word index: {m!r}")
    if m < 0:
        raise ValueError(f"not a word index: {m!r} is negative")


# kept because bench/tracing.py wraps it by name; nothing in bernspec calls it
def word_value(word: Word, params: BernoulliParams) -> QuarterInt:
    """The spectrum point of a digit word: sum_i b_i (n/2) (2n)^i."""
    check_word(word)
    base = params.base
    numer = 0
    power = base  # 4 * (n/2) * (2n)^i = (2n)^(i+1)
    for bit in word:
        if bit:
            numer += power
        power *= base
    return QuarterInt(numer)


def word_indices(max_digits: int, order: str = "value") -> list[int]:
    """The indices m < 2^max_digits of all words of length <= max_digits.

    Word m holds the binary digits of m, and with 0/1 digits the top
    differing digit decides, so counting order is value order in every base
    2n: depth d is the first 2^d words of any deeper truncation.  Order
    "value" is that order; order "strata" puts the zero word first, then
    each stratum in increasing index, value-sorted inside.
    """
    if max_digits < 0:
        raise ValueError("max_digits must be >= 0")
    if order not in ("value", "strata"):
        raise ValueError(f"unknown order {order!r}")
    check_budget(max_digits, "words")
    indices = list(range(1 << max_digits))
    if order == "strata":
        indices.sort(key=index_stratum)  # stable, and -1 for m = 0
    return indices


# kept because bench/tracing.py wraps it by name; nothing in bernspec calls it
def enumerate_spectrum(params: BernoulliParams, max_digits: int,
                       order: str = "value") -> list[Word]:
    """All spectrum words of length <= max_digits: the tuples of word_indices.

    As in point_numerators, the list doubles once per digit: word m + 2^k
    (m < 2^k) is word m padded with zeros to k digits, then the digit 1.
    """
    indices = word_indices(max_digits, order)
    words: list[Word] = [()]
    for k in range(max_digits):
        # pads[j] takes a word of k - j digits to word m + 2^k
        pads = [(0,) * j + (1,) for j in range(k + 1)]
        words += [w + pads[k - len(w)] for w in words]
    return words if order == "value" else [words[m] for m in indices]


def index_stratum(m: int) -> int:
    """The stratum of word m: its leading zero digits, the trailing zeros of
    m; -1 for the zero word."""
    return (m & -m).bit_length() - 1


def index_bits(m: int) -> str:
    """The bit string of word m: its binary digits, low digit first; the
    zero word is the empty string."""
    return f"{m:b}"[::-1] if m else ""


# kept for TruncatedMatrix.words, which bench/tracing.py reads
def index_word(m: int) -> Word:
    """The digit tuple of word m."""
    return tuple((m >> i) & 1 for i in range(m.bit_length()))


def point_numerators(params: BernoulliParams, max_digits: int) -> list[int]:
    """4 * gamma for the point gamma of word m, for every m < 2^max_digits.

    In value order, word m + 2^k (m < 2^k) is word m plus the digit
    (n/2)(2n)^k, so the list doubles once per digit and visits no word.
    """
    if max_digits < 0:
        raise ValueError("max_digits must be >= 0")
    check_budget(max_digits, "words")
    numerators = [0]
    power = params.base
    for _ in range(max_digits):
        numerators += [numer + power for numer in numerators]
        power *= params.base
    return numerators
