"""The canonical spectrum, its digit words, and its strata.

Spectrum points are the finite sums  sum_i b_i * (n/2) * (2n)^i  with bits
b_i in {0, 1}.  A point is held as its digit word (b_0, ..., b_m), stored
low digit first and canonical: empty, or ending in a 1.  The spectrum
splits into the zero point and the strata indexed by the number of leading
zero bits; for n = 2 the stratum of index 0 splits further by the gap
between the first two 1-bits.
"""

from __future__ import annotations

from bernspec.exact import BernoulliParams, QuarterInt

Word = tuple[int, ...]

# classification labels for the finer split of stratum 0 (defined for n = 2)
TILDE_ONE_POINT = "one-point"
TILDE_OTHER = "other"

# Most words, matrix entries or verifier word pairs one truncation may hold.
# A matrix entry takes about 72 bytes, so the largest matrix allowed
# (11 digits) is ~300 MB.
ITEM_BUDGET = 1 << 22


def check_budget(count: int, items: str, max_digits: int) -> None:
    """Raise ValueError, before anything is allocated, when count > ITEM_BUDGET."""
    if count > ITEM_BUDGET:
        raise ValueError(
            f"max_digits {max_digits} needs {count} {items}, over the size "
            f"budget of {ITEM_BUDGET}")


def check_word(word: Word) -> None:
    """Raise ValueError unless the word is canonical: 0/1 bits, empty or ending in 1."""
    if any(bit not in (0, 1) for bit in word) or (word and word[-1] != 1):
        raise ValueError(f"not a canonical digit word: {word!r}")


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


def word_to_bits(word: Word) -> str:
    """Serialize low digit first; the zero word is the empty string."""
    check_word(word)
    return "".join(str(bit) for bit in word)


def parse_word(text: str) -> Word:
    body = text.strip()
    if any(ch not in "01" for ch in body):
        raise ValueError(f"digit words use characters 0/1 only: {text!r}")
    word = tuple(int(ch) for ch in body)
    check_word(word)
    return word


def enumerate_spectrum(
    params: BernoulliParams, max_digits: int, order: str = "value"
) -> list[Word]:
    """All spectrum words of length <= max_digits, in a deterministic order.

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
    check_budget(2**max_digits, "words", max_digits)
    indices = list(range(1 << max_digits))
    if order == "strata":
        # a stable sort on the trailing-zero count, which is -1 for m = 0
        indices.sort(key=lambda m: (m & -m).bit_length() - 1)
    return [tuple((m >> i) & 1 for i in range(m.bit_length())) for m in indices]


def point_numerators(params: BernoulliParams, max_digits: int) -> list[int]:
    """4 * word_value of every word of enumerate_spectrum(params, max_digits).

    In value order, word m + 2^k (m < 2^k) is word m plus the digit
    (n/2)(2n)^k, so the list doubles once per digit and visits no word.
    """
    check_budget(2**max_digits, "words", max_digits)
    numerators = [0]
    power = params.base
    for _ in range(max_digits):
        numerators += [numer + power for numer in numerators]
        power *= params.base
    return numerators


def stratum_index(word: Word) -> int | None:
    """Leading-zero count of a nonzero word; None for the zero word.

    Stratum k collects the points (2n)^k * (n/2 + 2n * gamma) over spectrum
    points gamma, which is exactly the words starting with k zero bits.
    """
    check_word(word)
    if not word:
        return None
    return word.index(1)


def tilde_stratum_index(word: Word, params: BernoulliParams) -> int | str:
    """Classify a stratum-0 word by the gap between its first two 1-bits.

    For n = 2: the word of the point 1 is its own class (TILDE_ONE_POINT);
    a word (1, 0^k, 1, ...) belongs to class k.  For other n no such split
    is defined and every word maps to TILDE_OTHER.  Words outside stratum 0
    are rejected.
    """
    check_word(word)
    if not word or word[0] != 1:
        raise ValueError(f"word is not in stratum 0: {word!r}")
    if params.n != 2:
        return TILDE_OTHER
    if word == (1,):
        return TILDE_ONE_POINT
    return word.index(1, 1) - 1


def scale_value(word: Word, params: BernoulliParams) -> QuarterInt:
    """The spectrum point scaled by p."""
    return params.require_p() * word_value(word, params)
