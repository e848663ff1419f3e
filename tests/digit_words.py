"""Digit-tuple references the tests compare the index code against.

bernspec holds word m as its index, the binary digits of m low digit first,
and shows it as the bit string index_bits(m).  These references read a word
as its digit tuple (b_0, b_1, ...), the way the paper writes it; index_word
turns an index into that tuple.
"""

from __future__ import annotations

from bernspec.exact import BernoulliParams, QuarterInt
from bernspec.spectrum import TILDE_ONE_POINT, Word, check_word, word_value


def bits(word: Word) -> str:
    """The bit string of a digit tuple, low digit first."""
    check_word(word)
    return "".join(map(str, word))


def word(text: str) -> Word:
    """The digit tuple of a bit string, checked canonical."""
    digits = tuple(map(int, text))
    check_word(digits)
    return digits


def stratum(word: Word) -> int | None:
    """Leading-zero count of a nonzero word; None for the zero word.

    Stratum k collects the points (2n)^k * (n/2 + 2n * gamma), which is
    exactly the words starting with k zero bits.
    """
    check_word(word)
    return word.index(1) if word else None


def gap_class(word: Word) -> int | str:
    """The class of a stratum-0 word for n = 2: the gap between its first
    two 1-bits, so (1, 0^k, 1, ...) is class k; the point 1 is its own class.
    """
    check_word(word)
    assert word and word[0] == 1, word
    return TILDE_ONE_POINT if word == (1,) else word.index(1, 1) - 1


def scale_minus(row: Word, col: Word, params: BernoulliParams) -> QuarterInt:
    """The argument p*col - row of the operator matrix entry at (row, col)."""
    return params.require_p() * word_value(col, params) - word_value(row, params)
