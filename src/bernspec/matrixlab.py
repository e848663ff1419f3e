"""Finite truncations of the scaled operator's matrix, and structure checks.

Rows and columns are indexed by spectrum words; the entry at (row, col) is
the transform evaluated at p*col - row.  Ordering the words by strata makes
the matrix block diagonal, each stratum block a shifted copy of the
stratum-0 block; every structural statement here is verified either purely
in integer arithmetic (zero-set membership, argument reduction) or with
certified numerics.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path
from typing import Iterator

import numpy as np

from bernspec.exact import (
    DEFAULT_TOL,
    BernoulliParams,
    MuHatValue,
    QuarterInt,
    in_zero_set,
    mu_hat,
    reduce_argument,
    reduce_arguments,
)
from bernspec.report import CheckReport
from bernspec.spectrum import (
    TILDE_ONE_POINT,
    Word,
    check_budget,
    enumerate_spectrum,
    stratum_index,
    tilde_stratum_index,
    word_to_bits,
    word_value,
)


def scale_minus(row: Word, col: Word, params: BernoulliParams) -> QuarterInt:
    """The argument p*col - row of the matrix entry at (row, col)."""
    return params.require_p() * word_value(col, params) - word_value(row, params)


@dataclass
class TruncatedMatrix:
    """The operator matrix over all words of length at most max_digits."""

    params: BernoulliParams
    max_digits: int
    order: str
    words: list[Word]
    entries: list[list[MuHatValue]]

    @classmethod
    def build(
        cls,
        params: BernoulliParams,
        max_digits: int,
        tol: float = DEFAULT_TOL,
        order: str = "strata",
    ) -> TruncatedMatrix:
        """Every entry mu_hat(p*col - row), one certified value per |reduced|.

        One reduce_arguments call takes the whole argument grid to its exact
        (sign, reduced) pairs; mu_hat(t) = sign * mu_hat(reduced) and the
        certified walk sees only |reduced|, so mu_hat runs once per distinct
        |reduced| and each entry is that value with the exact sign, equal to
        the scalar mu_hat at its argument.  Entries of one value share one
        object, every exact zero one MuHatValue.zero().
        """
        p = params.require_p()
        check_budget(4**max_digits, "matrix entries", max_digits)
        words = enumerate_spectrum(params, max_digits, order=order)
        numers = [word_value(w, params).numerator for w in words]
        # |p*col - row| <= (p + 1) * max numerator; past int64, Python ints
        dtype = np.int64 if (p + 1) * max(numers) < 2**62 else object
        values = np.array(numers, dtype=dtype)
        signs, reduced = reduce_arguments(p * values - values[:, None], params)
        live = signs != 0
        keys, index = np.unique(np.abs(reduced[live]), return_inverse=True)
        certified = [mu_hat(QuarterInt(int(key)), params, tol) for key in keys]
        negated = [replace(v, sign=-v.sign) for v in certified]
        # codes index [certified..., negated..., zero]
        shared = np.array(certified + negated + [MuHatValue.zero()], dtype=object)
        codes = np.full(signs.shape, len(shared) - 1)
        codes[live] = index + len(keys) * (signs[live] < 0)
        return cls(params, max_digits, order, words, shared[codes].tolist())

    def zero_mask(self) -> list[list[bool]]:
        return [[e.exact_zero for e in row] for row in self.entries]

    def _stratum_keys(self) -> list[str]:
        return ["zero-point" if not w else str(stratum_index(w)) for w in self.words]

    # -- serialization ----------------------------------------------------

    def _csv_rows(self) -> Iterator[str]:
        # the header, then one chunk of lines per matrix row; each distinct
        # value object is formatted once
        yield "row_word,col_word,exact_zero,sign,magnitude,error_bound\n"
        bits = [word_to_bits(w) for w in self.words]
        cols = [f",{col}," for col in bits]
        fields: dict[int, str] = {}
        for row, entries in zip(bits, self.entries):
            parts = []
            for col, e in zip(cols, entries):
                text = fields.get(id(e))
                if text is None:
                    sign = 0 if e.exact_zero else e.sign
                    text = fields[id(e)] = (f"{int(e.exact_zero)},{sign},"
                                            f"{e.magnitude!r},{e.error_bound!r}\n")
                parts += (row, col, text)
            yield "".join(parts)

    def to_csv_text(self) -> str:
        return "".join(self._csv_rows())

    def to_json_obj(self) -> dict:
        keys = self._stratum_keys()
        strata = {key: keys.count(key) for key in dict.fromkeys(keys)}
        nonzero = Counter((rk, ck) for rk, entries in zip(keys, self.entries)
                          for ck, e in zip(keys, entries) if not e.exact_zero)
        return {
            "n": self.params.n,
            "p": self.params.p,
            "max_digits": self.max_digits,
            "order": self.order,
            "size": len(self.words),
            "strata": strata,
            "blocks": [
                {
                    "row_stratum": rk,
                    "col_stratum": ck,
                    "entries": strata[rk] * strata[ck],
                    "nonzero": nonzero[rk, ck],
                }
                for rk, ck in sorted(product(strata, strata))
            ],
        }

    def to_pgm_bytes(self) -> bytes:
        # binary PGM: exact zeros black (0), everything else white (255)
        size = len(self.words)
        header = f"P5\n{size} {size}\n255\n".encode("ascii")
        pixels = bytearray()
        for row in self.entries:
            pixels.extend(0 if e.exact_zero else 255 for e in row)
        return header + bytes(pixels)

    def to_svg_text(self) -> str:
        cell = 12
        size = len(self.words) * cell
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{size}" viewBox="0 0 {size} {size}">',
            f'<rect width="{size}" height="{size}" fill="white"/>',
        ]
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                if not e.exact_zero:
                    parts.append(
                        f'<rect x="{j * cell}" y="{i * cell}" width="{cell}" '
                        f'height="{cell}" fill="#1f3b73"/>'
                    )
        # stratum separators, visible when the words are in strata order
        keys = self._stratum_keys()
        boundaries = [k for k in range(1, len(keys)) if keys[k] != keys[k - 1]]
        for b in boundaries:
            pos = b * cell
            parts.append(
                f'<line x1="{pos}" y1="0" x2="{pos}" y2="{size}" '
                f'stroke="#c0392b" stroke-width="1"/>'
            )
            parts.append(
                f'<line x1="0" y1="{pos}" x2="{size}" y2="{pos}" '
                f'stroke="#c0392b" stroke-width="1"/>'
            )
        parts.append(
            f'<rect width="{size}" height="{size}" fill="none" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    def write_csv(self, path: str | Path) -> None:
        # streamed row by row, so the text of the whole matrix is never held
        with open(path, "w") as out:
            out.writelines(self._csv_rows())

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json_text())

    def write_pgm(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_pgm_bytes())

    def write_svg(self, path: str | Path) -> None:
        Path(path).write_text(self.to_svg_text())


# ---------------------------------------------------------------------------
# structure verifiers


def _at(where: tuple[str, Word, str, Word]) -> str:
    first, first_word, second, second_word = where
    return (f"{first} {word_to_bits(first_word)!r}, "
            f"{second} {word_to_bits(second_word)!r}")


def _check_pair(report: CheckReport, params: BernoulliParams, got: QuarterInt,
                want: QuarterInt | None, failure: str,
                where: tuple[str, Word, str, Word], flip: bool = False) -> bool:
    """Count one exact check that got and want reduce to the same pair.

    The pairs are reduce_argument's (sign, reduced); flip negates want's
    sign first.  want None demands instead that got lies in the zero set.
    A failure is reported as "<failure> at <label> <word>, <label> <word>".
    """
    report.checked += 1
    if want is None:
        holds = in_zero_set(got, params)
    else:
        sign, reduced = reduce_argument(want, params)
        holds = reduce_argument(got, params) == (-sign if flip else sign, reduced)
    if not holds:
        report.add(f"{failure} at {_at(where)}")
    return holds


def verify_block_diagonal(params: BernoulliParams, max_digits: int) -> CheckReport:
    """Entries across distinct strata vanish exactly, zero row/column included.

    Decided entirely by the zero-set predicate: for any odd p, the argument
    p*col - row of a cross-stratum pair lands in the zero set.
    """
    report = CheckReport(
        f"block-diagonal(n={params.n}, p={params.require_p()}, "
        f"digits<={max_digits})")
    check_budget(4**max_digits, "word pairs", max_digits)
    words = [(w, word_value(w, params), stratum_index(w))
             for w in enumerate_spectrum(params, max_digits)]
    p = params.require_p()
    for col, col_value, col_stratum in words:
        scaled = p * col_value
        for row, row_value, row_stratum in words:
            if row_stratum != col_stratum:
                _check_pair(report, params, scaled - row_value, None,
                            "nonzero entry off the block diagonal",
                            ("row", row, "col", col))
    return report


def verify_block_equality(
    params: BernoulliParams, max_digits: int, k_max: int
) -> CheckReport:
    """Each stratum-k block reduces entrywise like the stratum-0 block.

    Entry arguments of the shifted block are (2n)^k times those of the
    stratum-0 block; the check demands identical (sign, reduced argument)
    pairs, which forces equal transform values exactly.
    """
    report = CheckReport(
        f"block-equality(n={params.n}, p={params.require_p()}, "
        f"digits<={max_digits}, k<={k_max})")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    check_budget(4**max_digits, "word pairs", max_digits)
    p = params.require_p()
    stratum0 = [(w, word_value(w, params))
                for w in enumerate_spectrum(params, max_digits) if w and w[0] == 1]
    for k in range(1, k_max + 1):
        shared = [(w, value, word_value((0,) * k + w, params))
                  for w, value in stratum0 if len(w) + k <= max_digits]
        failure = f"stratum-{k} entry differs from stratum-0"
        for col, col_value, col_shifted in shared:
            scaled, scaled_shifted = p * col_value, p * col_shifted
            for row, row_value, row_shifted in shared:
                _check_pair(report, params, scaled_shifted - row_shifted,
                            scaled - row_value, failure, ("row", row, "col", col))
    return report


def verify_commutation_even(params: BernoulliParams, max_digits: int) -> CheckReport:
    """For even n the scaled operator commutes with the bit-0 isometry.

    Checked entrywise on the truncation: matching coefficients reduce to
    identical (sign, argument) pairs, and the coefficients that the
    commuted side would need outside the bit-0 range vanish exactly.
    """
    if params.n % 2 != 0:
        raise ValueError("even-n commutation needs even n")
    report = CheckReport(
        f"commute-even(n={params.n}, p={params.require_p()}, "
        f"digits<={max_digits})")
    check_budget(4**max_digits, "word pairs", max_digits)
    p = params.require_p()
    base = params.base
    inner = [(w, word_value(w, params))
             for w in enumerate_spectrum(params, max(0, max_digits - 1))]
    odd_range = [(w, word_value(w, params))
                 for w in enumerate_spectrum(params, max_digits) if w and w[0] == 1]
    for g, gv in inner:
        scaled, shifted = p * gv, base * p * gv
        for x, xv in inner:
            _check_pair(report, params, shifted - base * xv, scaled - xv,
                        "coefficient mismatch", ("gamma", g, "xi", x))
        # coefficients at odd-range words must vanish for the sides to agree
        for eta, ev in odd_range:
            _check_pair(report, params, shifted - ev, None,
                        "leaked coefficient", ("gamma", g, "eta", eta))
    return report


def verify_odd_twisted_relations(
    params: BernoulliParams, max_digits: int
) -> CheckReport:
    """For odd n the operator and the bit-0 isometry commute up to signs.

    Splitting by the second bit, the doubly-even coefficients keep their
    sign and the mixed ones flip when the column word starts with 0; the
    roles swap when it starts with 1.  Each claimed sign relation is
    checked as an exact (sign, reduced argument) identity.
    """
    if params.n % 2 == 0:
        raise ValueError("twisted relations need odd n")
    report = CheckReport(
        f"commute-odd(n={params.n}, p={params.require_p()}, "
        f"digits<={max_digits})")
    check_budget(4**max_digits, "word pairs", max_digits)
    p = params.require_p()
    base, half = params.base, params.half_n
    words = [(w, word_value(w, params)) for w in enumerate_spectrum(params, max_digits)]
    for g, gv in words:
        keeps_sign_on_even = (not g) or g[0] == 0
        scaled, shifted = p * gv, base * p * gv
        for x, xv in words:
            where = ("gamma", g, "xi", x)
            even = base * xv
            _check_pair(report, params,
                        shifted - base * even, scaled - even,
                        "even-range sign relation fails", where,
                        flip=not keeps_sign_on_even)
            _check_pair(report, params,
                        shifted - base * (half + even), scaled - half - even,
                        "mixed-range sign relation fails", where,
                        flip=keeps_sign_on_even)
    return report


def verify_multiplication_identity(
    max_digits: int, tol: float = 1e-6
) -> CheckReport:
    """Stratum-0 entries equal the transform at 1 + 5*gamma - xi (n=2, p=5).

    With stratum-0 words written as a leading 1 over inner words gamma, xi,
    the entry argument 5*col - row is exactly 4*(1 + 5*gamma - xi), so both
    sides must have identical reductions; matched nonzero entries are also
    compared numerically within tol.
    """
    params = BernoulliParams(2, 5)
    report = CheckReport(f"multiplication(n=2, p=5, digits<={max_digits})")
    if max_digits < 1:
        raise ValueError("max_digits must be >= 1")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    check_budget(4**max_digits, "word pairs", max_digits)
    one = QuarterInt.from_int(1)
    words = [((1,) + w, word_value(w, params), word_value((1,) + w, params))
             for w in enumerate_spectrum(params, max_digits - 1)]
    for col, gv, col_value in words:
        shifted, scaled = one + 5 * gv, 5 * col_value
        for row, xv, row_value in words:
            where = ("row", row, "col", col)
            entry_arg = scaled - row_value
            identity_arg = shifted - xv
            if not _check_pair(report, params, entry_arg, identity_arg,
                               "reductions differ", where):
                continue
            lhs = mu_hat(entry_arg, params)
            rhs = mu_hat(identity_arg, params)
            if lhs.exact_zero != rhs.exact_zero:
                report.add(f"zero flags differ at {_at(where)}")
            elif abs(lhs.value - rhs.value) > tol:
                report.add(f"values differ beyond {tol} at {_at(where)}")
    return report


# ---------------------------------------------------------------------------
# sparsity of the stratum-0 block (n = 2, p = 5)


@dataclass
class BlockStatus:
    """Predicate-level census of one sub-block of the stratum-0 matrix."""

    row_class: int | str
    col_class: int | str
    expected_zero: bool
    rows: int
    cols: int
    nonzero_count: int
    witness: tuple[Word, Word] | None
    exact_one: tuple[Word, Word] | None

    def to_json_obj(self) -> dict:
        def encode(pair):
            if pair is None:
                return None
            return [word_to_bits(pair[0]), word_to_bits(pair[1])]

        return {
            "row_class": str(self.row_class),
            "col_class": str(self.col_class),
            "expected_zero": self.expected_zero,
            "rows": self.rows,
            "cols": self.cols,
            "nonzero_count": self.nonzero_count,
            "witness": encode(self.witness),
            "exact_one": encode(self.exact_one),
        }


@dataclass
class SparsityReport:
    max_digits: int
    tilde_max: int | None
    blocks: list[BlockStatus]
    check: CheckReport

    @property
    def passed(self) -> bool:
        return self.check.passed

    def star_blocks(self) -> list[BlockStatus]:
        return [b for b in self.blocks if not b.expected_zero]

    @property
    def all_star_blocks_witnessed(self) -> bool:
        return all(b.witness is not None for b in self.star_blocks())


def _expected_zero(row_class: int | str, col_class: int | str) -> bool:
    # the only not-necessarily-zero blocks pair class 0 with a different class
    return (row_class == 0) == (col_class == 0)


def analyze_w0_sparsity(
    max_digits: int, tilde_max: int | None = None
) -> SparsityReport:
    """Census of the stratum-0 block of the n=2, p=5 operator matrix.

    Splits the stratum-0 words by the gap classification, counts
    predicate-level nonzero entries per sub-block, verifies that every
    block expected to vanish does, and records a nonzero witness plus any
    exactly-1 entry (argument 0) for the rest.  tilde_max limits the gap
    classes analyzed; the one-point class is always kept.
    """
    if tilde_max is not None and tilde_max < 0:
        raise ValueError(f"tilde_max must be >= 0, got {tilde_max!r}")
    params = BernoulliParams(2, 5)
    check = CheckReport(
        f"w0-sparsity(digits<={max_digits}"
        + (f", classes<={tilde_max}" if tilde_max is not None else "")
        + ")")
    check_budget(4**max_digits, "word pairs", max_digits)
    classes: dict[int | str, list[tuple[Word, QuarterInt]]] = {}
    for w in enumerate_spectrum(params, max_digits):
        if not w or w[0] != 1:
            continue
        label = tilde_stratum_index(w, params)
        if tilde_max is not None and isinstance(label, int) and label > tilde_max:
            continue
        classes.setdefault(label, []).append((w, word_value(w, params)))
    ordered = sorted(classes, key=lambda c: -1 if c == TILDE_ONE_POINT else c)
    blocks = []
    for row_class in ordered:
        for col_class in ordered:
            rows = classes[row_class]
            cols = classes[col_class]
            expected_zero = _expected_zero(row_class, col_class)
            nonzero = 0
            witness = None
            exact_one = None
            for col, col_value in cols:
                scaled = 5 * col_value
                for row, row_value in rows:
                    check.checked += 1
                    argument = scaled - row_value
                    if in_zero_set(argument, params):
                        continue
                    nonzero += 1
                    if witness is None:
                        witness = (row, col)
                    if exact_one is None and argument.numerator == 0:
                        exact_one = (row, col)
            if expected_zero and nonzero:
                check.add(
                    f"expected-zero block ({row_class}, {col_class}) has "
                    f"{nonzero} nonzero entries, first at "
                    f"row {word_to_bits(witness[0])!r}, "
                    f"col {word_to_bits(witness[1])!r}")
            blocks.append(BlockStatus(
                row_class, col_class, expected_zero, len(rows), len(cols),
                nonzero, witness, exact_one))
    return SparsityReport(max_digits, tilde_max, blocks, check)


def verify_w0_sparsity(max_digits: int, tilde_max: int | None = None,
                       require_witnesses: bool = False) -> CheckReport:
    """The census's check of analyze_w0_sparsity, as a verification suite.

    With require_witnesses every star block also counts one check and
    fails unless the truncation holds a nonzero witness for it.
    """
    result = analyze_w0_sparsity(max_digits, tilde_max)
    report = result.check
    if require_witnesses:
        for block in result.star_blocks():
            report.checked += 1
            if block.witness is None:
                report.add(
                    f"star block ({block.row_class}, {block.col_class}) has "
                    f"no nonzero witness at this truncation depth")
    return report
