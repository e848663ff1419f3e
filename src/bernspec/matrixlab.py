"""Finite truncations of the scaled operator's matrix, and structure checks.

Rows and columns are indexed by spectrum words; the entry at (row, col) is
the transform evaluated at p*col - row.  Ordering the words by strata makes
the matrix block diagonal, each stratum block a shifted copy of the
stratum-0 block; every structural statement here is verified in integer
arithmetic alone (zero-set membership, argument reduction).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from bernspec.exact import (
    BernoulliParams,
    MuHatValue,
    mu_hat_many,
    reduce_numerator,
)
from bernspec.report import CheckReport
from bernspec.spectrum import (
    TILDE_ONE_POINT,
    Word,
    check_budget,
    index_bits,
    index_stratum,
    index_word,
    point_numerators,
    word_indices,
)

if TYPE_CHECKING:
    import numpy as np


@dataclass(eq=False)
class TruncatedMatrix:
    """The operator matrix over all words of length at most max_digits.

    Entry (i, j) is values[codes[i, j]]; code 0 is the exact zero.  codes
    is an array, so matrices compare by identity.
    """

    params: BernoulliParams
    max_digits: int
    order: str
    indices: list[int]  # row and column i are the word of index indices[i]
    codes: np.ndarray  # int32, one code per entry
    values: list[MuHatValue]  # the distinct entries, each taken by some entry

    @property  # kept because bench/tracing.py reads it; nothing in bernspec does
    def words(self) -> list[Word]:
        return [index_word(m) for m in self.indices]

    @property
    def entries(self) -> list[list[MuHatValue]]:
        values = self.values
        return [[values[code] for code in row] for row in self.codes.tolist()]

    @classmethod
    def build(
        cls,
        params: BernoulliParams,
        max_digits: int,
        order: str = "strata",
    ) -> TruncatedMatrix:
        """Every entry mu_hat(p*col - row), as codes into one value table.

        The whole argument grid goes to one mu_hat_many call, which reduces
        it once and certifies each distinct |reduced| once: each entry is
        values[codes[i, j]], equal to the scalar mu_hat at its argument.
        Code 0 is the exact zero, and the table holds only values some
        entry takes, one per signed key sign * |reduced|.
        """
        p = params.require_p()
        check_budget(max_digits, "matrix entries", 4)
        import numpy as np

        indices = word_indices(max_digits, order)
        numerators = point_numerators(params, max_digits)
        numers = [numerators[m] for m in indices]
        # |p*col - row| <= (p + 1) * max numerator; past int64, Python ints
        dtype = np.int64 if (p + 1) * max(numers) < 2**62 else object
        grid = np.array(numers, dtype=dtype)
        # the argument grid is a temporary, freed once it is reduced
        codes, values = mu_hat_many(p * grid - grid[:, None], params)
        return cls(params, max_digits, order, indices, codes, values)

    def zero_mask(self) -> list[list[bool]]:
        return (self.codes == 0).tolist()

    def _stratum_keys(self) -> list[str]:
        return ["zero-point" if not m else str(index_stratum(m)) for m in self.indices]

    # -- serialization ----------------------------------------------------

    def _csv_rows(self) -> Iterator[str]:
        # the header, then one chunk of lines per matrix row; each table
        # value is formatted once
        yield "row_word,col_word,exact_zero,sign,magnitude,error_bound\n"
        fields = [f"{int(e.exact_zero)},{0 if e.exact_zero else e.sign},"
                  f"{e.magnitude!r},{e.error_bound!r}\n" for e in self.values]
        bits = [index_bits(m) for m in self.indices]
        cols = [f",{col}," for col in bits]
        for row, codes in zip(bits, self.codes.tolist()):
            parts = []
            for col, code in zip(cols, codes):
                parts += (row, col, fields[code])
            yield "".join(parts)

    def to_csv_text(self) -> str:
        return "".join(self._csv_rows())

    def to_json_obj(self) -> dict:
        import numpy as np

        positions: dict[str, list[int]] = {}
        for i, key in enumerate(self._stratum_keys()):
            positions.setdefault(key, []).append(i)
        strata = {key: len(rows) for key, rows in positions.items()}
        return {
            "n": self.params.n,
            "p": self.params.p,
            "max_digits": self.max_digits,
            "order": self.order,
            "size": len(self.indices),
            "strata": strata,
            "blocks": [
                {
                    "row_stratum": rk,
                    "col_stratum": ck,
                    "entries": strata[rk] * strata[ck],
                    "nonzero": int(np.count_nonzero(
                        self.codes[np.ix_(positions[rk], positions[ck])])),
                }
                for rk, ck in sorted(product(strata, strata))
            ],
        }

    def to_pgm_bytes(self) -> bytes:
        # binary PGM: exact zeros black (0), everything else white (255)
        import numpy as np

        size = len(self.indices)
        header = f"P5\n{size} {size}\n255\n".encode("ascii")
        return header + (np.uint8(255) * (self.codes != 0)).tobytes()

    def to_svg_text(self) -> str:
        cell = 12
        size = len(self.indices) * cell
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
            f'height="{size}" viewBox="0 0 {size} {size}">',
            f'<rect width="{size}" height="{size}" fill="white"/>',
        ]
        for i, row in enumerate(self.codes.tolist()):
            for j, code in enumerate(row):
                if code:
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


# The pair verifiers hold each word as its index m and run on the numerators
# 4 * gamma of point_numerators.  Each declares its columns and rows, and one
# loop decides every pair from reduce_numerator's exact (sign, reduced)
# pairs, a sign 0 marking the zero set.  Prepending k zeros to word m gives
# word m << k, and a leading 1 gives word 2m + 1.


def _pair_report(name: str, params: BernoulliParams, max_digits: int,
                 label: str = "", invalid: str | None = None) -> CheckReport:
    """The suite's empty report; raises invalid, then the budget on 4^d pairs."""
    report = CheckReport(f"{name}(n={params.n}, p={params.require_p()}, "
                         f"digits<={max_digits}{label})")
    if invalid:
        raise ValueError(invalid)
    check_budget(max_digits, "word pairs", 4)
    return report


def _check_pairs(report: CheckReport, columns: list[tuple],
                 base: int) -> CheckReport:
    """Decide every pair of a column and one of its rows, counted in report.

    A column is (col, left, right, flip, rows), a row (row, row_left,
    row_right, row_flip, failure); col and row are word indices and both
    flips are +1 or -1.  The pair holds if left - row_left reduces to sign
    0 when row_right is None, else to (flip * row_flip * sign, reduced)
    where (sign, reduced) is the reduction of right - row_right.  A failing
    pair adds its failure, formatted with the bits of row and col.
    """
    reduce = reduce_numerator
    for col, left, right, flip, rows in columns:
        report.checked += len(rows)
        for row, row_left, row_right, row_flip, failure in rows:
            if row_right is None:
                if reduce(left - row_left, base)[0] == 0:
                    continue
            else:
                want = reduce(right - row_right, base)
                if flip != row_flip:
                    want = (-want[0], want[1])
                if reduce(left - row_left, base) == want:
                    continue
            report.add(failure.format(row=index_bits(row), col=index_bits(col)))
    return report


def verify_block_diagonal(params: BernoulliParams, max_digits: int) -> CheckReport:
    """Entries across distinct strata vanish exactly, zero row/column included.

    Decided entirely by the zero-set predicate: for any odd p, the argument
    p*col - row of a cross-stratum pair lands in the zero set.
    """
    report = _pair_report("block-diagonal", params, max_digits)
    numers = point_numerators(params, max_digits)
    failure = "nonzero entry off the block diagonal at row {row!r}, col {col!r}"
    strata = [index_stratum(m) for m in range(len(numers))]
    # each column's rows: the words of every other stratum
    others = {stratum: [(m, numer, None, 1, failure)
                        for m, numer in enumerate(numers) if strata[m] != stratum]
              for stratum in set(strata)}
    return _check_pairs(report, [
        (m, params.p * numer, None, 1, others[strata[m]])
        for m, numer in enumerate(numers)], params.base)


def verify_block_equality(
    params: BernoulliParams, max_digits: int, k_max: int
) -> CheckReport:
    """Each stratum-k block reduces entrywise like the stratum-0 block.

    Entry arguments of the shifted block are (2n)^k times those of the
    stratum-0 block; the check demands identical (sign, reduced argument)
    pairs, which forces equal transform values exactly.
    """
    report = _pair_report("block-equality", params, max_digits, f", k<={k_max}",
                          "k_max must be >= 1" if k_max < 1 else None)
    p, numers = params.p, point_numerators(params, max_digits)
    columns = []
    # a shift k >= max_digits leaves no stratum-0 word in the truncation
    for k in range(1, min(k_max, max_digits - 1) + 1):
        failure = (f"stratum-{k} entry differs from stratum-0 at "
                   "row {row!r}, col {col!r}")
        # the stratum-0 words m (odd) whose shift m << k is in the truncation
        shared = range(1, len(numers) >> k, 2)
        rows = [(m, numers[m << k], numers[m], 1, failure) for m in shared]
        columns += [(m, p * numers[m << k], p * numers[m], 1, rows) for m in shared]
    return _check_pairs(report, columns, params.base)


def verify_commutation_even(params: BernoulliParams, max_digits: int) -> CheckReport:
    """For even n the scaled operator commutes with the bit-0 isometry.

    Checked entrywise on the truncation: matching coefficients reduce to
    identical (sign, argument) pairs, and the coefficients that the
    commuted side would need outside the bit-0 range vanish exactly.
    """
    if params.n % 2 != 0:
        raise ValueError("even-n commutation needs even n")
    report = _pair_report("commute-even", params, max_digits)
    p, numers = params.p, point_numerators(params, max_digits)
    # gamma and xi have at most max_digits - 1 digits; the isometry maps
    # word m to word 2m.  Coefficients at odd-range words eta must vanish
    # for the sides to agree.
    inner = range(1 << max(0, max_digits - 1))
    rows = [(x, numers[2 * x], numers[x], 1,
             "coefficient mismatch at gamma {col!r}, xi {row!r}") for x in inner]
    rows += [(eta, numers[eta], None, 1,
              "leaked coefficient at gamma {col!r}, eta {row!r}")
             for eta in range(1, len(numers), 2)]
    return _check_pairs(report, [
        (g, p * numers[2 * g], p * numers[g], 1, rows) for g in inner], params.base)


def verify_odd_twisted_relations(
    params: BernoulliParams, max_digits: int
) -> CheckReport:
    """For odd n the operator and the bit-0 isometry commute up to signs.

    Splitting by the second bit, the doubly-even coefficients keep their
    sign and the mixed ones flip when the column word starts with 0; the
    roles swap when it starts with 1.  Each claimed sign relation is
    checked as an exact (sign, reduced argument) identity.

    No sign flip can be observed: every pair whose claimed sign flips lies
    in the zero set on both sides, and only the sign-keeping pairs meet
    nonzero values.  Every point numerator is a multiple of 2n.  For gamma
    starting with 1, 4 gamma = 2n (1 + 4 gamma'), so
    4 (p gamma - xi_even) = 2n (p + 2n k) with p + 2n k odd.  For gamma
    empty or starting with 0, 4 gamma is a multiple of (2n)^2 and
    4 xi_mixed = 2n (1 + 4 xi), so 4 (p gamma - xi_mixed) = 2n (2n k - 1).
    Either way one reduction step leaves an odd numerator, so that side
    reduces to sign 0, and so does the shifted side, 2n times it.
    """
    if params.n % 2 == 0:
        raise ValueError("twisted relations need odd n")
    report = _pair_report("commute-odd", params, max_digits, invalid=(
        "max_digits must be >= 0" if max_digits < 0 else None))
    # xi = word x has the even-range word 2x and the mixed-range word
    # 2x + 1, shifted to 4x and 4x + 2: two digits past max_digits
    p, numers = params.p, point_numerators(params, max_digits + 2)
    words = range(1 << max_digits)
    rows = []
    for x in words:
        rows += [(x, numers[4 * x], numers[2 * x], 1,
                  "even-range sign relation fails at gamma {col!r}, xi {row!r}"),
                 (x, numers[4 * x + 2], numers[2 * x + 1], -1,
                  "mixed-range sign relation fails at gamma {col!r}, xi {row!r}")]
    # gamma empty or starting with 0 keeps its sign on the even range
    return _check_pairs(report, [
        (g, p * numers[2 * g], p * numers[g], 1 if g % 2 == 0 else -1, rows)
        for g in words], params.base)


def verify_multiplication_identity(max_digits: int) -> CheckReport:
    """Stratum-0 entries equal the transform at 1 + 5*gamma - xi (n=2, p=5).

    With stratum-0 words written as a leading 1 over inner words gamma, xi,
    the entry argument 5*col - row is exactly 4*(1 + 5*gamma - xi), and
    mu_hat(4x) = cos(2 pi x) mu_hat(x) = mu_hat(x) for integer x.  Both
    sides must have identical (sign, reduced) pairs, which forces equal
    transform values exactly, since mu_hat(t) = sign * mu_hat(reduced).
    """
    params = BernoulliParams(2, 5)
    report = _pair_report("multiplication", params, max_digits, invalid=(
        "max_digits must be >= 1" if max_digits < 1 else None))
    numers = point_numerators(params, max_digits)
    # the stratum-0 word 2m + 1 is a leading 1 over the inner word m; the
    # entry is 4 * (5 col) - 4 * row, the identity 4 * (1 + 5 gamma) - 4 * xi
    inner = range(len(numers) >> 1)
    rows = [(2 * m + 1, numers[2 * m + 1], numers[m], 1,
             "reductions differ at row {row!r}, col {col!r}") for m in inner]
    return _check_pairs(report, [
        (2 * m + 1, 5 * numers[2 * m + 1], 4 + 5 * numers[m], 1, rows)
        for m in inner], params.base)


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
    witness: tuple[str, str] | None  # (row, col) bits of the first nonzero entry
    exact_one: tuple[str, str] | None  # the same for the first exactly-1 entry


@dataclass
class SparsityReport:
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
    check_budget(max_digits, "word pairs", 4)
    base = params.base
    classes: dict[int | str, list[tuple[int, int]]] = {}
    for m, numer in enumerate(point_numerators(params, max_digits)):
        if m % 2 == 0:  # not in stratum 0
            continue
        # the gap class (zeros between the first two 1-bits): word m >> 1's stratum
        label = TILDE_ONE_POINT if m == 1 else index_stratum(m >> 1)
        if tilde_max is not None and isinstance(label, int) and label > tilde_max:
            continue
        classes.setdefault(label, []).append((m, numer))
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
            check.checked += len(rows) * len(cols)
            for col, col_numer in cols:
                scaled = 5 * col_numer
                for row, row_numer in rows:
                    argument = scaled - row_numer
                    if reduce_numerator(argument, base)[0] == 0:
                        continue
                    nonzero += 1
                    if witness is None:
                        witness = (index_bits(row), index_bits(col))
                    if exact_one is None and argument == 0:
                        exact_one = (index_bits(row), index_bits(col))
            if expected_zero and nonzero:
                check.add(
                    f"expected-zero block ({row_class}, {col_class}) has "
                    f"{nonzero} nonzero entries, first at "
                    f"row {witness[0]!r}, col {witness[1]!r}")
            blocks.append(BlockStatus(
                row_class, col_class, expected_zero, len(rows), len(cols),
                nonzero, witness, exact_one))
    return SparsityReport(blocks, check)


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
