"""Checks of what bernspec prints, writes and returns, against the oracle.

Every check returns a list of problems; an empty list means the output is
correct.  The checks run outside the timed region of the benchmark.
"""

from __future__ import annotations

import functools
import json
import math
import random
import re
from fractions import Fraction

import oracle

# A chaos estimate further than this many standard errors from the reference
# is wrong (a false alarm has probability ~2e-9 per op).
CHAOS_SIGMAS = 6.0
# The certified reference value of `bernspec chaos` uses the default tol 1e-12.
CHAOS_REFERENCE_TOL = 1e-10
_BLOCK = re.compile(r"block \(([^,]+), ([^)]+)\)")


# ---------------------------------------------------------------------------
# matrix exports


def _csv_rows(text: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != "row_word,col_word,exact_zero,sign,magnitude,error_bound":
        raise ValueError("CSV header missing")
    return [line.split(",") for line in lines[1:]]


def _entry_problem(row: list[str], n: int, p: int) -> tuple[int, str | None]:
    """(argument numerator, problem) for one CSV row, zero flag from definition."""
    row_word, col_word, zero, sign, magnitude, bound = row
    numer = p * oracle.point_numerator(col_word, n) - oracle.point_numerator(row_word, n)
    expected_zero = oracle.in_zero_set(numer, n)
    if zero not in ("0", "1") or (zero == "1") != expected_zero:
        return numer, (f"zero flag {zero} at ({row_word!r}, {col_word!r}), "
                       f"zero set says {int(expected_zero)}")
    if zero == "1" and (sign, float(magnitude), float(bound)) != ("0", 0.0, 0.0):
        return numer, f"exact zero with nonzero fields at ({row_word!r}, {col_word!r})"
    if zero == "0" and sign not in ("1", "-1"):
        return numer, f"sign {sign} at ({row_word!r}, {col_word!r})"
    return numer, None


def check_matrix(csv_text: str, pgm: bytes, json_text: str, n: int, p: int,
                 max_digits: int, sample: list[int]) -> list[str]:
    """Full zero mask, ordering, PGM and JSON consistency; values on a sample.

    sample holds CSV data-row indices whose nonzero values are compared with
    the high-precision reference.
    """
    try:
        rows = _csv_rows(csv_text)
    except ValueError as exc:
        return [str(exc)]
    order = oracle.strata_order(oracle.words(max_digits), n)
    size = len(order)
    if len(rows) != size * size or any(len(r) != 6 for r in rows):
        return [f"CSV has {len(rows)} entries, expected {size * size}"]
    problems = []
    mask = []
    for index, row in enumerate(rows):
        i, j = divmod(index, size)
        if (row[0], row[1]) != (order[i], order[j]):
            return [f"CSV entry {index} is ({row[0]!r}, {row[1]!r}), "
                    f"expected ({order[i]!r}, {order[j]!r}) in strata order"]
        _, problem = _entry_problem(row, n, p)
        if problem:
            problems.append(problem)
        mask.append(row[2] == "1")
    for index in sample:
        row = rows[index]
        if row[2] == "1":
            continue
        numer, _ = _entry_problem(row, n, p)
        problem = oracle.certified_problem(
            int(row[3]), float(row[4]), float(row[5]),
            oracle.transform(Fraction(numer, 4), n))
        if problem:
            problems.append(f"entry ({row[0]!r}, {row[1]!r}): {problem}")
    header = f"P5\n{size} {size}\n255\n".encode("ascii")
    if pgm != header + bytes(0 if zero else 255 for zero in mask):
        problems.append("PGM pixels disagree with the zero mask")
    problems += _check_matrix_json(json_text, order, mask, n, p, max_digits)
    return problems


def _check_matrix_json(text: str, order: list[str], mask: list[bool],
                       n: int, p: int, max_digits: int) -> list[str]:
    try:
        summary = json.loads(text)
    except ValueError as exc:
        return [f"matrix JSON does not parse: {exc}"]
    strata = ["zero-point" if not w else str(oracle.leading_zeros(w)) for w in order]
    blocks: dict[tuple[str, str], list[int]] = {}
    size = len(order)
    for index, zero in enumerate(mask):
        counts = blocks.setdefault((strata[index // size], strata[index % size]), [0, 0])
        counts[0] += 1
        counts[1] += not zero
    expected = {
        "n": n, "p": p, "max_digits": max_digits, "size": size,
        "blocks": sorted([r, c, t, z] for (r, c), (t, z) in blocks.items()),
    }
    got = {
        "n": summary.get("n"), "p": summary.get("p"),
        "max_digits": summary.get("max_digits"), "size": summary.get("size"),
        "blocks": sorted([b["row_stratum"], b["col_stratum"], b["entries"], b["nonzero"]]
                         for b in summary.get("blocks", [])),
    }
    return [] if got == expected else ["matrix JSON disagrees with the zero mask"]


def matrix_sample(csv_text: str, count: int, rng: random.Random) -> list[int]:
    """Seeded sample of nonzero CSV data rows."""
    nonzero = [i for i, line in enumerate(csv_text.splitlines()[1:])
               if line.split(",")[2] == "0"]
    return sorted(rng.sample(nonzero, min(count, len(nonzero))))


# ---------------------------------------------------------------------------
# verification suites


def check_suite_pass(stdout: str, rc: int | None) -> list[str]:
    lines = stdout.splitlines()
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    if not lines or not all(": PASS (" in line for line in lines):
        return [f"suite did not print PASS: {stdout[:200]!r}"]
    return []


def w0_missing_witnesses(max_digits: int) -> list[tuple[str, str]]:
    """Blocks the w0 census must report at this depth (n = 2, p = 5, all classes).

    Stratum-0 words split by the gap between their first two 1-bits (the
    word "1" is its own class).  A block pairing class 0 with another class
    needs a nonzero witness; any other block must vanish.  Returns the
    blocks that break either rule, decided by the zero-set definition.
    """
    classes: dict[str, list[int]] = {}
    for w in oracle.words(max_digits):
        if w.startswith("1"):
            label = "one-point" if w == "1" else str(w.index("1", 1) - 1)
            classes.setdefault(label, []).append(oracle.point_numerator(w, 2))
    found = []
    for row_class, rows in classes.items():
        for col_class, cols in classes.items():
            star = (row_class == "0") != (col_class == "0")
            nonzero = any(not oracle.in_zero_set(5 * c - r, 2) for c in cols for r in rows)
            if star != nonzero:
                found.append((row_class, col_class))
    return sorted(found)


def check_expected_failure(stdout: str, rc: int | None,
                           predicted: list[tuple[str, str]]) -> list[str]:
    """The suite must exit 1 and report exactly the predicted blocks."""
    if rc != 1:
        return [f"exit code {rc}, expected 1"]
    start = stdout.find("\n{")
    try:
        failures = json.loads(stdout[start + 1:])["failures"]
    except (ValueError, KeyError) as exc:
        return [f"no failure report in the output: {exc}"]
    reported = []
    for failure in failures:
        for message in failure["violations"]:
            match = _BLOCK.search(message)
            reported.append(match.groups() if match else (message, ""))
    if sorted(reported) != predicted:
        return [f"violations {sorted(reported)} differ from the oracle's {predicted}"]
    return []


# ---------------------------------------------------------------------------
# transform


def check_parseval(stdout: str, rc: int | None, n: int, t_text: str,
                   max_digits: int) -> list[str]:
    """Partial sums rise with depth, stay <= 1 + bound; depth 0 is |mu_hat(t)|^2."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        table = json.loads(stdout)
    except ValueError as exc:
        return [f"parseval output does not parse: {exc}"]
    if [row["digits"] for row in table] != list(range(max_digits + 1)):
        return ["parseval table does not list every depth"]
    problems = []
    previous = None
    for row in table:
        value, bound = row["partial_sum"], row["error_bound"]
        if not (math.isfinite(value) and bound >= 0.0):
            problems.append(f"bad row {row}")
        elif value > 1.0 + bound:
            problems.append(f"partial sum {value!r} exceeds 1 + {bound!r}")
        if previous is not None and value < previous[0] - previous[1] - bound:
            problems.append(f"partial sum falls at depth {row['digits']}")
        previous = (value, bound)
    first = table[0]
    problem = oracle.certified_problem(
        1, first["partial_sum"], first["error_bound"],
        oracle.square(oracle.transform(oracle.frequency(t_text), n)))
    if problem:
        problems.append(f"depth-0 sum is not mu_hat(t)^2: {problem}")
    return problems


@functools.lru_cache(maxsize=8)
def _points(n: int, max_digits: int) -> dict[str, int]:
    return {w: oracle.point_numerator(w, n) for w in oracle.words(max_digits)}


def check_expansion(vector, n: int, t_text: str, max_digits: int,
                    rng: random.Random, count: int) -> list[str]:
    """Support is exactly the words off the zero set; a sample of values holds."""
    t = oracle.frequency(t_text)
    points = _points(n, max_digits)
    got = {"".join(map(str, w)): w for w in vector.coefficients}
    if not got.keys() <= points.keys():
        return ["expansion has words outside the truncation"]
    problems = []
    for w, point in points.items():
        diff4 = 4 * t - point
        exact_zero = diff4.denominator == 1 and oracle.in_zero_set(int(diff4), n)
        if exact_zero == (w in got):
            problems.append(f"coefficient at {w!r}: stored={w in got}, zero set says "
                            f"exact_zero={exact_zero}")
    if vector.residual_bound < 0.0:
        problems.append("negative residual bound")
    for bits in rng.sample(sorted(got), min(count, len(got))):
        value = vector.coefficients[got[bits]]
        bound = vector.error_bounds[got[bits]]
        diff = t - Fraction(points[bits], 4)
        problem = oracle.certified_problem(
            -1 if value < 0 else 1, abs(value), bound, oracle.transform(diff, n))
        if problem:
            problems.append(f"coefficient at {bits!r}: {problem}")
    return problems


def check_chaos(stdout: str, rc: int | None, n: int, t_text: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    lines = stdout.splitlines()
    try:
        _, estimate, std_error, reference, _ = (float(x) for x in lines[1].split())
    except (IndexError, ValueError):
        return [f"chaos output does not parse: {stdout[:200]!r}"]
    exact = float(oracle.transform(oracle.frequency(t_text), n))
    problems = []
    if abs(reference - exact) > CHAOS_REFERENCE_TOL:
        problems.append(f"chaos reference {reference!r} is not mu_hat = {exact!r}")
    if not abs(estimate - exact) <= CHAOS_SIGMAS * std_error:
        problems.append(f"chaos estimate {estimate!r} is more than {CHAOS_SIGMAS} "
                        f"standard errors ({std_error!r}) from {exact!r}")
    return problems


def check_muhat(stdout: str, rc: int | None, n: int, t_text: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        result = json.loads(stdout)
    except ValueError as exc:
        return [f"muhat output does not parse: {exc}"]
    t = oracle.frequency(t_text)
    exact_zero = (4 * t).denominator == 1 and oracle.in_zero_set(int(4 * t), n)
    if result["exact_zero"] != exact_zero:
        return [f"exact_zero={result['exact_zero']}, zero set says {exact_zero}"]
    if exact_zero:
        return []
    problem = oracle.certified_problem(result["sign"], result["magnitude"],
                                       result["error_bound"], oracle.transform(t, n))
    return [problem] if problem else []


# ---------------------------------------------------------------------------
# the checker checks itself


def _replace(csv_text: str, index: int, **fields: str) -> str:
    lines = csv_text.splitlines(keepends=True)
    row = lines[index + 1].rstrip("\n").split(",")
    for position, name in enumerate(("row", "col", "zero", "sign", "magnitude", "bound")):
        if name in fields:
            row[position] = fields[name]
    lines[index + 1] = ",".join(row) + "\n"
    return "".join(lines)


def self_test(csv_text: str, pgm: bytes, json_text: str, n: int, p: int,
              max_digits: int) -> list[str]:
    """The matrix checker passes a true export and rejects three corruptions.

    The corruptions are a value moved outside its bound, an exact zero
    reported as nonzero, and a bound smaller than the entry's actual error.
    Returns the cases the checker got wrong.
    """
    rows = _csv_rows(csv_text)
    nonzero = [i for i, r in enumerate(rows) if r[2] == "0"]
    zeros = [i for i, r in enumerate(rows) if r[2] == "1"]
    problems = []
    if check_matrix(csv_text, pgm, json_text, n, p, max_digits, nonzero):
        problems.append("checker rejects a correct export")
    moved = nonzero[0]
    magnitude = float(rows[moved][4]) + 1e-6
    if not check_matrix(_replace(csv_text, moved, magnitude=repr(magnitude)),
                        pgm, json_text, n, p, max_digits, [moved]):
        problems.append("checker accepts a perturbed value")
    if not check_matrix(_replace(csv_text, zeros[0], zero="0", sign="1"),
                        pgm, json_text, n, p, max_digits, []):
        problems.append("checker accepts a flipped zero flag")
    for index in nonzero:
        row = rows[index]
        numer = p * oracle.point_numerator(row[1], n) - oracle.point_numerator(row[0], n)
        error = abs(float(row[4]) * int(row[3])
                    - float(oracle.transform(Fraction(numer, 4), n)))
        if error > 0.0:
            understated = _replace(csv_text, index, bound=repr(error / 4))
            if not check_matrix(understated, pgm, json_text, n, p, max_digits, [index]):
                problems.append("checker accepts an understated bound")
            break
    else:
        problems.append("no entry with a nonzero error to understate")
    return problems
