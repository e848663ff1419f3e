"""Tests for truncated operator matrices and their structure verifiers."""

import math
from collections import Counter
from dataclasses import astuple
from itertools import product

import pytest

from bernspec import cli, exact, matrixlab
from bernspec.exact import (
    BernoulliParams,
    QuarterInt,
    in_zero_set,
    mu_hat,
    reduce_argument,
    reduce_numerator,
)
from bernspec.matrixlab import (
    TruncatedMatrix,
    analyze_w0_sparsity,
    verify_block_diagonal,
    verify_block_equality,
    verify_commutation_even,
    verify_multiplication_identity,
    verify_odd_twisted_relations,
    verify_w0_sparsity,
)
from bernspec.spectrum import (
    TILDE_ONE_POINT,
    enumerate_spectrum,
    point_numerators,
    word_value,
)
from digit_words import bits, gap_class, scale_minus, stratum, word

N2P5 = BernoulliParams(2, 5)
N3P3 = BernoulliParams(3, 3)


def prepend_zero(word):
    """Reference isometry on digit tuples: gamma -> 2n * gamma."""
    return (0,) + word if word else ()


def prepend_one(word):
    """Reference isometry on digit tuples: gamma -> 2n * gamma + n/2."""
    return (1,) + word


def u_entry(row, col, params):
    """The scalar reference for one matrix entry: mu_hat at p*col - row."""
    return mu_hat(scale_minus(row, col, params), params)


class TestEntries:
    def test_diagonal_below_zero_point_is_exact_zero(self):
        # 5*1 - 1 = 4 lies in the zero set
        assert u_entry((1,), (1,), N2P5).exact_zero

    def test_zero_point_diagonal_is_one(self):
        entry = u_entry((), (), N2P5)
        assert entry.value == 1.0
        assert entry.error_bound == 0.0

    def test_known_nonzero_entry(self):
        # 5*5 - 1 = 24
        entry = u_entry((1,), (1, 1), N2P5)
        assert not entry.exact_zero
        assert entry.sign == 1
        assert math.isclose(entry.value, 0.5811539214293868, abs_tol=1e-12)

    def test_scale_minus_matches_values(self):
        arg = scale_minus((1,), (1, 1), N2P5)
        assert arg == QuarterInt.from_int(24)

    def test_requires_scaling_factor(self):
        with pytest.raises(ValueError):
            scale_minus((), (), BernoulliParams(2))


class TestTruncatedMatrix:
    def test_build_size(self):
        m = TruncatedMatrix.build(N2P5, 3)
        assert len(m.words) == 8
        assert len(m.entries) == 8
        assert all(len(row) == 8 for row in m.entries)

    @pytest.mark.parametrize("params", [N2P5, BernoulliParams(3, 5),
                                        BernoulliParams(5, 3), BernoulliParams(6, 5)])
    @pytest.mark.parametrize("order", ["strata", "value"])
    def test_entries_equal_u_entry(self, params, order):
        m = TruncatedMatrix.build(params, 4, order=order)
        assert m.words == enumerate_spectrum(params, 4, order)
        for row, entries in zip(m.words, m.entries):
            for col, entry in zip(m.words, entries):
                assert entry == u_entry(row, col, params)

    @pytest.mark.parametrize("order", ["strata", "value"])
    def test_arguments_past_int64_equal_u_entry(self, order):
        # n = 4000: p*col - row reaches about 1e20, so the grid is reduced
        # as Python ints
        params = BernoulliParams(4000, 3)
        assert word_value((0, 0, 0, 0, 1), params).numerator > 2**63
        m = TruncatedMatrix.build(params, 5, order=order)
        for row, entries in zip(m.words, m.entries):
            for col, entry in zip(m.words, entries):
                assert entry == u_entry(row, col, params)

    @pytest.mark.parametrize("params", [N2P5, BernoulliParams(3, 5)])
    def test_equal_entries_share_one_object(self, params):
        m = TruncatedMatrix.build(params, 5)
        flat = [e for row in m.entries for e in row]
        assert len({id(e) for e in flat}) == len(set(flat))
        zeros = [e for e in flat if e.exact_zero]
        assert zeros and all(e is zeros[0] for e in zeros)

    def test_one_reduction_per_build(self, monkeypatch):
        calls = []
        reduce_arguments = exact.reduce_arguments

        def counted(*args):
            calls.append(args)
            return reduce_arguments(*args)

        monkeypatch.setattr(exact, "reduce_arguments", counted)
        TruncatedMatrix.build(N2P5, 4)
        assert len(calls) == 1

    def test_strata_order_blocks_in_mask(self):
        m = TruncatedMatrix.build(N2P5, 4)
        mask = m.zero_mask()
        for i, row in enumerate(m.words):
            for j, col in enumerate(m.words):
                if stratum(row) != stratum(col):
                    assert mask[i][j]

    def test_csv_header_and_size(self):
        m = TruncatedMatrix.build(N2P5, 2)
        lines = m.to_csv_text().splitlines()
        assert lines[0] == "row_word,col_word,exact_zero,sign,magnitude,error_bound"
        assert len(lines) == 1 + 4 * 4

    def test_csv_exact_zero_row_shape(self):
        m = TruncatedMatrix.build(N2P5, 2)
        zero_rows = [
            line for line in m.to_csv_text().splitlines()[1:]
            if line.split(",")[2] == "1"
        ]
        assert zero_rows
        for line in zero_rows:
            _, _, _, sign, magnitude, bound = line.split(",")
            assert sign == "0"
            assert magnitude == "0.0"
            assert bound == "0.0"

    def test_json_blocks_respect_strata(self):
        obj = TruncatedMatrix.build(N2P5, 4).to_json_obj()
        assert obj["size"] == 16
        assert obj["strata"]["zero-point"] == 1
        off_diagonal = [
            b for b in obj["blocks"] if b["row_stratum"] != b["col_stratum"]
        ]
        assert off_diagonal
        assert all(b["nonzero"] == 0 for b in off_diagonal)

    def test_pgm_layout(self):
        m = TruncatedMatrix.build(N2P5, 3)
        data = m.to_pgm_bytes()
        assert data.startswith(b"P5\n8 8\n255\n")
        assert len(data) == len(b"P5\n8 8\n255\n") + 64
        assert set(data[len(b"P5\n8 8\n255\n"):]) <= {0, 255}

    def test_svg_has_stratum_separators(self):
        svg = TruncatedMatrix.build(N2P5, 3).to_svg_text()
        # boundaries after the zero point and after stratum 0 (indices 1, 5, 7)
        assert svg.count("<line ") == 6
        assert '<line x1="12"' in svg
        assert '<line x1="60"' in svg

    def test_exports_deterministic(self):
        a = TruncatedMatrix.build(N2P5, 3)
        b = TruncatedMatrix.build(N2P5, 3)
        assert a.to_csv_text() == b.to_csv_text()
        assert a.to_json_obj() == b.to_json_obj()
        assert a.to_pgm_bytes() == b.to_pgm_bytes()
        assert a.to_svg_text() == b.to_svg_text()

    def test_write_round_trip(self, tmp_path):
        m = TruncatedMatrix.build(N2P5, 2)
        m.write_csv(tmp_path / "m.csv")
        m.write_json(tmp_path / "m.json")
        m.write_pgm(tmp_path / "m.pgm")
        m.write_svg(tmp_path / "m.svg")
        assert (tmp_path / "m.csv").read_text() == m.to_csv_text()
        assert (tmp_path / "m.pgm").read_bytes() == m.to_pgm_bytes()
        assert (tmp_path / "m.svg").read_text() == m.to_svg_text()

    @pytest.mark.parametrize("params", [N2P5, BernoulliParams(4, 3),
                                        BernoulliParams(4000, 3)])
    @pytest.mark.parametrize("order", ["strata", "value"])
    def test_exports_match_u_entry(self, params, order):
        # CSV, PGM and the JSON block counts, rebuilt from scalar entries
        m = TruncatedMatrix.build(params, 3, order=order)
        words = enumerate_spectrum(params, 3, order)
        flat = [(row, col, u_entry(row, col, params))
                for row in words for col in words]
        assert m.to_csv_text() == "".join(
            ["row_word,col_word,exact_zero,sign,magnitude,error_bound\n"]
            + [f"{bits(row)},{bits(col)},{int(e.exact_zero)},"
               f"{0 if e.exact_zero else e.sign},{e.magnitude!r},"
               f"{e.error_bound!r}\n" for row, col, e in flat])
        size = len(words)
        assert m.to_pgm_bytes() == f"P5\n{size} {size}\n255\n".encode() + bytes(
            0 if e.exact_zero else 255 for _, _, e in flat)

        def key(word):
            k = stratum(word)
            return "zero-point" if k is None else str(k)

        nonzero = Counter((key(row), key(col)) for row, col, e in flat
                          if not e.exact_zero)
        keys = {key(w) for w in words}
        blocks = m.to_json_obj()["blocks"]
        assert {(b["row_stratum"], b["col_stratum"]): b["nonzero"]
                for b in blocks} == {
            pair: nonzero[pair] for pair in product(keys, keys)}


class TestBlockStructure:
    @pytest.mark.parametrize("params,digits", [
        (N2P5, 5),
        (BernoulliParams(2, 3), 4),
        (N3P3, 4),
        (BernoulliParams(4, 7), 3),
    ])
    def test_block_diagonal(self, params, digits):
        report = verify_block_diagonal(params, digits)
        assert report.passed
        assert report.checked > 0

    @pytest.mark.parametrize("params,digits,k_max", [
        (N2P5, 5, 3),
        (N3P3, 4, 2),
        (BernoulliParams(4, 3), 4, 2),
    ])
    def test_block_equality(self, params, digits, k_max):
        report = verify_block_equality(params, digits, k_max)
        assert report.passed
        assert report.checked > 0

    def test_block_equality_check_count(self):
        # k = 1, 2, 3 share 8, 4, 2 stratum-0 words of a depth-5 truncation
        report = verify_block_equality(N2P5, 5, 3)
        assert report.checked == 8 * 8 + 4 * 4 + 2 * 2


class TestCommutationEven:
    @pytest.mark.parametrize("params,digits", [
        (N2P5, 5),
        (BernoulliParams(2, 3), 4),
        (BernoulliParams(4, 3), 3),
    ])
    def test_passes_for_even_n(self, params, digits):
        report = verify_commutation_even(params, digits)
        assert report.passed
        assert report.checked > 0

    def test_check_count(self):
        report = verify_commutation_even(N2P5, 5)
        assert report.checked == 16 * 16 + 16 * 16

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError):
            verify_commutation_even(N3P3, 3)

    def test_bit_one_isometry_does_not_commute(self):
        # control: the matched-coefficient probe is not vacuous; the same
        # probe applied to the bit-1 isometry finds genuine mismatches
        params = N2P5
        base, half, p = params.base, params.half_n, params.require_p()
        mismatches = 0
        words = enumerate_spectrum(params, 3)
        for g in words:
            gv = word_value(g, params)
            for x in words:
                xv = word_value(x, params)
                swapped = p * (half + base * gv) - (half + base * xv)
                plain = p * gv - xv
                if reduce_argument(swapped, params) != \
                        reduce_argument(plain, params):
                    mismatches += 1
        assert mismatches > 0


class TestOddTwistedRelations:
    @pytest.mark.parametrize("params,digits", [
        (N3P3, 3),
        (BernoulliParams(3, 5), 3),
        (BernoulliParams(5, 3), 2),
    ])
    def test_passes_for_odd_n(self, params, digits):
        report = verify_odd_twisted_relations(params, digits)
        assert report.passed
        assert report.checked > 0

    def test_rejects_even_n(self):
        with pytest.raises(ValueError):
            verify_odd_twisted_relations(N2P5, 3)

    def test_swapped_branch_signs_fail(self):
        # control: applying the sign pattern of the wrong branch breaks;
        # the even-range coefficients of words starting 0 do not flip
        params = BernoulliParams(3, 5)
        base, p = params.base, params.require_p()
        mismatches = 0
        for g in enumerate_spectrum(params, 3):
            gv = word_value(g, params)
            if g and g[0] == 1:
                continue
            for x in enumerate_spectrum(params, 3):
                xv = word_value(x, params)
                even = reduce_argument(p * gv - base * xv, params)
                even_shift = reduce_argument(
                    base * p * gv - base * (base * xv), params)
                if even_shift != (-even[0], even[1]):
                    mismatches += 1
        assert mismatches > 0

    @pytest.mark.parametrize("n", [1, 3, 5])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_even_range_flip_is_unobservable(self, n, p):
        # for gamma starting with 1 (odd g) the plain even-range argument is
        # 2n times an odd numerator and the shifted one 2n times the plain,
        # so both reduce to sign 0 and the relation holds with and without
        # its sign flip
        base, digits = 2 * n, 5
        numers = point_numerators(BernoulliParams(n, p), digits + 2)
        for g in range(1, 1 << digits, 2):
            for x in range(1 << digits):
                plain = p * numers[g] - numers[2 * x]
                shifted = p * numers[2 * g] - numers[4 * x]
                assert plain % base == 0 and (plain // base) % 2 == 1
                assert shifted == base * plain
                assert reduce_numerator(plain, base) == (0, plain // base)
                assert reduce_numerator(shifted, base) == (0, plain // base)

    @pytest.mark.parametrize("p", [3, 5])
    def test_only_sign_keeping_pairs_meet_nonzero_values(self, p):
        # at the suite's default depth, over the pairs the suite checks:
        # every pair whose claimed sign flips (g odd on the even range, g
        # even on the mixed range) reduces to sign 0 on both sides, so no
        # flip can be observed; only the sign-keeping pairs meet nonzero
        # values
        suite = cli.VERIFY_SUITES["commute-odd"]
        n, digits = suite.defaults["n"], suite.defaults["max_digits"]
        assert (n, digits) == (3, 4)
        params = BernoulliParams(n, p)
        base, numers = params.base, point_numerators(params, digits + 2)
        kept = Counter()
        for g in range(1 << digits):
            for x in range(1 << digits):
                for mixed in (0, 1):
                    plain = reduce_numerator(
                        p * numers[g] - numers[2 * x + mixed], base)
                    shifted = reduce_numerator(
                        p * numers[2 * g] - numers[4 * x + 2 * mixed], base)
                    if g % 2 != mixed:
                        assert plain[0] == shifted[0] == 0, (g, x, mixed)
                    else:
                        kept[plain[0] != 0] += 1
        assert kept == {True: 171, False: 85}
        assert verify_odd_twisted_relations(params, digits).checked == 2 * 256


class TestMultiplicationIdentity:
    def test_passes(self):
        report = verify_multiplication_identity(6)
        assert report.passed
        assert report.checked == 32 * 32

    def test_minimal_depth(self):
        report = verify_multiplication_identity(1)
        assert report.passed
        assert report.checked == 1

    def test_rejects_empty_truncation(self):
        with pytest.raises(ValueError):
            verify_multiplication_identity(0)


class TestSparsity:
    def test_mask_holds_at_depth_six(self):
        report = analyze_w0_sparsity(6)
        assert report.passed
        sizes = {
            (b.row_class, b.col_class): (b.rows, b.cols) for b in report.blocks
        }
        assert sizes[(TILDE_ONE_POINT, TILDE_ONE_POINT)] == (1, 1)
        assert sizes[(0, 0)] == (16, 16)
        assert sizes[(4, 4)] == (1, 1)

    def test_star_rule(self):
        report = analyze_w0_sparsity(5)
        for b in report.blocks:
            one_sided = (b.row_class == 0) != (b.col_class == 0)
            assert b.expected_zero == (not one_sided)

    def test_class_zero_rows_against_one_point_has_single_nonzero(self):
        # the only nonzero entry with column the point 1 sits at row 5
        report = analyze_w0_sparsity(6)
        block = next(
            b for b in report.blocks
            if b.row_class == 0 and b.col_class == TILDE_ONE_POINT)
        assert block.nonzero_count == 1
        assert block.witness == ("11", "1")
        assert block.exact_one == ("11", "1")

    def test_higher_class_rows_against_class_zero_all_nonzero(self):
        report = analyze_w0_sparsity(6)
        for b in report.blocks:
            if isinstance(b.row_class, int) and b.row_class >= 1 \
                    and b.col_class == 0:
                assert b.nonzero_count == b.rows * b.cols

    def test_exact_one_in_class_zero_star_blocks(self):
        report = analyze_w0_sparsity(7, tilde_max=4)
        for k in (1, 2, 3, 4):
            block = next(
                b for b in report.blocks
                if b.row_class == 0 and b.col_class == k)
            assert block.exact_one is not None
            row, col = block.exact_one
            assert scale_minus(word(row), word(col), N2P5).numerator == 0

    def test_truncation_starves_deep_star_block(self):
        # at depth 6 the class (0, 4) star block has no representable
        # nonzero entry yet; one digit more and a witness appears
        shallow = analyze_w0_sparsity(6)
        block = next(
            b for b in shallow.blocks
            if b.row_class == 0 and b.col_class == 4)
        assert not block.expected_zero
        assert block.nonzero_count == 0
        assert not shallow.all_star_blocks_witnessed

        deep = analyze_w0_sparsity(7, tilde_max=4)
        assert deep.all_star_blocks_witnessed

    def test_witness_requirement_counts_star_blocks(self):
        census = analyze_w0_sparsity(6)
        assert verify_w0_sparsity(6).checked == census.check.checked
        strict = verify_w0_sparsity(6, require_witnesses=True)
        assert strict.checked == \
            census.check.checked + len(census.star_blocks())
        assert strict.violations == [
            "star block (0, 4) has no nonzero witness at this truncation "
            "depth"]
        assert verify_w0_sparsity(7, 4, require_witnesses=True).passed

    def test_rejects_negative_tilde_max(self):
        with pytest.raises(ValueError, match="tilde_max must be >= 0"):
            analyze_w0_sparsity(6, tilde_max=-3)
        assert analyze_w0_sparsity(6, tilde_max=0).passed

    def test_tilde_max_drops_classes(self):
        report = analyze_w0_sparsity(6, tilde_max=2)
        labels = {b.row_class for b in report.blocks}
        assert labels == {TILDE_ONE_POINT, 0, 1, 2}

    def test_json_shape(self):
        report = analyze_w0_sparsity(4)
        obj = report.blocks[0].to_json_obj()
        assert set(obj) == {
            "row_class", "col_class", "expected_zero", "rows", "cols",
            "nonzero_count", "witness", "exact_one",
        }


class TestViolations:
    """Every pair verifier reports the violations of a perturbed truncation.

    point_numerators moves word 3 = (1, 1) by SHIFT / 4.  The reference
    repeats each verifier's pairs in its order with QuarterInt arguments, the
    scalar reduce_argument and in_zero_set, and word values looked up by
    word, so it also checks which word each shifted index names.
    """

    WORD, SHIFT = 3, 4

    @pytest.fixture
    def values(self, monkeypatch):
        real = matrixlab.point_numerators

        def perturbed(params, max_digits):
            numers = real(params, max_digits)
            if len(numers) > self.WORD:
                numers[self.WORD] += self.SHIFT
            return numers

        monkeypatch.setattr(matrixlab, "point_numerators", perturbed)

        def values(params, max_digits):
            # word -> perturbed value, two digits past max_digits
            words = enumerate_spectrum(params, max_digits + 2)
            numers = perturbed(params, max_digits + 2)
            return {w: QuarterInt(numer) for w, numer in zip(words, numers)}

        return values

    @staticmethod
    def reference():
        checks = {"checked": 0, "violations": []}

        def check(params, got, want, failure, where, flip=False):
            checks["checked"] += 1
            if want is None:
                holds = in_zero_set(got, params)
            else:
                sign, reduced = reduce_argument(want, params)
                holds = reduce_argument(got, params) == (
                    -sign if flip else sign, reduced)
            if not holds:
                first, first_word, second, second_word = where
                checks["violations"].append(
                    f"{failure} at {first} {bits(first_word)!r}, "
                    f"{second} {bits(second_word)!r}")
            return holds

        return checks, check

    @staticmethod
    def assert_matches(report, checks):
        assert checks["violations"]
        assert report.checked == checks["checked"]
        assert report.violations == checks["violations"]

    def test_block_diagonal(self, values):
        v, (checks, check) = values(N2P5, 4), self.reference()
        words = enumerate_spectrum(N2P5, 4)
        for col in words:
            for row in words:
                if stratum(row) != stratum(col):
                    check(N2P5, 5 * v[col] - v[row], None,
                          "nonzero entry off the block diagonal",
                          ("row", row, "col", col))
        self.assert_matches(verify_block_diagonal(N2P5, 4), checks)

    def test_block_equality(self, values):
        v, (checks, check) = values(N2P5, 5), self.reference()
        stratum0 = [w for w in enumerate_spectrum(N2P5, 5) if w and w[0] == 1]
        for k in (1, 2, 3):
            shared = [w for w in stratum0 if len(w) + k <= 5]
            for col in shared:
                for row in shared:
                    check(N2P5, 5 * v[(0,) * k + col] - v[(0,) * k + row],
                          5 * v[col] - v[row],
                          f"stratum-{k} entry differs from stratum-0",
                          ("row", row, "col", col))
        self.assert_matches(verify_block_equality(N2P5, 5, 3), checks)

    def test_commutation_even(self, values):
        v, (checks, check) = values(N2P5, 4), self.reference()
        inner = enumerate_spectrum(N2P5, 3)
        odd_range = [w for w in enumerate_spectrum(N2P5, 4) if w and w[0] == 1]
        for g in inner:
            for x in inner:
                check(N2P5, 5 * v[prepend_zero(g)] - v[prepend_zero(x)],
                      5 * v[g] - v[x],
                      "coefficient mismatch", ("gamma", g, "xi", x))
            for eta in odd_range:
                check(N2P5, 5 * v[prepend_zero(g)] - v[eta], None,
                      "leaked coefficient", ("gamma", g, "eta", eta))
        self.assert_matches(verify_commutation_even(N2P5, 4), checks)

    def test_odd_twisted_relations(self, values):
        params = BernoulliParams(3, 5)
        v, (checks, check) = values(params, 3), self.reference()
        words = enumerate_spectrum(params, 3)
        for g in words:
            keeps = not g or g[0] == 0
            for x in words:
                where = ("gamma", g, "xi", x)
                even, mixed = prepend_zero(x), prepend_one(x)
                check(params, 5 * v[prepend_zero(g)] - v[prepend_zero(even)],
                      5 * v[g] - v[even],
                      "even-range sign relation fails", where, flip=not keeps)
                check(params, 5 * v[prepend_zero(g)] - v[prepend_zero(mixed)],
                      5 * v[g] - v[mixed],
                      "mixed-range sign relation fails", where, flip=keeps)
        self.assert_matches(verify_odd_twisted_relations(params, 3), checks)

    def test_multiplication_identity(self, values):
        v, (checks, check) = values(N2P5, 4), self.reference()
        inner = enumerate_spectrum(N2P5, 3)
        for gamma in inner:
            for xi in inner:
                row, col = prepend_one(xi), prepend_one(gamma)
                where = ("row", row, "col", col)
                entry = 5 * v[col] - v[row]
                identity = QuarterInt.from_int(1) + 5 * v[gamma] - v[xi]
                if check(N2P5, entry, identity, "reductions differ", where):
                    lhs, rhs = mu_hat(entry, N2P5), mu_hat(identity, N2P5)
                    assert lhs == rhs
        self.assert_matches(verify_multiplication_identity(4), checks)

    def test_w0_census(self, values):
        v = values(N2P5, 6)
        stratum0 = [w for w in enumerate_spectrum(N2P5, 6) if w and w[0] == 1]
        # the gap classes of a depth-6 truncation
        labels = [TILDE_ONE_POINT, 0, 1, 2, 3, 4]

        def first(pairs):
            # a witness is the (row, col) bit-string pair of the first entry
            return (bits(pairs[0][0]), bits(pairs[0][1])) if pairs else None

        checked, violations, blocks = 0, [], []
        for row_class in labels:
            for col_class in labels:
                rows = [w for w in stratum0 if gap_class(w) == row_class]
                cols = [w for w in stratum0 if gap_class(w) == col_class]
                nonzero = [(row, col) for col in cols for row in rows
                           if not in_zero_set(5 * v[col] - v[row], N2P5)]
                exact_one = [(row, col) for row, col in nonzero
                             if not 5 * v[col] - v[row]]
                expected_zero = (row_class == 0) == (col_class == 0)
                checked += len(rows) * len(cols)
                if expected_zero and nonzero:
                    row, col = nonzero[0]
                    violations.append(
                        f"expected-zero block ({row_class}, {col_class}) has "
                        f"{len(nonzero)} nonzero entries, first at "
                        f"row {bits(row)!r}, col {bits(col)!r}")
                blocks.append((row_class, col_class, expected_zero, len(rows),
                               len(cols), len(nonzero), first(nonzero),
                               first(exact_one)))
        report = analyze_w0_sparsity(6)
        assert violations
        assert report.check.checked == checked
        assert report.check.violations == violations
        assert [astuple(b) for b in report.blocks] == blocks
