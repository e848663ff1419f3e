"""Acceptance gate: ten structural and numerical criteria, one line each.

Every criterion runs at fixed desk-scale parameters with pinned tolerances
and prints a single pass/fail line into the terminal summary.  Regression
fixtures (the Parseval depth table) were recorded by an oracle run of this
implementation and are asserted exactly; nothing here is tuned to pass.
"""

import math
import time

import numpy as np

from bernspec.exact import (
    BernoulliParams,
    QuarterInt,
    chaos_game_estimate,
    in_zero_set,
    mu_hat_product,
)
from bernspec.matrixlab import (
    analyze_w0_sparsity,
    verify_block_diagonal,
    verify_block_equality,
    verify_commutation_even,
    verify_multiplication_identity,
    verify_odd_twisted_relations,
)
from bernspec.operators import parseval_partial, verify_cuntz_relations
from digit_words import scale_minus, word

SQRT_HALF = math.sqrt(2.0) / 2.0


def test_criterion_01_cuntz_relations(acceptance):
    start = time.perf_counter()
    reports = [
        verify_cuntz_relations(BernoulliParams(n), 8) for n in (2, 3, 4)
    ]
    elapsed = time.perf_counter() - start
    checked = sum(r.checked for r in reports)
    ok = all(r.passed for r in reports) and elapsed < 10.0
    acceptance(
        1, "cuntz relations, all words of <= 8 digits, n in {2,3,4}", ok,
        f"{checked} checks, {elapsed:.2f}s < 10s")


def test_criterion_02_zero_set_numeric_consistency(acceptance):
    start = time.perf_counter()
    params = BernoulliParams(2)
    exceptions = 0
    for numerator in range(-4096, 4097):
        t = QuarterInt(numerator)
        result = mu_hat_product(t, params, 40)
        if in_zero_set(t, params):
            if result.magnitude > result.error_bound:
                exceptions += 1
        elif result.magnitude <= result.error_bound:
            exceptions += 1
    elapsed = time.perf_counter() - start
    ok = exceptions == 0 and elapsed < 30.0
    acceptance(
        2, "zero-set predicate vs 40-term product, n=2, |4t| <= 4096", ok,
        f"{exceptions} exceptions over 8193 points, {elapsed:.2f}s < 30s")


def test_criterion_03_block_diagonality(acceptance):
    reports = [
        verify_block_diagonal(BernoulliParams(2, 5), 6),
        verify_block_diagonal(BernoulliParams(4, 3), 6),
    ]
    ok = all(r.passed for r in reports)
    acceptance(
        3, "cross-stratum entries exact-zero, digits <= 6, (n,p) in "
           "{(2,5),(4,3)}", ok,
        f"{sum(r.checked for r in reports)} entries, 0 tolerance")


def test_criterion_04_block_equality(acceptance):
    reports = [
        verify_block_equality(BernoulliParams(2, 5), 6, 3),
        verify_block_equality(BernoulliParams(4, 3), 6, 3),
    ]
    ok = all(r.passed for r in reports)
    acceptance(
        4, "stratum-k blocks equal stratum-0 block for k <= 3, exact "
           "(sign, argument) pairs", ok,
        f"{sum(r.checked for r in reports)} pairs, 0 tolerance")


def test_criterion_05_even_commutation(acceptance):
    reports = [
        verify_commutation_even(BernoulliParams(2, 5), 5),
        verify_commutation_even(BernoulliParams(4, 3), 5),
    ]
    ok = all(r.passed for r in reports)
    acceptance(
        5, "scaled operator commutes with bit-0 isometry, even n, "
           "digits <= 5", ok,
        f"{sum(r.checked for r in reports)} coefficient checks, exact")


def test_criterion_06_odd_sign_relations(acceptance):
    reports = [
        verify_odd_twisted_relations(BernoulliParams(3, 3), 4),
        verify_odd_twisted_relations(BernoulliParams(3, 5), 4),
    ]
    ok = all(r.passed for r in reports)
    acceptance(
        6, "odd-n sign relations (s,-w)/(-s,w) per column class, n=3, "
           "p in {3,5}, digits <= 4", ok,
        f"{sum(r.checked for r in reports)} sign identities, exact")


def test_criterion_07_multiplication_identity(acceptance):
    report = verify_multiplication_identity(6)
    acceptance(
        7, "stratum-0 entries equal transform of shifted difference, "
           "n=2, p=5, digits <= 6", report.passed,
        f"{report.checked} entries, exact reduction")


def test_criterion_08_w0_sparsity(acceptance):
    result = analyze_w0_sparsity(7, tilde_max=4)
    params = BernoulliParams(2, 5)
    star = result.star_blocks()
    exact_ones = 0
    exact_ones_valid = True
    for block in star:
        if block.row_class == 0 and block.col_class in (1, 2, 3, 4):
            if block.exact_one is None:
                exact_ones_valid = False
            else:
                row, col = block.exact_one
                exact_ones += 1
                if scale_minus(word(row), word(col), params).numerator != 0:
                    exact_ones_valid = False
    ok = (result.passed and result.all_star_blocks_witnessed
          and exact_ones == 4 and exact_ones_valid)
    acceptance(
        8, "stratum-0 sparsity mask over {1} and gap classes 0..4, "
           "digits <= 7", ok,
        f"{len(result.blocks)} blocks, {len(star)} stars witnessed, "
        f"{exact_ones} exact-1 entries at 5*col = row")


def test_criterion_09_parseval_partial_sums(acceptance):
    start = time.perf_counter()
    params = BernoulliParams(2, 5)
    # first digit length reaching 0.99, frozen from the initial oracle run
    reach_099 = {
        (0.1, "spectrum"): 1,
        (0.1, "scaled"): 4,
        (0.3, "spectrum"): 2,
        (0.3, "scaled"): 11,
        (SQRT_HALF, "spectrum"): 2,
        (SQRT_HALF, "scaled"): 15,
    }
    ok = True
    for (t, basis), depth in reach_099.items():
        at_depth = parseval_partial(t, params, depth, basis)
        below = parseval_partial(t, params, depth - 1, basis)
        ok = ok and at_depth.value >= 0.99 and below.value < 0.99
    for t in (0.1, 0.3, SQRT_HALF):
        for basis in ("spectrum", "scaled"):
            previous = -1.0
            for digits in range(0, 9):
                partial = parseval_partial(t, params, digits, basis)
                ok = (ok and partial.value >= previous
                      and partial.value <= 1.0 + partial.error_bound)
                previous = partial.value
    elapsed = time.perf_counter() - start
    acceptance(
        9, "partial sums nondecreasing, bounded by 1 + error, 0.99 depths "
           "match oracle fixture", ok,
        f"6 frequency/basis pairs, {elapsed:.2f}s")


def test_criterion_10_chaos_game_cross_check(acceptance):
    start = time.perf_counter()
    rng = np.random.default_rng(20260822)
    draws = rng.uniform(-8.0, 8.0, size=20)
    within = 0
    for i, t in enumerate(draws):
        params = BernoulliParams(2 if i % 2 == 0 else 3)
        certified = mu_hat_product(float(t), params, 64)
        estimate = chaos_game_estimate(
            float(t), params, 1_000_000, seed=5000 + i)
        deviation = abs(estimate.estimate - certified.value)
        if deviation <= 4.0 * estimate.std_error + certified.error_bound:
            within += 1
    elapsed = time.perf_counter() - start
    ok = within >= 19 and elapsed < 60.0
    acceptance(
        10, "product value within 4 standard errors of 1e6-sample "
            "chaos game, 20 frequencies, n in {2,3}", ok,
        f"{within}/20 within 4 sigma, {elapsed:.2f}s < 60s")
