"""Bernoulli convolution spectra: exact arithmetic, operators, verification."""

from bernspec.exact import (
    BernoulliParams,
    ChaosEstimate,
    MuHatValue,
    QuarterInt,
    chaos_game_estimate,
    in_zero_set,
    mu_hat,
    mu_hat_many,
    mu_hat_product,
    reduce_argument,
    reduce_arguments,
    reduce_numerator,
)
from bernspec.matrixlab import (
    BlockStatus,
    SparsityReport,
    TruncatedMatrix,
    analyze_w0_sparsity,
    verify_block_diagonal,
    verify_block_equality,
    verify_commutation_even,
    verify_multiplication_identity,
    verify_odd_twisted_relations,
    verify_w0_sparsity,
)
from bernspec.operators import (
    CoeffVector,
    ParsevalSum,
    expand_exponential,
    parseval_table,
    prepend_one,
    prepend_zero,
    strip_one,
    strip_zero,
    verify_cuntz_relations,
)
from bernspec.report import CheckReport
from bernspec.spectrum import TILDE_ONE_POINT

__version__ = "0.1.0"

__all__ = [
    "BernoulliParams",
    "BlockStatus",
    "ChaosEstimate",
    "CheckReport",
    "CoeffVector",
    "MuHatValue",
    "ParsevalSum",
    "QuarterInt",
    "SparsityReport",
    "TILDE_ONE_POINT",
    "TruncatedMatrix",
    "analyze_w0_sparsity",
    "chaos_game_estimate",
    "expand_exponential",
    "in_zero_set",
    "mu_hat",
    "mu_hat_many",
    "mu_hat_product",
    "parseval_table",
    "prepend_one",
    "prepend_zero",
    "reduce_argument",
    "reduce_arguments",
    "reduce_numerator",
    "strip_one",
    "strip_zero",
    "verify_block_diagonal",
    "verify_block_equality",
    "verify_commutation_even",
    "verify_cuntz_relations",
    "verify_multiplication_identity",
    "verify_odd_twisted_relations",
    "verify_w0_sparsity",
]
