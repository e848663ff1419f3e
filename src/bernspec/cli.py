"""Command-line front end for evaluation, enumeration, and verification.

Subcommands wrap the library operations one-to-one: muhat (certified
transform values), spectrum (word listing), matrix (truncated operator
matrix with CSV/JSON/PGM/SVG export), verify (the theorem suites, exit 0
iff no violations), parseval (partial-sum table), chaos (Monte-Carlo
cross-check).  Arguments written as "a", "a/2" or "a/4" stay exact;
a decimal is read as the binary float it names.  Relative output paths are
resolved against BERNSPEC_OUTPUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from bernspec.exact import (
    DEFAULT_TOL,
    BernoulliParams,
    QuarterInt,
    chaos_game_estimate,
    mu_hat,
    mu_hat_product,
)
# the verify_* names are called by name through VERIFY_SUITES
from bernspec.matrixlab import (
    TruncatedMatrix,
    verify_block_diagonal,
    verify_block_equality,
    verify_commutation_even,
    verify_multiplication_identity,
    verify_odd_twisted_relations,
    verify_w0_sparsity,
)
from bernspec.operators import parseval_table, verify_cuntz_relations
from bernspec.report import CheckReport
from bernspec.spectrum import (
    enumerate_spectrum,
    stratum_index,
    word_to_bits,
    word_value,
)

OUTPUT_DIR_ENV = "BERNSPEC_OUTPUT_DIR"


def parse_frequency(text: str) -> QuarterInt | float:
    """Quarter-integer strings stay exact; anything else parses as float."""
    try:
        return QuarterInt.parse(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"cannot parse {text!r}: expected an integer, a/2, a/4, or a decimal"
        ) from None


def _resolve_output(path_text: str) -> Path:
    path = Path(path_text)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_muhat(args: argparse.Namespace) -> int:
    params = BernoulliParams(args.n)
    t = parse_frequency(args.t)
    if args.terms is None:
        result = mu_hat(t, params, args.tol)
    else:
        result = mu_hat_product(t, params, args.terms)
    if args.json:
        print(json.dumps({
            "t": args.t,
            "n": params.n,
            "exact_zero": result.exact_zero,
            "sign": 0 if result.exact_zero else result.sign,
            "magnitude": result.magnitude,
            "error_bound": result.error_bound,
            "value": result.value,
        }))
    else:
        sign = 0 if result.exact_zero else result.sign
        print(
            f"exact_zero={result.exact_zero} sign={sign} "
            f"magnitude={result.magnitude!r} error_bound={result.error_bound!r}"
        )
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    params = BernoulliParams(args.n)
    lines = ["word,value,stratum"]
    for w in enumerate_spectrum(params, args.max_digits, order=args.order):
        stratum = stratum_index(w)
        lines.append(
            f"{word_to_bits(w)},{word_value(w, params)},"
            f"{'' if stratum is None else stratum}"
        )
    text = "\n".join(lines) + "\n"
    if args.csv:
        _resolve_output(args.csv).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    params = BernoulliParams(args.n, args.p)
    matrix = TruncatedMatrix.build(
        params, args.max_digits, tol=args.tol, order=args.order)
    summary = matrix.to_json_text()
    if args.csv:
        matrix.write_csv(_resolve_output(args.csv))
    if args.json_file:
        _resolve_output(args.json_file).write_text(summary)
    if args.pgm:
        matrix.write_pgm(_resolve_output(args.pgm))
    if args.svg:
        matrix.write_svg(_resolve_output(args.svg))
    sys.stdout.write(summary)
    return 0


@dataclass(frozen=True)
class Suite:
    """A `verify` suite: its verifier, its flags and its `verify all` runs.

    defaults maps each flag the suite takes, by its argparse dest (also
    the verifier's keyword), to its default.  n and p reach the verifier
    as one BernoulliParams; p None means 5 when n = 2 and 3 otherwise.
    battery lists the `verify all` runs as overrides of defaults.  The
    verifier is held by name and looked up in this module when the suite
    runs, so a replaced module attribute takes effect.  A run that makes
    no check is an error, not a pass.
    """

    name: str
    verifier: str
    defaults: dict
    battery: tuple[dict, ...] = ({},)

    def run(self, settings: dict) -> CheckReport:
        kwargs = {**self.defaults, **settings}
        if "n" in kwargs:
            n, p = kwargs.pop("n"), kwargs.pop("p", None)
            if p is None and "p" in self.defaults:
                p = 5 if n == 2 else 3
            kwargs["params"] = BernoulliParams(n, p)
        report = globals()[self.verifier](**kwargs)
        if report.checked == 0:
            raise ValueError(
                f"verify {self.name} made 0 checks: --max-digits "
                f"{kwargs['max_digits']} is too small to test anything")
        return report


VERIFY_SUITES = {suite.name: suite for suite in (
    Suite("cuntz", "verify_cuntz_relations", {"n": 2, "max_digits": 8},
          ({}, {"n": 3}, {"n": 4})),
    Suite("block-diagonal", "verify_block_diagonal",
          {"n": 2, "p": None, "max_digits": 6}, ({}, {"n": 4})),
    Suite("block-equality", "verify_block_equality",
          {"n": 2, "p": None, "max_digits": 6, "k_max": 3}),
    Suite("commute-even", "verify_commutation_even",
          {"n": 2, "p": None, "max_digits": 5}, ({}, {"n": 4})),
    Suite("commute-odd", "verify_odd_twisted_relations",
          {"n": 3, "p": None, "max_digits": 4}, ({}, {"p": 5})),
    Suite("multiplication", "verify_multiplication_identity",
          {"max_digits": 6, "tol": 1e-6}),
    Suite("w0-sparsity", "verify_w0_sparsity",
          {"max_digits": 6, "tilde_max": None, "require_witnesses": False},
          ({"max_digits": 7, "tilde_max": 4, "require_witnesses": True},)),
)}


def _flags(dests) -> str:
    return ", ".join("--" + dest.replace("_", "-") for dest in dests)


def cmd_verify(args: argparse.Namespace) -> int:
    given = {
        dest: getattr(args, dest)
        for suite in VERIFY_SUITES.values() for dest in suite.defaults
        if getattr(args, dest) is not None
    }
    if args.suite == "all":
        accepted = {}
        runs = [(suite, settings) for suite in VERIFY_SUITES.values()
                for settings in suite.battery]
    else:
        accepted = VERIFY_SUITES[args.suite].defaults
        runs = [(VERIFY_SUITES[args.suite], given)]
    unknown = [dest for dest in given if dest not in accepted]
    if unknown:
        raise ValueError(
            f"verify {args.suite} does not take {_flags(unknown)}; "
            f"it takes {_flags(accepted) or 'no flags'}")
    reports = [suite.run(settings) for suite, settings in runs]

    for report in reports:
        for line in report.lines():
            print(line)
    failures = [r for r in reports if not r.passed]
    if failures:
        print(json.dumps(
            {"failures": [r.to_json_obj() for r in failures]}, indent=2))
        return 1
    return 0


def cmd_parseval(args: argparse.Namespace) -> int:
    if args.base == "scaled" and args.p is None:
        raise ValueError("the scaled basis needs --p")
    params = BernoulliParams(args.n, args.p)
    basis = "spectrum" if args.base == "gamma" else "scaled"
    t = parse_frequency(args.t)
    table = parseval_table(t, params, args.max_digits, basis, args.tol)
    if args.json:
        print(json.dumps([
            {"digits": d, "partial_sum": row.value, "error_bound": row.error_bound}
            for d, row in enumerate(table)
        ]))
    else:
        print("digits partial_sum error_bound")
        for d, row in enumerate(table):
            print(f"{d} {row.value!r} {row.error_bound!r}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    params = BernoulliParams(args.n)
    t = parse_frequency(args.t)
    reference = mu_hat(t, params, args.tol)
    # every estimate runs before the first line, so a rejected input
    # prints nothing
    estimates = [chaos_game_estimate(t, params, samples, seed=args.seed)
                 for samples in args.samples]
    print("samples estimate std_error reference deviation_sigmas")
    for samples, estimate in zip(args.samples, estimates):
        if estimate.std_error > 0.0 and estimate.std_error != float("inf"):
            sigmas = abs(estimate.estimate - reference.value) / estimate.std_error
        else:
            sigmas = float("nan")
        print(
            f"{samples} {estimate.estimate!r} {estimate.std_error!r} "
            f"{reference.value!r} {sigmas:.3f}"
        )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernspec",
        description=(
            "Bernoulli convolution measures at scale 1/2n: certified "
            "transform evaluation, spectrum enumeration, operator matrices, "
            "and theorem verification on finite truncations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_muhat = sub.add_parser(
        "muhat", help="evaluate the transform at one frequency")
    p_muhat.add_argument("--n", type=int, default=2)
    p_muhat.add_argument("--t", required=True,
                         help="frequency: integer, a/2, a/4, or decimal")
    p_muhat.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_muhat.add_argument("--terms", type=int, default=None,
                         help="force a fixed product length")
    p_muhat.add_argument("--json", action="store_true")
    p_muhat.set_defaults(func=cmd_muhat)

    p_spec = sub.add_parser(
        "spectrum", help="list spectrum words of bounded digit length")
    p_spec.add_argument("--n", type=int, default=2)
    p_spec.add_argument("--max-digits", type=int, required=True)
    p_spec.add_argument("--order", choices=("value", "strata"),
                        default="value")
    p_spec.add_argument("--csv", default=None,
                        help="write CSV here instead of stdout")
    p_spec.set_defaults(func=cmd_spectrum)

    p_matrix = sub.add_parser(
        "matrix", help="build the truncated operator matrix and export it")
    p_matrix.add_argument("--n", type=int, default=2)
    p_matrix.add_argument("--p", type=int, required=True)
    p_matrix.add_argument("--max-digits", type=int, required=True)
    p_matrix.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_matrix.add_argument("--order", choices=("value", "strata"),
                          default="strata")
    p_matrix.add_argument("--csv", default=None)
    p_matrix.add_argument("--json-file", default=None)
    p_matrix.add_argument("--pgm", default=None)
    p_matrix.add_argument("--svg", default=None)
    p_matrix.set_defaults(func=cmd_matrix)

    p_verify = sub.add_parser(
        "verify", help="run a verification suite; exit 0 iff no violations")
    p_verify.add_argument("suite", choices=[*VERIFY_SUITES, "all"])
    # None marks a flag as not given; each suite's defaults are in
    # VERIFY_SUITES
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--p", type=int, default=None)
    p_verify.add_argument("--max-digits", type=int, default=None)
    p_verify.add_argument("--k-max", type=int, default=None)
    p_verify.add_argument("--tilde-max", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=None,
                          help="numeric match tolerance (multiplication)")
    p_verify.add_argument("--require-witnesses", action="store_true",
                          default=None,
                          help="w0-sparsity: demand a nonzero witness in "
                               "every star block")
    p_verify.set_defaults(func=cmd_verify)

    p_parseval = sub.add_parser(
        "parseval", help="partial Parseval sums over a truncated basis")
    p_parseval.add_argument("--n", type=int, default=2)
    p_parseval.add_argument("--p", type=int, default=None)
    p_parseval.add_argument("--t", required=True)
    p_parseval.add_argument("--base", choices=("gamma", "scaled"),
                            default="gamma")
    p_parseval.add_argument("--max-digits", type=int, required=True)
    p_parseval.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_parseval.add_argument("--json", action="store_true")
    p_parseval.set_defaults(func=cmd_parseval)

    p_chaos = sub.add_parser(
        "chaos", help="Monte-Carlo estimate vs certified product value")
    p_chaos.add_argument("--n", type=int, default=2)
    p_chaos.add_argument("--t", required=True)
    p_chaos.add_argument("--samples", type=int, nargs="+",
                         default=[1_000_000])
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_chaos.set_defaults(func=cmd_chaos)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # an unwritable output path is a bad input, not a crash
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
