"""The benchmark's workloads: seeded inputs, op execution and output checks.

An op is one in-process `bernspec.cli.main([...])` call, or one public
library call where the command line has no command for it.  Ops come in
cycles; a run executes whole cycles, so every run holds each op type
equally often and the seed changes only the inputs and their order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks

MATRIX_DIGITS = 6
# (2, 5) has 9% nonzero entries, the others 33%.
MATRIX_PAIRS = ((2, 3), (2, 5), (2, 7), (3, 5), (4, 3))
# The ops of `bernspec verify all`, one digit deeper, plus one op that
# must fail: without --tilde-max the w0 census at depth 8 has a star block,
# (0, 6), with no witness, because class 6 has a single word there.
VERIFY_OPS = (
    ("cuntz-n2", "cuntz --n 2 --max-digits 8"),
    ("cuntz-n3", "cuntz --n 3 --max-digits 8"),
    ("cuntz-n4", "cuntz --n 4 --max-digits 8"),
    ("block-diagonal-2-5", "block-diagonal --n 2 --p 5 --max-digits 7"),
    ("block-diagonal-4-3", "block-diagonal --n 4 --p 3 --max-digits 7"),
    ("block-equality-2-5", "block-equality --n 2 --p 5 --max-digits 7 --k-max 3"),
    ("block-equality-4-3", "block-equality --n 4 --p 3 --max-digits 7 --k-max 3"),
    ("commute-even-2-5", "commute-even --n 2 --p 5 --max-digits 6"),
    ("commute-even-4-3", "commute-even --n 4 --p 3 --max-digits 6"),
    ("commute-odd-3-3", "commute-odd --n 3 --p 3 --max-digits 5"),
    ("commute-odd-3-5", "commute-odd --n 3 --p 5 --max-digits 5"),
    ("multiplication", "multiplication --max-digits 7"),
    ("w0-sparsity", "w0-sparsity --max-digits 8 --tilde-max 5 --require-witnesses"),
    ("w0-sparsity-expected-failure", "w0-sparsity --max-digits 8 --require-witnesses"),
)
EXPECTED_FAILURE_DIGITS = 8
PARSEVAL_DIGITS = 11
EXPAND_DIGITS = 12
SCALED_P = {2: 5, 3: 5, 4: 3}  # p of the scaled Parseval basis, by n
CHAOS_SAMPLES = 200_000
MATRIX_ORACLE_SAMPLE = 12  # nonzero entries per distinct matrix
EXPAND_ORACLE_SAMPLE = 4  # coefficients per expansion


@dataclass(frozen=True)
class Op:
    label: str  # op type; each cycle holds each label equally often
    argv: tuple[str, ...] = ()  # command-line arguments; empty for a library call
    inputs: dict = field(default_factory=dict, compare=False)


@dataclass
class Outcome:
    seconds: float
    rc: int | None
    stdout: str
    value: object = None  # what a library call returned
    error: str | None = None


def run_op(program, op: Op, tracer=None) -> Outcome:
    """Run one op with its output captured; only the call itself is timed."""
    if op.argv:
        def call():
            return program.cli.main(list(op.argv)), None
    else:
        def call():
            return 0, _LIBRARY_CALLS[op.label](program, op.inputs)
    if tracer is not None:
        call = tracer.span("op", call)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc, value = call()
            error = None
        except SystemExit as exc:
            rc, value, error = exc.code, None, None
        except Exception as exc:  # a crashing op is a failed op, not a failed run
            rc, value = None, None
            error = traceback.format_exception_only(exc)[-1].strip()
        seconds = time.perf_counter() - start
    if error is None and rc not in (0, 1):
        error = f"exit code {rc}: {err.getvalue().strip()[:200]}"
    return Outcome(seconds, rc, out.getvalue(), value, error)


def _expand(program, inputs):
    t = inputs["t"]
    t = program.exact.QuarterInt.parse(t) if inputs["quarter"] else float(t)
    return program.operators.expand_exponential(
        t, program.exact.BernoulliParams(inputs["n"]), inputs["digits"])


_LIBRARY_CALLS = {"expand-q": _expand, "expand-d": _expand}


class Workload:
    name = ""
    work_metric: str | None = None  # the unit of user-visible work, per second
    trace_cycles = 1  # whole cycles in a traced run; fixed so counts repeat
    warmup_label = ""  # op type of the set-up's warm-up op

    def __init__(self, seed: int, outdir: Path):
        self.inputs = random.Random(f"{self.name}-inputs-{seed}")
        self.sample = random.Random(f"{self.name}-oracle-{seed}")
        self.outdir = outdir

    def cycle(self) -> list[Op]:
        raise NotImplementedError

    def warmup(self, first_cycle: list[Op]) -> Op:
        """The op run once during set-up: a fixed op type, so set-up is comparable."""
        return next(op for op in first_cycle if op.label == self.warmup_label)

    def check(self, op: Op, outcome: Outcome) -> list[str]:
        raise NotImplementedError

    def work(self, ops: list[Op]) -> int:
        """Units of work_metric that the ops ask for."""
        return 0

    def coefficient_ops(self, ops: list[Op]) -> list[Op]:
        """The ops that evaluate transform coefficients over a truncation."""
        return []

    def notes(self) -> dict:
        return {}


class MatrixWorkload(Workload):
    name = "matrix"
    work_metric = "entries_per_s"
    trace_cycles = 4
    warmup_label = "matrix-2-3"

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self.digests: dict[str, tuple[str, str, str]] = {}

    def cycle(self):
        pairs = list(MATRIX_PAIRS)
        self.inputs.shuffle(pairs)
        return [self._op(n, p) for n, p in pairs]

    @staticmethod
    def _op(n, p):
        stem = f"matrix-{n}-{p}"
        argv = ("matrix", "--n", str(n), "--p", str(p), "--max-digits", str(MATRIX_DIGITS),
                "--csv", stem + ".csv", "--pgm", stem + ".pgm", "--json-file", stem + ".json")
        return Op(stem, argv, {"n": n, "p": p})

    def check(self, op, outcome):
        if outcome.error or outcome.rc != 0:
            return [outcome.error or f"exit code {outcome.rc}"]
        stem = self.outdir / op.label
        csv = stem.with_suffix(".csv").read_bytes()
        pgm = stem.with_suffix(".pgm").read_bytes()
        json_text = stem.with_suffix(".json").read_bytes()
        problems = []
        if outcome.stdout.encode() != json_text:
            problems.append("stdout differs from the JSON file")
        digests = tuple(hashlib.sha256(b).hexdigest() for b in (csv, pgm, json_text))
        first = self.digests.get(op.label)
        if first is not None:
            if digests != first:
                problems.append("exports differ from the first op on the same (n, p)")
            return problems
        self.digests[op.label] = digests
        text = csv.decode()
        sample = checks.matrix_sample(text, MATRIX_ORACLE_SAMPLE, self.sample)
        return problems + checks.check_matrix(
            text, pgm, json_text.decode(), op.inputs["n"], op.inputs["p"],
            MATRIX_DIGITS, sample)

    def work(self, ops):
        size = 2 ** MATRIX_DIGITS
        return len(ops) * size * size

    def notes(self):
        return {"export_sha256": {k: dict(zip(("csv", "pgm", "json"), v))
                                  for k, v in sorted(self.digests.items())}}


class VerifyWorkload(Workload):
    name = "verify"
    trace_cycles = 3
    warmup_label = "cuntz-n2"

    def __init__(self, seed, outdir):
        super().__init__(seed, outdir)
        self._predicted = None

    def cycle(self):
        ops = [Op(label, ("verify", *args.split())) for label, args in VERIFY_OPS]
        self.inputs.shuffle(ops)
        return ops

    def check(self, op, outcome):
        if outcome.error:
            return [outcome.error]
        if op.label == "w0-sparsity-expected-failure":
            if self._predicted is None:
                self._predicted = checks.w0_missing_witnesses(EXPECTED_FAILURE_DIGITS)
            return checks.check_expected_failure(outcome.stdout, outcome.rc, self._predicted)
        return checks.check_suite_pass(outcome.stdout, outcome.rc)


class TransformWorkload(Workload):
    name = "transform"
    work_metric = "coeffs_per_s"
    trace_cycles = 1
    warmup_label = "parseval-q-gamma"

    def cycle(self):
        rng = self.inputs
        ops = []
        for n in (2, 3, 4):
            for kind in ("q", "d"):
                for basis in ("gamma", "scaled"):
                    t = self._frequency(kind)
                    argv = ["parseval", "--n", str(n), f"--t={t}",
                            "--max-digits", str(PARSEVAL_DIGITS), "--json"]
                    p = 1
                    if basis == "scaled":
                        p = SCALED_P[n]
                        argv += ["--base", "scaled", "--p", str(p)]
                    ops.append(Op(f"parseval-{kind}-{basis}", tuple(argv),
                                  {"n": n, "t": t, "scale": p, "digits": PARSEVAL_DIGITS}))
            # two of each: p90 then falls inside the slowest cluster, expand-q,
            # not on its edge
            for kind in ("q", "d", "q", "d"):
                ops.append(Op(f"expand-{kind}", (), {
                    "n": n, "t": self._frequency(kind), "quarter": kind == "q",
                    "scale": 1, "digits": EXPAND_DIGITS}))
            t = f"{rng.randint(1, 400)}/4"
            ops.append(Op("chaos", ("chaos", "--n", str(n), f"--t={t}", "--samples",
                                    str(CHAOS_SAMPLES), "--seed", str(rng.randrange(2**32))),
                          {"n": n, "t": t, "scale": 1, "digits": 0}))
            t = f"{self._huge_numerator(n)}/4"
            ops.append(Op("muhat", ("muhat", "--n", str(n), f"--t={t}", "--json"),
                          {"n": n, "t": t, "scale": 1, "digits": 0}))
        rng.shuffle(ops)
        return ops

    def _frequency(self, kind):
        # An odd numerator keeps t - gamma off the zero set for every spectrum
        # point gamma, so the cost of an op does not depend on the draw.
        if kind == "q":
            return f"{2 * self.inputs.randint(-20_000, 19_999) + 1}/4"
        return f"{self.inputs.uniform(-1000.0, 1000.0):.6f}"

    def _huge_numerator(self, n):
        # 40-60 digits; one in four lies on the zero set (2n)^k (2m + 1)
        rng = self.inputs
        if rng.random() < 0.25:
            return (2 * n) ** rng.randint(20, 60) * (2 * rng.randrange(10**12) + 1)
        return rng.choice((-1, 1)) * rng.randrange(10**40, 10**60)

    def check(self, op, outcome):
        if outcome.error:
            return [outcome.error]
        n, t = op.inputs["n"], op.inputs["t"]
        if op.label.startswith("parseval"):
            return checks.check_parseval(outcome.stdout, outcome.rc, n, t, op.inputs["digits"])
        if op.label.startswith("expand"):
            return checks.check_expansion(outcome.value, n, t, op.inputs["digits"],
                                          self.sample, EXPAND_ORACLE_SAMPLE)
        if op.label == "chaos":
            return checks.check_chaos(outcome.stdout, outcome.rc, n, t)
        return checks.check_muhat(outcome.stdout, outcome.rc, n, t)

    def work(self, ops):
        """Distinct (t, basis point) coefficients asked for.

        A Parseval table or an expansion to depth D asks for the 2^D points
        of that truncation; muhat and chaos ask for the value at t alone.
        A point already asked for earns nothing.
        """
        deepest: dict[tuple, int] = {}
        total = 0
        for op in ops:
            key = (op.inputs["n"], op.inputs["scale"], op.inputs["t"])
            depth = op.inputs["digits"]
            before = deepest.get(key)
            if before is None:
                total += 2 ** depth
            elif depth > before:
                total += 2 ** depth - 2 ** before
            deepest[key] = max(depth, before or 0)
        return total

    def coefficient_ops(self, ops: list[Op]) -> list[Op]:
        return [op for op in ops if op.label.startswith(("parseval", "expand"))]


WORKLOADS = {w.name: w for w in (MatrixWorkload, VerifyWorkload, TransformWorkload)}
