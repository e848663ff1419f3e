"""Tracing of bernspec's public functions, installed from the benchmark.

bernspec modules import each other's names directly, so a function is
replaced by its traced wrapper in every bernspec namespace that holds it,
not only in the module that defines it.  Coarse calls (an op, a matrix
build, a verifier, an export, a Parseval sum) each record a span; hot leaf
calls only add to aggregated counts and times.  Spans stay in memory until
the run writes them out.  A call's self time is its duration minus the
durations of the traced calls made inside it.
"""

from __future__ import annotations

import functools
import os
import time

MODULES = ("exact", "spectrum", "operators", "matrixlab", "report", "cli")


def _zero_hits(tracer, args, kwargs, result):
    tracer.count("exact.in_zero_set.true", bool(result))


def _mu_hat(tracer, args, kwargs, result):
    if result.exact_zero:
        tracer.count("exact.mu_hat.exact_zero")
    else:
        tracer.maximum("exact.mu_hat.max_error_bound", result.error_bound)


def _product(tracer, args, kwargs, result):
    if tracer.caller() == "exact.mu_hat":
        tracer.count("exact.mu_hat.products")


def _samples(tracer, args, kwargs, result):
    tracer.count("exact.chaos_game_estimate.samples",
                 kwargs["samples"] if "samples" in kwargs else args[2])


def _words(tracer, args, kwargs, result):
    tracer.count("spectrum.enumerate_spectrum.words", len(result))


def _evaluations(tracer, args, kwargs, result):
    # one coefficient per word of the truncation
    digits = kwargs["max_digits"] if "max_digits" in kwargs else args[2]
    tracer.count("operators.evaluations", 2 ** digits)


def _checks(name):
    def observe(tracer, args, kwargs, result):
        report = getattr(result, "check", result)  # SparsityReport wraps its CheckReport
        tracer.count(name + ".checks", report.checked)
    return observe


def _entries(tracer, args, kwargs, result):
    tracer.count("matrixlab.TruncatedMatrix.build.entries", len(result.words) ** 2)


def _bytes(tracer, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    tracer.count("matrixlab.export.bytes", os.path.getsize(path))


_VERIFIERS = ("verify_block_diagonal", "verify_block_equality", "verify_commutation_even",
              "verify_odd_twisted_relations", "verify_multiplication_identity",
              "analyze_w0_sparsity")
# (module, function, traced name, records spans, observer)
FUNCTIONS = [
    ("exact", "in_zero_set", "exact.in_zero_set", False, _zero_hits),
    ("exact", "reduce_argument", "exact.reduce_argument", False, None),
    ("exact", "mu_hat", "exact.mu_hat", False, _mu_hat),
    ("exact", "mu_hat_product", "exact.mu_hat_product", False, _product),
    ("exact", "chaos_game_estimate", "exact.chaos_game_estimate", True, _samples),
    ("spectrum", "word_value", "spectrum.word_value", False, None),
    ("spectrum", "enumerate_spectrum", "spectrum.enumerate_spectrum", False, _words),
    ("operators", "verify_cuntz_relations", "operators.verify_cuntz_relations", True,
     _checks("operators.verify_cuntz_relations")),
    ("operators", "parseval_partial", "operators.parseval_partial", True, _evaluations),
    ("operators", "expand_exponential", "operators.expand_exponential", True, _evaluations),
    *[("matrixlab", name, f"matrixlab.{name}", True, _checks(f"matrixlab.{name}"))
      for name in _VERIFIERS],
    ("cli", "main", "cli", True, None),
]
# (module, class, method, traced name, records spans, observer)
METHODS = [
    ("matrixlab", "TruncatedMatrix", "build", "matrixlab.TruncatedMatrix.build", True, _entries),
    *[("matrixlab", "TruncatedMatrix", name, "matrixlab.export", True, _bytes)
      for name in ("write_csv", "write_json", "write_pgm", "write_svg")],
    ("report", "CheckReport", "add", "report.add", False, None),
]


class Tracer:
    def __init__(self):
        self.timings: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counters: dict[str, float] = {}
        self.spans: list[dict | None] = []
        self.op_index = -1
        self._frames: list[list] = []  # [child seconds, name] of each open call
        self._open_spans: list[int] = []
        self._undo: list[tuple] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def caller(self) -> str | None:
        """Name of the traced call that is running, as seen from an observer."""
        return self._frames[-1][1] if self._frames else None

    def span(self, name: str, func, observe=None):
        return self._wrap(name, func, True, observe)

    def _wrap(self, name, func, record_span, observe):
        timing = self.timings.setdefault(name, [0, 0.0, 0.0])
        frames, open_spans, spans = self._frames, self._open_spans, self.spans
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = [0.0, name]
            frames.append(frame)
            if record_span:
                span_id = len(spans)
                spans.append(None)  # reserve the id; children may record first
                open_spans.append(span_id)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - start
                timing[0] += 1
                timing[1] += duration
                timing[2] += duration - frame[0]
                if frames:
                    frames[-1][0] += duration
                if record_span:
                    open_spans.pop()
                    spans[span_id] = {
                        "id": span_id, "parent": open_spans[-1] if open_spans else None,
                        "op": self.op_index, "name": name, "start": start, "end": end}
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def install(self, program) -> None:
        """Wrap every traced function and method of the program in place."""
        namespaces = [program.package] + [getattr(program, m) for m in MODULES]
        for module, attr, name, record_span, observe in FUNCTIONS:
            original = getattr(getattr(program, module), attr)
            traced = self._wrap(name, original, record_span, observe)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, traced)
                        self._undo.append((namespace, key, original))
        for module, cls_name, attr, name, record_span, observe in METHODS:
            cls = getattr(getattr(program, module), cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                traced = classmethod(self._wrap(name, original.__func__, record_span, observe))
            else:
                traced = self._wrap(name, original, record_span, observe)
            setattr(cls, attr, traced)
            self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures, named as in BENCHMARK.json."""
        def timing(name):
            return self.timings.get(name, [0, 0.0, 0.0])

        def counter(key):
            return self.counters.get(key, 0)

        def ratio(a, b):
            return a / b if b else 0.0

        metrics = {}
        for name in ("exact.in_zero_set", "exact.reduce_argument", "exact.mu_hat",
                     "exact.mu_hat_product", "spectrum.word_value",
                     "spectrum.enumerate_spectrum", "operators.parseval_partial",
                     "operators.expand_exponential", "cli"):
            calls, _, self_s = timing(name)
            metrics[f"{name}.calls"] = calls
            metrics[f"{name}.self_s"] = self_s
        for name in ("exact.in_zero_set", "exact.reduce_argument", "exact.mu_hat"):
            calls, inclusive, _ = timing(name)
            metrics[f"{name}.us_per_call"] = ratio(inclusive * 1e6, calls)
        mu_hat_calls = timing("exact.mu_hat")[0]
        zeros = counter("exact.mu_hat.exact_zero")
        metrics["exact.in_zero_set.true_ratio"] = ratio(
            counter("exact.in_zero_set.true"), timing("exact.in_zero_set")[0])
        metrics["exact.mu_hat.exact_zero_ratio"] = ratio(zeros, mu_hat_calls)
        metrics["exact.mu_hat.max_error_bound"] = counter("exact.mu_hat.max_error_bound")
        metrics["exact.mu_hat.products_per_nonzero"] = ratio(
            counter("exact.mu_hat.products"), mu_hat_calls - zeros)
        _, chaos_s, chaos_self = timing("exact.chaos_game_estimate")
        metrics["exact.chaos_game_estimate.self_s"] = chaos_self
        metrics["exact.chaos_game_estimate.samples_per_s"] = ratio(
            counter("exact.chaos_game_estimate.samples"), chaos_s)
        metrics["spectrum.enumerate_spectrum.words"] = counter("spectrum.enumerate_spectrum.words")
        for name in ("operators.verify_cuntz_relations",
                     *[f"matrixlab.{v}" for v in _VERIFIERS]):
            metrics[f"{name}.self_s"] = timing(name)[2]
            metrics[f"{name}.checks"] = counter(f"{name}.checks")
        metrics["matrixlab.TruncatedMatrix.build.self_s"] = timing(
            "matrixlab.TruncatedMatrix.build")[2]
        metrics["matrixlab.TruncatedMatrix.build.entries"] = counter(
            "matrixlab.TruncatedMatrix.build.entries")
        metrics["matrixlab.export.self_s"] = timing("matrixlab.export")[2]
        metrics["matrixlab.export.bytes"] = counter("matrixlab.export.bytes")
        metrics["report.violations"] = timing("report.add")[0]
        metrics["cli.stdout_bytes"] = counter("cli.stdout_bytes")
        return metrics
