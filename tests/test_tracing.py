"""The names the benchmark tracer wraps and reads are where it looks.

`bench/tracing.py` replaces bernspec functions and methods by traced
wrappers, each found by its module and name, so a renamed or removed name
breaks only the traced benchmark run.  It is loaded here by path and read
only.  The package root exports word indices, not the digit-tuple names.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import bernspec
from bernspec.exact import BernoulliParams
from bernspec.matrixlab import TruncatedMatrix

_TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("bernspec_bench_tracing", _TRACING_PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

TUPLE_NAMES = ("Word", "word_value", "enumerate_spectrum", "parseval_partial")


def _module(name: str):
    return importlib.import_module(f"bernspec.{name}")


@pytest.mark.parametrize("entry", tracing.FUNCTIONS, ids=lambda e: f"{e[0]}.{e[1]}")
def test_traced_function_exists(entry):
    module, attr = entry[:2]
    assert callable(vars(_module(module)).get(attr))


@pytest.mark.parametrize("entry", tracing.METHODS, ids=lambda e: f"{e[1]}.{e[2]}")
def test_traced_method_is_defined_on_its_class(entry):
    module, cls_name, attr = entry[:3]
    assert attr in vars(getattr(_module(module), cls_name))


def test_matrix_words_read_by_the_entry_count():
    matrix = TruncatedMatrix.build(BernoulliParams(2, 5), 2, order="value")
    assert matrix.words == [(), (1,), (0, 1), (1, 1)]


def test_package_root_exports():
    for name in bernspec.__all__:
        assert hasattr(bernspec, name), name
    assert not set(TUPLE_NAMES) & set(bernspec.__all__)
    for name in TUPLE_NAMES:
        assert not hasattr(bernspec, name), name
