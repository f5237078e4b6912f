"""The benchmark's tracer and runner name library code; both must resolve.

``perfbench/spans.py`` wraps each of its ``TARGETS`` by reading the
attribute off its module or class, and ``perfbench/run.py`` expects one
``harness.suite.<name>.s`` metric per suite.  A rename or deletion in the
library that breaks either fails here.
"""
import importlib
import sys
from pathlib import Path

from lipderiv import harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    """Import a perfbench script as a module, writing nothing beside it."""
    sys.path.insert(0, str(PERFBENCH))
    bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = bytecode
        sys.path.remove(str(PERFBENCH))


def test_every_span_target_resolves():
    spans = perfbench_module("spans")
    for module, cls, attr in spans.TARGETS:
        owner = importlib.import_module(f"lipderiv.{module}")
        if cls is not None:
            owner = vars(owner)[cls]
        assert callable(vars(owner)[attr]), (module, cls, attr)


def test_suite_names_match_the_runner():
    assert harness.SUITE_NAMES == perfbench_module("run").SUITE_NAMES
