"""The setclass check suite fails on a planted defect in ``setclass``.

Each test plants one defect with monkeypatch and runs the suite alone.
``workers.usable_cpus`` is set to 1, so the suite runs in this process,
where the defect is planted.
"""
import pytest

from lipderiv import SuiteConfig, run_suite, setclass, workers


@pytest.fixture(autouse=True)
def in_process(monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)


def failures():
    results = run_suite(SuiteConfig(suite=("setclass",)))
    return [r.name for r in results if r.status == "fail"]


def test_closed_superlevels_read_as_open_sublevels(monkeypatch):
    real_init = setclass.FieldBatch.__init__

    def closed_is_upper(self, ground, values):
        real_init(self, ground, values)
        self.closed = self.upper

    monkeypatch.setattr(setclass.FieldBatch, "__init__", closed_is_upper)
    assert failures()


def test_lower_side_read_from_the_upper_row(monkeypatch):
    real_sc_table = setclass.sc_table

    def lower_is_upper(fields, F, statements=True):
        sc, holds = real_sc_table(fields, F, statements)
        return sc[[0, 0]], holds

    monkeypatch.setattr(setclass, "sc_table", lower_is_upper)
    assert failures()


def test_closure_of_one_round_of_pairwise_ops(monkeypatch):
    def one_round(masks, op):
        masks = set(masks)
        return masks | {op(a, b) for a in masks for b in masks}

    monkeypatch.setattr(setclass, "_closure", one_round)
    assert failures()
