"""run_suite's forked workers against its in-process path.

The CPU-set lookup ``workers.usable_cpus`` is monkeypatched: one CPU forces
the in-process path, two force forked workers even on a one-CPU machine.
Workers are forked, so a suite monkeypatched here runs in them too.
"""
import logging
import os

import pytest

from lipderiv import InputError, SuiteConfig, harness, run_suite, workers

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the platform cannot fork")

#: quick suites, two of them drawing random spaces
SUITES = ("frechet", "bhmv", "separation", "lipnorm", "oracle_equiv")


@pytest.fixture(autouse=True)
def no_child_outlives_the_run():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def cpus(monkeypatch, n):
    monkeypatch.setattr(workers, "usable_cpus", lambda: n)


def ran_on(caplog):
    """How the last run_suite call ran, from its logged total line."""
    return [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("total:")][-1].split(" suite(s) ")[1]


@needs_fork
def test_pool_equals_in_process(monkeypatch, caplog):
    caplog.set_level(logging.INFO, logger="lipderiv")
    cfg = SuiteConfig(seed=5, suite=SUITES, random_spaces=4)
    cpus(monkeypatch, 2)
    pooled = [r.to_dict() for r in run_suite(cfg)]
    assert ran_on(caplog) == "on 2 forked workers"
    cpus(monkeypatch, 1)
    in_process = [r.to_dict() for r in run_suite(cfg)]
    assert ran_on(caplog) == "in process"
    assert pooled == in_process
    assert [d["name"] for d in pooled] == sorted(d["name"] for d in pooled)


def test_single_suite_never_forks(monkeypatch, caplog):
    def refuse():
        raise AssertionError("forked for one suite")

    caplog.set_level(logging.INFO, logger="lipderiv")
    cpus(monkeypatch, 8)
    monkeypatch.setattr(os, "fork", refuse)
    results = run_suite(SuiteConfig(suite=("bhmv",)))
    assert {r.name for r in results} == {"bhmv/empty", "bhmv/full",
                                         "bhmv/two_blocks"}
    assert ran_on(caplog) == "in process"


@needs_fork
def test_injected_fault_fails_in_the_pool(monkeypatch):
    cpus(monkeypatch, 2)
    results = run_suite(SuiteConfig(suite=("chain", "frechet"),
                                    random_spaces=2, zoo_resolution=0.05,
                                    inject_fault="chain"))
    status = {r.name: r.status for r in results}
    assert status["chain/zoo:sin"] == "fail"
    assert any(name.startswith("frechet") for name in status)


@pytest.mark.parametrize("n_cpus", [1, pytest.param(2, marks=needs_fork)])
def test_input_error_in_a_suite_is_its_result(monkeypatch, n_cpus):
    def bad_input(cfg, rng, entries):
        raise InputError("no such point")

    cpus(monkeypatch, n_cpus)
    monkeypatch.setitem(harness._SUITES, "bhmv", bad_input)
    results = run_suite(SuiteConfig(suite=("bhmv", "frechet")))
    failed = [r for r in results if r.status == "fail"]
    assert [(r.name, r.detail) for r in failed] == [("bhmv/input",
                                                     "no such point")]
    assert any(r.name.startswith("frechet") for r in results)


@pytest.mark.parametrize("n_cpus", [1, pytest.param(2, marks=needs_fork)])
def test_unexpected_error_in_a_suite_propagates(monkeypatch, n_cpus):
    def broken(cfg, rng, entries):
        raise RuntimeError("suite broke")

    cpus(monkeypatch, n_cpus)
    monkeypatch.setitem(harness._SUITES, "bhmv", broken)
    with pytest.raises(RuntimeError, match="suite broke"):
        run_suite(SuiteConfig(suite=("bhmv", "frechet")))


@pytest.mark.parametrize("n_cpus", [1, pytest.param(2, marks=needs_fork)])
@pytest.mark.parametrize("suite,repeated", [
    (("bhmv", "bhmv"), "bhmv"),
    (("frechet", "bhmv", "frechet"), "frechet"),
    (("all", "chain"), "chain")], ids=["twice", "apart", "all"])
def test_each_selected_suite_runs_once(monkeypatch, caplog, n_cpus, suite,
                                       repeated):
    caplog.set_level(logging.INFO, logger="lipderiv")
    cpus(monkeypatch, n_cpus)
    results = run_suite(SuiteConfig(seed=3, suite=suite, random_spaces=2,
                                    zoo_resolution=0.05))
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    assert any(name.startswith(f"{repeated}/") for name in names)
    assert caplog.text.count(f"suite {repeated}:") == 1


def test_unknown_suite_beside_all_is_an_input_error():
    with pytest.raises(InputError, match="unknown suite"):
        run_suite(SuiteConfig(suite=("all", "no_such_suite")))
