"""fork_map: tasks spread over forked children, one pinned to each CPU.

The children inherit the task function, so functions defined here (closures
included) run in them; no child may outlive a test.
"""
import os
import time

import pytest

from lipderiv import workers
from lipderiv.workers import fork_map

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the platform cannot fork")


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def square_where(t):
    return t * t, os.getpid()


def test_results_come_back_in_task_order():
    def slow_square_where(t):
        time.sleep(0.01)
        return square_where(t)

    results = fork_map(slow_square_where, range(20), 2)
    assert [square for square, _ in results] == [t * t for t in range(20)]
    pids = {pid for _, pid in results}
    assert os.getpid() not in pids
    assert 1 <= len(pids) <= 2


def test_more_tasks_than_one_queue_holds():
    n = workers._QUEUED + 3
    assert [s for s, _ in fork_map(square_where, range(n), 2)] == [
        t * t for t in range(n)]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or workers.usable_cpus() < 2,
                    reason="needs two CPUs and an affinity set")
def test_each_child_runs_on_its_own_cpu():
    def where(t):
        time.sleep(0.05)
        return os.getpid(), frozenset(os.sched_getaffinity(0))

    before = os.sched_getaffinity(0)
    seen = dict(fork_map(where, range(6), 2))
    assert len(seen) == 2
    assert all(len(cpus) == 1 and cpus <= before for cpus in seen.values())
    assert len(set(seen.values())) == 2
    assert os.sched_getaffinity(0) == before


def test_a_task_error_is_raised_as_it_was_raised(tmp_path):
    def task(t):
        (tmp_path / str(t)).touch()
        if t == 0:
            raise ValueError("task 0 broke")
        time.sleep(0.2)
        return t

    with pytest.raises(ValueError, match="^task 0 broke$"):
        fork_map(task, range(10), 2)
    # the other child ran at most the task it took with task 0
    assert {p.name for p in tmp_path.iterdir()} <= {"0", "1"}


def test_the_first_failed_task_in_order_is_raised():
    def task(t):
        if t == 2:
            time.sleep(0.2)
            raise KeyError(t)
        if t == 5:
            raise KeyError(t)
        return t

    # task 5 fails first, in the other child, while task 2 sleeps
    with pytest.raises(KeyError, match="2"):
        fork_map(task, range(8), 2)


def test_a_child_that_exits_is_a_runtime_error():
    def task(t):
        if t == 1:
            os._exit(7)
        return t

    with pytest.raises(RuntimeError, match=r"exit code 7\)$"):
        fork_map(task, range(4), 2)


@pytest.mark.parametrize("tasks,n", [(range(5), 1), ([3], 4), ([], 2)])
def test_one_worker_or_one_task_never_forks(monkeypatch, tasks, n):
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse)
    assert fork_map(square_where, tasks, n) == [
        (t * t, os.getpid()) for t in tasks]
