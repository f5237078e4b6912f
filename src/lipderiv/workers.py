"""``fork_map``, which runs ``check``'s suites and ``profile``'s slabs."""
import os
import pickle
import select

#: tasks queued at once: their indices, 4 bytes each, go into the queue in
#: one write before any child starts (POSIX's least PIPE_BUF where unknown)
_QUEUED = getattr(select, "PIPE_BUF", 512) // 4


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _drain(queue):
    """Empty the task ``queue``, so that no further task starts."""
    while os.read(queue, 4 * _QUEUED):
        pass


def _child(func, tasks, queue, out, cpu, inherited):
    """In a forked child: close the ``inherited`` read ends, pin to ``cpu``
    (None: unpinned), run the tasks ``queue`` hands out until it is empty
    or one raises, write ``{index: (raised, result or exception)}`` to the
    pipe ``out`` and exit 0; exit 1 on any other error.  Never returns."""
    status = 1
    try:
        for end in inherited:
            os.close(end)
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        done = {}
        while record := os.read(queue, 4):
            i = int.from_bytes(record, "little")
            try:
                done[i] = False, func(tasks[i])
            except Exception as exc:
                done[i] = True, exc
                _drain(queue)
        with open(out, "wb") as pipe:
            pickle.dump(done, pipe)
        status = 0
    finally:
        os._exit(status)


def fork_map(func, tasks, workers: int) -> list:
    """``[func(t) for t in tasks]``, computed on forked children.

    ``min(workers, len(tasks))`` children inherit ``func`` and ``tasks``,
    each pinned to its own CPU of the affinity set where the platform can,
    and take the tasks in order from one queue; this process runs none.
    Results come back pickled.  The first failed task's exception is
    raised here as it was raised, and no task starts after it; a child
    that ends without its results raises ``RuntimeError``.  All children
    are reaped.  Below two workers, or without ``os.fork``, the tasks run
    in this process."""
    tasks = list(tasks)
    workers = min(workers, len(tasks))
    if workers < 2 or not hasattr(os, "fork"):
        return [func(t) for t in tasks]
    if len(tasks) > _QUEUED:
        return [result for s in range(0, len(tasks), _QUEUED)
                for result in fork_map(func, tasks[s:s + _QUEUED], workers)]
    cpus = (sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_setaffinity") else [None])
    queue, fill = os.pipe()
    pids, ends, data = [], [], []
    try:
        with open(fill, "wb") as pipe:
            pipe.write(b"".join(i.to_bytes(4, "little")
                                for i in range(len(tasks))))
        for k in range(workers):
            r, w = os.pipe()
            ends.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(func, tasks, queue, w, cpus[k % len(cpus)], ends)
            finally:
                os.close(w)
            pids.append(pid)
        for r in ends:
            with open(r, "rb", closefd=False) as pipe:
                data.append(pipe.read())
    finally:
        _drain(queue)
        for end in [queue] + ends:
            os.close(end)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid in pids]
    outcomes = {}
    for k, (code, raw) in enumerate(zip(codes, data), start=1):
        if code:
            raise RuntimeError(f"forked worker {k} of {workers} ended "
                               f"without its results (exit code {code})")
        outcomes.update(pickle.loads(raw))
    for i in sorted(outcomes):
        if outcomes[i][0]:
            raise outcomes[i][1]
    return [outcomes[i][1] for i in range(len(tasks))]
