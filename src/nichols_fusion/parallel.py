"""Independent tasks on every usable CPU: one fork pool, results in task order.

parallel_map(fn, tasks) equals [fn(t) for t in tasks].  With two or more
usable CPUs it runs the tasks in forked worker processes, so a worker starts
with the parent's module state, its monkeypatches included.  fn is pickled
by reference, so it must be a module-level function; tasks and results are
pickled by value.  A worker runs its own nested parallel_map in-process.  A
worker that dies ends the map with BrokenProcessPool, never a hang, and no
worker outlives the call.

Fork, rather than spawn, is what lets a worker see the parent's patches.  It
is safe because the package starts no thread of its own, and the executor
forks every worker before it starts its manager thread.

The pool modules are imported only when a pool is started: a one-CPU run, or
a run inside a worker, pays nothing for them.
"""

from __future__ import annotations

import os
import sys

_worker = False  # set in each worker by the pool's initializer


def _mark_worker():
    global _worker
    _worker = True


def jobs(n: int) -> int:
    """The usable CPUs, capped at n tasks; 1 inside a worker, or without fork."""
    if _worker or not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(n, cpus))


def parallel_map(fn, tasks) -> list:
    """[fn(t) for t in tasks], for a sequence of tasks, on jobs(len(tasks)) processes."""
    workers = jobs(len(tasks))
    if workers == 1:
        return [fn(t) for t in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # a forked worker would write out the parent's unflushed buffers again
    sys.stdout.flush()
    sys.stderr.flush()
    # leaving the block shuts the pool down and joins every worker
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             initializer=_mark_worker) as pool:
        return list(pool.map(fn, tasks))
