"""Solving a search's sizes in forked worker processes.

``search._search`` imports this module only when it is given more than one
worker, at least two sizes are scheduled above ``search.CALLER_THINGS``
things, and its walk gets past the sizes below them, so a search in one
process, or one with fewer sizes to share, never compiles it.  The walk
hands over those sizes, a sequence of size indices.  Each size is an
independent job: ``solve(index)`` grounds and solves it and returns its
outcome, ``(key, counters)``, with ``key`` None when the size is exhausted
and ``counters`` None when it ran out of node budget.  Workers are forked
with ``os.fork`` and write each outcome to a pipe as one ``marshal``
record, so they start from the search's compiled formulas, and no pool
module is imported: ``import multiprocessing.pool`` alone took 28–39 ms on
a 2-core host, about a quarter of a CLI run.  Workers leave through
``os._exit``, so nothing the calling process buffered is written twice.
``fork`` is unsafe in a process that runs threads; ethica starts none.
"""

from __future__ import annotations

import marshal
import os
import signal


def process_count(workers: int, n_sizes: int) -> int:
    """The processes that solve a search's sizes: at most ``workers``, the
    number of sizes and the CPUs this process may run on, and one where
    ``os.fork`` is missing.  With one the calling process solves them;
    with more, that many workers are forked."""
    if workers < 2 or not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(workers, n_sizes, cpus))


def owner(index: int, n_sizes: int, procs: int) -> int:
    """The worker, 0 .. procs - 1, that solves the size at position
    ``index`` of a schedule of ``n_sizes``.

    Search time grows with the size, so the sizes are dealt from the
    largest down in snake order (0, 1, ..., p-1, p-1, ..., 0, ...), which
    evens the workers' shares out."""
    round_, pos = divmod(n_sizes - 1 - index, procs)
    return pos if round_ % 2 == 0 else procs - 1 - pos


def _is_terminal(outcome) -> bool:
    """Whether the walk stops at a size with this outcome: a key, or no
    counters (out of node budget)."""
    return outcome[0] is not None or outcome[1] is None


class _Worker:
    """A forked process solving its sizes in schedule order and writing
    each outcome to a pipe as a ``marshal`` record.  It stops after its
    first terminal size; on an error it exits without reporting the size,
    which the calling process then solves itself."""

    def __init__(self, solve, rank: int, indices, procs: int):
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            try:
                os.close(read_fd)
                pipe = open(write_fd, "wb")
                for pos, index in enumerate(indices):
                    if owner(pos, len(indices), procs) == rank:
                        outcome = solve(index)
                        marshal.dump(outcome, pipe)
                        pipe.flush()
                        if _is_terminal(outcome):
                            break
            finally:
                # Nothing of the parent's (buffered output, exit handlers,
                # callers' finally blocks) may run a second time here.
                os._exit(0)
        os.close(write_fd)
        self.pipe = open(read_fd, "rb")

    def read(self):
        """The worker's next outcome, or None once it has ended without
        reporting it: end of file, or the partial record of a killed
        worker."""
        try:
            return marshal.load(self.pipe)
        except EOFError:
            return None

    def stop(self) -> None:
        # The worker is not reaped before the kill, so its pid cannot
        # have been reused.
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.pipe.close()


def solve_sizes(solve, indices, workers: int) -> list:
    """The outcomes ``solve(index)`` of the sizes in ``indices``, a sequence
    of size indices in schedule order, up to the first terminal one.

    Up to ``workers`` processes are forked, each solving the sizes it owns
    (``owner``).  This process walks the schedule in order and reads
    each size's outcome from its worker, waiting for it; it solves a size
    itself only when its worker ended without reporting it or could not be
    forked, so an error it raises is the one the sequential search would
    raise.  Every worker is killed and reaped on return, or when an error
    or interrupt leaves the search."""
    procs = process_count(workers, len(indices))
    pool: list[_Worker] = []
    outcomes = []
    try:
        for rank in range(procs) if procs > 1 else ():
            try:
                pool.append(_Worker(solve, rank, indices, procs))
            except OSError:
                break
        for pos, index in enumerate(indices):
            rank = owner(pos, len(indices), procs)
            outcome = pool[rank].read() if rank < len(pool) else None
            outcomes.append(solve(index) if outcome is None else outcome)
            if _is_terminal(outcomes[-1]):
                break
    finally:
        for worker in pool:
            worker.stop()
    return outcomes
