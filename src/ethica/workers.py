"""Solving a search's sizes in forked worker processes.

``search._search`` imports this module only when it is given more than one
worker and reaches a size above ``search.SEQUENTIAL_THINGS`` things, so a
search in one process never compiles it.  Each size is an
independent job: ``solve(index)`` grounds and solves it and returns its
outcome, ``(key, counters)``, with ``key`` None when the size is exhausted
and ``counters`` None when it ran out of node budget.  Workers are forked
with ``os.fork`` and report over ``os.pipe`` in ``marshal`` records, so
they start from the search's compiled formulas, and no pool module is
imported: ``import multiprocessing.pool`` alone took 28–39 ms on a 2-core
host, about a quarter of a CLI run.  Workers leave through ``os._exit``, so
nothing the calling process buffered is written twice.  ``fork`` is unsafe
in a process that runs threads; ethica starts none.
"""

from __future__ import annotations

import marshal
import os
import signal


def process_count(workers: int, n_sizes: int) -> int:
    """The processes a search may use, its own included: at most
    ``workers``, the number of sizes and the CPUs this process may run on,
    and one where ``os.fork`` is missing."""
    if workers < 2 or not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(workers, n_sizes, cpus))


def shares(n_sizes: int, procs: int) -> list[list[int]]:
    """Size indices 0 .. n_sizes - 1 per process, each share ascending;
    share 0 is the calling process's.

    Search time grows with the size, so the sizes are dealt from the
    largest down in snake order (0, 1, ..., p-1, p-1, ..., 0, ...), which
    evens the shares out.  The calling process takes the share holding the
    least size, so a refutation there waits for no worker."""
    dealt: list[list[int]] = [[] for _ in range(procs)]
    for rank, index in enumerate(reversed(range(n_sizes))):
        round_, pos = divmod(rank, procs)
        dealt[pos if round_ % 2 == 0 else procs - 1 - pos].append(index)
    dealt.sort(key=lambda share: 0 not in share)
    return [share[::-1] for share in dealt]


def _is_terminal(outcome) -> bool:
    """Whether the walk stops at a size with this outcome: an exception, a
    key, or no counters (out of node budget)."""
    return isinstance(outcome, Exception) or outcome[0] is not None \
        or outcome[1] is None


def _attempt(solve, index):
    """``solve(index)``, or the exception it raised: the walk raises it
    only if no smaller size ends the search first, as the sequential
    search would."""
    try:
        return solve(index)
    except Exception as err:
        return err


class _Worker:
    """A forked process solving its share of sizes, reporting each size on
    a pipe as a length-prefixed ``marshal`` record ``(index, key,
    counters)``.  It stops after its first terminal size; on an error it
    exits without reporting the size, which the calling process then
    solves itself."""

    def __init__(self, solve, share: list[int]):
        self.share = share
        self.buffer = b""
        self.eof = False
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
                self._work(solve, write_fd)
            finally:
                # Nothing of the parent's (buffered output, exit handlers,
                # callers' finally blocks) may run a second time here.
                os._exit(0)
        os.close(write_fd)
        self.fd = read_fd

    def _work(self, solve, fd: int) -> None:
        for index in self.share:
            outcome = solve(index)
            data = marshal.dumps((index, *outcome))
            data = memoryview(len(data).to_bytes(4, "little") + data)
            while data:
                data = data[os.write(fd, data):]
            if _is_terminal(outcome):
                return

    def read(self, outcomes: list, block: bool) -> None:
        """Record the sizes reported so far: without ``block`` whatever is
        in the pipe, with it at least one more chunk, or end of file."""
        os.set_blocking(self.fd, block)
        while not self.eof:
            try:
                chunk = os.read(self.fd, 1 << 16)
            except BlockingIOError:
                return
            self.eof = not chunk
            self.buffer += chunk
            while len(self.buffer) >= 4:
                end = 4 + int.from_bytes(self.buffer[:4], "little")
                if len(self.buffer) < end:
                    break
                index, *outcome = marshal.loads(self.buffer[4:end])
                outcomes[index] = tuple(outcome)
                self.buffer = self.buffer[end:]
            if block:
                return

    def stop(self) -> None:
        # The worker is not reaped before the kill, so its pid cannot
        # have been reused.
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        os.close(self.fd)


def solve_sizes(solve, first: int, n_sizes: int, workers: int) -> list:
    """The outcomes of sizes ``first`` .. ``n_sizes - 1`` up to the first
    terminal one, in size order: ``solve(index)``'s result, or the
    exception it raised.  Sizes past the first terminal one may be None.

    With one process the sizes are solved in ascending order up to the
    first terminal one.  With more, each worker solves its share in
    ascending order, while this process solves its own; between its sizes
    it reads what the workers have reported and skips every size above
    the least terminal one known.  A size whose worker ended without
    reporting it is solved here.  Every worker is killed and reaped on
    return, as soon as every size below the least terminal one is known,
    or when an error or interrupt leaves the search."""
    outcomes: list = [None] * n_sizes
    procs = process_count(workers, n_sizes - first)
    dealt = [[first + i for i in share]
             for share in shares(n_sizes - first, procs)]
    # The worker solving each size; None for this process's sizes and for
    # those of a worker that could not be forked.
    owner: dict = dict.fromkeys(range(first, n_sizes))
    pool: list[_Worker] = []

    def first_terminal() -> int:
        return next((index for index, outcome in enumerate(outcomes)
                     if outcome is not None and _is_terminal(outcome)),
                    n_sizes)

    try:
        for share in dealt[1:]:
            try:
                worker = _Worker(solve, share)
            except OSError:
                break
            pool.append(worker)
            owner.update(dict.fromkeys(share, worker))
        for index in dealt[0]:
            for worker in pool:
                worker.read(outcomes, block=False)
            if index > first_terminal():
                break
            outcomes[index] = _attempt(solve, index)
        index = first
        while index < first_terminal():
            worker = owner[index]
            if outcomes[index] is not None:
                index += 1
            elif worker is not None and not worker.eof:
                worker.read(outcomes, block=True)
            else:
                outcomes[index] = _attempt(solve, index)
    finally:
        for worker in pool:
            worker.stop()
    return outcomes[first:]
