"""Searches whose sizes are solved in forked worker processes: the same
verdicts, counter-models and counters as one process, and no worker left
behind."""

import marshal
import os
import time
import tracemalloc

import pytest

from ethica import search, workers
from ethica.logic import FALSE
from ethica.search import (ResourceLimitExceeded, SearchConfig, SearchError,
                           entails_bounded)
from ethica.workers import owner, process_count

from test_search import BUNDLED_DIRECTIONS, _distinct_things

WORKER_COUNTS = (1, 2, 3)


@pytest.fixture
def any_cpus(monkeypatch):
    """Let a search use as many processes as it asks for, so that three
    workers fork two on any host; ``process_count`` is tested alone."""
    monkeypatch.setattr(workers, "process_count",
                        lambda count, n_sizes: min(count, n_sizes))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def search_all(premises, target, config, counts=WORKER_COUNTS):
    """The verdict or the exception of a search per worker count."""
    results = []
    for count in counts:
        try:
            results.append(entails_bounded(premises, target, config, count))
        except ResourceLimitExceeded as err:
            results.append((err.thing_size, err.world_size, err.budget))
        assert_no_children()
    return results


def test_process_count_is_bounded_by_workers_sizes_and_cpus():
    cpus = len(os.sched_getaffinity(0))
    for count in range(1, 6):
        for n_sizes in range(1, 6):
            assert process_count(count, n_sizes) == min(count, n_sizes, cpus)


def test_without_fork_the_search_runs_in_one_process(monkeypatch):
    expected = entails_bounded("PSRSubstance", "PropV_allshared",
                               SearchConfig(max_thing_size=5))
    monkeypatch.delattr(os, "fork")
    assert process_count(4, 8) == 1
    assert entails_bounded("PSRSubstance", "PropV_allshared",
                           SearchConfig(max_thing_size=5), 4) == expected


def test_the_owner_rule_partitions_the_sizes_into_ascending_shares():
    for n_sizes in range(1, 20):
        for procs in range(1, min(n_sizes, 5) + 1):
            # A worker walks the sizes in ascending order and solves those
            # it owns, so its share is ascending.
            dealt = [[index for index in range(n_sizes)
                      if owner(index, n_sizes, procs) == rank]
                     for rank in range(procs)]
            assert all(dealt)
            assert sorted(i for share in dealt for i in share) == \
                list(range(n_sizes))
            # The snake deal: the shares' sizes differ by at most one, and
            # the largest sizes go to different workers.
            assert max(map(len, dealt)) - min(map(len, dealt)) <= 1
            assert {owner(index, n_sizes, procs)
                    for index in range(n_sizes - procs, n_sizes)} == \
                set(range(procs))


def test_workers_below_one_are_refused():
    with pytest.raises(SearchError):
        entails_bounded("PSRSubstance", "A12", SearchConfig(), 0)


def test_bundled_directions_agree_across_worker_counts(any_cpus):
    # Equal verdicts compare the model and every SearchStats field.
    refuted = 0
    for premises, target, worlds in BUNDLED_DIRECTIONS:
        config = SearchConfig(max_thing_size=8,
                              max_world_size=3 if worlds else None)
        first, *others = search_all(premises, target, config)
        for other in others:
            assert other == first, (premises, target)
            assert other.stats.to_json_dict() == first.stats.to_json_dict()
        refuted += first.is_refuted
    assert 0 < refuted < len(BUNDLED_DIRECTIONS)


def test_node_budget_fails_at_the_same_size_across_worker_counts(any_cpus):
    # At 200 steps size 4 fails, at 600 size 6; workers solve both.
    for budget, size in ((200, 4), (600, 6)):
        config = SearchConfig(max_thing_size=8, node_budget=budget)
        assert search_all("PSRSubstance", "PropV_allshared", config) == \
            [(size, 0, budget)] * len(WORKER_COUNTS)


def test_refutation_at_size_two_is_the_same_with_room_for_six(
        any_cpus, monkeypatch):
    first, *others = search_all("PSRSubstance", "A12",
                                SearchConfig(max_thing_size=6))
    assert first.thing_size == 2 and first.stats.sizes_exhausted == ((1, 0),)
    assert all(other == first for other in others)
    # The sizes up to 2 things are solved before any fork, so the answer
    # at 2 things forks nothing.

    def no_fork():
        raise AssertionError("forked")
    monkeypatch.setattr(os, "fork", no_fork)
    assert search_all("PSRSubstance", "A12", SearchConfig(max_thing_size=6),
                      (2, 3)) == [first, first]


def test_the_caller_solves_only_the_sizes_before_the_fork(
        any_cpus, monkeypatch, tmp_path):
    log = tmp_path / "solved"
    solve = search._least_branch_key

    def recording(premises, prefix, matrix, things, *args):
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {len(things)}\n")
        return solve(premises, prefix, matrix, things, *args)

    monkeypatch.setattr(search, "_least_branch_key", recording)
    head = search.SEQUENTIAL_THINGS
    for count in (2, 3):
        log.write_text("")
        entails_bounded("PSRSubstance", "PropV_allshared",
                        SearchConfig(max_thing_size=8), count)
        solved = {}
        for line in log.read_text().splitlines():
            pid, things = map(int, line.split())
            solved.setdefault(pid, []).append(things)
        # Every worker reports, so the caller solves only the sizes up to
        # SEQUENTIAL_THINGS, and each worker its share in ascending order.
        assert solved.pop(os.getpid()) == list(range(1, head + 1))
        assert sorted(solved.values()) == sorted(
            [index + 1 for index in range(head, 8)
             if owner(index, 8, count) == rank] for rank in range(count))


def test_a_size_no_worker_reports_is_solved_by_the_caller(
        any_cpus, monkeypatch):
    expected = entails_bounded("PSRSubstance", "PropV_allshared",
                               SearchConfig(max_thing_size=8))
    caller = os.getpid()
    solve = search._least_branch_key

    def dying(premises, prefix, matrix, things, *args):
        # A worker dies at its first size above 3 things, reporting the
        # sizes before it.
        if os.getpid() != caller and len(things) > 3:
            os._exit(1)
        return solve(premises, prefix, matrix, things, *args)

    monkeypatch.setattr(search, "_least_branch_key", dying)
    assert search_all("PSRSubstance", "PropV_allshared",
                      SearchConfig(max_thing_size=8), (2, 3)) == \
        [expected, expected]


def test_a_worker_killed_in_a_record_leaves_its_size_to_the_caller(
        any_cpus, monkeypatch):
    expected = entails_bounded("PSRSubstance", "PropV_allshared",
                               SearchConfig(max_thing_size=8))
    caller = os.getpid()
    dump = marshal.dump
    written = []
    solve = search._least_branch_key
    solved = []

    def dying(value, pipe):
        # A worker writes its first record whole and half of its second,
        # then dies.
        if os.getpid() != caller and written:
            data = marshal.dumps(value)
            pipe.write(data[:len(data) // 2])
            pipe.flush()
            os._exit(1)
        written.append(value)
        dump(value, pipe)

    def recording(premises, prefix, matrix, things, *args):
        solved.append(len(things))
        return solve(premises, prefix, matrix, things, *args)

    monkeypatch.setattr(marshal, "dump", dying)
    monkeypatch.setattr(search, "_least_branch_key", recording)
    assert search_all("PSRSubstance", "PropV_allshared",
                      SearchConfig(max_thing_size=8), (2, 3)) == \
        [expected, expected]
    # The caller solved the sizes from each worker's second on.
    assert max(solved) == 8


def test_a_refutation_above_the_fork_costs_nothing_per_size_of_the_bound(
        any_cpus):
    # Four distinct things are refuted at 4 things, the second size a
    # worker solves; a bound of a million things must cost what a bound of
    # four does, in the calling process and in time.
    tracemalloc.start()
    try:
        verdict = search._search([("distinct4", _distinct_things(4))],
                                 ("false", FALSE),
                                 SearchConfig(max_thing_size=10**6), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.describe() == "Refuted(size=4)"
    assert peak < 2 << 20
    assert_no_children()


@pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError])
def test_an_error_in_the_caller_leaves_no_worker(any_cpus, monkeypatch, error):
    # Every worker hangs at its first size but the one owning 3 things,
    # which dies there, so the caller raises while solving 3 things itself,
    # and then while waiting for a worker's record, with workers alive.
    # They are killed, not waited for.
    caller = os.getpid()
    solve = search._least_branch_key

    def failing(premises, prefix, matrix, things, *args):
        if os.getpid() != caller:
            if len(things) == 3:
                os._exit(1)
            time.sleep(60)
        elif len(things) == 3:
            raise error()
        return solve(premises, prefix, matrix, things, *args)

    def waiting(pipe):
        raise error()

    monkeypatch.setattr(search, "_least_branch_key", failing)
    for wait in (False, True):
        if wait:
            monkeypatch.setattr(marshal, "load", waiting)
        for count in (2, 3):
            start = time.monotonic()
            with pytest.raises(error):
                entails_bounded("PSRSubstance", "PropV_allshared",
                                SearchConfig(max_thing_size=8), count)
            assert time.monotonic() - start < 30
            assert_no_children()


def test_an_error_above_a_terminal_size_of_a_worker_is_not_raised(
        any_cpus, monkeypatch):
    # At 200 steps the search fails at 4 things, a worker's size.  Workers
    # end without reporting any size above 4 things, so a calling process
    # that walked past 4 would solve 5 things itself and run out of memory
    # there; one process would have stopped at 4 things and never seen that.
    caller = os.getpid()
    solve = search._least_branch_key

    def failing_above_four(premises, prefix, matrix, things, *args):
        if len(things) > 4:
            if os.getpid() != caller:
                os._exit(0)
            raise MemoryError()
        return solve(premises, prefix, matrix, things, *args)

    monkeypatch.setattr(search, "_least_branch_key", failing_above_four)
    config = SearchConfig(max_thing_size=8, node_budget=200)
    assert search_all("PSRSubstance", "PropV_allshared", config, (2, 3)) == \
        [(4, 0, 200)] * 2
