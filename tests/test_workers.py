"""Searches whose sizes are solved in forked worker processes: the same
verdicts, counter-models and counters as one process, and no worker left
behind."""

import os
import time

import pytest

from ethica import search, workers
from ethica.search import (ResourceLimitExceeded, SearchConfig, SearchError,
                           entails_bounded)
from ethica.workers import process_count, shares

from test_search import BUNDLED_DIRECTIONS

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


def test_shares_partition_the_sizes_and_the_caller_holds_the_least():
    for n_sizes in range(1, 20):
        for procs in range(1, min(n_sizes, 5) + 1):
            dealt = shares(n_sizes, procs)
            assert len(dealt) == procs and all(dealt)
            assert sorted(i for share in dealt for i in share) == \
                list(range(n_sizes))
            assert all(share == sorted(share) for share in dealt)
            assert 0 in dealt[0]


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
    # At 200 steps size 4 fails, which a worker solves; at 600 size 6,
    # which the calling process solves when there are two.
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


def test_the_caller_solves_only_its_share(any_cpus, monkeypatch):
    solved = []
    solve = search._least_branch_key

    def recording(premises, prefix, matrix, things, *args):
        solved.append(len(things))
        return solve(premises, prefix, matrix, things, *args)

    monkeypatch.setattr(search, "_least_branch_key", recording)
    for count in (2, 3):
        solved.clear()
        entails_bounded("PSRSubstance", "PropV_allshared",
                        SearchConfig(max_thing_size=8), count)
        # Sizes up to SEQUENTIAL_THINGS come first, then the caller's share
        # of the rest.
        head = search.SEQUENTIAL_THINGS
        assert solved == list(range(1, head + 1)) + \
            [head + index + 1 for index in shares(8 - head, count)[0]]


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


@pytest.mark.parametrize("error", [KeyboardInterrupt, MemoryError])
def test_an_error_in_the_caller_leaves_no_worker(any_cpus, monkeypatch, error):
    caller = os.getpid()
    solve = search._least_branch_key

    def failing(premises, prefix, matrix, things, *args):
        if os.getpid() == caller and len(things) == 3:
            raise error()
        return solve(premises, prefix, matrix, things, *args)

    monkeypatch.setattr(search, "_least_branch_key", failing)
    for count in (2, 3):
        with pytest.raises(error):
            entails_bounded("PSRSubstance", "PropV_allshared",
                            SearchConfig(max_thing_size=8), count)
        assert_no_children()


def test_an_error_above_a_terminal_size_of_a_worker_is_not_raised(
        any_cpus, monkeypatch):
    # At 200 steps the search fails at 4 things, a worker's size.  The
    # worker is held back, so the calling process first reaches its own
    # sizes above 4 things, where it runs out of memory; one process would
    # have stopped at 4 things and never seen that.
    caller = os.getpid()
    solve = search._least_branch_key

    def slow_worker(premises, prefix, matrix, things, *args):
        if os.getpid() != caller and len(things) == 4:
            time.sleep(0.3)
        if os.getpid() == caller and len(things) > 4:
            raise MemoryError()
        return solve(premises, prefix, matrix, things, *args)

    monkeypatch.setattr(search, "_least_branch_key", slow_worker)
    config = SearchConfig(max_thing_size=8, node_budget=200)
    assert search_all("PSRSubstance", "PropV_allshared", config, (2, 3)) == \
        [(4, 0, 200)] * 2
