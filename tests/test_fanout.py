"""The fork-join helper and the two kernels it splits: with the share count
forced (the CPU count and the floor patched), the permanent and the sampler
give exactly their one-share results; no fan-out leaves a child process
behind or lets a child write to this process's output."""

import math
import os
import sys
import threading
import time
from contextlib import contextmanager, nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revfree import (
    BinaryMatrix,
    CapacityError,
    InvariantError,
    PreconditionError,
    factor_prime_power,
    field_make,
    incidence_matrix,
    permanent,
    plane_build,
    sample_plane_permutations,
)
from revfree import construct, fanout
from revfree.bitmatrix import set_bits

SHARE_COUNTS = (2, 3, 5)


@contextmanager
def forced_shares(count):
    """Split into ``count`` shares wherever there are that many items: the
    process sees ``count`` CPUs and the floor is one work unit.  Yields the
    list of pids this process forks."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        pid = real_fork()
        forks.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        mp.setattr(os, "fork", counted_fork)
        mp.setattr(fanout, "SHARE_FLOOR", 1)
        yield forks


def no_child_remains():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def plane_incidence(q):
    return incidence_matrix(plane_build(field_make(*factor_prime_power(q))))


def enumerated_permanent(matrix):
    """Count the permutation matrices under ``matrix`` one by one, choosing
    an unused column row by row."""
    rows = matrix.row_masks()

    def extend(r, used):
        if r == len(rows):
            return 1
        return sum(extend(r + 1, used | 1 << c) for c in set_bits(rows[r] & ~used))

    return extend(0, 0)


# -- the permanent ----------------------------------------------------------------


@st.composite
def small_square_matrices(draw):
    n = draw(st.integers(1, 9))
    return BinaryMatrix(n, n, draw(st.lists(st.integers(0, (1 << n) - 1),
                                            min_size=n, max_size=n)))


@settings(max_examples=40, deadline=None)
@given(small_square_matrices())
def test_permanent_shares_sum_to_the_one_share_value(matrix):
    with forced_shares(1) as forks:
        value = permanent(matrix)
    assert forks == []
    assert value == enumerated_permanent(matrix)
    for count in SHARE_COUNTS:
        with forced_shares(count) as forks:
            assert permanent(matrix) == value
        assert len(forks) == min(count, 1 << (matrix.rows - 1)) - 1
        assert no_child_remains()


@pytest.mark.parametrize("count", SHARE_COUNTS)
def test_permanent_of_all_ones_at_side_12(count):
    matrix = BinaryMatrix(12, 12, [(1 << 12) - 1] * 12)
    with forced_shares(count) as forks:
        assert permanent(matrix) == math.factorial(12)
    assert len(forks) == count - 1
    assert no_child_remains()


def test_permanent_refuses_before_any_fork(monkeypatch):
    def no_fork():
        raise AssertionError("forked for a refused matrix")

    with forced_shares(5):
        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(PreconditionError, match="square"):
            permanent(BinaryMatrix(2, 3, [0, 0]))
        side = 28
        with pytest.raises(CapacityError):
            permanent(BinaryMatrix(side, side, [(1 << side) - 1] * side))


# -- the sampler ------------------------------------------------------------------


def assert_sample_unchanged(matrix, count, seed, complete, share_counts=SHARE_COUNTS):
    with forced_shares(1):
        alone = sample_plane_permutations(matrix, count, seed=seed)
    assert alone.complete is complete
    for shares in share_counts:
        with forced_shares(shares) as forks:
            split = sample_plane_permutations(matrix, count, seed=seed)
        assert forks
        # words, their order, attempts and completeness
        assert split == alone
        assert no_child_remains()
    return alone


def test_sample_pg23_count_50():
    assert_sample_unchanged(plane_incidence(3), 50, 0, complete=True)


@pytest.mark.parametrize("seed", range(4))
def test_sample_pg27_count_200(seed):
    assert_sample_unchanged(plane_incidence(7), 200, seed, complete=True)


def test_sample_pg22_exhausts_its_budget():
    # the Fano plane has 24 matchings, so about 490 rounds of 6 attempts
    # follow, each a fan-out: one forced share count keeps this test short
    result = assert_sample_unchanged(plane_incidence(2), 30, 3, complete=False,
                                     share_counts=(2,))
    assert result.attempts == 3000
    assert len(result.code) == 24


def test_sample_rounds_of_a_few_attempts_change_nothing(monkeypatch):
    inc = plane_incidence(7)
    whole = sample_plane_permutations(inc, 200, seed=1)
    monkeypatch.setattr(construct, "SAMPLE_ROUND_INTS", 3 * 2 * inc.rows)
    with forced_shares(2) as forks:
        assert sample_plane_permutations(inc, 200, seed=1) == whole
    assert len(forks) == 67  # 66 rounds of 3 attempts and one of 2
    assert no_child_remains()


def test_sample_without_perfect_matching_stops_after_one_attempt():
    # rows 0 and 1 both have only column 0
    host = BinaryMatrix(3, 3, [0b001, 0b001, 0b110])
    result = assert_sample_unchanged(host, 3, 5, complete=False)
    assert result.attempts == 1
    assert result.code.words == ()


# -- when the helper forks ----------------------------------------------------------


def test_share_count_follows_the_affinity():
    # under `taskset -c 0` this is the one-CPU path: one share, no fork
    cpus = len(os.sched_getaffinity(0))
    work = 64 * fanout.SHARE_FLOOR
    assert len(fanout.split(work)) == min(cpus, 64)
    assert len(fanout.split(fanout.SHARE_FLOOR - 1)) == 1


def test_one_cpu_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)
    side = 18
    assert permanent(BinaryMatrix(side, side, [(1 << side) - 1] * side)) == math.factorial(side)
    assert len(sample_plane_permutations(plane_incidence(7), 200).code) == 200


def test_no_fork_without_os_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    monkeypatch.delattr(os, "fork")
    assert fanout.split(1 << 30) == [range(1 << 30)]


def test_no_fork_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    assert len(fanout.split(1 << 30)) == 4
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert fanout.split(1 << 30) == [range(1 << 30)]
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    # the joined thread's task can linger a moment, and later tests fork
    deadline = time.monotonic() + 10
    while len(fanout.split(1 << 30)) == 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(fanout.split(1 << 30)) == 4


@pytest.mark.parametrize("items,cost", [(0, 1), (1, 1 << 40), (7, 1), (1 << 20, 3)])
def test_split_covers_the_items_in_order(monkeypatch, items, cost):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(5)))
    monkeypatch.setattr(fanout, "SHARE_FLOOR", 2)
    spans = fanout.split(items, cost)
    assert [i for span in spans for i in span] == list(range(items))
    assert len(spans) == max(1, min(5, items, items * cost // 2))
    assert all(spans) or items == 0


# -- process hygiene ----------------------------------------------------------------


def test_results_come_back_in_share_order():
    # a result larger than a pipe's buffer is drained before its child is reaped
    assert fanout.fan_out(lambda s: [s] * s * 30000, range(4)) == [[s] * s * 30000
                                                                   for s in range(4)]
    assert fanout.fan_out(lambda s: (s, None, -s << 200), [1, 2]) == [(1, None, -1 << 200),
                                                                      (2, None, -2 << 200)]
    assert no_child_remains()


def test_a_failing_child_raises_after_all_are_reaped():
    def share(s):
        if s == 2:
            raise ValueError("a share failed")
        return s

    with pytest.raises(InvariantError, match="failed"):
        fanout.fan_out(share, range(4))
    assert no_child_remains()


def test_an_unsendable_result_raises():
    with pytest.raises(InvariantError, match="failed"):
        fanout.fan_out(lambda s: object() if s else 0, range(2))
    assert no_child_remains()


def test_the_parents_own_failure_propagates_and_kills_the_children():
    def share(s):
        if s == 0:
            raise KeyError("the parent's share")
        time.sleep(60)
        return s

    start = time.monotonic()
    with pytest.raises(KeyError, match="the parent's share"):
        fanout.fan_out(share, range(3))
    assert time.monotonic() - start < 30
    assert no_child_remains()


def test_children_write_nothing_to_this_process(capfd):
    def noisy(s):
        print("child stdout", s)
        print("child stderr", s, file=sys.stderr)
        sys.stdout.flush()
        sys.stderr.flush()
        os.write(1, b"child fd 1\n")
        os.write(2, b"child fd 2\n")
        if s == 2:
            raise RuntimeError("a traceback nobody sees")
        return s

    with pytest.raises(InvariantError):
        fanout.fan_out(lambda s: s and noisy(s), range(3))
    assert fanout.fan_out(lambda s: s and noisy(s), range(2)) == [0, 1]
    assert capfd.readouterr() == ("", "")
    assert no_child_remains()


def _fails_at(share, error):
    def func(s):
        if s == share:
            raise error
        return [s] * 30000  # more than a pipe's buffer

    return func


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize(
    "func, raised",
    [(_fails_at(None, None), None),
     (_fails_at(2, ValueError("a share failed")), InvariantError),
     (_fails_at(0, KeyError("the parent's share")), KeyError)],
    ids=["success", "failing-child", "raising-parent"],
)
def test_every_descriptor_is_closed_on_every_path(func, raised):
    before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(raised) if raised else nullcontext():
        assert fanout.fan_out(func, range(3)) == [[s] * 30000 for s in range(3)]
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert no_child_remains()
