"""Fork-join over the CPUs this process may run on.

``fan_out(func, shares)`` returns ``[func(s) for s in shares]``.  The
parent computes share 0 itself; each other share runs in a forked child,
which sends its result back through a pipe as ``marshal`` bytes (ints,
tuples, lists and None) and leaves by ``os._exit``, so it runs no exit
handler and flushes no buffer it inherited.  A child writes nothing to the
parent's stdout or stderr.  ``split`` sizes the shares: one per usable CPU,
each worth at least ``SHARE_FLOOR`` units of work, and a single share, run
with no fork, where there is one CPU, no ``os.fork``, or more than one
thread.

Only ``os``, ``sys``, ``marshal`` and ``open`` are used, all loaded at
interpreter start, so this module adds no start-up time and no memory.
"""

from __future__ import annotations

import marshal
import os
import sys

from .errors import InvariantError

# the least work worth a share, in units of about 1 us: one Gray step of a
# side-21 permanent takes 0.6 us, one 1-entry ranked by the sampler 0.8-1.7
# us.  Forking a 27 MB process and reading back a small result takes
# 1.2-2 ms (2 shared vCPUs, Python 3.11), so a share of 2^14 units costs
# about ten times its fork
SHARE_FLOOR = 1 << 14

_SIGKILL = 9  # POSIX; ``signal`` is not loaded at interpreter start


def split(items: int, cost: int = 1) -> list:
    """Contiguous non-empty ranges covering ``range(items)``, one per share,
    when each item costs ``cost`` work units: at most one share per usable
    CPU, and none worth less than ``SHARE_FLOOR`` units.  A single range
    where forking is unavailable or unsafe."""
    parts = min(items, items * cost // SHARE_FLOOR)
    if parts > 1 and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        parts = min(parts, len(os.sched_getaffinity(0)))
        if parts > 1 and not _single_threaded():
            parts = 1
    else:
        parts = 1
    return [range(items * i // parts, items * (i + 1) // parts) for i in range(parts)]


def _single_threaded() -> bool:
    # a forked child holds only the forking thread, so a lock another thread
    # held at the fork would never be released in it
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def fan_out(func, shares) -> list:
    """``[func(s) for s in shares]``, share 0 computed here and each other
    share in a forked child.  Every child is reaped on every path.  If this
    process's own share raises, the children are killed and the exception
    propagates; if a child fails, ``InvariantError`` is raised once all are
    reaped."""
    first, *rest = shares
    children = []  # (pid, read end of the child's pipe)
    payloads = None
    try:
        for share in rest:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(func, share, write)
            # closed before the next fork, so EOF on ``read`` means this child
            # is done writing
            os.close(write)
            children.append((pid, read))
        results = [func(first)]
        payloads = [open(read, "rb", closefd=False).read() for _, read in children]
    finally:
        failed = []
        for pid, read in children:
            if payloads is None:
                os.kill(pid, _SIGKILL)
            os.close(read)
            _, status = os.waitpid(pid, 0)
            if os.waitstatus_to_exitcode(status):
                failed.append(pid)
    if failed:
        raise InvariantError(f"fan-out children {failed} failed")
    # a child exits 0 only once its whole result is written
    return results + [marshal.loads(payload) for payload in payloads]


def _child(func, share, write):
    """Run one share in a forked child and leave by ``os._exit``, 0 once
    its result is written; nothing it does reaches the parent's output."""
    status = 1
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        # the inherited streams may write to other descriptors of the same files
        sys.stdout = sys.stderr = open(null, "w", closefd=False)
        with open(write, "wb", closefd=False) as pipe:
            pipe.write(marshal.dumps(func(share)))
        status = 0
    finally:
        os._exit(status)
