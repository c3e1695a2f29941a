"""Process fan-out over ``os.fork``: the package's one way to use more cores.

:func:`fork_map` runs the first task in the calling process and every
other task in a forked child, which reads whatever the parent has built
(indexes, testbeds, caches) from copy-on-write pages and pickles only its
result back down a pipe.  A child that cannot deliver costs time, never
a different answer: its task is run again here.  Callers split their
work into :func:`usable_cpus` tasks or fewer.  A process running other
threads never forks: a child inherits every lock those threads hold,
with nobody left to release it.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from typing import Any, Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Bytes of the length prefix before a child's pickled result.
_HEADER = 8

#: What :func:`_receive` returns for a child that did not deliver.
_FAILED: Any = object()


def _can_fork() -> bool:
    return hasattr(os, "fork") and threading.active_count() == 1


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where :func:`fork_map` cannot fork."""
    if not _can_fork():
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_map(
    function: Callable[[T], R],
    tasks: Sequence[T],
    fallback: Callable[[T], R] | None = None,
) -> list[R]:
    """``[function(task) for task in tasks]``, tasks after the first in forked children.

    A child whose task raises, that dies, or whose result arrives short
    has ``fallback(task)`` (``function`` by default) run in this process
    instead, after the first task.  Every child ends in ``os._exit`` and
    is reaped before this returns or raises; when the first task raises
    or the call is interrupted, the children are killed first.  Without
    ``os.fork``, or beside another thread, every task runs here, in order.
    """
    if len(tasks) < 2 or not _can_fork():
        return [function(task) for task in tasks]
    recover = fallback or function
    children: dict[int, tuple[int, int]] = {}
    try:
        for index, task in enumerate(tasks[1:], start=1):
            try:
                children[index] = _fork(function, task)
            except OSError:
                pass  # no process to be had: the task runs here
        results = [function(tasks[0])]
        for index, task in enumerate(tasks[1:], start=1):
            child = children.pop(index, None)
            result = _FAILED if child is None else _receive(*child)
            results.append(recover(task) if result is _FAILED else result)
        return results
    except BaseException:
        for pid, _ in children.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, read_fd in children.values():
            os.close(read_fd)
            os.waitpid(pid, 0)


def _fork(function: Callable[[T], R], task: T) -> tuple[int, int]:
    """Start a child running ``function(task)``; its pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # The child: whatever happens, it never returns into the caller.
        status = 1
        try:
            os.close(read_fd)
            payload = pickle.dumps(function(task), pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as pipe:
                pipe.write(len(payload).to_bytes(_HEADER, "little"))
                pipe.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _receive(pid: int, read_fd: int) -> Any:
    """The child's unpickled result, or :data:`_FAILED`.

    The child is reaped either way, and killed first if reading is
    interrupted.
    """
    try:
        with open(read_fd, "rb") as pipe:
            data = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0 or int.from_bytes(data[:_HEADER], "little") != len(data) - _HEADER:
        return _FAILED
    try:
        return pickle.loads(data[_HEADER:])
    except Exception:
        return _FAILED
