"""Process fan-out over ``os.fork``: the package's two ways to use more cores.

A forked child reads whatever the parent has built (indexes, testbeds,
caches) from copy-on-write pages and pickles only what it makes back
down a pipe, each message behind a length prefix.  A child that cannot
deliver costs time, never a different answer: what it owed is made
again here.  A process running other threads never forks: a child
inherits every lock those threads hold, with nobody left to release it.

- :func:`fork_map` splits independent tasks: the first runs in the
  calling process and every other in a forked child.  Callers split
  their work into :func:`usable_cpus` tasks or fewer.
- :func:`fork_stream` splits one serial stream from its consumer: a
  forked child makes the items while this process uses them, so the two
  stages of a pipeline run side by side on two CPUs.
"""

from __future__ import annotations

import fcntl
import os
import pickle
import signal
import threading
from contextlib import suppress
from itertools import islice
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Bytes of the length prefix before a child's pickled result.
_HEADER = 8

#: What :func:`_receive` returns for a child that did not deliver.
_FAILED: Any = object()

#: The length prefix that ends a stream: no pickle is empty.
_END = bytes(_HEADER)

#: What :func:`_read_frame` returns for the end of a stream.
_ENDED: Any = object()

#: Bytes of a stream's pipe, where the platform lets a pipe be sized: how
#: far its child may run ahead (about five of the generator's blocks), so
#: that neither process waits on every message.
_STREAM_PIPE_BYTES = 1 << 20


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
                children[index] = _fork(lambda pipe: _write_frame(pipe, function(task)))
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


def fork_stream(produce: Callable[[], Iterable[T]]) -> Iterator[T]:
    """The items of ``produce()``, made in a forked child while the caller uses them.

    The child runs ``produce()`` and sends each item down a pipe as soon
    as it is made, so it makes the next while this process uses the last
    (the pipe's buffer is how far it may run ahead).  A child that dies,
    raises or sends a short message costs time, never a different
    answer: ``produce()`` is run again here, the items already received
    are skipped and the rest come from this process.  ``produce`` must
    therefore make the same items each time it is called.  Without
    ``os.fork``, or beside another thread, every item is made here.

    Close the iterator when done with it (``contextlib.closing``): the
    child is reaped when the items run out or the iterator is closed,
    and killed first when they have not run out.
    """
    if not _can_fork():
        yield from produce()
        return

    def send(pipe: BinaryIO) -> None:
        for item in produce():
            _write_frame(pipe, item)
            pipe.flush()
        pipe.write(_END)

    try:
        pid, read_fd = _fork(send, _STREAM_PIPE_BYTES)
    except OSError:
        yield from produce()  # no process to be had: the items are made here
        return
    received = 0
    ended = False
    try:
        with open(read_fd, "rb") as pipe:
            while (item := _read_frame(pipe)) is not _FAILED:
                if item is _ENDED:
                    ended = True
                    break
                yield item
                received += 1
    finally:
        if not ended:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if not ended:
        yield from islice(produce(), received, None)


def _write_frame(pipe: BinaryIO, value: Any) -> None:
    """``value`` pickled behind its length prefix."""
    payload = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
    pipe.write(len(payload).to_bytes(_HEADER, "little"))
    pipe.write(payload)


def _fork(send: Callable[[BinaryIO], None], pipe_bytes: int = 0) -> tuple[int, int]:
    """Start a child running ``send`` on a pipe's write end; its pid and the read end.

    ``pipe_bytes`` sizes the pipe where the platform allows it.
    """
    read_fd, write_fd = os.pipe()
    if pipe_bytes and hasattr(fcntl, "F_SETPIPE_SZ"):
        with suppress(OSError):  # above the system's limit: the default size stays
            fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, pipe_bytes)
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
            with open(write_fd, "wb") as pipe:
                send(pipe)
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
            result = _unpickle(pipe)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    return _FAILED if status != 0 else result


class _CountingReader:
    """The file interface :func:`pickle.load` reads through, counting bytes."""

    def __init__(self, pipe: BinaryIO) -> None:
        self._pipe = pipe
        self.count = 0

    def read(self, size: int = -1) -> bytes:
        data = self._pipe.read(size)
        self.count += len(data)
        return data

    def readinto(self, buffer: Any) -> int:
        size = self._pipe.readinto(buffer) or 0
        self.count += size
        return size

    def readline(self) -> bytes:
        line = self._pipe.readline()
        self.count += len(line)
        return line


def _unpickle(pipe: BinaryIO) -> Any:
    """A :func:`fork_map` child's one result, or :data:`_FAILED` unless the pipe ends there."""
    result = _read_frame(pipe)
    if result is _ENDED or pipe.read(1):
        return _FAILED
    return result


def _read_frame(pipe: BinaryIO) -> Any:
    """The value behind the next length prefix, or :data:`_FAILED` unless exactly that long.

    :data:`_ENDED` for the prefix that ends a stream.  Unpickled
    straight off the pipe, so no copy of the whole payload is ever held:
    a large result (a federation's index columns) would otherwise leave a
    payload-sized hole in this process's heap.
    """
    header = pipe.read(_HEADER)
    if header == _END:
        return _ENDED
    if len(header) != _HEADER:
        return _FAILED
    reader = _CountingReader(pipe)
    try:
        result = pickle.load(reader)
    except Exception:
        return _FAILED
    return result if reader.count == int.from_bytes(header, "little") else _FAILED
