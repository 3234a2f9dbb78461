"""Forked worker processes: the CPUs this process may use, and a pipe pair to each worker.

A worker is a child of ``os.fork``: it starts from a copy of its parent's memory, so
it imports nothing again, and it ends in ``os._exit``, so it never returns into the
parent's stack and never flushes stdio buffers copied from it. Its parent reaps it.
Every message, in either direction, is one pickle.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, NoReturn

_PIPE_MAX = "/proc/sys/fs/pipe-max-size"

# this process's ends of the pipes of every worker it has not yet reaped, whoever
# forked it (descriptors belong to the process); a new worker closes them, so that
# only this process holds them open
_live_fds: set[int] = set()


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one, else 1."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def one_blas_thread() -> bool:
    """Whether this process's BLAS pool has one thread, as OpenBLAS sizes it when numpy
    loads: the first of its variables below set to a positive integer, else a thread
    per CPU. Two processes that each run a pool of several threads on two CPUs run
    several times slower than one."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if n > 0:
            return n == 1
    return False


def _widen(fd: int) -> None:
    """Raise a pipe's capacity to the system's maximum, so its writer blocks less often.

    Where that fails, the pipe keeps its default size: what crosses it is the same.
    """
    import fcntl

    try:
        with open(_PIPE_MAX, encoding="ascii") as fh:
            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, int(fh.read()))
    except (OSError, ValueError, AttributeError):
        pass


class Channel:
    """One end of a pipe pair: ``send`` writes to the other end, ``recv`` reads from it."""

    def __init__(self, read_fd: int, write_fd: int):
        self.reader, self.writer = open(read_fd, "rb"), open(write_fd, "wb")

    def send(self, obj) -> None:
        """``obj`` as one pickle; BrokenPipeError once the other end has closed."""
        pickle.dump(obj, self.writer, pickle.HIGHEST_PROTOCOL)
        self.writer.flush()

    def recv(self):
        """The next message; EOFError once the other end has closed, even mid-message."""
        try:
            return pickle.load(self.reader)
        except pickle.UnpicklingError:  # truncated
            raise EOFError from None


class Worker(Channel):
    """A forked child, with the caller's end of its pipe pair."""

    def __init__(self, pid: int, read_fd: int, write_fd: int):
        super().__init__(read_fd, write_fd)
        self.pid, self.fds = pid, {read_fd, write_fd}
        self.status: int | None = None
        _live_fds.update(self.fds)

    def reap(self) -> int:
        """Closes this end of both pipes, waits for the worker to exit, returns its exit code.

        Closing first ends a worker blocked on a pipe. A second call returns the same code.
        """
        if self.status is None:
            _live_fds.difference_update(self.fds)
            try:
                self.writer.close()
            except BrokenPipeError:  # unsent bytes, for a worker that has exited
                pass
            self.reader.close()
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.status


def fork(body: Callable[[Channel], int]) -> Worker:
    """Start a worker that runs ``body(channel)`` and exits with the code it returns,
    or 1 if it raises; OSError, with no descriptor left open, if it cannot start.

    ``channel`` is the worker's end of its pipe pair; the pipe into it is widened to
    the system's maximum capacity.
    """
    fds: list[int] = []
    try:
        for _ in range(2):
            fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        raise
    in_read, in_write, out_read, out_write = fds
    if pid == 0:
        # so that each worker reads EOF once the caller closes its end, whatever
        # other workers it started; the copied files on them are never used here
        for fd in _live_fds | {in_write, out_read}:
            os.close(fd)
        _live_fds.clear()
        _run(body, in_read, out_write)
    os.close(in_read)
    os.close(out_write)  # so the caller reads EOF once the worker exits
    return Worker(pid, out_read, in_write)


def _run(body: Callable[[Channel], int], read_fd: int, write_fd: int) -> NoReturn:
    """Body of a forked worker: ``body`` on its channel, then exit with the code it returned."""
    status = 1
    try:
        _widen(read_fd)  # in the worker, so the caller never loads fcntl
        status = body(Channel(read_fd, write_fd))
    finally:
        os._exit(status)
