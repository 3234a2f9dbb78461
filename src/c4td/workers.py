"""Forked worker processes: the CPUs this process may use, and pipes to and from a worker.

A worker is a child of ``os.fork``: it starts from a copy of its parent's memory, so
it imports nothing again, and it ends in ``os._exit``, so it never returns into the
parent's stack and never flushes stdio buffers copied from it. Its parent reaps it.
"""

from __future__ import annotations

import os
from typing import BinaryIO, Callable, NoReturn

_PIPE_MAX = "/proc/sys/fs/pipe-max-size"


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one, else 1."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


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


class Worker:
    """A forked child, the pipe it writes to us and, if any, the pipe we write to it."""

    def __init__(self, pid: int, from_worker: BinaryIO, to_worker: BinaryIO | None):
        self.pid, self.from_worker, self.to_worker = pid, from_worker, to_worker
        self.status: int | None = None

    def send(self, *buffers) -> None:
        """Bytes-like objects, such as C-contiguous arrays, to the worker in order;
        BrokenPipeError once it has exited."""
        for buf in buffers:
            self.to_worker.write(buf)
        self.to_worker.flush()

    def reap(self) -> int:
        """Closes this end of both pipes, waits for the worker to exit, returns its exit code.

        Closing first ends a worker blocked on a pipe. A second call returns the same code.
        """
        if self.status is None:
            for pipe in (self.to_worker, self.from_worker):
                if pipe is not None:
                    try:
                        pipe.close()
                    except BrokenPipeError:  # unsent bytes, for a worker that has exited
                        pass
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.status


def fork(body: Callable[..., int], inbound: bool = False) -> Worker:
    """Start a worker that runs ``body(outbox)``, or ``body(inbox, outbox)`` with
    ``inbound``, and exits with the code it returns, or 1 if it raises.

    ``outbox`` is the pipe the worker writes to the caller and ``inbox`` the one it
    reads from, widened to the system's maximum capacity; both are binary files.
    """
    pipes = [os.pipe()] + ([os.pipe()] if inbound else [])
    try:
        pid = os.fork()
    except OSError:
        for fd in (fd for pair in pipes for fd in pair):
            os.close(fd)
        raise
    (out_read, out_write), *inward = pipes
    if pid == 0:
        os.close(out_read)
        if inward:
            os.close(inward[0][1])  # so the worker reads EOF once the caller closes its end
        _run(body, out_write, inward[0][0] if inward else None)
    os.close(out_write)  # so the caller reads EOF once the worker exits
    to_worker = None
    if inward:
        os.close(inward[0][0])
        to_worker = open(inward[0][1], "wb")
    return Worker(pid, open(out_read, "rb"), to_worker)


def _run(body: Callable[..., int], write_fd: int, read_fd: int | None) -> NoReturn:
    """Body of a forked worker: ``body`` on its pipes, then exit with the code it returned."""
    status = 1
    try:
        with open(write_fd, "wb") as outbox:
            if read_fd is None:
                code = body(outbox)
            else:
                _widen(read_fd)  # in the worker, so the caller never loads fcntl
                with open(read_fd, "rb") as inbox:
                    code = body(inbox, outbox)
        status = code
    finally:
        os._exit(status)


def join(workers: list[Worker]) -> list[tuple[int, bytes]]:
    """Reads each worker's output to EOF, then reaps every worker, even after a failed read.

    Returns each worker's exit code and what it wrote.
    """
    outputs: list[bytes] = []
    try:
        for worker in workers:
            outputs.append(worker.from_worker.read())
    finally:
        codes = [worker.reap() for worker in workers]
    return list(zip(codes, outputs))
