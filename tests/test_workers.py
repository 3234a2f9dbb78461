"""Forked workers: one pipe pair each, one pickle per message, nothing left open.

``workers.fork`` starts a child that talks to its caller through a ``Channel``;
``train``'s helper and ``verify --suite all`` are its users. A fork that fails
leaves no descriptor open, and each user then runs the work in its own process.
"""

import os
import select

import numpy as np
import pytest

from c4td import workers
from c4td.workers import fork


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _echo(channel) -> int:
    """Sends back each message until the caller closes its end."""
    while True:
        try:
            channel.send(channel.recv())
        except EOFError:
            return 0


def test_messages_cross_each_way_with_every_bit():
    values = np.random.default_rng(0).standard_normal(4)
    message = ("job", 3, bytes(values), {"residual": float(values[0])}, [None, 2.5])
    worker = fork(_echo)
    try:
        for _ in range(3):
            worker.send(message)
            assert worker.recv() == message
    finally:
        assert worker.reap() == 0
    assert worker.reap() == 0  # a second call returns the same code


def test_a_truncated_message_reads_as_eof():
    def half(channel):
        channel.writer.write(b"\x80\x05\x95\x10\x00\x00\x00\x00\x00\x00\x00\x8c")
        channel.writer.flush()
        return 0

    worker = fork(half)
    try:
        with pytest.raises(EOFError):
            worker.recv()
    finally:
        assert worker.reap() == 0


def test_a_body_that_raises_exits_with_status_1():
    def fail(channel):
        raise ValueError("body broke")

    worker = fork(fail)
    try:
        with pytest.raises(EOFError):
            worker.recv()
    finally:
        assert worker.reap() == 1


def test_a_worker_reads_eof_once_its_caller_closes_its_end_whatever_starts_later():
    first = fork(_echo)
    second = fork(_echo)  # forked from a process that holds the caller's ends of first
    try:
        assert select.select([first.reader], [], [], 0.1)[0] == []  # first waits on its pipe
        first.writer.close()
        # first exits, and so closes its end of the pipe out of it, without second's exit
        assert select.select([first.reader], [], [], 5.0)[0] == [first.reader]
        with pytest.raises(EOFError):
            first.recv()
    finally:
        assert second.reap() == 0  # first, so that first's reap cannot wait on second
        assert first.reap() == 0
    assert workers._live_fds == set()


@pytest.mark.parametrize("name, n", [("fork", 1), ("pipe", 1), ("pipe", 2)])
def test_a_fork_that_fails_leaves_no_descriptor_open(name, n, refuse_call):
    refuse_call(name, n)
    before = _open_fds()
    with pytest.raises(OSError):
        fork(_echo)
    assert _open_fds() == before
    assert workers._live_fds == set()
    _no_child_left()
