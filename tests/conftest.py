import errno
import os
import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def traced_peak():
    """fn -> bytes numpy and Python allocated at the peak of a call to fn, above what was live."""
    def peak(fn) -> int:
        fn()  # warm: first-call caches are not the call's own
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture
def refuse_call(monkeypatch):
    """(name, n) -> patches ``os.fork`` or ``os.pipe`` so that its n-th call raises, as
    under a process limit (EAGAIN) or a descriptor limit (EMFILE)."""
    def refuse(name: str, n: int) -> None:
        real, calls = getattr(os, name), []

        def call():
            calls.append(None)
            if len(calls) == n:
                code = errno.EAGAIN if name == "fork" else errno.EMFILE
                raise OSError(code, os.strerror(code))
            return real()

        monkeypatch.setattr(os, name, call)
    return refuse


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process behind, running or not yet reaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # reaps one that has exited, so it cannot leak on
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process{f' (pid {pid}, reaped here)' if pid else ''}")


def _open_pipes() -> set[str]:
    """The pipes this process holds an end of, by inode; none where /proc is absent."""
    try:
        fds = os.listdir("/proc/self/fd")
    except OSError:
        return set()
    links = set()
    for fd in fds:
        try:
            links.add(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:  # the descriptor of the listing itself, closed since
            pass
    return {link for link in links if link.startswith("pipe:")}


@pytest.fixture(autouse=True)
def no_pipe_left():
    """Fails a test that leaves an end of a new pipe open, such as a worker's not reaped."""
    before = _open_pipes()
    yield
    left = _open_pipes() - before
    if left:
        pytest.fail(f"the test left an end of {len(left)} new pipe(s) open: {sorted(left)}")
