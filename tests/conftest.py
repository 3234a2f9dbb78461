import errno
import gc
import os
import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


def _caches_in_checkout() -> set[Path]:
    """The dataset caches under the checkout, outside the benchmark's work directory."""
    found = set()
    for root, dirs, files in os.walk(Path(__file__).parents[1]):
        dirs[:] = [d for d in dirs if d not in (".git", ".perfbench_work")]
        found.update(Path(root, name) for name in files if name.endswith(".c4cache"))
    return found


@pytest.fixture(scope="session", autouse=True)
def no_cache_in_checkout():
    """Fails the run if a test leaves a new ``*.c4cache`` in the checkout, as a
    ``save_jsonl`` or ``load_jsonl`` of a dataset there would."""
    before = _caches_in_checkout()
    yield
    left = _caches_in_checkout() - before
    if left:
        pytest.fail(f"the tests left dataset caches in the checkout: {sorted(map(str, left))}")


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


def _shared_mappings() -> set[str]:
    """The shared mappings of this process, by address range; none where /proc is absent."""
    try:
        with open("/proc/self/maps", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return set()
    return {fields[0] for fields in map(str.split, lines) if fields[1].endswith("s")}


@pytest.fixture(autouse=True)
def no_mapping_left():
    """Fails a test that leaves a new shared mapping, such as a train helper's arrays.

    A mapping is unmapped once no array of it is left. An exception's traceback
    keeps the arrays of the frames it passed through, and often a reference
    cycle with them, so what only garbage holds is collected before the check.
    """
    before = _shared_mappings()
    yield
    left = _shared_mappings() - before
    if left:
        gc.collect()
        left = _shared_mappings() - before
    if left:
        pytest.fail(f"the test left {len(left)} new shared mapping(s): {sorted(left)}")
