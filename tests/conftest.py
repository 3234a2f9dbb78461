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


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process behind, running or not yet reaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)  # reaps one that has exited, so it cannot leak on
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process{f' (pid {pid}, reaped here)' if pid else ''}")
