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
