"""Reference kernel: a fixed loop that reads the host's current speed.

On a host shared with other tenants, the same command can take up to twice
as long from one second to the next, while its CPU time stays equal to its
wall time. The benchmark runs this kernel right before and right after
every measured command and scales the command's wall time by ``REF_S`` over
the kernel's mean time, which gives the command's time on a quiet host.
The kernel imports nothing from c4td, so a change to the program cannot
move it. Its mix is the program's: small matrix products, elementwise
ufuncs, reductions and dict building on tiny arrays, as in the step loop
and evaluation, then products and reductions on 10000-row arrays, as in
the full-data E-step. The correction is partial: a command that meets a
burst the two kernel runs around it miss still reads slow.

Runs as a child process that stays up: for every line read on stdin it
runs the kernel once and prints the kernel's seconds on one line.
"""

from __future__ import annotations

import sys
import time

# The kernel's time on a quiet host: 2-core x86-64, Python 3.11, numpy 2.4,
# OpenBLAS with one thread. Only a unit conversion: any constant would do.
REF_S = 0.13
SMALL_LOOPS = 6000
LARGE_LOOPS = 50


def kernel(small_loops: int, large_loops: int) -> float:
    """Two halves of about equal time: tiny arrays, then arrays past L2."""
    import numpy as np  # here, so that importing REF_S loads no BLAS pool

    rng = np.random.default_rng(0)
    x = rng.standard_normal((256, 16))
    w = rng.standard_normal((16, 16))
    y = rng.standard_normal((10000, 32))
    m = rng.standard_normal((32, 32)) / 32.0
    total = 0.0
    for _ in range(small_loops):
        h = np.maximum(x @ w.T, 0.0)
        total += float(h.sum())
        total += len({i: i * i for i in range(20)})
    for _ in range(large_loops):
        u = y @ m
        total += float(np.exp(-np.einsum("ij,ij->i", u, u)).sum())
    return total


def main() -> None:
    kernel(200, 2)
    for _ in sys.stdin:
        start = time.perf_counter()
        kernel(SMALL_LOOPS, LARGE_LOOPS)
        print(time.perf_counter() - start, flush=True)


if __name__ == "__main__":
    main()
