"""Clustered cross-covariance control for TD critic training on offline data.

The package trains a small ReLU critic with temporal-difference targets while
steering minibatch composition and feature geometry: an EM-fitted Gaussian
mixture over stacked gradient pairs supplies single-cluster minibatches, and a
Frobenius penalty on the within-cluster cross-covariance suppresses the
harmful coupling between target-side and online-side gradients. Policy-side
helpers give the closed-form step sizes of divergence-penalized Gaussian
improvement and check the bounds that justify per-cluster training.
"""

import os

from .errors import C4Error, FormatError, InputError, NumericalError, ParseError

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def apply_thread_cap() -> None:
    """Default every BLAS pool size to C4_THREADS; explicit settings win.

    The pools read these variables once, when numpy loads, so the package
    calls this on import, before any of its modules imports numpy.
    """
    raw = os.environ.get("C4_THREADS")
    if raw is None:
        return
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise InputError(f"C4_THREADS must be a positive integer, got {raw!r}")
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(n))


try:
    apply_thread_cap()
except InputError:
    pass  # the c4 command reports it as a usage error

__version__ = "0.1.0"

__all__ = [
    "C4Error",
    "FormatError",
    "InputError",
    "NumericalError",
    "ParseError",
    "__version__",
]
