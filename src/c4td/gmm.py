"""Gaussian mixture over stacked gradient pairs, fit by ridge-regularized EM.

Rows of the data matrix are y_i = [g'_i ; g_i] in R^{2m}, so each cluster
covariance carries the target-side block, the online-side block and their
cross block in one symmetric matrix. The E-step works entirely in log space;
the M-step adds a ridge so every covariance stays safely positive definite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NONNEGATIVE, InputError, at_least, check_fields

# A cluster whose soft count falls below this fraction of N is starved and
# gets re-seeded at the least-explained point.
STARVED_FRACTION = 1e-6
_FIT_ARGS = {"k": at_least(1), "max_iters": at_least(1), "tol": NONNEGATIVE, "seed": at_least(0)}
# Doubles in each of the E-step's two row-block buffers (256 KB). At
# N = 10000, D = 32, K = 8 on one BLAS thread, 8192, 16384, 32768 and 65536
# took 10.1, 8.8, 8.6 and 9.3 ms per call, and one block of all rows 12.4.
_BLOCK_ELEMS = 32768


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """K weighted Gaussians; validated, made read-only and factored once when built."""

    weights: np.ndarray      # (K,)
    means: np.ndarray        # (K, D)
    covariances: np.ndarray  # (K, D, D), each symmetric positive definite
    chols: np.ndarray = field(init=False, repr=False)  # (K, D, D) lower Cholesky factors
    cdf: np.ndarray = field(init=False, repr=False)    # (K,) weight CDF, as Generator.choice's

    def __post_init__(self):
        weights, means, covs = (np.array(a, dtype=float)
                                for a in (self.weights, self.means, self.covariances))
        if weights.ndim != 1:
            raise InputError(f"weights must be (K,), got shape {weights.shape}")
        k = weights.shape[0]
        if means.ndim != 2 or means.shape[0] != k:
            raise InputError("means must be (K, D)")
        d = means.shape[1]
        if covs.shape != (k, d, d):
            raise InputError("covariances must be (K, D, D)")
        if not all(np.all(np.isfinite(a)) for a in (weights, means, covs)):
            raise InputError("mixture weights, means and covariances must be finite")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
            raise InputError("weights must be a probability vector")
        asymmetric = (np.abs(covs - covs.transpose(0, 2, 1)) > 1e-10).any(axis=(1, 2))
        if asymmetric.any():
            raise InputError(f"covariance {np.flatnonzero(asymmetric)[0]} is not symmetric")
        try:  # LAPACK factors each slice on its own, with the bits of a call per slice
            chols = np.linalg.cholesky(covs)
        except np.linalg.LinAlgError:
            for z in range(k):  # name the first covariance that fails
                try:
                    np.linalg.cholesky(covs[z])
                except np.linalg.LinAlgError as exc:
                    raise InputError(f"covariance {z} is not positive definite") from exc
            raise
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        for name, arr in (("weights", weights), ("means", means),
                          ("covariances", covs), ("chols", chols), ("cdf", cdf)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[1]


class FitResult(NamedTuple):
    """EM outcome: the fitted mixture, its recorded log-likelihood trace and counts."""

    mixture: GaussianMixture
    log_likelihoods: list[float]
    n_iterations: int
    n_reseeds: int


def default_ridge(y: np.ndarray) -> float:
    """1e-6 of the mean global variance, floored so degenerate data stays PD.

    Data whose variance overflows get ``inf``, with no numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean_var = float(np.mean(np.var(y, axis=0)))
    return max(1e-6 * mean_var, 1e-12)


def gaussian_logpdf(y: np.ndarray, means, chols) -> np.ndarray:
    """log N(y_i | means[z], L_z L_z^T) for every row i of y and component z, shape (N, Z).

    The table is component-major: Z contiguous rows of N, one per component,
    returned as their (N, Z) view, so column z is contiguous and the sums
    over components below run as whole-row operations.

    ``chols[z]`` is the lower Cholesky factor L_z; one stacked ``inv`` call
    inverts them all, each with the bits of its own call, so a column
    depends only on its own mean and factor. The rows run in blocks, and
    every (block, component) pair goes through the same two block-sized
    buffers, ``diff`` and ``u``: a call holds no N x D array at any N, and
    its scratch stays in cache.

    A row's GEMM bits can depend on the matrix around it, so the blocks
    follow one rule: a block holds ``rows = max(64, (_BLOCK_ELEMS // D) //
    64 * 64)`` rows and starts at a multiple of ``rows``, and the remainder
    joins the last block, so no block is shorter than ``rows`` and N below
    2 rows is one block. On OpenBLAS 0.3.31 (Haswell kernel), this moved
    no bit against one pass over all rows for N from 37 to 10000, D from 2
    to 32 and blocks of 64, 256 and 1024 rows, nor with the block size
    here for N up to 40000 and D up to 128, on one BLAS thread or two.
    What does move bits: chunks of 32 rows or fewer (every row of a
    (10000, 32) @ (32, 32) product changed), a short remainder chunk (16
    rows after 64-row chunks, which takes a small-matrix path), a
    contiguous copy of ``inv_t``, and folding the two constant adds into one.
    """
    n, d = y.shape
    table = np.empty((len(means), n))
    inv_t = np.linalg.inv(chols).swapaxes(1, 2)  # triangular back-substitution; D is small
    log_dets = 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
    log_2pi = d * np.log(2.0 * np.pi)
    rows = max(64, (_BLOCK_ELEMS // d) // 64 * 64)
    last = max(n // rows - 1, 0) * rows  # the last block is the longest
    diff = np.empty((n - last, d))
    u = np.empty_like(diff)
    for s in range(0, last + 1, rows):
        e = n if s == last else s + rows
        y_b, diff_b, u_b = y[s:e], diff[:e - s], u[:e - s]
        for z, mean in enumerate(means):
            np.subtract(y_b, mean, out=diff_b)
            np.matmul(diff_b, inv_t[z], out=u_b)
            np.einsum("ij,ij->i", u_b, u_b, out=table[z, s:e])
    table += log_dets[:, None]
    table += log_2pi
    table *= -0.5
    return table.T


def _log_components(y: np.ndarray, mixture: GaussianMixture,
                    logpdf: np.ndarray | None = None) -> np.ndarray:
    """log(p_z) + log N(y_i | mu_z, Omega_z) for every (i, z), laid out as ``gaussian_logpdf``'s.

    ``logpdf``, when given, is ``gaussian_logpdf``'s table for this mixture's
    means and factors, already computed; it is read, not changed.
    """
    log_weights = [np.log(w) if w > 0 else -np.inf for w in mixture.weights]
    if logpdf is not None:
        return (logpdf.T + np.array(log_weights)[:, None]).T
    logs = gaussian_logpdf(y, mixture.means, mixture.chols)
    logs += log_weights
    return logs


def _fold_rows(terms: np.ndarray) -> None:
    """Sum the K rows of ``terms`` into ``terms[0]``, in place, with the bits of
    numpy's sum over a contiguous row of K (nonnegative) terms.

    numpy's association: below 8 terms it adds one by one; from 8 to 128 it
    runs eight lanes, lane j adding terms j, j + 8, ... one by one, joins
    them as ((0+1)+(2+3))+((4+5)+(6+7)) and then adds the K mod 8 leftover
    terms one by one; above 128 it sums two halves, split at a multiple of
    8, on their own and adds them. Each add here is one contiguous
    operation over all the columns of ``terms``, where a sum over axis 1 of
    an (N, K) table runs N reductions of K terms. numpy also adds its sum
    to 0.0, which changes only a sum of negative zeros; that add is left out.
    """
    k = len(terms)
    if k > 128:
        half = k // 2 - k // 2 % 8
        _fold_rows(terms[:half])
        _fold_rows(terms[half:])
        terms[0] += terms[half]
        return
    tail = 0 if k < 8 else k - k % 8
    if tail:
        for m in range(8, tail, 8):
            terms[:8] += terms[m:m + 8]
        terms[0:8:2] += terms[1:8:2]
        terms[0:8:4] += terms[2:8:4]
        terms[0] += terms[4]
    for row in terms[max(tail, 1):]:
        terms[0] += row


def _component_sums(table: np.ndarray, shift: np.ndarray | None = None) -> np.ndarray:
    """sum_z table[z, i] for every column i of a (K, N) table, or sum_z exp(table[z, i]
    - shift[i]) when ``shift`` is given, with the association of ``_fold_rows``.

    Blocks of ``_BLOCK_ELEMS // K`` columns go through one (K, cols) buffer,
    so the table is neither changed nor copied whole.
    """
    k, n = table.shape
    sums = np.empty(n)
    cols = max(1, _BLOCK_ELEMS // k)
    block = np.empty((k, min(cols, n)))
    for s in range(0, n, cols):
        e = min(s + cols, n)
        terms = block[:, :e - s]
        if shift is None:
            np.copyto(terms, table[:, s:e])
        else:
            np.subtract(table[:, s:e], shift[s:e], out=terms)
            np.exp(terms, out=terms)
        _fold_rows(terms)
        sums[s:e] = terms[0]
    return sums


def logsumexp_rows(logs: np.ndarray) -> np.ndarray:
    """log sum_z exp(logs[i, z]) for every row i, shifted by the row's finite peak.

    The work runs on the component rows ``logs.T``, contiguous for a table
    from ``gaussian_logpdf``: the peak is a fold of ``np.maximum`` over
    them, and the shifted exponentials are summed in column blocks by
    ``_component_sums``, in numpy's own association for a contiguous row of
    K terms (one by one below 8 terms, eight lanes up to 128, two halves
    above; see ``_fold_rows``), so the bits are those of
    ``logs.max(axis=1)`` and ``sum(axis=1)`` on a C-ordered (N, K) table.
    """
    table = logs.T
    safe = table[0].copy()
    for row in table[1:]:
        np.maximum(safe, row, out=safe)
    safe[~np.isfinite(safe)] = 0.0
    sums = _component_sums(table, safe)
    np.log(sums, out=sums)
    sums += safe
    return sums


def log_density(mixture: GaussianMixture, y: np.ndarray) -> np.ndarray:
    """log p(y_i) under the mixture for every row i of y."""
    return logsumexp_rows(_log_components(_check_data(y, mixture.dim), mixture))


def _posterior(mixture: GaussianMixture, y: np.ndarray,
               logpdf: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities, rows normalized to sum to one exactly, and log p(y_i) per row.

    The responsibilities are the (N, K) view of K contiguous component
    rows, as ``gaussian_logpdf`` lays them out: the shift, ``exp`` and
    division each run once over the whole table, and the normalizing sums
    are ``_component_sums``, with the bits of ``sum(axis=1)`` on a C-ordered
    (N, K) table (numpy's association for a row of K terms; see
    ``_fold_rows``). ``logpdf`` is passed on to ``_log_components``.
    """
    logs = _log_components(y, mixture, logpdf)
    row_ll = logsumexp_rows(logs)
    resp = logs.T
    resp -= row_ll
    np.exp(resp, out=resp)
    resp /= _component_sums(resp)
    return logs, row_ll


def e_step(mixture: GaussianMixture, y: np.ndarray) -> np.ndarray:
    """Responsibilities, rows normalized to sum to one exactly."""
    return _posterior(mixture, _check_data(y, mixture.dim))[0]


def m_step(y: np.ndarray, resp: np.ndarray, ridge: float) -> GaussianMixture:
    """Weighted moment update with a ridge added to every covariance."""
    resp = np.asarray(resp, dtype=float)
    n, d = y.shape
    if resp.shape[0] != n or resp.ndim != 2:
        raise InputError("responsibilities must be (N, K)")
    if ridge <= 0:
        raise InputError("ridge must be positive")
    counts = resp.sum(axis=0)
    if np.any(counts <= 0):
        raise InputError("every cluster needs positive soft count; reseed first")
    k = resp.shape[1]
    weights = counts / n
    means = (resp.T @ y) / counts[:, None]
    covs = np.empty((k, d, d))
    diff = np.empty_like(y)
    weighted = np.empty_like(y)
    for z in range(k):
        np.subtract(y, means[z], out=diff)
        np.multiply(diff, resp[:, z, None], out=weighted)
        covs[z] = (weighted.T @ diff) / counts[z]
    return GaussianMixture(weights, means,
                           0.5 * (covs + covs.swapaxes(1, 2)) + ridge * np.eye(d))


def _check_data(y: np.ndarray, dim: int | None = None) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[0] < 1:
        raise InputError(f"data must be a nonempty (N, D) matrix, got {y.shape}")
    if dim is not None and y.shape[1] != dim:
        raise InputError(f"data dimension {y.shape[1]} does not match mixture {dim}")
    if not np.all(np.isfinite(y)):
        raise InputError("data contains non-finite values")
    return y


def _kmeanspp_means(y: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = y.shape[0]
    chosen = [int(rng.integers(n))]
    dist2 = np.sum((y - y[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = dist2.sum()
        if total <= 0.0:
            chosen.append(int(rng.integers(n)))
        else:
            chosen.append(int(rng.choice(n, p=dist2 / total)))
        dist2 = np.minimum(dist2, np.sum((y - y[chosen[-1]]) ** 2, axis=1))
    return y[chosen].copy()


def _global_cov(y: np.ndarray, ridge: float) -> np.ndarray:
    """Symmetrized covariance of all rows plus the ridge: every fresh cluster's covariance."""
    d = y.shape[1]
    cov = np.cov(y, rowvar=False, bias=True).reshape(d, d)
    return 0.5 * (cov + cov.T) + ridge * np.eye(d)


def _reseed_starved(mixture: GaussianMixture, y: np.ndarray, row_ll: np.ndarray,
                    starved: np.ndarray, global_cov: np.ndarray) -> GaussianMixture:
    """Move starved clusters onto the least-explained points (lowest ``row_ll``)."""
    weights, means, covs = (a.copy() for a in (mixture.weights, mixture.means,
                                               mixture.covariances))
    order = np.argsort(row_ll)
    for rank, z in enumerate(np.flatnonzero(starved)):
        means[z] = y[order[rank % len(order)]]
        covs[z] = global_cov
        weights[z] = 1.0 / mixture.n_components
    weights /= weights.sum()
    return GaussianMixture(weights, means, covs)


def fit(y: np.ndarray, k: int, max_iters: int = 200, tol: float = 1e-7,
        seed: int = 0, init: GaussianMixture | None = None) -> FitResult:
    """Full EM loop. Deterministic given (y, k, seed).

    Iteration stops when the log-likelihood improvement drops below tol.
    The ridge ``default_ridge(y)`` added after each M-step can push the raw
    likelihood down by a hair on rank-deficient data; such a dip is treated
    as convergence and the pre-dip mixture is returned, so the recorded
    trace stays non-decreasing. Reseeding a starved cluster restarts EM from
    the modified mixture, and the trace documents that final run. ``init``
    warm-starts from a previous mixture. Data whose variance overflows raise
    InputError.

    A reseed changes only the starved components' means and covariances,
    and a column of ``gaussian_logpdf`` depends only on its own component,
    so the densities' table is kept across a reseed and only the reseeded
    columns are recomputed; ``_log_components`` still adds the weights once
    per E-step. The table is dropped before the M-step, which gets the
    responsibilities in C order: ``resp.T @ y`` and the soft counts' fold
    over rows keep the bits they have for that layout. Every fresh
    covariance is one ``_global_cov``, computed at most once per fit.
    """
    check_fields(locals(), _FIT_ARGS)
    y = _check_data(y)
    n = y.shape[0]
    if k > n:
        raise InputError(f"need K <= N, got K={k}, N={n}")
    eps = default_ridge(y)
    if not np.isfinite(eps):
        raise InputError("data too large for EM: their variance overflows")
    rng = np.random.default_rng(seed)
    global_cov = None
    if init is not None:
        if init.n_components != k or init.dim != y.shape[1]:
            raise InputError("warm start shape does not match (K, D)")
        mixture = init
    else:
        global_cov = _global_cov(y, eps)
        mixture = GaussianMixture(np.full(k, 1.0 / k), _kmeanspp_means(y, k, rng),
                                  np.repeat(global_cov[None, :, :], k, axis=0))

    trace: list[float] = []
    prev_mixture = None
    logpdf = None  # the densities' table, kept only across a reseed
    reseeds = 0
    iters = 0
    while iters < max_iters:
        iters += 1
        if logpdf is None:
            logpdf = gaussian_logpdf(y, mixture.means, mixture.chols)
        resp, row_ll = _posterior(mixture, y, logpdf)
        resp = np.ascontiguousarray(resp)
        ll = float(row_ll.sum())
        counts = resp.sum(axis=0)
        starved = counts < STARVED_FRACTION * n
        if np.any(starved):
            if global_cov is None:
                global_cov = _global_cov(y, eps)
            mixture = _reseed_starved(mixture, y, row_ll, starved, global_cov)
            logpdf[:, starved] = gaussian_logpdf(y, mixture.means[starved],
                                                 mixture.chols[starved])
            reseeds += 1
            trace.clear()
            continue
        logpdf = row_ll = None  # read only by a reseed; the M-step's peak holds neither
        if trace and ll < trace[-1]:
            mixture = prev_mixture  # ridge dip: keep the better iterate
            break
        trace.append(ll)
        if len(trace) > 1 and ll - trace[-2] < tol:
            break
        prev_mixture = mixture
        mixture = m_step(y, resp, eps)
    return FitResult(mixture, trace, iters, reseeds)


def sample_cluster(mixture: GaussianMixture, rng: np.random.Generator) -> int:
    """Draw z ~ Categorical(weights): ``rng.choice(K, p=weights)``'s draw, from the cached CDF."""
    return int(mixture.cdf.searchsorted(rng.random(), side="right"))


def effective_clusters(mixture: GaussianMixture, occupancy_threshold: float = 0.01) -> int:
    """Number of components whose weight reaches the occupancy threshold."""
    check_fields(locals(), {"occupancy_threshold": (
        "float", lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")})
    return int(np.sum(mixture.weights >= occupancy_threshold))


def mixture_to_json(mixture: GaussianMixture) -> str:
    payload = {
        "K": mixture.n_components,
        "weights": mixture.weights.tolist(),
        "means": mixture.means.tolist(),
        "covariances": [cov.ravel(order="C").tolist() for cov in mixture.covariances],
    }
    return json.dumps(payload)
