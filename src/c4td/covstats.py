"""Cross-covariance statistics, penalties, and the bounds built on them.

Conventions matter here and are named at every call: "population" divides
by n, "sample" by n - 1. The law-of-total-covariance decomposition only
closes exactly under the population convention, while the minibatch penalty
uses the sample convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError

CONVENTIONS = ("population", "sample")


@dataclass(frozen=True)
class TotalCovDecomposition:
    c_total: np.ndarray
    within_expectation: np.ndarray
    between: np.ndarray


def _paired(g_prime: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    g_prime = np.asarray(g_prime, dtype=float)
    g = np.asarray(g, dtype=float)
    if g_prime.ndim != 2 or g.ndim != 2 or g_prime.shape[0] != g.shape[0]:
        raise InputError(f"need paired rows, got {g_prime.shape} and {g.shape}")
    return g_prime, g


def cross_cov(g_prime: np.ndarray, g: np.ndarray, convention: str = "sample", *,
              return_centered: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Cov(g', g) between paired rows; rows of g' index the first factor.

    With ``return_centered``, the pair (Cov(g', g), g' minus its column
    means), for a caller that differentiates the product.
    """
    g_prime, g = _paired(g_prime, g)
    n = g.shape[0]
    if convention not in CONVENTIONS:
        raise InputError(f"convention must be one of {CONVENTIONS}")
    divisor = n if convention == "population" else n - 1
    if divisor < 1:
        raise InputError(f"need at least 2 rows for the sample convention, got {n}")
    gp_c = g_prime - g_prime.mean(axis=0)
    g_c = g - g.mean(axis=0)
    c = gp_c.T @ g_c / divisor
    return (c, gp_c) if return_centered else c


def penalty(c: np.ndarray, trace_weight: float = 0.0) -> float:
    """Squared Frobenius norm plus trace_weight * (trace)^2."""
    c = np.asarray(c, dtype=float)
    if trace_weight < 0:
        raise InputError("trace_weight must be nonnegative")
    value = float(np.sum(c * c))
    if trace_weight != 0.0:
        if c.shape[0] != c.shape[1]:
            raise InputError("trace term needs a square matrix")
        value += trace_weight * float(np.trace(c)) ** 2
    return value


def total_cov_decomposition(g_prime: np.ndarray, g: np.ndarray,
                            hard_labels: np.ndarray) -> TotalCovDecomposition:
    """Split Cov(g', g) into within- and between-cluster parts.

    Population convention is enforced; the law of total covariance
    c_total == within_expectation + between then holds to float round-off
    for any labeling with nonempty clusters.
    """
    g_prime, g = _paired(g_prime, g)
    labels = np.asarray(hard_labels)
    n = g.shape[0]
    if labels.shape != (n,):
        raise InputError(f"labels must have shape ({n},)")
    values = np.unique(labels)
    total = cross_cov(g_prime, g, "population")
    mu_p = g_prime.mean(axis=0)
    mu = g.mean(axis=0)
    within = np.zeros_like(total)
    between = np.zeros_like(total)
    for z in values:
        idx = labels == z
        weight = float(idx.sum()) / n
        within += weight * cross_cov(g_prime[idx], g[idx], "population")
        dp = g_prime[idx].mean(axis=0) - mu_p
        d = g[idx].mean(axis=0) - mu
        between += weight * np.outer(dp, d)
    return TotalCovDecomposition(total, within, between)


def spectral_norm(matrix: np.ndarray, tol: float = 1e-10,
                  max_iters: int = 10_000) -> float:
    """Largest singular value by power iteration on M^T M."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise InputError(f"expected a matrix, got shape {m.shape}")
    gram_scale = float(np.abs(m).sum())
    if gram_scale == 0.0:
        return 0.0
    gram = m.T @ m
    rng = np.random.default_rng(0x5EED)
    v = rng.standard_normal(m.shape[1])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iters):
        w = gram @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v_new = w / norm
        lam_new = float(v_new @ (gram @ v_new))
        if abs(lam_new - lam) <= tol * max(lam_new, 1.0):
            return float(np.sqrt(max(lam_new, 0.0)))
        lam, v = lam_new, v_new
    raise NumericalError(f"power iteration did not converge in {max_iters} iterations")


def jacobi_svd(matrix: np.ndarray, tol: float = 1e-13,
               max_sweeps: int = 60) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi SVD, singular values sorted descending.

    Returns (U, s, Vt) with matrix == U @ diag(s) @ Vt. Meant for the small
    matrices this package works with (dimensions up to a few dozen).
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise InputError(f"expected a matrix, got shape {a.shape}")
    transposed = a.shape[0] < a.shape[1]
    work = a.T.copy() if transposed else a.copy()
    rows, cols = work.shape
    v = np.eye(cols)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(cols - 1):
            for q in range(p + 1, cols):
                app = work[:, p] @ work[:, p]
                aqq = work[:, q] @ work[:, q]
                apq = work[:, p] @ work[:, q]
                denom = np.sqrt(app * aqq)
                if denom == 0.0 or abs(apq) <= tol * denom:
                    continue
                off = max(off, abs(apq) / denom)
                tau = (aqq - app) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                col_p = work[:, p].copy()
                work[:, p] = c * col_p - s * work[:, q]
                work[:, q] = s * col_p + c * work[:, q]
                col_p = v[:, p].copy()
                v[:, p] = c * col_p - s * v[:, q]
                v[:, q] = s * col_p + c * v[:, q]
        if off <= tol:
            break
    else:
        raise NumericalError(f"Jacobi sweeps did not converge in {max_sweeps} sweeps")
    sing = np.linalg.norm(work, axis=0)
    order = np.argsort(sing)[::-1]
    sing = sing[order]
    work = work[:, order]
    v = v[:, order]
    u = np.zeros_like(work)
    nonzero = sing > 0
    u[:, nonzero] = work[:, nonzero] / sing[nonzero]
    if transposed:
        return v, sing, u.T
    return u, sing, v.T


def _unit(vec: np.ndarray, name: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1:
        raise InputError(f"{name} must be a vector")
    if abs(np.linalg.norm(vec) - 1.0) > 1e-8:
        raise InputError(f"{name} must have unit norm")
    return vec


def _check_psd(matrix: np.ndarray, name: str) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InputError(f"{name} must be square")
    if not np.allclose(matrix, matrix.T, rtol=0.0, atol=1e-10):
        raise InputError(f"{name} must be symmetric")
    floor = -1e-8 * max(1.0, float(np.abs(matrix).max()))
    if np.linalg.eigvalsh(matrix).min() < floor:
        raise InputError(f"{name} must be positive semidefinite")
    return matrix


def within_bound_check(sigma_prime: np.ndarray, sigma: np.ndarray, c_z: np.ndarray,
                       w_prime: np.ndarray, w: np.ndarray) -> tuple[float, float, float]:
    """(|w'^T C w|, ||C||_2, sqrt(tr Sigma') sqrt(tr Sigma)) for unit directions.

    The shared 2*gamma*k*k' factor of the inequality chain cancels across all
    three members, so the check runs at unit scale. When (Sigma', C, Sigma)
    are the blocks of one PSD matrix, lhs <= mid <= rhs.
    """
    w_prime = _unit(w_prime, "w_prime")
    w = _unit(w, "w")
    sigma_prime = _check_psd(sigma_prime, "sigma_prime")
    sigma = _check_psd(sigma, "sigma")
    c_z = np.asarray(c_z, dtype=float)
    if c_z.shape != (len(w_prime), len(w)):
        raise InputError(f"cross block must be ({len(w_prime)}, {len(w)})")
    lhs = abs(float(w_prime @ c_z @ w))
    mid = spectral_norm(c_z)
    rhs = float(np.sqrt(np.trace(sigma_prime)) * np.sqrt(np.trace(sigma)))
    return lhs, mid, rhs


def svd_alignment_bound(c: np.ndarray, w_prime: np.ndarray,
                        w: np.ndarray) -> tuple[float, float]:
    """Bilinear value w'^T C w and its alignment lower bound.

    The bound is sigma_1 cos(t') cos(t) - sigma_2 sin(t') sin(t) with t', t
    the angles of w', w against the top singular pair. A zero matrix returns
    (0, 0).
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2:
        raise InputError(f"expected a matrix, got shape {c.shape}")
    w_prime = _unit(w_prime, "w_prime")
    w = _unit(w, "w")
    if c.shape != (len(w_prime), len(w)):
        raise InputError(f"matrix must be ({len(w_prime)}, {len(w)})")
    u, sing, vt = jacobi_svd(c)
    if sing[0] == 0.0:
        return 0.0, 0.0
    value = float(w_prime @ c @ w)
    cos_p = float(np.clip(u[:, 0] @ w_prime, -1.0, 1.0))
    cos = float(np.clip(vt[0] @ w, -1.0, 1.0))
    sin_p = float(np.sqrt(max(0.0, 1.0 - cos_p * cos_p)))
    sin = float(np.sqrt(max(0.0, 1.0 - cos * cos)))
    sigma2 = float(sing[1]) if len(sing) > 1 else 0.0
    lower = float(sing[0]) * cos_p * cos - sigma2 * sin_p * sin
    return value, lower

