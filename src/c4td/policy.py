"""Step sizes and bounds of Gaussian policy improvement under divergence penalties.

A Gaussian policy moved along the critic gradient against a behavior prior
pays a discounted-occupancy-weighted Pearson chi-square and/or KL price,
given here in closed form. The step length kappa* solves a one-dimensional
stationarity equation with a closed Lambert-W form in the Pearson-only case.
Mixture convexity of f-divergences bounds the divergence from a behavior
mixture by the weighted per-cluster divergences, which is what licenses
training against one cluster at a time; ``c4 verify --suite policy`` checks
these statements.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (DISCOUNT, NONNEGATIVE, POSITIVE, InputError, NumericalError, at_least,
                     check_fields)
from .gmm import GaussianMixture, gaussian_logpdf, log_density


@dataclass(frozen=True, eq=False)
class GaussianDist:
    """Multivariate Gaussian with a strictly positive definite covariance.

    It is the one component of a ``gmm.GaussianMixture``, which validates,
    copies and factors the inputs; ``mean``, ``cov`` and the Cholesky factor
    are read-only views of that mixture's arrays, so the factor never goes
    stale.
    """

    mean: np.ndarray
    cov: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mix = GaussianMixture([1.0], [np.atleast_1d(self.mean)], [np.atleast_2d(self.cov)])
        for name, arr in (("mean", mix.means), ("cov", mix.covariances), ("_chol", mix.chols)):
            object.__setattr__(self, name, arr[0])

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def logpdf(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.dim:
            raise InputError(f"points must have dimension {self.dim}")
        return gaussian_logpdf(x, [self.mean], [self._chol])[:, 0]

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return np.exp(self.logpdf(x))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        z = rng.standard_normal((n, self.dim))
        return self.mean + z @ self._chol.T


@dataclass(frozen=True)
class PenaltyCoeffs:
    """Pearson weight alpha, KL weight beta_kl, and the discount gamma."""

    alpha: float
    beta_kl: float
    gamma: float

    def __post_init__(self):
        check_fields(vars(self), {"alpha": NONNEGATIVE, "beta_kl": NONNEGATIVE, "gamma": DISCOUNT})
        if self.alpha + self.beta_kl <= 0:
            raise InputError("at least one of alpha, beta_kl must be positive")

    @property
    def rho_bar(self) -> float:
        """Geometric-series constant 1/(1 - gamma)."""
        return 1.0 / (1.0 - self.gamma)


# ------------------------------------------------------------- divergences

def gaussian_kl(p: GaussianDist, q: GaussianDist) -> float:
    """KL(p || q) in closed form; equal covariances reduce it to a quadratic."""
    if p.dim != q.dim:
        raise InputError("dimension mismatch")
    d = p.dim
    q_inv = np.linalg.inv(q.cov)
    delta = p.mean - q.mean
    trace = float(np.trace(q_inv @ p.cov))
    maha = float(delta @ q_inv @ delta)
    log_det = float(np.linalg.slogdet(q.cov)[1] - np.linalg.slogdet(p.cov)[1])
    return 0.5 * (trace + maha - d + log_det)


def _chi2(p: GaussianDist, q: GaussianDist) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """chi2(p||q) and the p_cov^-1, A and b it is built from, for the mean-gradient.

    chi2(p||q) + 1 = integral of p^2/q, finite iff A = 2 p_cov^-1 - q_cov^-1
    is positive definite (inf otherwise); b = 2 p_cov^-1 p_mean - q_cov^-1 q_mean.
    """
    if p.dim != q.dim:
        raise InputError("dimension mismatch")
    p_inv = np.linalg.inv(p.cov)
    q_inv = np.linalg.inv(q.cov)
    a = 2.0 * p_inv - q_inv
    b = 2.0 * p_inv @ p.mean - q_inv @ q.mean
    try:
        a_chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return float("inf"), p_inv, a, b
    # log of |q_cov|^(1/2) |p_cov|^(-1) |A|^(-1/2)
    log_coef = (0.5 * np.linalg.slogdet(q.cov)[1] - np.linalg.slogdet(p.cov)[1]
                - np.sum(np.log(np.diag(a_chol))))
    u = np.linalg.solve(a_chol, b)
    exponent = 0.5 * float(u @ u) - float(p.mean @ p_inv @ p.mean) \
        + 0.5 * float(q.mean @ q_inv @ q.mean)
    return float(np.expm1(log_coef + exponent)), p_inv, a, b


def gaussian_chi2(p: GaussianDist, q: GaussianDist) -> float:
    """General Gaussian Pearson chi-square; inf when the integral diverges."""
    return _chi2(p, q)[0]


def _grad_mu_kl(policy: GaussianDist, nu: GaussianDist) -> np.ndarray:
    return np.linalg.solve(nu.cov, policy.mean - nu.mean)


def _grad_mu_chi2(policy: GaussianDist, nu: GaussianDist) -> np.ndarray:
    """Gradient of the general Gaussian chi-square in the policy mean."""
    value, p_inv, a, b = _chi2(policy, nu)
    if not math.isfinite(value + 1.0):
        raise NumericalError("chi-square divergence is infinite at this policy")
    return (value + 1.0) * 2.0 * (p_inv @ (np.linalg.solve(a, b) - policy.mean))


# -------------------------------------------------------------- step sizes

def lambert_w(z: float) -> float:
    """Principal-branch Lambert W on z > 0 by guarded Newton on w e^w = z.

    The residual tolerance is relative to z, which is the rounding floor of
    evaluating w e^w; a step that no longer moves w also counts as converged.
    """
    check_fields(locals(), {"z": POSITIVE})
    w = math.log1p(z)
    prev = None
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - z
        if abs(f) <= 4e-16 * z:
            return w
        step = f / (ew * (w + 1.0))
        # w stays in (0, inf) on this branch; halve any overshoot below 0.
        while w - step <= 0.0:
            step *= 0.5
        new_w = w - step
        # a fixed point or a two-cycle between adjacent floats is converged
        if new_w == w or new_w == prev:
            return new_w
        prev = w
        w = new_w
    raise NumericalError("lambert_w Newton iteration did not converge")


def kappa_star(r_curvature: float, coeffs: PenaltyCoeffs) -> float:
    """Positive root of (2 alpha rho e^(kappa^2 R) + beta_kl rho) kappa = 1.

    KL-only (alpha = 0) returns the exact closed form (1 - gamma)/beta_kl.
    Otherwise a bracketed Newton iteration drives the defining residual below
    1e-13. The root is unique because the left side is strictly increasing.
    """
    check_fields(locals(), {"r_curvature": POSITIVE})
    r = float(r_curvature)
    rho = coeffs.rho_bar
    alpha, beta = coeffs.alpha, coeffs.beta_kl
    if alpha == 0.0:
        return (1.0 - coeffs.gamma) / beta
    lo, hi = 0.0, 1.0 / ((2.0 * alpha + beta) * rho)

    # Newton runs on the log of the product form, which stays finite and
    # nearly linear where e^(kappa^2 R) dwarfs everything else; the raw
    # residual would overflow there and its Newton steps crawl.
    def equation(k: float) -> tuple[float, float, float]:
        """(residual, log residual, the exponential term's share of the sum) at k."""
        expo = k * k * r
        if expo > 700.0:
            return math.inf, math.log(2.0 * alpha * rho) + expo + math.log(k), 1.0
        exp_term = 2.0 * alpha * rho * math.exp(expo)
        total = exp_term + beta * rho
        return total * k - 1.0, math.log(total) + math.log(k), exp_term / total

    k = 0.5 * hi
    for _ in range(300):
        f, g, share = equation(k)
        if abs(f) < 1e-13:
            return k
        if g > 0.0:
            hi = k
        else:
            lo = k
        slope = 1.0 / k + 2.0 * k * r * share
        k_newton = k - g / slope
        k = k_newton if lo < k_newton < hi else 0.5 * (lo + hi)
    if abs(equation(k)[0]) < 1e-12:
        return k
    raise NumericalError("kappa_star iteration did not reach residual 1e-12")


def kappa_star_pearson_closed_form(r_curvature: float, alpha: float, gamma: float) -> float:
    """Lambert-W form of the Pearson-only step: sqrt(W(R/(2 lam^2))/(2R))."""
    check_fields(locals(), {"r_curvature": POSITIVE, "alpha": POSITIVE, "gamma": DISCOUNT})
    r = float(r_curvature)
    lam = alpha / (1.0 - gamma)
    return math.sqrt(lambert_w(r / (2.0 * lam * lam)) / (2.0 * r))


def chi2_inflation_at_optimum(r_curvature: float,
                              coeffs: PenaltyCoeffs) -> tuple[float, float]:
    """(chi-square at the kappa* optimum, cap beta_kl/(2 alpha) - 1).

    The cap is guaranteed when beta_kl > 2 alpha and
    R <= 4 beta_kl^2 rho^2 ln(beta_kl/(2 alpha)); outside that curvature
    range the inflation can exceed it, so callers should treat the pair as a
    report rather than an unconditional inequality.
    """
    check_fields(vars(coeffs), {"alpha": POSITIVE}, "coeffs.")  # the cap divides by it
    k = kappa_star(r_curvature, coeffs)
    chi2 = float(np.expm1(k * k * float(r_curvature)))
    cap = coeffs.beta_kl / (2.0 * coeffs.alpha) - 1.0
    return chi2, cap


def cql_global_lower_bound(expected_q: float, sup_chi2: float,
                           alpha: float, gamma: float) -> float:
    """expected_q - alpha * sup_chi2 / (1 - gamma)."""
    check_fields(locals(), {"expected_q": ("float",), "sup_chi2": NONNEGATIVE,
                            "alpha": NONNEGATIVE, "gamma": DISCOUNT})
    return float(expected_q) - alpha * float(sup_chi2) / (1.0 - gamma)


# ---------------------------------------------------------------- bounds

class BoundCheck(NamedTuple):
    lhs: float
    rhs: float
    stderr: float


DIVERGENCES = ("kl", "chi2", "mse")


def mixture_bound_check(policy: GaussianDist, clusters: GaussianMixture,
                        divergence: str, n_mc: int = 20_000,
                        rng: np.random.Generator | None = None,
                        quad_tol: float = 1e-9) -> BoundCheck:
    """Compare D(pi || mixture) against sum_m w_m D(pi || nu_m).

    lhs comes from adaptive Simpson quadrature in 1-D and Monte Carlo in
    higher dimension (stderr reported; 0 for deterministic paths). rhs uses
    Gaussian closed forms for KL and chi-square. The MSE divergence is the
    mean squared density difference over a fixed evaluation grid, where the
    convexity bound holds pointwise and both sides are exact. Zero-weight
    components are dropped; a single surviving component makes the mixture a
    plain Gaussian, so lhs uses the same closed form as rhs. ``clusters`` is
    the behavior mixture over actions.
    """
    check_fields(locals(), {
        "divergence": ("str", lambda v: v.lower() in DIVERGENCES, f"must be one of {DIVERGENCES}"),
        "n_mc": at_least(2), "quad_tol": POSITIVE})
    divergence = divergence.lower()
    if policy.dim != clusters.dim:
        raise InputError("policy and behavior dimensions differ")
    keep = clusters.weights > 0
    live = clusters if keep.all() else GaussianMixture(
        clusters.weights[keep], clusters.means[keep], clusters.covariances[keep])
    weights = live.weights
    comps = [GaussianDist(m, c) for m, c in zip(live.means, live.covariances)]

    if divergence == "mse":
        grid = _density_grid(policy, comps)
        p_vals = policy.pdf(grid)
        comp_vals = np.stack([c.pdf(grid) for c in comps], axis=1)
        mix_vals = comp_vals @ weights
        lhs = float(np.mean((p_vals - mix_vals) ** 2))
        rhs = float(weights @ np.mean((p_vals[:, None] - comp_vals) ** 2, axis=0))
        return BoundCheck(lhs, rhs, 0.0)

    kl = divergence == "kl"
    closed_form = gaussian_kl if kl else gaussian_chi2
    rhs = float(sum(w * closed_form(policy, c) for w, c in zip(weights, comps)))
    if not math.isfinite(rhs):
        raise NumericalError(f"closed-form {divergence} is not finite")

    if len(comps) == 1:
        return BoundCheck(float(closed_form(policy, comps[0])), rhs, 0.0)

    if policy.dim == 1:
        def integrand(x):
            pts = np.asarray(x, dtype=float).reshape(-1, 1)
            logp = policy.logpdf(pts)
            log_mix = log_density(live, pts)
            return np.exp(logp) * (logp - log_mix) if kl else np.exp(2.0 * logp - log_mix)

        value = _adaptive_simpson(integrand, *_integration_range(policy, comps), quad_tol)
        lhs = value if kl else value - 1.0
        if not math.isfinite(lhs):
            raise NumericalError(f"quadrature {divergence} estimate is not finite")
        return BoundCheck(float(lhs), rhs, 0.0)

    if rng is None:
        raise InputError("multivariate mixture bounds need an rng for MC")
    draws = policy.sample(n_mc, rng)
    logp = policy.logpdf(draws)
    log_mix = log_density(live, draws)
    samples = logp - log_mix if kl else np.exp(logp - log_mix) - 1.0
    lhs = float(samples.mean())
    stderr = float(samples.std(ddof=1) / np.sqrt(n_mc))
    if not math.isfinite(lhs) or not math.isfinite(stderr):
        raise NumericalError(f"MC {divergence} estimate is not finite")
    return BoundCheck(lhs, rhs, stderr)


def unbiased_cluster_gradient_check(policy: GaussianDist, clusters: GaussianMixture,
                                    coeffs: PenaltyCoeffs, n_trials: int,
                                    rng: np.random.Generator,
                                    q_linear: np.ndarray | None = None
                                    ) -> tuple[np.ndarray, np.ndarray, float]:
    """Sampled-cluster policy gradient vs the weighted full gradient.

    Per-cluster objectives use a linear critic Q(a) = q^T a, so every
    mean-gradient is analytic. Returns (mean sampled gradient, full weighted
    gradient, worst componentwise deviation in standard-error units).
    """
    check_fields(locals(), {"n_trials": at_least(1000)})
    q = np.zeros(policy.dim) if q_linear is None else np.asarray(q_linear, dtype=float)
    if q.shape != (policy.dim,):
        raise InputError(f"q_linear must have shape ({policy.dim},)")
    comps = [GaussianDist(m, c) for m, c in zip(clusters.means, clusters.covariances)]
    per_cluster = np.stack([
        q - coeffs.rho_bar * (coeffs.alpha * _grad_mu_chi2(policy, c)
                              + coeffs.beta_kl * _grad_mu_kl(policy, c))
        for c in comps])
    full = clusters.weights @ per_cluster
    draws = rng.choice(clusters.n_components, size=n_trials, p=clusters.weights)
    sampled = per_cluster[draws]
    mean = sampled.mean(axis=0)
    stderr = sampled.std(axis=0, ddof=1) / np.sqrt(n_trials)
    diff = np.abs(mean - full)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(diff == 0.0, 0.0, diff / stderr)
    return mean, full, float(np.max(z))


# ----------------------------------------------------------- integration

def _integration_range(policy: GaussianDist, comps: Sequence[GaussianDist], axis: int = 0,
                       n_sigma: float = 14.0) -> tuple[float, float]:
    """Smallest interval along ``axis`` holding mean +- n_sigma sd of every distribution."""
    dists = [policy, *comps]
    lo = min(float(d.mean[axis]) - n_sigma * math.sqrt(float(d.cov[axis, axis])) for d in dists)
    hi = max(float(d.mean[axis]) + n_sigma * math.sqrt(float(d.cov[axis, axis])) for d in dists)
    return lo, hi


def _density_grid(policy: GaussianDist, comps: Sequence[GaussianDist],
                  points_per_dim: int = 121, n_sigma: float = 8.0) -> np.ndarray:
    axes = [np.linspace(*_integration_range(policy, comps, j, n_sigma), points_per_dim)
            for j in range(policy.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _adaptive_simpson(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                      tol: float, max_depth: int = 40) -> float:
    """Adaptive Simpson rule (Lyness 1969) on a vectorized integrand.

    The interval tree of the depth-first recursion is expanded breadth-first:
    one call of ``f`` for the points of the 8 seed panels (so narrow modes
    are not missed), then one call per depth for the quarter points of every
    interval still open. Each interval applies the recursion's scalar rule
    elementwise, and the tree is summed back in the recursion's order (a node
    is its left value plus its right value, panels added left to right), so
    the result has the recursion's bits whenever ``f`` computes each point
    independently of the others in the call.
    """
    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def children(left_of, right_of, split):
        # both halves of every split interval, left then right, in tree order
        return np.stack([left_of[split], right_of[split]], axis=1).ravel()

    panels = np.linspace(a, b, 9)
    lo, hi = panels[:-1], panels[1:]
    vals = np.asarray(f(np.concatenate([panels, 0.5 * (lo + hi)])), dtype=float)
    flo, fhi, fmid = vals[:8], vals[1:9], vals[9:]
    whole = simpson(lo, hi, flo, fmid, fhi)

    levels = []  # per depth: node values, and which nodes were split
    for depth in itertools.count():
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        quarter = np.asarray(f(np.concatenate([lmid, rmid])), dtype=float)
        flm, frm = quarter[:lo.size], quarter[lo.size:]
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        both = left + right
        if depth >= max_depth:
            levels.append((both, None))
            break
        err = both - whole
        split = ~(np.abs(err) <= 15.0 * tol)
        levels.append((both + err / 15.0, split))
        if not split.any():
            break
        lo, hi = children(lo, mid, split), children(mid, hi, split)
        flo, fhi = children(flo, fmid, split), children(fmid, fhi, split)
        fmid, whole = children(flm, frm, split), children(left, right, split)

    values, _ = levels.pop()  # the deepest level splits nothing
    for level, split in reversed(levels):
        level[split] = values[0::2] + values[1::2]
        values = level
    total = 0.0
    for value in values:
        total += float(value)
    return total
