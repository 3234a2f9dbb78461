import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from c4td.errors import InputError, NumericalError
from c4td.gmm import GaussianMixture, log_density
from c4td.policy import (GaussianDist, PenaltyCoeffs,
                         chi2_inflation_at_optimum, cql_global_lower_bound,
                         gaussian_chi2, gaussian_kl, kappa_star,
                         kappa_star_pearson_closed_form, lambert_w,
                         mixture_bound_check, unbiased_cluster_gradient_check)
from c4td.policy import _adaptive_simpson, _integration_range
from oracles import adaptive_simpson_recursive, bisection_root, kappa_star_two_pass


def _random_gaussian(rng, dim, spread=1.0):
    a = rng.standard_normal((dim, dim))
    cov = a @ a.T / dim + 0.3 * np.eye(dim)
    return GaussianDist(spread * rng.standard_normal(dim), cov)


def _mixture(weights, comps):
    """The behavior mixture over actions of weighted Gaussian components."""
    return GaussianMixture(weights, [c.mean for c in comps], [c.cov for c in comps])


def test_gaussian_dist_logpdf_matches_scipy():
    rng = np.random.default_rng(0)
    d = _random_gaussian(rng, 3)
    x = rng.standard_normal((20, 3))
    ref = stats.multivariate_normal(d.mean, d.cov).logpdf(x)
    assert np.max(np.abs(d.logpdf(x) - ref)) < 1e-10
    assert np.allclose(d.pdf(x), np.exp(ref))


def test_gaussian_dist_requires_pd_cov():
    with pytest.raises(InputError):
        GaussianDist(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_gaussian_dist_rejects_non_finite_parameters():
    for mean, cov in (([np.nan], [[1.0]]), ([np.inf], [[1.0]]), ([0.0], [[np.inf]]),
                      ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]])):
        with pytest.raises(InputError, match="finite"):
            GaussianDist(np.array(mean), np.array(cov))


def test_gaussian_dist_copies_its_inputs_and_is_read_only():
    mean, cov = np.zeros(2), np.eye(2)
    d = GaussianDist(mean, cov)
    before = d.logpdf(np.zeros(2))
    mean += 1.0
    cov *= 4.0  # the caller's arrays stay writable and detached
    assert np.array_equal(d.mean, np.zeros(2)) and np.array_equal(d.cov, np.eye(2))
    assert d.logpdf(np.zeros(2)) == before
    assert gaussian_kl(d, GaussianDist(np.zeros(2), np.eye(2))) == 0.0
    for arr in (d.mean, d.cov):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    with pytest.raises(AttributeError):
        d.mean = np.ones(2)


def test_gaussian_kl_closed_form():
    rng = np.random.default_rng(1)
    p = _random_gaussian(rng, 3)
    q = _random_gaussian(rng, 3)
    # direct formula evaluated independently
    iq = np.linalg.inv(q.cov)
    diff = q.mean - p.mean
    direct = 0.5 * (np.trace(iq @ p.cov) + diff @ iq @ diff - 3
                    + np.log(np.linalg.det(q.cov) / np.linalg.det(p.cov)))
    assert gaussian_kl(p, q) == pytest.approx(direct, rel=1e-12)
    assert gaussian_kl(p, p) == pytest.approx(0.0, abs=1e-12)
    # MC sanity: E_p[log p - log q]
    x = p.sample(200_000, np.random.default_rng(2))
    mc = float(np.mean(p.logpdf(x) - q.logpdf(x)))
    assert gaussian_kl(p, q) == pytest.approx(mc, abs=4 * abs(mc) / math.sqrt(200_000) + 0.02)


def test_general_chi2_matches_quadrature_in_1d():
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = GaussianDist(rng.normal(size=1), np.array([[rng.uniform(0.2, 0.8)]]))
        # keep q wide enough that the chi-square integral converges
        q = GaussianDist(rng.normal(size=1),
                         np.array([[float(p.cov[0, 0]) * rng.uniform(0.8, 2.0)]]))
        if not math.isfinite(gaussian_chi2(p, q)):
            continue

        def integrand(t):
            dens_q = q.pdf(np.array([[t]]))[0]
            if dens_q == 0.0:
                return 0.0
            return p.pdf(np.array([[t]]))[0] ** 2 / dens_q

        val, err = integrate.quad(integrand, -30, 30, limit=400)
        assert gaussian_chi2(p, q) == pytest.approx(val - 1.0, rel=1e-6, abs=1e-8)


def test_general_chi2_divergence_infinite_when_policy_too_wide():
    p = GaussianDist(np.zeros(1), np.array([[4.0]]))
    q = GaussianDist(np.zeros(1), np.array([[1.0]]))
    assert gaussian_chi2(p, q) == math.inf


def test_chi2_equal_cov_agrees_with_general_form():
    rng = np.random.default_rng(5)
    sigma = np.array([[0.7, 0.2], [0.2, 0.5]])
    mu1 = rng.standard_normal(2)
    mu2 = rng.standard_normal(2)
    a = GaussianDist(mu1, sigma)
    b = GaussianDist(mu2, sigma)
    d = mu1 - mu2  # equal covariances: chi2 = e^(d^T S^-1 d) - 1
    assert gaussian_chi2(a, b) == pytest.approx(
        math.expm1(d @ np.linalg.solve(sigma, d)), rel=1e-10)


def test_penalty_coeffs_validation():
    with pytest.raises(InputError):
        PenaltyCoeffs(alpha=0.0, beta_kl=0.0, gamma=0.9)
    with pytest.raises(InputError):
        PenaltyCoeffs(alpha=1.0, beta_kl=0.0, gamma=1.0)
    coeffs = PenaltyCoeffs(alpha=0.5, beta_kl=0.1, gamma=0.9)
    assert coeffs.rho_bar == pytest.approx(10.0)


def test_lambert_w_against_scipy():
    rng = np.random.default_rng(6)
    zs = np.concatenate([10.0 ** rng.uniform(-8, 8, size=200), [1e-300, 700.0]])
    for z in zs:
        ours = lambert_w(float(z))
        ref = float(special.lambertw(z).real)
        assert ours == pytest.approx(ref, rel=1e-12, abs=1e-300)
        assert ours * math.exp(ours) == pytest.approx(z, rel=1e-10)
    with pytest.raises(InputError):
        lambert_w(0.0)


def test_kappa_star_first_order_condition():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        r = 10.0 ** rng.uniform(-3, 2)
        alpha = 10.0 ** rng.uniform(-3, 1)
        beta = 10.0 ** rng.uniform(-3, 1)
        gamma = rng.uniform(0.0, 0.99)
        coeffs = PenaltyCoeffs(alpha=alpha, beta_kl=beta, gamma=gamma)
        k = kappa_star(r, coeffs)
        rho = coeffs.rho_bar
        resid = (2 * alpha * rho * math.exp(k * k * r) + beta * rho) * k - 1.0
        worst = max(worst, abs(resid))
    assert worst < 1e-12


def test_kappa_star_kl_only_closed_form_is_exact():
    rng = np.random.default_rng(8)
    for _ in range(50):
        beta = 10.0 ** rng.uniform(-3, 2)
        gamma = rng.uniform(0.0, 0.999)
        coeffs = PenaltyCoeffs(alpha=0.0, beta_kl=beta, gamma=gamma)
        assert kappa_star(rng.uniform(0.1, 10.0), coeffs) == (1.0 - gamma) / beta


def _outcome(fn, *args):
    """The hex of each float a call returns, or the type of what it raises."""
    try:
        out = fn(*args)
    except (InputError, NumericalError) as exc:
        return type(exc).__name__
    return [float(v).hex() for v in (out if isinstance(out, tuple) else (out,))]


def test_kappa_star_matches_its_two_pass_form_bit_for_bit():
    grid = [(r, alpha, beta, gamma) for r in 10.0 ** np.arange(-3.0, 7.0)
            for alpha in (0.0, 1e-3, 0.1, 1.0, 10.0)
            for beta in (0.0, 1e-14, 1e-3, 1.0, 10.0)
            for gamma in (0.0, 0.5, 0.99) if alpha + beta > 0.0]
    # wide random draws reach Newton steps that leave the bracket
    rng = np.random.default_rng(17)
    grid += [(*(10.0 ** rng.uniform(-8, 8, 3)), gamma) for gamma in (0.0, 0.99)
             for _ in range(2000)]
    hits = set()
    for r, alpha, beta, gamma in grid:
        coeffs = PenaltyCoeffs(alpha=alpha, beta_kl=beta, gamma=gamma)
        ref = _outcome(kappa_star_two_pass, r, coeffs, hits)
        assert _outcome(kappa_star, r, coeffs) == ref, (r, coeffs)
        if alpha > 0.0:
            if isinstance(ref, list):
                k = float.fromhex(ref[0])
                ref = [float(np.expm1(k * k * r)).hex(), (beta / (2.0 * alpha) - 1.0).hex()]
            assert _outcome(chi2_inflation_at_optimum, r, coeffs) == ref, (r, coeffs)
    # the grid reaches the KL closed form, the overflow branch and the bracket fallback
    assert hits == {"closed", "overflow", "bisect"}


def test_kappa_star_pearson_matches_bisection_oracle():
    rng = np.random.default_rng(9)
    for _ in range(60):
        r = 10.0 ** rng.uniform(-2, 2)
        alpha = 10.0 ** rng.uniform(-3, 1)
        gamma = rng.uniform(0.0, 0.99)
        lam = alpha / (1.0 - gamma)

        def f(k):
            return 2.0 * lam * k * math.exp(k * k * r) - 1.0

        hi = 1.0
        while f(hi) < 0:
            hi *= 2.0
        oracle = bisection_root(f, 0.0, hi)
        ours = kappa_star_pearson_closed_form(r, alpha, gamma)
        assert ours == pytest.approx(oracle, abs=1e-10, rel=1e-10)
        # and the general solver agrees when beta goes tiny
        coeffs = PenaltyCoeffs(alpha=alpha, beta_kl=1e-14, gamma=gamma)
        assert kappa_star(r, coeffs) == pytest.approx(ours, rel=1e-5)


def test_chi2_inflation_capped_in_valid_regime():
    rng = np.random.default_rng(10)
    for _ in range(200):
        alpha = 10.0 ** rng.uniform(-3, 0)
        beta = alpha * 10.0 ** rng.uniform(0.5, 2)
        gamma = rng.uniform(0.0, 0.95)
        rho = 1.0 / (1.0 - gamma)
        r_max = 4.0 * beta ** 2 * rho ** 2 * math.log(beta / (2.0 * alpha))
        r = rng.uniform(0.1, 0.999) * r_max
        coeffs = PenaltyCoeffs(alpha=alpha, beta_kl=beta, gamma=gamma)
        inflation, cap = chi2_inflation_at_optimum(r, coeffs)
        assert cap == pytest.approx(beta / (2.0 * alpha) - 1.0)
        assert inflation <= cap + 1e-12
        assert inflation >= 0.0


def test_cql_global_lower_bound_formula():
    val = cql_global_lower_bound(expected_q=2.0, sup_chi2=0.5, alpha=0.3, gamma=0.9)
    assert val == pytest.approx(2.0 - 0.3 * 10.0 * 0.5)
    with pytest.raises(InputError):
        cql_global_lower_bound(1.0, -0.1, 0.3, 0.9)


def test_mixture_bound_1d_by_quadrature():
    rng = np.random.default_rng(13)
    for divergence in ("kl", "chi2", "mse"):
        for _ in range(12):
            policy = GaussianDist(rng.normal(scale=0.3, size=1),
                                  np.array([[rng.uniform(0.05, 0.3)]]))
            comps = [GaussianDist(rng.normal(size=1),
                                  np.array([[rng.uniform(0.3, 1.2)]]))
                     for _ in range(3)]
            weights = rng.uniform(0.2, 1.0, size=3)
            weights /= weights.sum()
            check = mixture_bound_check(policy, _mixture(weights, comps),
                                        divergence)
            assert check.lhs <= check.rhs + 1e-6
            assert check.stderr == 0.0


def test_mixture_bound_1d_kl_lhs_matches_scipy_quadrature():
    rng = np.random.default_rng(14)
    policy = GaussianDist(np.array([0.2]), np.array([[0.09]]))
    comps = [GaussianDist(np.array([-0.5]), np.array([[0.5]])),
             GaussianDist(np.array([0.8]), np.array([[0.7]]))]
    weights = np.array([0.4, 0.6])
    mix = _mixture(weights, comps)
    check = mixture_bound_check(policy, mix, "kl")

    def integrand(t):
        pt = np.array([[t]])
        dens = policy.pdf(pt)[0]
        return dens * (policy.logpdf(pt)[0] - log_density(mix, pt)[0])

    ref, err = integrate.quad(integrand, -12, 12, limit=400)
    assert check.lhs == pytest.approx(ref, abs=max(1e-8, 10 * err))


def _recorded(f):
    calls = []

    def wrapped(x):
        calls.append(np.array(x, dtype=float))
        return f(x)
    return wrapped, calls


def _divergence_integrand(policy, mixture, divergence):
    """The 1-D integrands mixture_bound_check hands to the quadrature."""
    def integrand(x):
        pts = np.asarray(x, dtype=float).reshape(-1, 1)
        logp = policy.logpdf(pts)
        if divergence == "kl":
            return np.exp(logp) * (logp - log_density(mixture, pts))
        return np.exp(2.0 * logp - log_density(mixture, pts))
    return integrand


def _quadrature_cases():
    """(name, f, a, b, tol, max_depth) for the breadth-first quadrature test."""
    rng = np.random.default_rng(21)
    cases = []
    for trial in range(9):
        k = 2 + trial % 3
        weights = rng.uniform(0.2, 1.0, size=k)
        if trial % 2:
            weights[rng.integers(k)] = 0.0
        weights /= weights.sum()
        comps = [GaussianDist(rng.normal(size=1), np.array([[rng.uniform(0.3, 1.2)]]))
                 for _ in range(k)]
        policy = GaussianDist(rng.normal(scale=0.3, size=1),
                              np.array([[rng.uniform(0.02, 0.14)]]))
        lo, hi = _integration_range(policy, comps)
        for divergence in ("kl", "chi2"):
            f = _divergence_integrand(policy, _mixture(weights, comps), divergence)
            cases.append((f"{divergence}-{trial}", f, lo, hi, 1e-9, 40))
    cases.append(("cubic", lambda x: 3.0 * x ** 3 - x + 0.5, -2.0, 3.0, 1e-9, 40))
    cases.append(("narrow", lambda x: np.exp(-0.5 * ((x - 0.31) / 0.01) ** 2),
                  -1.0, 1.0, 1e-12, 40))
    cases.append(("cutoff", lambda x: np.sin(50.0 * x) ** 2, 0.0, 1.0, 0.0, 3))
    return cases


def test_breadth_first_simpson_equals_the_recursive_oracle_bit_for_bit():
    deepest = {}
    for name, f, a, b, tol, max_depth in _quadrature_cases():
        new_f, new_calls = _recorded(f)
        old_f, old_calls = _recorded(f)
        got = _adaptive_simpson(new_f, a, b, tol, max_depth)
        want = adaptive_simpson_recursive(old_f, a, b, tol, max_depth)
        assert float(got).hex() == float(want).hex(), name
        # the recursion calls f on (lmid, rmid) pairs, rmid - lmid = panel / 2**(depth + 1)
        quarters = [x for x in old_calls if x.size == 2]
        panel = (b - a) / 8.0
        depth = max(round(math.log2(panel / (x[1] - x[0]))) - 1 for x in quarters)
        assert len(new_calls) == 2 + depth <= max_depth + 2, name
        assert np.array_equal(np.sort(np.concatenate(new_calls[1:])),
                              np.sort(np.concatenate(quarters))), name
        deepest[name] = depth
    assert deepest["cubic"] == 0
    assert deepest["cutoff"] == 3
    assert deepest["narrow"] > 5


def test_mixture_bound_2d_mc_within_3_sigma():
    rng = np.random.default_rng(15)
    for divergence in ("kl", "chi2"):
        for trial in range(8):
            policy = GaussianDist(0.2 * rng.standard_normal(2),
                                  0.05 * np.eye(2))
            comps = [_random_gaussian(rng, 2) for _ in range(3)]
            weights = rng.uniform(0.2, 1.0, size=3)
            weights /= weights.sum()
            check = mixture_bound_check(policy, _mixture(weights, comps),
                                        divergence, n_mc=20_000,
                                        rng=np.random.default_rng(100 + trial))
            assert check.lhs <= check.rhs + 3.0 * check.stderr + 1e-9


def test_mixture_bound_single_live_component_is_tight():
    policy = GaussianDist(np.array([0.1]), np.array([[0.2]]))
    comp = GaussianDist(np.array([-0.3]), np.array([[0.6]]))
    mix = _mixture(np.array([0.0, 1.0]),
                   [GaussianDist(np.array([9.0]), np.array([[1.0]])), comp])
    for divergence in ("kl", "chi2"):
        check = mixture_bound_check(policy, mix, divergence)
        assert check.lhs == pytest.approx(check.rhs, rel=1e-12)


def test_mixture_bound_needs_rng_for_mc():
    policy = GaussianDist(np.zeros(2), np.eye(2))
    comps = [GaussianDist(np.zeros(2), np.eye(2)),
             GaussianDist(np.ones(2), 2.0 * np.eye(2))]
    mix = _mixture(np.array([0.5, 0.5]), comps)
    with pytest.raises(InputError):
        mixture_bound_check(policy, mix, "kl", rng=None)
    with pytest.raises(InputError):
        mixture_bound_check(policy, mix, "hellinger",
                            rng=np.random.default_rng(0))


def test_unbiased_cluster_gradients():
    rng = np.random.default_rng(16)
    policy = GaussianDist(np.zeros(2), 0.3 * np.eye(2))
    comps = [_random_gaussian(rng, 2, spread=0.3) for _ in range(4)]
    # keep the policy inside every component so chi2 gradients stay finite
    comps = [GaussianDist(c.mean, c.cov + np.eye(2)) for c in comps]
    weights = rng.uniform(0.5, 1.5, size=4)
    weights /= weights.sum()
    coeffs = PenaltyCoeffs(alpha=0.2, beta_kl=0.4, gamma=0.9)
    mean, full, z = unbiased_cluster_gradient_check(
        policy, _mixture(weights, comps), coeffs, n_trials=10_000,
        rng=np.random.default_rng(17), q_linear=np.array([0.5, -0.2]))
    assert z < 3.0
    assert mean.shape == full.shape == (2,)
    with pytest.raises(InputError):
        unbiased_cluster_gradient_check(policy, _mixture(weights, comps),
                                        coeffs, n_trials=10, rng=rng)
