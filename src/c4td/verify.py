"""Built-in verification suites reporting residuals of the core guarantees.

Each suite runs seeded random problems against the module contracts and
returns its checks: one JSON-friendly entry per check with its worst
residual and tolerance. The CLI exposes these as `c4 verify --suite NAME`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import gmm
from .covstats import (jacobi_svd, spectral_norm, svd_alignment_bound,
                       total_cov_decomposition, within_bound_check)
from .data import EnvSpec, generate
from .diagnostics import (PerturbSpec, default_perturb_spec, direct_var_delta, estimate_abc,
                          grad_cosine_report)
from .errors import InputError, at_least, check_fields
from .nets import MlpCritic
from .policy import (GaussianDist, PenaltyCoeffs, chi2_inflation_at_optimum, kappa_star,
                     kappa_star_pearson_closed_form, mixture_bound_check)
from .workers import Channel, fork, usable_cpus

SUITES = ("covariance", "gmm", "theorem1", "policy", "all")


def _check(name: str, residual: float, tolerance: float) -> dict:
    return {"name": name, "residual": float(residual),
            "tolerance": float(tolerance),
            "passed": bool(residual <= tolerance)}


def _random_psd(rng: np.random.Generator, m: int) -> np.ndarray:
    a = rng.standard_normal((m, m))
    return a @ a.T + 0.1 * np.eye(m)


def suite_covariance(seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    worst_law = 0.0
    for _ in range(40):
        n, m = 50, 4
        k = int(rng.integers(1, 6))
        y = rng.standard_normal((n, 2 * m)) @ rng.standard_normal((2 * m, 2 * m))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)  # every cluster occupied
        dec = total_cov_decomposition(y[:, :m], y[:, m:], labels)
        worst_law = max(worst_law, float(np.max(np.abs(
            dec.c_total - dec.within_expectation - dec.between))))

    worst_chain = 0.0
    for _ in range(40):
        m = int(rng.integers(2, 6))
        sp, s = _random_psd(rng, m), _random_psd(rng, m)
        half_p, half = np.linalg.cholesky(sp), np.linalg.cholesky(s)
        contraction = rng.standard_normal((m, m))
        contraction /= 1.01 * spectral_norm(contraction)
        c = half_p @ contraction @ half.T  # keeps the joint block matrix PSD
        wp = rng.standard_normal(m)
        w = rng.standard_normal(m)
        wp /= np.linalg.norm(wp)
        w /= np.linalg.norm(w)
        lhs, mid, rhs = within_bound_check(sp, s, c, wp, w)
        worst_chain = max(worst_chain, lhs - mid, mid - rhs)

    worst_align = 0.0
    for _ in range(60):
        m = int(rng.integers(2, 8))
        c = rng.standard_normal((m, m))
        wp = rng.standard_normal(m)
        w = rng.standard_normal(m)
        wp /= np.linalg.norm(wp)
        w /= np.linalg.norm(w)
        value, lower = svd_alignment_bound(c, wp, w)
        worst_align = max(worst_align, lower - value)

    worst_norm = 0.0
    for _ in range(20):
        m = int(rng.integers(2, 7))
        c = rng.standard_normal((m, int(rng.integers(2, 7))))
        # both norms run LAPACK's SVD, so each is checked against an eigensolver's sigma_1
        sigma = float(np.sqrt(np.linalg.eigvalsh(c.T @ c)[-1]))
        worst_norm = max(worst_norm, abs(spectral_norm(c) - sigma),
                         abs(jacobi_svd(c)[1][0] - sigma))

    return [_check("law_of_total_covariance", worst_law, 1e-10),
            _check("within_bound_chain_slack", worst_chain, 1e-10),
            _check("svd_alignment_lower_bound", worst_align, 1e-10),
            _check("spectral_norm_vs_jacobi_svd", worst_norm, 1e-8)]


def suite_gmm(seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    worst_drop = 0.0
    worst_rowsum = 0.0
    for i in range(15):
        n, d = int(rng.integers(40, 120)), int(rng.integers(2, 6))
        y = rng.standard_normal((n, d)) + rng.standard_normal(d) * 2.0
        result = gmm.fit(y, int(rng.integers(1, 5)), max_iters=60, seed=i)
        lls = result.log_likelihoods
        for prev, cur in zip(lls, lls[1:]):
            worst_drop = max(worst_drop, prev - cur)
        worst_rowsum = max(worst_rowsum, float(np.max(np.abs(
            gmm.e_step(result.mixture, y).sum(axis=1) - 1.0))))

    # 20-sigma separated pair: hard labels must match ground truth exactly
    centers = np.array([[-10.0, 0.0], [10.0, 0.0]])
    truth = rng.integers(0, 2, size=200)
    y = centers[truth] + 0.5 * rng.standard_normal((200, 2))
    hard = gmm.e_step(gmm.fit(y, 2, max_iters=100, seed=3).mixture, y).argmax(axis=1)
    agreement = max(float(np.mean(hard == truth)), float(np.mean(hard == 1 - truth)))

    return [_check("log_likelihood_max_drop", worst_drop, 1e-9),
            _check("responsibility_row_sums", worst_rowsum, 1e-12),
            _check("separated_clusters_label_error", 1.0 - agreement, 0.0)]


def _ridge_lifted_net(input_dim: int, seed: int, bias: float = 25.0) -> MlpCritic:
    # large positive biases keep every unit active near the data, so the
    # network is exactly affine there and the Taylor step has no error
    rng = np.random.default_rng(seed)
    net = MlpCritic.init(input_dim, hidden=(8,), rng=rng)
    net.layers[0] = (net.layers[0][0], net.layers[0][1] + bias)
    return net


def suite_theorem1(seed: int = 0) -> list[dict]:
    env = EnvSpec.with_circular_modes(3)
    dataset = generate(env, n_trajectories=4, seed=seed)
    batch = dataset.take(np.arange(48))
    spec = PerturbSpec(k=0.02, k_prime=0.015, n_directions=3000)

    crit = _ridge_lifted_net(4, seed + 1)
    targ = _ridge_lifted_net(4, seed + 2)
    composed = estimate_abc(crit, targ, batch, spec,
                            0.99, np.random.default_rng(seed)).composed
    direct = direct_var_delta(crit, targ, batch, spec,
                              0.99, np.random.default_rng(seed))
    linear_gap = abs(composed - direct)

    rng = np.random.default_rng(seed + 3)
    net1 = MlpCritic.init(4, (16, 16), rng)
    net2 = MlpCritic.init(4, (16, 16), rng)
    x, xp = batch.joint_inputs()
    rspec = default_perturb_spec(np.vstack([x, xp]), n_directions=10_000)
    comp = estimate_abc(net1, net2, batch, rspec, 0.99,
                        np.random.default_rng(seed + 4)).composed
    dirv = direct_var_delta(net1, net2, batch, rspec, 0.99,
                            np.random.default_rng(seed + 4))
    relu_gap = abs(comp - dirv) / abs(dirv)

    report = grad_cosine_report(net1, net1.copy(), batch, 0.99)
    cosine_defined = 0.0 if math.isfinite(report.cos_var) else 1.0

    return [_check("linear_direct_vs_composed", linear_gap, 1e-10),
            _check("relu_relative_gap", relu_gap, 0.05),
            _check("gradient_identity_and_cosines", cosine_defined, 0.0)]


def suite_policy(seed: int = 0) -> list[dict]:
    rng = np.random.default_rng(seed)
    worst_res = 0.0
    for _ in range(200):
        r = float(10 ** rng.uniform(-3, 3))
        coeffs = PenaltyCoeffs(float(10 ** rng.uniform(-3, 1)),
                               float(10 ** rng.uniform(-3, 1)),
                               float(rng.uniform(0.0, 0.99)))
        kap = kappa_star(r, coeffs)
        rho = coeffs.rho_bar
        worst_res = max(worst_res, abs(
            (2.0 * coeffs.alpha * rho * math.exp(kap * kap * r)
             + coeffs.beta_kl * rho) * kap - 1.0))

    worst_lambert = 0.0
    for _ in range(100):
        r = float(10 ** rng.uniform(-3, 3))
        alpha = float(10 ** rng.uniform(-3, 1))
        gamma = float(rng.uniform(0.0, 0.99))
        k1 = kappa_star(r, PenaltyCoeffs(alpha, 0.0, gamma))
        k2 = kappa_star_pearson_closed_form(r, alpha, gamma)
        worst_lambert = max(worst_lambert, abs(k1 - k2) / max(1.0, abs(k2)))

    # inflation cap inside its validity region (beta > 2 alpha, R under the
    # curvature threshold)
    worst_cap = -math.inf
    for _ in range(100):
        alpha = float(10 ** rng.uniform(-3, 0))
        beta = alpha * float(10 ** rng.uniform(0.5, 2))
        gamma = float(rng.uniform(0.0, 0.99))
        rho = 1.0 / (1.0 - gamma)
        r_max = 4.0 * beta * beta * rho * rho * math.log(beta / (2.0 * alpha))
        r = float(rng.uniform(0.1, 0.999)) * r_max
        chi2, cap = chi2_inflation_at_optimum(r, PenaltyCoeffs(alpha, beta, gamma))
        worst_cap = max(worst_cap, chi2 - cap)

    worst_bound = -math.inf
    for i in range(20):
        pol = GaussianDist(rng.uniform(-0.4, 0.4, 1), [[float(rng.uniform(0.2, 0.6))]])
        means, covs = zip(*[(rng.uniform(-1, 1, 1), [[float(rng.uniform(0.4, 1.2))]])
                            for _ in range(3)])
        clusters = gmm.GaussianMixture(rng.dirichlet(np.ones(3)), means, covs)
        for div in ("kl", "chi2", "mse"):
            res = mixture_bound_check(pol, clusters, div)
            worst_bound = max(worst_bound, res.lhs - res.rhs)

    return [_check("kappa_star_residual", worst_res, 1e-12),
            _check("pearson_lambert_route_gap", worst_lambert, 1e-10),
            _check("chi2_inflation_cap_slack", worst_cap, 1e-10),
            _check("mixture_bound_slack", worst_bound, 1e-6)]


_SUITE_FNS = {"covariance": suite_covariance, "gmm": suite_gmm,
              "theorem1": suite_theorem1, "policy": suite_policy}


def _report(name: str, seed: int) -> dict:
    checks = _SUITE_FNS[name](seed)
    return {"suite": name, "checks": checks, "passed": all(c["passed"] for c in checks)}


def _serve(share: list[str], seed: int, channel: Channel) -> int:
    """Body of a forked worker: its suites' reports, or on failure the exception's
    text, as one message; the exit code, 1 on failure."""
    try:
        message, code = [_report(name, seed) for name in share], 0
    except BaseException as exc:  # the worker exits with it; the caller raises it
        message, code = f"{type(exc).__name__}: {exc}", 1
    channel.send(message)
    return code


def _run_all(seed: int) -> list[dict]:
    """Every suite's report in ``_SUITE_FNS`` order, the suites split over processes.

    Each report depends only on its suite and seed, so worker ``w`` of ``n``
    (one per usable CPU, at most one per suite) runs suites ``w, w+n, ...``.
    This process is worker 0; the others are forked children, and it runs the
    share of any it cannot fork itself.
    """
    names = list(_SUITE_FNS)
    n = min(len(names), usable_cpus())
    shares = [names[w::n] for w in range(n)]
    inline, forked, answers = shares[0], [], []
    try:
        for share in shares[1:]:
            try:
                forked.append((share, fork(functools.partial(_serve, share, seed))))
            except OSError:  # no process or pipe to spare
                inline += share
        reports = {name: _report(name, seed) for name in inline}
        for _, worker in forked:
            try:
                answers.append(worker.recv())
            except EOFError:
                answers.append("no output")
    finally:
        codes = [worker.reap() for _, worker in forked]
    failed = []
    for (share, _), code, answer in zip(forked, codes, answers):
        if code == 0:
            reports.update(zip(share, answer))
        else:
            failed.append(f"suites {', '.join(share)} exited with status {code}: {answer}")
    if failed:
        raise RuntimeError("verify worker failed: " + "; ".join(failed))
    return [reports[name] for name in names]


def run_suite(name: str, seed: int = 0) -> dict:
    """One named suite, or all of them under {"suites": [...]}.

    ``"all"`` runs the suites in up to one process per usable CPU (see
    ``_run_all``); its report is the same bytes as running them one by one.
    """
    check_fields(locals(), {"seed": at_least(0)})
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {SUITES}")
    if name != "all":
        return _report(name, seed)
    reports = _run_all(seed)
    return {"suite": "all", "suites": reports,
            "passed": all(r["passed"] for r in reports)}
