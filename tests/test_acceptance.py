"""Acceptance gate: one test per numbered behavioral guarantee.

Each test prints a single ``criterion NN: PASS/FAIL`` line (visible with
``pytest -s`` or on failure) and enforces the stated tolerance with asserts.
Every check is seeded, so a green run stays green.
"""

import math
import time

import numpy as np
import pytest

from oracles import (
    adjusted_rand_index,
    bisection_root,
    central_diff,
    discrete_chi2,
    param_fd_gradient,
    random_psd,
    solve_tabular_q,
)

from c4td import gmm
from c4td.covstats import (
    svd_alignment_bound,
    total_cov_decomposition,
    within_bound_check,
)
from c4td.data import EnvSpec, generate, subsample
from c4td.diagnostics import (
    PerturbSpec,
    default_perturb_spec,
    direct_var_delta,
    estimate_abc,
)
from c4td.nets import MlpCritic, param_gradient
from c4td.policy import (
    GaussianDist,
    PenaltyCoeffs,
    chi2_inflation_at_optimum,
    cql_global_lower_bound,
    kappa_star,
    kappa_star_pearson_closed_form,
    mixture_bound_check,
    unbiased_cluster_gradient_check,
)
from c4td.train import TrainConfig, baseline_of, single_cluster_batch, train

ENV3 = EnvSpec.with_circular_modes(3)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def _smooth_points(net, n, rng, margin=1e-3):
    points = []
    while len(points) < n:
        x = rng.standard_normal(net.input_dim)
        _, _, pres = net._forward_cached(x[None, :])
        if all(np.min(np.abs(p)) > margin for p in pres):
            points.append(x)
    return np.asarray(points)


def _affine_net(v, lift=100.0):
    dim = v.shape[0]
    net = MlpCritic.init(dim, (dim, dim), np.random.default_rng(0))
    eye = np.eye(dim)
    b = np.full(dim, lift)
    net.layers[0] = (eye.copy(), b.copy())
    net.layers[1] = (eye.copy(), b.copy())
    net.layers[2] = (v[None, :].copy(), np.zeros(1))
    return net


def test_criterion_01_law_of_total_covariance():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 6))
        g_prime = rng.normal(size=(50, 4))
        g = rng.normal(size=(50, 4)) + 0.3 * g_prime
        labels = rng.integers(0, k, size=50)
        labels[:k] = np.arange(k)  # every cluster nonempty
        dec = total_cov_decomposition(g_prime, g, labels)
        residual = np.linalg.norm(
            dec.c_total - (dec.within_expectation + dec.between))
        worst = max(worst, float(residual))
    elapsed = time.perf_counter() - start
    _report(1, worst < 1e-10 and elapsed < 1.0,
            f"worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_within_cluster_bound_chain():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst_gap = -math.inf
    for _ in range(100):
        m = int(rng.integers(2, 6))
        joint = random_psd(rng, 2 * m)
        sigma_prime = joint[:m, :m]
        c_z = joint[:m, m:]
        sigma = joint[m:, m:]
        w_prime = rng.normal(size=m)
        w_prime /= np.linalg.norm(w_prime)
        w = rng.normal(size=m)
        w /= np.linalg.norm(w)
        lhs, mid, rhs = within_bound_check(sigma_prime, sigma, c_z, w_prime, w)
        worst_gap = max(worst_gap, lhs - mid, mid - rhs)
    elapsed = time.perf_counter() - start
    _report(2, worst_gap <= 1e-10 and elapsed < 1.0,
            f"worst chain violation {worst_gap:.2e}, {elapsed:.2f}s")


def test_criterion_03_svd_alignment_lower_bound():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    worst = -math.inf
    tightness = 0.0
    for _ in range(200):
        mp = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        c = rng.normal(size=(mp, m)) * rng.uniform(0.1, 3.0)
        w_prime = rng.normal(size=mp)
        w_prime /= np.linalg.norm(w_prime)
        w = rng.normal(size=m)
        w /= np.linalg.norm(w)
        value, bound = svd_alignment_bound(c, w_prime, w)
        worst = max(worst, bound - value)
        u, s, vt = np.linalg.svd(c)
        val_top, _ = svd_alignment_bound(c, u[:, 0], vt[0])
        tightness = max(tightness, abs(val_top - s[0]))
    elapsed = time.perf_counter() - start
    _report(3, worst <= 1e-10 and tightness < 1e-10 and elapsed < 1.0,
            f"worst bound excess {worst:.2e}, top-pair gap {tightness:.2e}, "
            f"{elapsed:.2f}s")


def test_criterion_04_perturbation_variance_decomposition():
    start = time.perf_counter()
    batch = subsample(generate(ENV3, n_trajectories=4, seed=41), 64, seed=42)

    # linear route: constant input gradients make the composition exact
    rng = np.random.default_rng(40)
    worst_linear = 0.0
    for seed in range(5):
        critic = _affine_net(rng.normal(size=4))
        target = _affine_net(rng.normal(size=4))
        spec = PerturbSpec(k=0.04, k_prime=0.05, n_directions=500)
        est = estimate_abc(critic, target, batch, spec, 0.99,
                           np.random.default_rng(seed))
        direct = direct_var_delta(critic, target, batch, spec, 0.99,
                                  np.random.default_rng(seed))
        worst_linear = max(worst_linear, abs(est.composed - direct))

    # ReLU route: 2x16 net, displacement 0.01 of the feature deviation
    x, _ = batch.joint_inputs()
    spec = default_perturb_spec(x, n_directions=10_000)
    gaps = []
    for seed in range(10):
        net_rng = np.random.default_rng(400 + seed)
        critic = MlpCritic.init(4, (16, 16), net_rng)
        target = MlpCritic.init(4, (16, 16), net_rng)
        est = estimate_abc(critic, target, batch, spec, 0.99,
                           np.random.default_rng(seed))
        direct = direct_var_delta(critic, target, batch, spec, 0.99,
                                  np.random.default_rng(seed))
        gaps.append(abs(est.composed - direct) / abs(direct))
    median_gap = float(np.median(gaps))
    elapsed = time.perf_counter() - start
    _report(4, worst_linear < 1e-10 and median_gap < 0.05 and elapsed < 30.0,
            f"linear gap {worst_linear:.2e}, relu median rel gap "
            f"{median_gap:.3f}, {elapsed:.1f}s")


def test_criterion_05_second_moment_identity_on_training_batches():
    data = generate(ENV3, n_trajectories=10, seed=51)

    # route 1: the trainer checks both identities on every batch and raises
    cfg = TrainConfig(steps=300, hidden=(8, 8), refresh_period=100,
                      batch_size=64, n_clusters=3, em_max_iters=10,
                      em_warm_iters=3, seed=5, check_identities=True)
    train(data, cfg)
    train(data, baseline_of(cfg))

    # route 2: explicit per-batch recomputation with its own residuals
    rng = np.random.default_rng(52)
    net_rng = np.random.default_rng(53)
    critic = MlpCritic.init(4, (8, 8), net_rng)
    target = MlpCritic.init(4, (8, 8), net_rng)
    worst_scalar = 0.0
    worst_grad = 0.0
    for _ in range(50):
        batch = data.take(rng.integers(0, len(data), size=64))
        x, x_prime = batch.joint_inputs()
        delta = batch.r + 0.99 * (1.0 - batch.done) * target.forward_batch(x_prime) \
            - critic.forward_batch(x)
        n = len(batch)
        mean = float(delta.mean())
        var = float(np.mean((delta - mean) ** 2))
        worst_scalar = max(worst_scalar,
                           abs(float(np.mean(delta * delta)) - (mean * mean + var)))
        g_sq = critic.backprop(x, -2.0 * delta / n, None)
        g_mean = critic.backprop(x, np.full(n, -2.0 * mean / n), None)
        g_var = critic.backprop(x, -2.0 * (delta - mean) / n, None)
        for (aw, ab), (bw, bb), (cw, cb) in zip(g_sq, g_mean, g_var):
            worst_grad = max(worst_grad, float(np.max(np.abs(aw - bw - cw))),
                             float(np.max(np.abs(ab - bb - cb))))
    _report(5, worst_scalar < 1e-12 and worst_grad < 1e-10,
            f"scalar residual {worst_scalar:.2e}, gradient residual "
            f"{worst_grad:.2e}, trainer checks enabled")


def test_criterion_06_gradients_match_finite_differences():
    rng = np.random.default_rng(61)
    net = MlpCritic.init(4, (8, 6), rng)
    points = _smooth_points(net, 100, rng)
    worst_input = 0.0
    worst_param = 0.0
    for x in points:
        analytic = net.input_gradient_batch(x[None, :])[0]
        fd = central_diff(net.forward, x)
        # a fully dead point has both gradients identically zero
        den = max(float(np.linalg.norm(analytic)), 1e-300)
        worst_input = max(worst_input,
                          float(np.linalg.norm(fd - analytic)) / den)

        _, param_an = param_gradient(
            net, x[None, :], lambda values, feats: (float(values[0]), np.ones(1), None))
        param_fd = param_fd_gradient(net, lambda c: c.forward(x))
        num = 0.0
        den = 0.0
        for (aw, ab), (fw, fb) in zip(param_an, param_fd):
            num += float(np.sum((aw - fw) ** 2)) + float(np.sum((ab - fb) ** 2))
            den += float(np.sum(aw ** 2)) + float(np.sum(ab ** 2))
        worst_param = max(worst_param, math.sqrt(num / den))
    _report(6, worst_input < 1e-4 and worst_param < 1e-4,
            f"worst input rel err {worst_input:.2e}, worst parameter rel err "
            f"{worst_param:.2e} over {len(points)} smooth points")


def test_criterion_07_em_monotone_and_separated_recovery():
    rng = np.random.default_rng(71)
    worst_dip = 0.0
    for i in range(50):
        n = int(rng.integers(40, 120))
        d = int(rng.integers(2, 6))
        y = rng.normal(size=(n, d)) * rng.uniform(0.2, 3.0, size=d)
        if i % 5 == 0:
            y[:, -1] = y[:, 0]  # rank-deficient column to stress the ridge
        result = gmm.fit(y, k=int(rng.integers(1, 4)), seed=i)
        trace = np.asarray(result.log_likelihoods)
        if len(trace) > 1:
            worst_dip = min(worst_dip, float(np.min(np.diff(trace))))

    centers = np.array([[10.0, 10.0], [-10.0, -10.0]])  # 20 sigma at std 0.5
    labels_true = rng.integers(0, 2, size=300)
    y = centers[labels_true] + 0.5 * rng.normal(size=(300, 2))
    result = gmm.fit(y, k=2, seed=7)
    ari = adjusted_rand_index(labels_true, np.argmax(gmm.e_step(result.mixture, y), axis=1))
    _report(7, worst_dip >= -1e-9 and ari == 1.0,
            f"worst log-likelihood dip {worst_dip:.2e}, ARI {ari:.1f}")


def test_criterion_08_policy_step_and_inflation_cap():
    rng = np.random.default_rng(81)
    worst_residual = 0.0
    for _ in range(1000):
        r = float(10.0 ** rng.uniform(-3, 3))
        alpha = float(10.0 ** rng.uniform(-3, 1))
        beta = float(10.0 ** rng.uniform(-3, 1))
        gamma = float(rng.uniform(0.1, 0.99))
        coeffs = PenaltyCoeffs(alpha=alpha, beta_kl=beta, gamma=gamma)
        k = kappa_star(r, coeffs)
        rho = coeffs.rho_bar
        residual = abs((2 * alpha * rho * math.exp(k * k * r) + beta * rho) * k - 1.0)
        worst_residual = max(worst_residual, residual)

    kl_exact = all(
        kappa_star(1.0, PenaltyCoeffs(alpha=0.0, beta_kl=b, gamma=g))
        == (1.0 - g) / b
        for b, g in [(0.5, 0.9), (2.0, 0.99), (0.1, 0.5)])

    worst_lambert = 0.0
    for _ in range(200):
        r = float(10.0 ** rng.uniform(-2, 2))
        alpha = float(10.0 ** rng.uniform(-2, 1))
        gamma = float(rng.uniform(0.1, 0.99))
        rho = 1.0 / (1.0 - gamma)
        closed = kappa_star_pearson_closed_form(r, alpha, gamma)

        def f(k, r=r, alpha=alpha, rho=rho):
            return 2.0 * alpha * rho * math.exp(min(k * k * r, 700.0)) * k - 1.0

        oracle = bisection_root(f, 0.0, 1.0 / (2.0 * alpha * rho))
        worst_lambert = max(worst_lambert,
                            abs(closed - oracle) / max(1.0, abs(oracle)))

    # cap regime: beta_kl > 2 alpha and R below the guaranteed curvature range
    worst_cap = -math.inf
    for _ in range(200):
        alpha = float(10.0 ** rng.uniform(-3, 0))
        beta = 2.0 * alpha * math.exp(rng.uniform(0.1, 3.0))
        gamma = float(rng.uniform(0.1, 0.99))
        coeffs = PenaltyCoeffs(alpha=alpha, beta_kl=beta, gamma=gamma)
        r_max = 4.0 * beta ** 2 * coeffs.rho_bar ** 2 * math.log(beta / (2 * alpha))
        r = float(rng.uniform(0.01, 0.999)) * r_max
        chi2, cap = chi2_inflation_at_optimum(r, coeffs)
        worst_cap = max(worst_cap, chi2 - cap)
    _report(8, worst_residual < 1e-12 and kl_exact and worst_lambert < 1e-10
            and worst_cap <= 1e-10,
            f"kappa residual {worst_residual:.2e}, KL-only exact {kl_exact}, "
            f"Lambert vs bisection {worst_lambert:.2e}, cap excess {worst_cap:.2e}")


def _behavior(weights, comps):
    """The behavior mixture over actions of weighted Gaussian components."""
    return gmm.GaussianMixture(weights, [c.mean for c in comps], [c.cov for c in comps])


def _random_behavior_1d(rng, n_comp):
    # component scales stay above policy_scale/sqrt(2) so the chi-square
    # closed form is finite for every pair
    comps = [GaussianDist(np.array([rng.uniform(-2, 2)]),
                          np.array([[rng.uniform(0.6, 2.0) ** 2]]))
             for _ in range(n_comp)]
    w = rng.dirichlet(np.ones(n_comp))
    return _behavior(w, comps)


def test_criterion_09_mixture_convexity_bounds():
    rng = np.random.default_rng(91)
    worst_1d = -math.inf
    for _ in range(100):
        policy = GaussianDist(np.array([rng.uniform(-1.5, 1.5)]),
                              np.array([[rng.uniform(0.4, 0.8) ** 2]]))
        clusters = _random_behavior_1d(rng, int(rng.integers(2, 5)))
        for divergence in ("kl", "chi2", "mse"):
            check = mixture_bound_check(policy, clusters, divergence)
            assert check.stderr == 0.0
            worst_1d = max(worst_1d, check.lhs - check.rhs)

    worst_2d_sigma = -math.inf
    for trial in range(100):
        n_comp = int(rng.integers(2, 4))
        comps = []
        for _ in range(n_comp):
            cov = random_psd(rng, 2) + 0.8 * np.eye(2)
            comps.append(GaussianDist(rng.uniform(-1.5, 1.5, size=2), cov))
        clusters = _behavior(rng.dirichlet(np.ones(n_comp)), comps)
        # a policy narrower than every component keeps the density ratio tame
        policy = GaussianDist(rng.uniform(-1.0, 1.0, size=2), 0.5 * np.eye(2))
        for divergence in ("kl", "chi2"):
            check = mixture_bound_check(policy, clusters, divergence,
                                        n_mc=20_000,
                                        rng=np.random.default_rng(9000 + trial))
            slack = check.rhs - check.lhs
            sigma = max(check.stderr, 1e-300)
            worst_2d_sigma = max(worst_2d_sigma, -slack / sigma)

    worst_z = 0.0
    for trial in range(20):
        n_comp = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 4))
        comps = [GaussianDist(rng.normal(size=dim), random_psd(rng, dim) + np.eye(dim))
                 for _ in range(n_comp)]
        clusters = _behavior(rng.dirichlet(np.ones(n_comp)), comps)
        policy = GaussianDist(rng.normal(size=dim), np.eye(dim))
        coeffs = PenaltyCoeffs(alpha=0.3, beta_kl=0.7, gamma=0.9)
        _, _, z = unbiased_cluster_gradient_check(
            policy, clusters, coeffs, n_trials=10_000,
            rng=np.random.default_rng(9100 + trial),
            q_linear=rng.normal(size=dim))
        worst_z = max(worst_z, z)
    _report(9, worst_1d <= 1e-6 and worst_2d_sigma <= 3.0 and worst_z < 3.0,
            f"1-D excess {worst_1d:.2e}, 2-D worst normalized excess "
            f"{worst_2d_sigma:.2f} sigma, gradient deviation {worst_z:.2f} sigma")


def test_criterion_10_cql_global_lower_bound():
    rng = np.random.default_rng(110)
    worst = math.inf
    for _ in range(20):
        n_s, n_a = 5, 2
        p = rng.dirichlet(np.ones(n_s), size=(n_s, n_a))
        r = rng.uniform(-1.0, 1.0, size=(n_s, n_a))
        pi = rng.dirichlet(np.ones(n_a), size=n_s)
        beta = rng.dirichlet(np.ones(n_a) * 2.0, size=n_s) + 0.05
        beta /= beta.sum(axis=1, keepdims=True)
        gamma = float(rng.choice([0.9, 0.95]))
        alpha = float(rng.uniform(0.05, 0.5))

        q = solve_tabular_q(p, r, pi, gamma)
        v = np.einsum("sa,sa->s", pi, q)
        d = np.array([discrete_chi2(pi[s], beta[s]) for s in range(n_s)])
        p_pi = np.einsum("sa,sat->st", pi, p)
        # transformed target: V minus the discounted occupancy of the
        # per-state chi-square penalty, solved exactly
        u = v - alpha * np.linalg.solve(np.eye(n_s) - gamma * p_pi, d)
        bound = np.array([cql_global_lower_bound(v[s], float(d.max()), alpha, gamma)
                          for s in range(n_s)])
        worst = min(worst, float(np.min(u - bound)))
    _report(10, worst >= -1e-10,
            f"smallest pointwise slack {worst:.2e} over 20 exact MDP solves")


def test_criterion_11_desk_scale_efficacy():
    start = time.perf_counter()
    rows = []
    for seed in range(10):
        data = generate(ENV3, n_trajectories=50, seed=seed)  # 2000 transitions
        cfg = TrainConfig(steps=20_000, hidden=(16, 16), refresh_period=200,
                          batch_size=256, n_clusters=5, probe_size=512,
                          em_warm_iters=5, em_max_iters=40,
                          optimizer="adam", learning_rate=3e-2, ema_rate=0.05,
                          penalty_weight=0.1, gamma=0.99,
                          eval_env=ENV3, eval_every=5000, eval_episodes=8,
                          seed=seed, check_identities=False)
        _, m_c4 = train(data, cfg)
        _, m_base = train(data, baseline_of(cfg))
        ret_c4 = [r.eval_return for r in m_c4 if r.eval_return is not None][-1]
        ret_base = [r.eval_return for r in m_base if r.eval_return is not None][-1]
        rows.append((m_c4[-1].tr_n_sample_convention,
                     m_base[-1].tr_n_sample_convention, ret_c4, ret_base))
    arr = np.array(rows)
    tr_c4, tr_base = np.median(arr[:, 0]), np.median(arr[:, 1])
    ret_c4, ret_base = np.median(arr[:, 2]), np.median(arr[:, 3])
    elapsed = time.perf_counter() - start
    _report(11, tr_c4 < tr_base and ret_c4 >= ret_base and elapsed < 600.0,
            f"median trace {tr_c4:.3g} vs {tr_base:.3g}, median return "
            f"{ret_c4:.2f} vs {ret_base:.2f}, {elapsed:.0f}s")


def test_criterion_12_single_cluster_batches_kill_the_between_term():
    rng = np.random.default_rng(121)
    centers = np.array([[8.0, 8.0, -8.0, -8.0],
                        [-8.0, 8.0, 8.0, -8.0],
                        [8.0, -8.0, 8.0, 8.0]])
    labels = rng.integers(0, 3, size=400)
    y = centers[labels] + 0.4 * rng.normal(size=(400, 4))
    result = gmm.fit(y, k=3, seed=12)
    resp = gmm.e_step(result.mixture, y)
    assert float(resp.max(axis=1).min()) >= 0.99  # near-one-hot premise

    worst = 0.0
    for draw in range(50):
        z = draw % 3
        idx = single_cluster_batch(resp, z, 64, rng)
        batch = y[idx]
        dec = total_cov_decomposition(batch[:, :2], batch[:, 2:], np.full(64, z))
        worst = max(worst, float(np.max(np.abs(dec.between))))
    _report(12, worst == 0.0,
            f"max |between| over 50 conditioned minibatches = {worst}")
