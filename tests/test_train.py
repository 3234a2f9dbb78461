"""Tests for the training loop, batch math, and the metrics log."""

import math
from dataclasses import replace

import numpy as np
import pytest

from c4td import gmm
from c4td.covstats import cross_cov
from c4td.data import EnvSpec, OfflineDataset, generate, subsample
from c4td.errors import InputError, NumericalError, ParseError
from c4td.gmm import GaussianMixture
from c4td.nets import MlpCritic
from c4td.train import (
    FEATURE_MODES,
    METRIC_COLUMNS,
    MetricRecord,
    ClusterSampler,
    RngStreams,
    TrainConfig,
    _action_grid,
    _eval_return,
    _eval_starts,
    _greedy_action,
    _objective_report,
    _occupancy_entropy,
    baseline_of,
    bootstrap_targets,
    gradient_pairs,
    metrics_from_csv,
    metrics_to_csv,
    refresh_clusters,
    single_cluster_batch,
    train,
)
from oracles import central_diff, eval_return_one_episode_at_a_time, smooth_points

ENV = EnvSpec.with_circular_modes(3)


def _dataset(seed=0, n_trajectories=10):
    return generate(ENV, n_trajectories=n_trajectories, seed=seed)


def _small_cfg(**kw):
    base = dict(steps=120, hidden=(8, 8), refresh_period=50, batch_size=32,
                n_clusters=2, em_max_iters=15, em_warm_iters=4, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_config_validation():
    for bad in (dict(steps=-1), dict(steps=1, gamma=1.0),
                dict(steps=1, penalty_weight=-0.1),
                dict(steps=1, refresh_period=0), dict(steps=1, batch_size=1),
                dict(steps=1, n_clusters=0), dict(steps=1, ema_rate=0.0),
                dict(steps=1, learning_rate=0.0),
                dict(steps=1, feature_mode="hessian"),
                dict(steps=1, optimizer="rmsprop"),
                dict(steps=1, probe_size=1), dict(steps=1, eval_every=0),
                dict(steps=1, eval_episodes=0), dict(steps=1, n_clusters=5, probe_size=3),
                dict(steps="20"), dict(steps=True), dict(steps=1.0),
                dict(steps=1, penalty_weight=float("nan")),
                dict(steps=1, learning_rate=float("inf")),
                dict(steps=1, hidden=()), dict(steps=1, hidden=(8, 0)),
                dict(steps=1, hidden=[8, 8]), dict(steps=1, check_identities="yes"),
                dict(steps=1, eval_env="pointmass")):
        with pytest.raises(InputError):
            TrainConfig(**bad)
    assert TrainConfig(steps=np.int64(3), probe_size=None, learning_rate=1).steps == 3


def test_rng_streams_are_independent_children():
    streams = RngStreams.from_seed(7)
    again = RngStreams.from_seed(7)
    for a, b in zip(streams, again):
        assert a.integers(2 ** 31) == b.integers(2 ** 31)
    draws = {stream.integers(2 ** 63) for stream in RngStreams.from_seed(7)}
    assert len(draws) == 5


def test_bootstrap_targets_match_hand_computation():
    # first 50 rows of a 40-step-horizon log include one terminal row
    data = _dataset().take(np.arange(50))
    net = MlpCritic.init(4, (8,), np.random.default_rng(2))
    gamma = 0.9
    _, x_prime = data.joint_inputs()
    q_prime = net.forward_batch(x_prime)
    got = bootstrap_targets(data.r, data.done, q_prime, gamma)
    want = np.array([r + gamma * (1.0 - d) * q for r, d, q in zip(data.r, data.done, q_prime)])
    assert np.array_equal(got, want)
    # terminal rows bootstrap nothing
    done_rows = data.done == 1.0
    assert done_rows.any()
    assert np.array_equal(got[done_rows], data.r[done_rows])


def test_objective_td_is_the_mean_squared_residual():
    data = subsample(_dataset(), 20, seed=3)
    rng = np.random.default_rng(0)
    critic, tnet = MlpCritic.init(4, (6,), rng), MlpCritic.init(4, (6,), rng)
    x, x_prime = data.joint_inputs()
    targets = data.r + 0.9 * (1.0 - data.done) * tnet.forward_batch(x_prime)
    delta = critic.forward_batch(x) - targets
    for baseline in (False, True):
        cfg = TrainConfig(steps=1, gamma=0.9)
        if baseline:
            cfg = baseline_of(cfg)
        rep = _objective_report(critic, tnet, x, x_prime, data.r, data.done, cfg)
        assert np.allclose(rep.delta, delta, rtol=1e-14, atol=1e-14)
        assert rep.td == pytest.approx(np.mean(delta ** 2), rel=1e-14)
        assert rep.objective == rep.td + rep.penalty_part
        assert (rep.penalty_part == 0.0) == baseline
        c = cross_cov(tnet.penultimate_features_batch(x_prime),
                      critic.penultimate_features_batch(x), convention="sample")
        assert rep.tr_n == pytest.approx(np.trace(c) / 6, rel=1e-14)
    with pytest.raises(InputError, match="at least 2 rows"):
        _objective_report(critic, tnet, x[:1], x_prime[:1], data.r[:1], data.done[:1], cfg)


def test_gradient_pairs_select_the_feature_mode():
    data = subsample(_dataset(), 30, seed=4)
    rng = np.random.default_rng(5)
    critic = MlpCritic.init(4, (8, 6), rng)
    target = MlpCritic.init(4, (8, 6), rng)
    x, x_prime = data.joint_inputs()

    # the target block first, each side byte-equal to its own array
    y = gradient_pairs(critic, target, x, x_prime, "surrogate")
    assert y.shape == (30, 12)
    assert y[:, :6].tobytes() == target.penultimate_features_batch(x_prime).tobytes()
    assert y[:, 6:].tobytes() == critic.penultimate_features_batch(x).tobytes()

    y = gradient_pairs(critic, target, x, x_prime, "exact_input_grad")
    assert y.shape == (30, 8)
    assert y[:, :4].tobytes() == target.input_gradient_batch(x_prime).tobytes()
    assert y[:, 4:].tobytes() == critic.input_gradient_batch(x).tobytes()

    with pytest.raises(InputError):
        gradient_pairs(critic, target, x, x_prime, "spectral")
    with pytest.raises(InputError, match="nonempty"):
        gradient_pairs(critic, target, x[:0], x_prime[:0])


def test_gradient_pairs_build_the_stacked_rows_in_place(traced_peak):
    # Hidden (16, 16), as em_refresh: each side's last layer is written into
    # its half of y, so beside y only the first layer's (N, 16) activations
    # live, half of y. Two sides made apart and then joined, as the refresh
    # once did, hold them and y at once: 2.0 y. The constant admits one of
    # numpy's 64 KB buffers (1.5 y + 66 KB measured).
    n = 10_000
    rng = np.random.default_rng(8)
    critic, target = MlpCritic.init(4, (16, 16), rng), MlpCritic.init(4, (16, 16), rng)
    x, x_prime = rng.standard_normal((n, 4)), rng.standard_normal((n, 4))
    y_bytes = n * 32 * 8
    assert traced_peak(lambda: gradient_pairs(critic, target, x, x_prime)) \
        <= 1.5 * y_bytes + 128 * 1024


def test_single_cluster_batch_respects_responsibility_weights():
    rng = np.random.default_rng(0)
    resp = np.zeros((6, 2))
    resp[3, 0] = 1.0
    resp[:, 1] = 1.0 / 6.0
    idx = single_cluster_batch(resp, 0, 40, rng)
    assert np.all(idx == 3)
    idx = single_cluster_batch(resp, 1, 4000, rng)
    counts = np.bincount(idx, minlength=6)
    assert counts.min() > 0
    assert abs(counts.max() / 4000 - 1 / 6) < 0.05
    with pytest.raises(InputError):
        single_cluster_batch(np.zeros((4, 2)), 0, 8, rng)
    with pytest.raises(InputError):
        single_cluster_batch(resp, 2, 8, rng)
    with pytest.raises(InputError):
        single_cluster_batch(resp[:, 0], 0, 8, rng)


def _responsibility_matrices():
    rng = np.random.default_rng(40)
    for trial in range(12):
        n, k = int(rng.integers(2, 300)), int(rng.integers(1, 6))
        resp = rng.dirichlet(np.ones(k), size=n)
        resp[rng.random(n) < 0.2] = 0.0  # rows that no cluster claims
        resp[:, rng.random(k) < 0.15] = 0.0  # clusters with no mass at all
        yield trial, resp
    yield 99, np.ones((257, 1))  # the uniform column of a one-cluster run


def test_cluster_sampler_draws_exactly_what_weighted_choice_draws():
    checked = 0
    for trial, resp in _responsibility_matrices():
        sampler = ClusterSampler(resp)
        for z in range(resp.shape[1]):
            mass = resp[:, z].sum()
            ours, ref, direct = (np.random.default_rng(trial) for _ in range(3))
            if mass <= 0.0:
                assert sampler.mass[z] <= 0.0
                with pytest.raises(InputError, match=f"cluster {z} "):
                    sampler.draw(z, 8, ours)
                continue
            assert sampler.mass[z] == mass
            for size in (1, 7, 256):
                want = ref.choice(len(resp), size=size, replace=True,
                                  p=resp[:, z] / mass)
                got = sampler.draw(z, size, ours)
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert np.array_equal(single_cluster_batch(resp, z, size, direct), want)
            # both generators consumed the same stream
            assert ours.random() == ref.random() == direct.random()
            checked += 1
    assert checked >= 12


def test_cluster_sampler_rejects_bad_weights_when_built():
    resp = np.full((5, 2), 0.5)
    for bad in (np.nan, np.inf, -0.1):
        broken = resp.copy()
        broken[2, 1] = bad
        with pytest.raises(InputError, match="finite and nonnegative"):
            ClusterSampler(broken)
    with pytest.raises(InputError):
        ClusterSampler(resp[:, 0])
    with pytest.raises(InputError):
        ClusterSampler(resp).draw(2, 4, np.random.default_rng(0))


@pytest.mark.parametrize("feature_mode", FEATURE_MODES)
def test_training_is_deterministic(feature_mode):
    data = _dataset(seed=6, n_trajectories=5)
    cfg = _small_cfg(steps=80, seed=11, feature_mode=feature_mode)
    critic_a, metrics_a = train(data, cfg)
    critic_b, metrics_b = train(data, cfg)
    assert np.array_equal(critic_a.flat, critic_b.flat)
    assert metrics_a == metrics_b


@pytest.mark.parametrize("penalty_weight", [0.0, 0.3])
def test_a_one_cluster_run_fits_no_mixture(monkeypatch, penalty_weight):
    def no_fit(*args, **kwargs):
        raise AssertionError("a one-cluster run fit a mixture")

    monkeypatch.setattr(gmm, "fit", no_fit)
    data = _dataset(seed=8, n_trajectories=5)
    cfg = _small_cfg(steps=100, n_clusters=1, penalty_weight=penalty_weight, seed=3,
                     eval_env=ENV, eval_every=40, eval_episodes=2)
    refreshed = []
    _, metrics = train(data, cfg, on_refresh=lambda step, mix: refreshed.append(step))
    assert refreshed == []
    assert len(metrics) == 100 and {rec.active_cluster for rec in metrics} == {0}
    assert all((rec.penalty > 0.0) == (penalty_weight > 0.0) for rec in metrics)


def test_a_cluster_without_sampler_mass_is_drawn_again(monkeypatch):
    # cluster 0 keeps its mixture weight but no row carries its responsibility,
    # so every draw of it is redrawn from the cluster stream
    real_e_step, real_sample = gmm.e_step, gmm.sample_cluster
    drawn = []

    def e_step_without_cluster_0(mixture, y, **kwargs):
        resp = real_e_step(mixture, y, **kwargs)
        resp[:, 0] = 0.0
        return resp

    def recording_sample(mixture, rng):
        assert mixture.weights[0] > 0.0
        drawn.append(real_sample(mixture, rng))
        return drawn[-1]

    monkeypatch.setattr(gmm, "e_step", e_step_without_cluster_0)
    monkeypatch.setattr(gmm, "sample_cluster", recording_sample)
    _, metrics = train(_dataset(seed=8, n_trajectories=5), _small_cfg(steps=60, seed=3))
    assert len(metrics) == 60
    assert all(rec.active_cluster != 0 for rec in metrics)
    assert drawn.count(0) > 0 and len(drawn) == 60 + drawn.count(0)


def test_penalty_changes_the_trajectory():
    data = _dataset(seed=9, n_trajectories=5)
    cfg = _small_cfg(steps=60, penalty_weight=0.5, seed=2)
    critic_c, metrics_c = train(data, cfg)
    critic_b, _ = train(data, baseline_of(cfg))
    assert not np.array_equal(critic_c.flat, critic_b.flat)
    assert all(rec.penalty >= 0.0 for rec in metrics_c)
    assert any(rec.penalty > 0.0 for rec in metrics_c)


def test_stacked_pairs_put_target_block_first(monkeypatch):
    data = subsample(_dataset(), 30, seed=4)
    rng = np.random.default_rng(6)
    online = MlpCritic.init(4, (8, 6), rng)
    target = MlpCritic.init(4, (8, 6), rng)
    fitted_rows = []
    real_fit = gmm.fit

    def recording_fit(y, k, **kwargs):
        fitted_rows.append(y)
        return real_fit(y, k, **kwargs)

    monkeypatch.setattr(gmm, "fit", recording_fit)
    cfg = _small_cfg(hidden=(8, 6), em_max_iters=3)
    x, x_prime = data.joint_inputs()
    mixture, sampler = refresh_clusters(online, target, x, x_prime, cfg,
                                        np.random.default_rng(0), None)
    (y,) = fitted_rows
    assert y.shape == (30, 12) and mixture.dim == 12
    assert np.array_equal(y[:, :6], target.penultimate_features_batch(x_prime))
    assert np.array_equal(y[:, 6:], online.penultimate_features_batch(x))
    assert len(sampler.mass) == 2


def test_a_run_builds_the_joint_inputs_once(monkeypatch):
    data = _dataset(seed=1, n_trajectories=4)
    built = []
    real_joint_inputs = OfflineDataset.joint_inputs

    def counting_joint_inputs(self):
        built.append(self)
        return real_joint_inputs(self)

    monkeypatch.setattr(OfflineDataset, "joint_inputs", counting_joint_inputs)
    refreshed = []
    train(data, _small_cfg(steps=120, refresh_period=50, seed=5),
          on_refresh=lambda step, mix: refreshed.append(step))
    assert refreshed == [0, 50, 100]
    assert len(built) == 1 and built[0] is data


def test_refresh_callback_fires_on_schedule():
    data = _dataset(seed=1, n_trajectories=4)
    # a refresh due at the last step runs; a zero-step c4 run still refreshes once
    for steps, refreshed in ((120, [0, 50, 100]), (100, [0, 50, 100]), (0, [0])):
        seen = []
        cfg = _small_cfg(steps=steps, refresh_period=50, seed=5)
        train(data, cfg, on_refresh=lambda step, mix: seen.append((step, mix)))
        assert [step for step, _ in seen] == refreshed
        assert all(isinstance(mix, GaussianMixture) for _, mix in seen)

        seen.clear()
        train(data, baseline_of(cfg), on_refresh=lambda step, mix: seen.append(step))
        assert seen == []


def test_zero_steps_returns_the_freshly_initialized_critic():
    data = _dataset(seed=2, n_trajectories=3)
    cfg = _small_cfg(steps=0, seed=9)
    critic, metrics = train(data, cfg)
    assert metrics == []
    expected = MlpCritic.init(4, cfg.hidden, RngStreams.from_seed(9).init)
    assert np.array_equal(critic.flat, expected.flat)


def test_eval_returns_appear_on_schedule():
    data = _dataset(seed=4, n_trajectories=3)
    cfg = _small_cfg(steps=10, refresh_period=100, eval_env=ENV,
                     eval_every=4, eval_episodes=1)
    _, metrics = train(data, cfg)
    evaluated = [rec.step for rec in metrics if rec.eval_return is not None]
    assert evaluated == [4, 8, 10]
    assert all(math.isfinite(rec.eval_return) for rec in metrics
               if rec.eval_return is not None)


def _dead_for_negative_s0_critic(rng):
    """First-layer units follow 10 * s0, so for s0 well below 0 all are off and dQ/da = 0."""
    net = MlpCritic.init(4, (8, 8), rng)
    w, _ = net.layers[0]
    w[:, 0] = 10.0
    w[:, 1] = 0.0
    return net


def _bound_seeking_critic(rng):
    """Q grows with |a . u| for two directions u, so the search runs into the bound."""
    w1 = np.zeros((4, 4))
    w1[:, :2] = 0.1 * rng.standard_normal((4, 2))
    w1[:, 2:] = [[1.0, 0.5], [-1.0, -0.5], [0.3, 1.0], [-0.3, -1.0]]
    w2 = np.eye(4) + 0.1 * rng.random((4, 4))
    return MlpCritic([(w1, np.zeros(4)), (w2, np.zeros(4)),
                      (np.ones((1, 4)), np.zeros(1))])


ENV_DA3 = EnvSpec.with_circular_modes(3, ds=3, da=3)


@pytest.mark.parametrize("env, make_critic, episodes", [
    (ENV, lambda rng: MlpCritic.init(4, (16, 16), rng), 1),
    (ENV, lambda rng: MlpCritic.init(4, (16, 16), rng), 4),
    (ENV, lambda rng: MlpCritic.init(4, (8, 8, 8), rng), 8),
    (ENV_DA3, lambda rng: MlpCritic.init(6, (16, 16), rng), 4),
    (ENV, _dead_for_negative_s0_critic, 8),
    (ENV, _bound_seeking_critic, 4),
])
def test_eval_return_equals_the_one_episode_at_a_time_oracle(env, make_critic, episodes):
    for seed in range(3):
        critic = make_critic(np.random.default_rng(seed))
        rng, oracle_rng = np.random.default_rng(50 + seed), np.random.default_rng(50 + seed)
        got = _eval_return(critic, env, _eval_starts(env, episodes, rng))
        want = eval_return_one_episode_at_a_time(critic, env, episodes, oracle_rng,
                                                 _action_grid(env))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert rng.random() == oracle_rng.random()


def test_greedy_search_drops_dead_states_and_projects_onto_the_bound():
    # the two special critics above really reach the paths they are there for
    cand = _action_grid(ENV)
    states = np.array([[-0.8, 0.1], [0.7, -0.2], [-0.6, -0.3], [0.9, 0.0]])
    dead = _dead_for_negative_s0_critic(np.random.default_rng(0))
    grads = dead.input_gradient_batch(
        np.concatenate([states, _greedy_action(dead, states, ENV, cand)], axis=1))
    assert np.array_equal(np.abs(grads[:, 2:]).sum(axis=1) == 0.0,
                          [True, False, True, False])
    seeking = _bound_seeking_critic(np.random.default_rng(0))
    actions = _greedy_action(seeking, states, ENV, cand)
    assert np.allclose(np.linalg.norm(actions, axis=1), ENV.action_bound)
    assert not any((cand == a).all(axis=1).any() for a in actions)


def test_adam_and_sgd_both_descend():
    data = _dataset(seed=5, n_trajectories=5)
    for opt in ("sgd", "adam"):
        cfg = _small_cfg(steps=150, optimizer=opt, learning_rate=1e-3, seed=1)
        _, metrics = train(data, cfg)
        first = np.mean([rec.td_loss for rec in metrics[:15]])
        last = np.mean([rec.td_loss for rec in metrics[-15:]])
        assert last < first


def test_identity_checks_hold_at_large_reward_scale():
    # rounding error in mean(delta^2) and in the gradients grows with their
    # scale; fixed absolute bounds aborted these runs at step 1
    data = _dataset(seed=0, n_trajectories=10)
    for scale in (1e2, 1e4):
        scaled = replace(data, r=data.r * scale)
        _, metrics = train(scaled, _small_cfg(steps=60, check_identities=True))
        assert len(metrics) == 60
        assert all(math.isfinite(rec.objective) for rec in metrics)


@pytest.mark.parametrize("lam, beta, n", [(0.0, 0.0, 16), (0.3, 0.0, 16), (0.3, 0.5, 16),
                                           (2.0, 1.5, 7), (0.3, 0.5, 2)])
def test_objective_gradient_matches_central_differences(lam, beta, n):
    # the gradient the trainer descends: TD loss plus lam (||C||_F^2 + beta tr(C)^2),
    # the penalty taken through the online penultimate features; the target is fixed
    rng = np.random.default_rng(n)
    critic = MlpCritic.init(4, (16, 16), rng)
    tnet = MlpCritic.init(4, (16, 16), rng)
    # a pre-activation at the kink, such as an exact 0.0 behind a dead first
    # layer and a zero bias, puts the difference quotient across it
    x = smooth_points(critic, n, rng)
    x_prime = rng.standard_normal((n, 4))
    r = rng.standard_normal(n)
    done = np.arange(n) % 3 == 1
    cfg = TrainConfig(steps=1, hidden=(16, 16), penalty_weight=lam,
                      penalty_trace_weight=beta)
    grads = _objective_report(critic, tnet, x, x_prime, r, done, cfg).grads
    td_only = _objective_report(critic, tnet, x, x_prime, r, done,
                                replace(cfg, penalty_weight=0.0)).grads

    def objective(flat):
        critic.flat[:] = flat
        return _objective_report(critic, tnet, x, x_prime, r, done, cfg).objective

    fd = central_diff(objective, critic.flat.copy(), eps=1e-6)
    scale = np.max(np.abs(grads))
    assert np.max(np.abs(grads - fd)) < 1e-7 * scale
    if lam > 0.0:  # the penalty's share of the gradient is far above the tolerance
        assert np.max(np.abs(grads - td_only)) > 1e-2 * scale


@pytest.mark.parametrize("baseline", [False, True], ids=["c4", "baseline"])
@pytest.mark.parametrize("part", ["rewards", "inputs"])
@pytest.mark.parametrize("k", range(-12, 13, 4))
def test_checked_training_holds_at_every_data_scale(k, part, baseline):
    # Every runtime check (the identity bounds, the divergence check, and
    # numpy warnings, which are errors under pytest) must hold whatever the
    # units of the data. tr_n_sample_convention is trace(C)/m, so it scales
    # with the features squared: it is not scale-free and is not compared here.
    data = generate(EnvSpec.with_circular_modes(3, horizon=12), n_trajectories=12, seed=3)
    scale = 10.0 ** k
    if part == "rewards":
        data = replace(data, r=data.r * scale)
    else:
        data = replace(data, s=data.s * scale, a=data.a * scale,
                       s_next=data.s_next * scale, a_next=data.a_next * scale)
    cfg = TrainConfig(steps=300, hidden=(16, 16), optimizer="adam", learning_rate=0.01,
                      ema_rate=0.05, penalty_weight=0.1, n_clusters=3, refresh_period=50,
                      batch_size=32, probe_size=96, em_max_iters=10, em_warm_iters=3,
                      check_identities=True, seed=7)
    _, metrics = train(data, baseline_of(cfg) if baseline else cfg)
    assert len(metrics) == 300
    assert all(math.isfinite(v) for rec in metrics
               for v in (rec.td_loss, rec.penalty, rec.objective, rec.tr_n_sample_convention))


def test_identity_check_still_catches_a_corrupted_gradient(monkeypatch):
    # a constant offset on every backward pass survives in g_sq - g_mean - g_var
    original = MlpCritic.backprop_cached

    def offset(self, acts, pres, grad_values, grad_features=None):
        grads = original(self, acts, pres, grad_values, grad_features)
        grads[0] += 1e-8
        return grads

    monkeypatch.setattr(MlpCritic, "backprop_cached", offset)
    data = _dataset(seed=0, n_trajectories=10)
    with pytest.raises(NumericalError, match="gradient identity violated"):
        train(data, _small_cfg(steps=5, check_identities=True))
    _, metrics = train(data, _small_cfg(steps=5, check_identities=False))
    assert len(metrics) == 5


def test_divergence_is_reported_with_its_step():
    data = _dataset(seed=0, n_trajectories=10)
    for check in (True, False):
        with pytest.raises(NumericalError, match=r"not finite at step \d+$"):
            train(data, _small_cfg(steps=200, learning_rate=1e6, check_identities=check))


def test_metric_record_fields_cover_the_csv_columns():
    rec = MetricRecord(step=1, td_loss=0.5, penalty=0.1, objective=0.6,
                       tr_n_sample_convention=0.01, active_cluster=2,
                       cluster_occupancy_entropy=0.9)
    assert len(rec.as_row()) == len(METRIC_COLUMNS)
    assert rec.as_row()[-1] == ""


def test_metrics_csv_round_trip(tmp_path):
    data = _dataset(seed=7, n_trajectories=4)
    cfg = _small_cfg(steps=25, eval_env=ENV, eval_every=10, eval_episodes=1)
    _, metrics = train(data, cfg)
    path = tmp_path / "metrics.csv"
    metrics_to_csv(metrics, path)
    rows = metrics_from_csv(path)
    assert len(rows) == len(metrics)
    for row, rec in zip(rows, metrics):
        assert row["step"] == rec.step
        assert row["td_loss"] == rec.td_loss
        assert row["penalty"] == rec.penalty
        assert row["objective"] == rec.objective
        assert row["tr_n_sample_convention"] == rec.tr_n_sample_convention
        assert row["active_cluster"] == rec.active_cluster
        assert row["cluster_occupancy_entropy"] == rec.cluster_occupancy_entropy
        assert row["eval_return"] == rec.eval_return


def test_metrics_csv_header_only_for_empty_log(tmp_path):
    path = tmp_path / "empty.csv"
    metrics_to_csv([], path)
    assert path.read_text().strip() == ",".join(METRIC_COLUMNS)
    assert metrics_from_csv(path) == []


def test_metrics_csv_parse_errors_carry_line_numbers(tmp_path):
    header = ",".join(METRIC_COLUMNS)

    bad_header = tmp_path / "a.csv"
    bad_header.write_text("step,loss\n1,2\n")
    with pytest.raises(ParseError) as err:
        metrics_from_csv(bad_header)
    assert err.value.line_number == 1

    short_row = tmp_path / "b.csv"
    short_row.write_text(header + "\n1,0.5,0.1\n")
    with pytest.raises(ParseError) as err:
        metrics_from_csv(short_row)
    assert err.value.line_number == 2

    bad_value = tmp_path / "c.csv"
    good = "1,0.5,0.1,0.6,0.01,0,0.0,"
    bad = "2,oops,0.1,0.6,0.01,0,0.0,"
    bad_value.write_text("\n".join([header, good, bad]) + "\n")
    with pytest.raises(ParseError) as err:
        metrics_from_csv(bad_value)
    assert err.value.line_number == 3


def test_metrics_csv_rejects_non_finite_cells(tmp_path):
    header = ",".join(METRIC_COLUMNS)
    good = ["1", "0.5", "0.1", "0.6", "0.01", "0", "0.0", "-3.0"]
    path = tmp_path / "metrics.csv"
    for column, name in enumerate(METRIC_COLUMNS):
        if name in ("step", "active_cluster"):
            continue
        for cell in ("inf", "-inf", "nan"):
            bad = list(good)
            bad[column] = cell
            path.write_text("\n".join([header, ",".join(good), ",".join(bad)]) + "\n")
            with pytest.raises(ParseError, match="non-finite") as err:
                metrics_from_csv(path)
            assert err.value.line_number == 3


def test_occupancy_entropy_bounds():
    assert _occupancy_entropy(np.array([10.0, 10.0])) == pytest.approx(math.log(2))
    assert _occupancy_entropy(np.array([7.0, 0.0, 0.0])) == 0.0
    assert _occupancy_entropy(np.zeros(3)) == 0.0


def test_empty_dataset_is_rejected():
    data = _dataset(seed=0, n_trajectories=1).take(np.array([], dtype=int))
    with pytest.raises(InputError):
        train(data, _small_cfg(steps=1))
