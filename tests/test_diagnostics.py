"""Tests for the directional variance probes and the gradient cosine report."""

import math
from dataclasses import replace

import numpy as np
import pytest

from c4td.data import EnvSpec, generate, subsample
from c4td.diagnostics import (
    AbcEstimate,
    PerturbSpec,
    _draw_directions,
    default_perturb_spec,
    direct_var_delta,
    estimate_abc,
    grad_cosine_report,
)
from c4td.errors import InputError
from c4td.nets import MlpCritic


def _batch(seed=0, n=64):
    env = EnvSpec.with_circular_modes(3)
    data = generate(env, n_trajectories=4, seed=seed)
    return subsample(data, n, seed=seed + 1)


def _nets(seed=0, hidden=(8, 8)):
    rng = np.random.default_rng(seed)
    critic = MlpCritic.init(4, hidden, rng)
    target = MlpCritic.init(4, hidden, rng)
    return critic, target


def _affine_net(v, lift=100.0):
    """A ReLU net that is exactly affine with input gradient v.

    Identity hidden weights plus a large positive bias keep every
    preactivation strictly positive for inputs in the probed region, so the
    activations never clip and the map collapses to v @ x + const.
    """
    dim = v.shape[0]
    net = MlpCritic.init(dim, (dim, dim), np.random.default_rng(0))
    eye = np.eye(dim)
    b = np.full(dim, lift)
    net.layers[0] = (eye.copy(), b.copy())
    net.layers[1] = (eye.copy(), b.copy())
    net.layers[2] = (v[None, :].copy(), np.zeros(1))
    return net


def test_perturb_spec_validation():
    with pytest.raises(InputError):
        PerturbSpec(k=-0.1, k_prime=0.1, n_directions=10)
    with pytest.raises(InputError):
        PerturbSpec(k=0.1, k_prime=0.1, n_directions=1)
    feats = np.random.default_rng(0).normal(size=(50, 3))
    spec = default_perturb_spec(feats, n_directions=64)
    assert spec.k == spec.k_prime
    assert spec.k == pytest.approx(0.01 * np.mean(np.std(feats, axis=0)))
    with pytest.raises(InputError):
        AbcEstimate(a=-1.0, b=0.0, c=0.0, composed=0.0)


def test_directional_moments_pool_samples_and_replicates():
    # Replays the documented direction draws and recomputes A, B, C as the
    # population moments of the pooled (sample, replicate) projection cloud.
    critic, target = _nets(seed=3)
    batch = _batch(seed=3)
    spec = PerturbSpec(k=0.02, k_prime=0.03, n_directions=40)
    gamma = 0.97
    est = estimate_abc(critic, target, batch, spec, gamma,
                       np.random.default_rng(11))

    w_prime, w = _draw_directions(np.random.default_rng(11),
                                  spec.n_directions, 4)
    x, x_prime = batch.joint_inputs()
    pp = (target.input_gradient_batch(x_prime) @ w_prime.T).ravel()
    p = (critic.input_gradient_batch(x) @ w.T).ravel()
    a = np.var(pp)
    b = np.var(p)
    c = np.mean(pp * p) - pp.mean() * p.mean()
    assert est.a == pytest.approx(a, rel=1e-12)
    assert est.b == pytest.approx(b, rel=1e-12)
    assert est.c == pytest.approx(c, rel=1e-12)
    composed = (gamma * spec.k_prime) ** 2 * a + spec.k ** 2 * b \
        - 2 * gamma * spec.k * spec.k_prime * c
    assert est.composed == pytest.approx(composed, rel=1e-12)


def test_composed_matches_direct_exactly_on_affine_nets():
    # With constant input gradients the Taylor expansion has no remainder,
    # so seed-matched probes must agree to float rounding.
    rng = np.random.default_rng(7)
    batch = _batch(seed=7)
    critic = _affine_net(rng.normal(size=4))
    target = _affine_net(rng.normal(size=4))
    spec = PerturbSpec(k=0.05, k_prime=0.04, n_directions=200)
    for seed in range(5):
        est = estimate_abc(critic, target, batch, spec, 0.99,
                           np.random.default_rng(seed))
        direct = direct_var_delta(critic, target, batch, spec, 0.99,
                                  np.random.default_rng(seed))
        assert abs(est.composed - direct) <= 1e-10 * max(1.0, abs(direct))


def test_composed_tracks_direct_on_relu_nets_at_small_k():
    critic, target = _nets(seed=5, hidden=(16, 16))
    batch = _batch(seed=5, n=128)
    x, _ = batch.joint_inputs()
    spec = default_perturb_spec(x, n_directions=600)
    est = estimate_abc(critic, target, batch, spec, 0.99,
                       np.random.default_rng(2))
    direct = direct_var_delta(critic, target, batch, spec, 0.99,
                              np.random.default_rng(2))
    assert direct > 0
    assert est.composed == pytest.approx(direct, rel=0.05)


def test_direct_variance_ignores_constant_reward_shifts():
    critic, target = _nets(seed=9)
    batch = _batch(seed=9)
    shifted = replace(batch, r=batch.r + 10.0)
    spec = PerturbSpec(k=0.05, k_prime=0.05, n_directions=64)
    v0 = direct_var_delta(critic, target, batch, spec, 0.9,
                          np.random.default_rng(0))
    v1 = direct_var_delta(critic, target, shifted, spec, 0.9,
                          np.random.default_rng(0))
    assert v0 == v1


def test_probes_reject_tiny_batches():
    critic, target = _nets()
    batch = _batch().take(np.array([0]))
    spec = PerturbSpec(k=0.1, k_prime=0.1, n_directions=8)
    with pytest.raises(InputError):
        estimate_abc(critic, target, batch, spec, 0.99, np.random.default_rng(0))
    with pytest.raises(InputError):
        direct_var_delta(critic, target, batch, spec, 0.99, np.random.default_rng(0))


def test_gradient_cosines_sit_in_range_and_split_cleanly():
    critic, target = _nets(seed=21)
    batch = _batch(seed=21, n=96)
    rep = grad_cosine_report(critic, target, batch, gamma=0.98)
    assert -1.0 <= rep.cos_var <= 1.0
    assert -1.0 <= rep.cos_mean_sq <= 1.0


def test_cosines_follow_the_residual_structure():
    critic, target = _nets(seed=2)
    batch = _batch(seed=2)
    x, x_prime = batch.joint_inputs()
    base = 0.9 * (1.0 - batch.done) * target.forward_batch(x_prime) \
        - critic.forward_batch(x)

    # constant residuals: the variance part vanishes, so the second-moment
    # gradient is the mean-square gradient
    const = replace(batch, r=np.mean(base) - base)
    rep = grad_cosine_report(critic, target, const, gamma=0.9)
    assert rep.cos_mean_sq == pytest.approx(1.0, abs=1e-9)

    # centered residuals: the mean term is numerically negligible, so the
    # second-moment gradient is the variance gradient
    centered = replace(batch, r=np.full(len(batch), -float(np.mean(base))))
    rep = grad_cosine_report(critic, target, centered, gamma=0.9)
    assert rep.cos_var == pytest.approx(1.0, abs=1e-9)

    # identically zero residuals: every gradient is zero, cosines undefined
    flat = critic.copy()
    flat.layers = [(np.zeros_like(w), np.zeros_like(b)) for w, b in flat.layers]
    zero = replace(batch, r=np.zeros(len(batch)))
    rep = grad_cosine_report(flat, flat, zero, gamma=0.9)
    assert math.isnan(rep.cos_var) and math.isnan(rep.cos_mean_sq)

