"""TD critic training with single-cluster minibatches and a cross-covariance penalty.

Each step draws one cluster from the current mixture, samples a minibatch
with that cluster's responsibilities as weights, and descends the TD loss
plus a penalty on the batch cross-covariance between target-side and
online-side feature rows. Clusters are refit periodically from stacked
gradient pairs. The baseline, ``baseline_of(cfg)``, is the run with one
cluster (uniform batches, no mixture fit) and no penalty; it takes the same
loop and random streams, so ablations are paired step for step.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import gmm
from .covstats import cross_cov, penalty
from .data import EnvSpec, OfflineDataset
from .errors import (DISCOUNT, NONNEGATIVE, POSITIVE, FormatError, InputError, NumericalError,
                     ParseError, at_least, check_fields)
from .gmm import GaussianMixture
from .nets import EMA_RATE, MlpCritic, TargetCritic

FEATURE_MODES = ("surrogate", "exact_input_grad")
OPTIMIZERS = ("sgd", "adam")


# One row per TrainConfig field, in field order.
TRAIN_SCHEMA = {
    "steps": at_least(0),
    "gamma": DISCOUNT,
    "penalty_weight": NONNEGATIVE,
    "penalty_trace_weight": NONNEGATIVE,
    "n_clusters": at_least(1),
    "refresh_period": at_least(1),
    "batch_size": at_least(2),
    "ema_rate": EMA_RATE,
    "learning_rate": POSITIVE,
    "seed": at_least(0),
    "feature_mode": ("str", FEATURE_MODES.__contains__, f"must be one of {FEATURE_MODES}"),
    "optimizer": ("str", OPTIMIZERS.__contains__, f"must be one of {OPTIMIZERS}"),
    "hidden": ("widths",),
    "probe_size": ("int | None", *at_least(2)[1:]),
    "em_max_iters": at_least(1),
    "em_warm_iters": at_least(1),
    "em_tol": NONNEGATIVE,
    "eval_env": ("any | None", lambda v: isinstance(v, EnvSpec), "must be an EnvSpec"),
    "eval_every": at_least(1),
    "eval_episodes": at_least(1),
    "check_identities": ("bool",),
}


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run; defaults follow the reference setup."""

    steps: int
    gamma: float = 0.99
    penalty_weight: float = 0.3
    penalty_trace_weight: float = 0.0
    n_clusters: int = 5
    refresh_period: int = 200
    batch_size: int = 256
    ema_rate: float = 0.005
    learning_rate: float = 3e-4
    seed: int = 0
    feature_mode: str = "surrogate"
    optimizer: str = "sgd"
    hidden: tuple[int, ...] = (32, 32)
    probe_size: int | None = None
    em_max_iters: int = 50
    em_warm_iters: int = 10
    em_tol: float = 1e-6
    eval_env: EnvSpec | None = None
    eval_every: int = 2000
    eval_episodes: int = 4
    check_identities: bool = True

    def __post_init__(self):
        check_fields(vars(self), TRAIN_SCHEMA, "train.")
        if self.probe_size is not None and self.n_clusters > self.probe_size:
            raise InputError(f"train.n_clusters ({self.n_clusters}) must not exceed "
                             f"probe_size ({self.probe_size})")


def baseline_of(cfg: TrainConfig) -> TrainConfig:
    """The paired baseline of ``cfg``: one cluster, so uniform batches, and no penalty."""
    return replace(cfg, n_clusters=1, penalty_weight=0.0)


def _finite_float(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):  # train stops before it would log one
        raise ValueError(f"non-finite value {cell!r}")
    return value


# How a metric field of each annotated type is written to, and read from, a CSV
# cell: floats by repr so the round trip is exact, a missing value as ''.
_CELLS = {"int": (lambda v: v, int), "float": (repr, _finite_float),
          "float | None": (lambda v: "" if v is None else repr(v),
                           lambda cell: None if cell == "" else _finite_float(cell))}


@dataclass
class MetricRecord:
    """One row of the metric log; the fields, in order, are the CSV columns."""

    step: int
    td_loss: float
    penalty: float
    objective: float
    tr_n_sample_convention: float
    active_cluster: int
    cluster_occupancy_entropy: float
    eval_return: float | None = None

    def as_row(self) -> list:
        return [_CELLS[f.type][0](getattr(self, f.name)) for f in fields(self)]


METRIC_COLUMNS = tuple(f.name for f in fields(MetricRecord))


class RngStreams(NamedTuple):
    """Independent child generators; the split keeps the baseline paired.

    EM and cluster draws consume only their own streams, so turning
    clustering off cannot shift batch sampling or evaluation.
    """

    init: np.random.Generator
    em: np.random.Generator
    cluster: np.random.Generator
    batch: np.random.Generator
    eval: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int) -> "RngStreams":
        return cls(*np.random.default_rng(seed).spawn(5))


def bootstrap_targets(r: np.ndarray, done: np.ndarray, q_prime: np.ndarray,
                      gamma: float) -> np.ndarray:
    """y_i = r_i + gamma (1 - done_i) q'_i; terminal rows bootstrap nothing."""
    return r + gamma * (1.0 - done) * q_prime


def gradient_pairs(critic: MlpCritic, target: MlpCritic, x: np.ndarray, x_prime: np.ndarray,
                   feature_mode: str = "surrogate", split: gmm.Inline = gmm.INLINE) -> np.ndarray:
    """Stacked feature rows y = [G' | G], shape (N, 2w): G' from the target at joint
    inputs x', then G from the online at x.

    Each side is written into its half of the one (N, 2w) array: in surrogate
    mode the last hidden layer's product lands there directly, so no side is
    held as an array of its own, and both sides' biases and clamps then run
    once over the whole contiguous array, not over strided halves: they are
    elementwise, so the bits are those of each net's own
    ``penultimate_features_batch``. An input gradient is assigned into its
    half. The array is ``split``'s "pairs" array.
    """
    check_fields({"feature_mode": feature_mode}, TRAIN_SCHEMA, "train.")
    if len(x) == 0:
        raise InputError("batch must be nonempty")
    surrogate = feature_mode == "surrogate"
    w = _pair_dim(critic, feature_mode) // 2
    y = split.array("pairs", (len(x), 2 * w))
    for half, net, rows in ((y[:, :w], target, x_prime), (y[:, w:], critic, x)):
        if surrogate:
            net._last_product(net._check_batch(rows), out=half)
        else:
            half[...] = net.input_gradient_batch(rows)
    if surrogate:
        y += np.concatenate([target.layers[-2][1], critic.layers[-2][1]])
        np.maximum(y, 0.0, out=y)
    return y


def _pair_dim(critic: MlpCritic, feature_mode: str) -> int:
    """The width D of a row of ``gradient_pairs``: both sides' features or input gradients."""
    return 2 * (critic.arch[-2] if feature_mode == "surrogate" else critic.input_dim)


class _StepReport(NamedTuple):
    objective: float
    td: float
    penalty_part: float
    tr_n: float
    grads: np.ndarray  # laid out like critic.flat
    delta: np.ndarray
    acts: list[np.ndarray]  # the online forward pass, reused by the identity check
    pres: list[np.ndarray]


@functools.cache
def _identity(m: int) -> np.ndarray:
    """``np.eye(m)``, built once per width and read-only, as every step shares it."""
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


def _objective_report(critic: MlpCritic, tnet: MlpCritic, x: np.ndarray,
                      x_prime: np.ndarray, r: np.ndarray, done: np.ndarray,
                      cfg: TrainConfig) -> _StepReport:
    """TD loss, penalty, and the fused parameter gradient on one batch.

    One forward pass per network: the target's gives both the bootstrap
    values and the target-side feature rows, the online's is reused by the
    backward pass. The penalty is built on penultimate features on both
    sides regardless of cfg.feature_mode: differentiating an input-gradient
    penalty w.r.t. parameters would need a second backward pass, which the
    training path excludes. Target-side rows are constants (the target is
    not optimized), so the gradient flows only through the online rows.
    """
    n = x.shape[0]
    if n < 2:
        raise InputError("cross-covariance centering needs at least 2 rows")
    q_prime, target_acts, _ = tnet._forward_cached(x_prime)
    targets = bootstrap_targets(r, done, q_prime, cfg.gamma)
    values, acts, pres = critic._forward_cached(x)
    feats = acts[-1]
    delta = values - targets
    td = float(np.mean(delta * delta))

    g_prime = target_acts[-1]
    c_hat, g_prime_c = cross_cov(g_prime, feats, convention="sample", return_centered=True)
    m = c_hat.shape[0]
    trace_c = float(np.trace(c_hat))
    lam = cfg.penalty_weight
    pen_part = lam * penalty(c_hat, cfg.penalty_trace_weight)
    objective = td + pen_part
    tr_n = trace_c / m

    grad_values = 2.0 * delta / n
    grad_features = None
    if lam != 0.0:
        # d penalty / d G = 2a Gp_c (C + beta tr(C) I); the centering of G
        # contributes nothing because Gp_c's columns sum to zero.
        a = 1.0 / (n - 1)
        grad_features = lam * 2.0 * a * (
            g_prime_c @ (c_hat + cfg.penalty_trace_weight * trace_c * _identity(m)))
    grads = critic.backprop_cached(acts, pres, grad_values, grad_features)
    return _StepReport(objective, td, pen_part, tr_n, grads, delta, acts, pres)


class ClusterSampler:
    """Per-cluster sampling CDFs of a responsibility matrix, built once per refresh.

    ``draw(z, size, rng)`` returns exactly what
    ``rng.choice(N, size, replace=True, p=r[:, z] / r[:, z].sum())`` returns:
    that call builds the same normalized cumulative sum and searches it with
    ``rng.random(size)``, but re-validates and re-sums all N weights on
    every draw. Non-finite or negative weights are rejected here instead.

    Each CDF is built, with the same bits, in its own column of a float
    ``responsibilities`` array, which the caller reads no more.
    """

    def __init__(self, responsibilities: np.ndarray):
        resp = np.asarray(responsibilities, dtype=float)
        if resp.ndim != 2:
            raise InputError("responsibilities must be 2-D with a valid column z")
        if not np.all(np.isfinite(resp)) or np.any(resp < 0.0):
            raise InputError("responsibilities must be finite and nonnegative")
        self.mass = [float(resp[:, z].sum()) for z in range(resp.shape[1])]
        self._cdfs = []
        for z, mass in enumerate(self.mass):
            cdf = None
            if mass > 0.0:
                cdf = np.divide(resp[:, z], mass, out=resp[:, z])
                np.cumsum(cdf, out=cdf)
                cdf /= cdf[-1]
            self._cdfs.append(cdf)

    def draw(self, z: int, size: int, rng: np.random.Generator) -> np.ndarray:
        """size row indices drawn with replacement, probability prop. to r_iz."""
        if not 0 <= z < len(self._cdfs):
            raise InputError("responsibilities must be 2-D with a valid column z")
        if self._cdfs[z] is None:
            raise InputError(f"cluster {z} carries no responsibility mass")
        return self._cdfs[z].searchsorted(rng.random(size), side="right")


def single_cluster_batch(responsibilities: np.ndarray, z: int, batch_size: int,
                         rng: np.random.Generator) -> np.ndarray:
    """batch_size indices drawn with replacement, probability prop. to r_iz."""
    return ClusterSampler(np.array(responsibilities, dtype=float)).draw(z, batch_size, rng)


def refresh_clusters(online: MlpCritic, target: MlpCritic, x: np.ndarray, x_prime: np.ndarray,
                     cfg: TrainConfig, rng: np.random.Generator, mixture: GaussianMixture | None,
                     split: gmm.Inline = gmm.INLINE) -> tuple[GaussianMixture, ClusterSampler]:
    """Refit the mixture on stacked gradient pairs; return it and its batch sampler.

    ``x`` and ``x_prime`` are the joint input rows of the whole dataset, built
    once per run. Fitting runs on a probe subsample of their pairs when
    cfg.probe_size is set; the sampler covers every row so batches can reach
    every transition. ``rng`` is the EM stream. The previous ``mixture``,
    when given, warm-starts the fit for cfg.em_warm_iters; the first fit runs
    cfg.em_max_iters. EM's ridge is derived from the rows it fits. Pairs that
    are not finite, or whose ridge is not, raise NumericalError. The pairs
    are ``gradient_pairs``' one (N, 2w) array, used as it is: the fit reads
    its probe rows and the E-step all of it, and no second (N, 2w) array is
    made. ``split`` runs EM's per-component work and holds the "pairs" and
    "probe" rows. The sampler's CDFs are built in the responsibilities, which
    a split's next refresh writes over: drop the sampler before it.
    """
    # a diverged critic is reported once, below, not by a RuntimeWarning
    # from every operation that overflows on the way
    with np.errstate(over="ignore", invalid="ignore"):
        y = gradient_pairs(online, target, x, x_prime, cfg.feature_mode, split)
        fit_rows = y
        if cfg.probe_size is not None and cfg.probe_size < y.shape[0]:
            pick = rng.choice(y.shape[0], size=cfg.probe_size, replace=False)
            # every pick is a row; "clip" writes into out directly, "raise" through a copy
            fit_rows = np.take(y, np.sort(pick), axis=0, mode="clip",
                               out=split.array("probe", (cfg.probe_size, y.shape[1])))
        if not (np.isfinite(y).all() and math.isfinite(gmm.default_ridge(fit_rows))):
            raise NumericalError("training diverged: gradient pairs not finite "
                                 "or too large for EM")
    fitted = gmm.fit(fit_rows, cfg.n_clusters,
                     max_iters=cfg.em_max_iters if mixture is None else cfg.em_warm_iters,
                     tol=cfg.em_tol, seed=int(rng.integers(2 ** 63)), init=mixture,
                     split=split).mixture
    return fitted, ClusterSampler(gmm.e_step(fitted, y, split=split))


class _Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def apply(self, params: np.ndarray, grads: np.ndarray) -> None:
        """In place on flat vectors: params += -lr * grads."""
        params += -self.lr * grads


class _Adam:
    def __init__(self, lr: float, b1: float = 0.9, b2: float = 0.999, eps: float = 1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.t = 0
        # first and second moments, then two scratch vectors, all flat
        self.buffers: tuple[np.ndarray, ...] | None = None

    def apply(self, params: np.ndarray, grads: np.ndarray) -> None:
        """One step in place on flat vectors."""
        if self.buffers is None:
            self.buffers = (np.zeros_like(params), np.zeros_like(params),
                            np.empty_like(params), np.empty_like(params))
        self.t += 1
        scale = self.lr * math.sqrt(1.0 - self.b2 ** self.t) / (1.0 - self.b1 ** self.t)
        m, v, tmp, step = self.buffers
        m *= self.b1
        m += np.multiply(grads, 1.0 - self.b1, out=tmp)
        v *= self.b2
        np.multiply(grads, 1.0 - self.b2, out=tmp)
        tmp *= grads
        v += tmp
        np.sqrt(v, out=tmp)
        tmp += self.eps
        np.multiply(m, scale, out=step)
        step /= tmp
        params -= step


def _occupancy_entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log(p)))


class MomentSplit(NamedTuple):
    """grad E[delta^2] and its two parts, each laid out like ``critic.flat``."""

    residual: float  # |E[delta^2] - ((E delta)^2 + Var[delta])|
    grad_sq: np.ndarray
    grad_mean_sq: np.ndarray
    grad_var: np.ndarray


def second_moment_split(critic: MlpCritic, acts: list[np.ndarray], pres: list[np.ndarray],
                        delta: np.ndarray) -> MomentSplit:
    """Check E[delta^2] = (E delta)^2 + Var[delta] on one batch and split its gradient.

    ``delta`` is Q(x_i) - y_i with y held fixed, and ``acts``/``pres`` are the
    online forward pass that produced Q(x_i). The three scalars (population
    convention) differ only in the per-sample weights on dQ/dtheta, so the
    three gradients are one backward pass over a stack of those weights,
    each row with the bits of its own pass. Both identities are checked
    against the rounding error of their own scale, which grows with
    mean(delta^2) and with the gradient magnitude; at unit scale the bounds
    are 1e-12 and 1e-10.
    """
    n = delta.shape[0]
    mean = float(delta.mean())
    mean_sq = float(np.mean(delta * delta))
    var = float(np.mean((delta - mean) ** 2))
    residual = abs(mean_sq - (mean * mean + var))
    if residual >= 1e-12 * max(1.0, mean_sq):
        raise NumericalError(f"second-moment identity violated by {residual:.3e}")
    g_sq, g_mean, g_var = critic.backprop_cached(acts, pres, np.stack(
        [2.0 * delta / n, np.full(n, 2.0 * mean / n), 2.0 * (delta - mean) / n]))
    worst = float(np.max(np.abs(g_sq - g_mean - g_var)))
    if worst >= 1e-10 * max(1.0, float(np.max(np.abs(g_sq)))):
        raise NumericalError(f"gradient identity violated by {worst:.3e}")
    return MomentSplit(residual, g_sq, g_mean, g_var)


def _check_step_identities(delta: np.ndarray, critic: MlpCritic, acts: list[np.ndarray],
                           pres: list[np.ndarray]) -> float:
    """Per-batch second-moment identity and its parameter-gradient split; the residual."""
    return second_moment_split(critic, acts, pres, delta).residual


def _action_grid(env: EnvSpec) -> np.ndarray:
    """Candidate actions for the greedy search: the origin plus three rings."""
    da, bound = env.da, env.action_bound
    candidates = [np.zeros(da)]
    if da == 2:
        for frac in (0.35, 0.7, 1.0):
            for ang in np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False):
                candidates.append(frac * bound * np.array([np.cos(ang), np.sin(ang)]))
    else:
        for frac in (0.35, 0.7, 1.0):
            for j in range(da):
                e = np.zeros(da)
                e[j] = frac * bound
                candidates.extend((e, -e))
    return np.stack(candidates)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row with ``np.linalg.norm``'s bits: one BLAS ddot per row."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])


def _greedy_action(critic: MlpCritic, states: np.ndarray, env: EnvSpec,
                   cand: np.ndarray) -> np.ndarray:
    """Best action per state over the grid ``cand``, refined by projected gradient ascent.

    ``states`` is ``(E, ds)``; the result is ``(E, da)``. The grid is one
    ``(E, len(cand), d)`` forward pass and each refinement round is one
    ``(E, 1, d)`` pass over the states still moving. matmul runs every 2-D
    slice as its own BLAS call (gemm, gemv or ddot), so each state gets
    exactly the bits of a search run on it alone; stacking the rows into
    one 2-D matrix would move them. The input gradient at the current point
    reuses that point's pass.
    """
    bound = env.action_bound
    n, ds = states.shape
    joint = np.empty((n, cand.shape[0], ds + cand.shape[1]))
    joint[:, :, :ds] = states[:, None, :]
    joint[:, :, ds:] = cand
    values = critic.forward_batch(joint)
    best_val = values.max(axis=1)
    a = cand[values.argmax(axis=1)]
    _, _, pres = critic._forward_cached(np.concatenate([states, a], axis=1)[:, None, :])
    step_len = np.full(n, 0.3 * bound)
    live = np.arange(n)  # states whose search is still moving; pres rows follow it
    for _ in range(8):
        grad_a = critic.input_gradient_cached(pres)[:, 0, ds:]
        norm = _row_norms(grad_a)
        moving = norm != 0.0
        if not moving.all():
            live, grad_a, norm = live[moving], grad_a[moving], norm[moving]
            pres = [z[moving] for z in pres]
            if live.size == 0:
                break
        trial = a[live] + step_len[live, None] * grad_a / norm[:, None]
        t_norm = _row_norms(trial)
        out = t_norm > bound
        trial[out] = trial[out] * (bound / t_norm[out])[:, None]
        value, _, trial_pres = critic._forward_cached(
            np.concatenate([states[live], trial], axis=1)[:, None, :])
        val = value[:, 0]
        better = val > best_val[live]
        won = live[better]
        best_val[won] = val[better]
        a[won] = trial[better]
        for z, trial_z in zip(pres, trial_pres):
            z[better] = trial_z[better]
        step_len[live[~better]] *= 0.5
    return a


def _eval_starts(env: EnvSpec, episodes: int, rng: np.random.Generator) -> np.ndarray:
    """The initial states of one evaluation, ``(episodes, ds)``, drawn one after another."""
    return np.stack([env.sample_initial_state(rng) for _ in range(episodes)])


def _eval_return(critic: MlpCritic, env: EnvSpec, starts: np.ndarray) -> float:
    """Mean greedy return of one rollout from each state of ``starts``, run in lockstep.

    The search and the dynamics draw nothing, so drawing every initial state
    first (``_eval_starts``) consumes the stream as one rollout after another.
    """
    cand = _action_grid(env)
    states = list(starts)
    ep = [0.0] * len(states)
    for _ in range(env.horizon):
        actions = _greedy_action(critic, np.stack(states), env, cand)
        for i, (s, a) in enumerate(zip(states, actions)):
            ep[i] += env.reward(s, a)
            states[i] = env.step(s, a)
    total = 0.0
    for ret in ep:  # not sum(): from Python 3.12 it compensates and moves the bits
        total += ret
    return total / len(ep)


def _checked_eval(critic: MlpCritic, env: EnvSpec, starts: np.ndarray, step: int) -> float:
    """``_eval_return``; NumericalError naming ``step`` if it is not finite."""
    ret = _eval_return(critic, env, starts)
    if not math.isfinite(ret):
        raise NumericalError(f"evaluation diverged: greedy return not finite at step {step}; "
                             f"lower env.box_radius or env.action_bound")
    return ret


# Pairs of at least this many doubles (N x D) split each refresh's EM and
# E-step work with the helper. Median ms per refresh, inline -> split, over
# 13 refreshes (a cold fit of 10 EM iterations, then warm fits of 3, and the
# full-data E-step), D = 32, one BLAS thread, 2 CPUs:
#   K = 5, probe 512:  N = 2000 7.08 -> 7.89, 3000 8.64 -> 9.37,
#                      4000 9.81 -> 9.79, 5000 11.9 -> 12.5, 10000 16.8 -> 15.4
#   K = 8, probe 1024: N = 2000 15.7 -> 13.8, 3000 17.9 -> 15.4,
#                      4000 20.1 -> 20.0, 5000 18.3 -> 16.0
#   K = 8, probe 2048: N = 10000 47.9 -> 40.7
# The gate's shape (N = 2000, K = 5, probe 512) ran slower split; it stays below.
_SPLIT_ELEMS = 131072


def _start_helper(cfg: TrainConfig, online: MlpCritic, x_all: np.ndarray):
    """A ``helper.Helper`` for the run's off-path work or large refreshes, if it trains,
    has such work, a second CPU and a process to spare; else None. A zero-step set-up
    runs its one refresh inline. Only a run that starts a helper imports that code."""
    if cfg.steps < 1:
        return None
    env = cfg.eval_env
    off_path = cfg.check_identities or (env is not None and cfg.eval_every < cfg.steps)
    d = _pair_dim(online, cfg.feature_mode)
    split = cfg.n_clusters > 1 and len(x_all) * d >= _SPLIT_ELEMS
    if not (off_path or split):
        return None
    from .workers import one_blas_thread, usable_cpus

    split = split and one_blas_thread()
    if usable_cpus() < 2 or not (off_path or split):
        return None
    from .helper import Helper

    try:
        return Helper(online, x_all, cfg, d if split else None)
    except OSError:  # no process or pipe to spare: the work runs inline
        return None


def train(dataset: OfflineDataset, cfg: TrainConfig,
          on_refresh=None) -> tuple[MlpCritic, list[MetricRecord]]:
    """Run the training loop and return the online critic with its metric log.

    Identical (dataset, cfg) pairs reproduce bit-identical logs. With
    n_clusters=1 batches are drawn uniformly from every row and no mixture
    is fit; with n_clusters > 1 the clusters are refit before every step
    that is a multiple of cfg.refresh_period, step 0 (even of a zero-step
    run) included, and ``on_refresh(step, mixture)`` is invoked after each
    refit. EM and cluster draws consume only their own random streams, so
    the (n_clusters, penalty_weight) arms of one seed share the initial
    critic, the batch stream and the evaluation starts. A non-finite
    objective, gradient or greedy return, or gradient pairs that are not
    finite or overflow EM, raise NumericalError naming the step.

    No step reads an identity check, nor an evaluation before the last step.
    Where the process may use two CPUs, a forked helper (``helper.Helper``) runs
    them beside the loop; the loop waits for it before each ``on_refresh``,
    before it raises and before it returns, and raises what an inline run
    would have raised first. With one BLAS thread and pairs of at least
    ``_SPLIT_ELEMS`` doubles, the helper also runs half of each refresh's
    per-component EM work. A zero-step run starts no helper. The outputs are
    the same bits either way.
    """
    if len(dataset) == 0:
        raise InputError("dataset must be nonempty")
    if cfg.n_clusters > len(dataset):
        raise InputError(f"train.n_clusters ({cfg.n_clusters}) must not exceed "
                         f"the dataset's {len(dataset)} rows")
    env = cfg.eval_env
    if env is not None and (env.ds, env.da) != (dataset.ds, dataset.da):
        raise InputError(f"env.ds and env.da ({env.ds}, {env.da}) must match the "
                         f"dataset's ({dataset.ds}, {dataset.da})")
    rngs = RngStreams.from_seed(cfg.seed)
    online = MlpCritic.init(dataset.ds + dataset.da, cfg.hidden, rngs.init)
    target = TargetCritic.of(online, cfg.ema_rate)
    mixture = None
    sampler = ClusterSampler(np.ones((len(dataset), 1)))
    visits = np.zeros(1)
    optimizer = _Sgd(cfg.learning_rate) if cfg.optimizer == "sgd" else _Adam(cfg.learning_rate)
    x_all, x_prime_all = dataset.joint_inputs()
    metrics = []
    # guard counters: draws that hit an empty cluster, worst identity residual
    zero_mass_redraws = 0
    identity_residual_max = 0.0

    clustered = cfg.n_clusters > 1
    helper = _start_helper(cfg, online, x_all)  # forked while this process is still small
    split = gmm.INLINE if helper is None or helper.shared is None else helper
    try:
        for step in range(cfg.steps + 1):
            if clustered and step % cfg.refresh_period == 0:
                # the old sampler's K x N CDFs need not sit beside the new ones;
                # the old mixture stays, as EM's warm start
                sampler = None
                try:
                    mixture, sampler = refresh_clusters(online, target.net, x_all, x_prime_all,
                                                        cfg, rngs.em, mixture, split)
                except NumericalError as exc:
                    raise NumericalError(f"{exc} at step {step}") from None
                visits = np.zeros(cfg.n_clusters)
                if on_refresh is not None:
                    if helper is not None:
                        helper.drain()  # no snapshot after a step that failed
                    on_refresh(step, mixture)
            if step == 0:  # step 0 is the first refresh alone
                continue
            z = 0
            if clustered:
                z = gmm.sample_cluster(mixture, rngs.cluster)
                while sampler.mass[z] <= 0.0:
                    zero_mass_redraws += 1
                    z = gmm.sample_cluster(mixture, rngs.cluster)
            idx = sampler.draw(z, cfg.batch_size, rngs.batch)
            eval_ret = None
            # a diverging run is reported once, by the checks below, not by a
            # RuntimeWarning from every operation that overflows on the way
            with np.errstate(over="ignore", invalid="ignore"):
                rep = _objective_report(online, target.net, x_all[idx], x_prime_all[idx],
                                        dataset.r[idx], dataset.done[idx], cfg)
                if not (math.isfinite(rep.objective) and np.all(np.isfinite(rep.grads))):
                    raise NumericalError(f"training diverged: objective or gradient "
                                         f"not finite at step {step}")
                if cfg.check_identities:
                    if helper is None:
                        identity_residual_max = max(identity_residual_max, _check_step_identities(
                            rep.delta, online, rep.acts, rep.pres))
                    else:
                        helper.check(step, online.flat, idx, rep.delta)
                optimizer.apply(online.flat, rep.grads)
                target.update(online)
                if env is not None and (step % cfg.eval_every == 0 or step == cfg.steps):
                    starts = _eval_starts(env, cfg.eval_episodes, rngs.eval)
                    if helper is None or step == cfg.steps:
                        eval_ret = _checked_eval(online, env, starts, step)
                    else:
                        helper.evaluate(step, online.flat, starts)
            visits[z] += 1
            metrics.append(MetricRecord(
                step=step, td_loss=rep.td, penalty=rep.penalty_part,
                objective=rep.objective, tr_n_sample_convention=rep.tr_n,
                active_cluster=z, cluster_occupancy_entropy=_occupancy_entropy(visits),
                eval_return=eval_ret))
        if helper is not None:
            helper.drain()
    except Exception:
        if helper is not None:
            helper.drain()  # a failure of an earlier step in the helper comes first
        raise
    finally:
        if helper is not None:
            helper.close()
    if helper is not None:
        for step, ret in helper.returns.items():
            metrics[step - 1].eval_return = ret
        identity_residual_max = max(identity_residual_max, helper.residual_max)
    return online, metrics


def metrics_to_csv(records: list[MetricRecord], path) -> None:
    """Write the metric log; zero records still produce the header row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
        for rec in records:
            writer.writerow(rec.as_row())


def metrics_from_csv(path) -> list[dict]:
    """Rows as dicts with floats parsed; empty eval cells become None.

    Raises ParseError carrying the 1-based line number of the first
    malformed row (header is line 1); a non-finite number is malformed.
    """
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or tuple(reader.fieldnames) != METRIC_COLUMNS:
                raise ParseError(1, f"unexpected metrics header in {path}")
            for raw in reader:
                if None in raw or any(v is None for v in raw.values()):
                    raise ParseError(reader.line_num, "wrong number of fields")
                try:
                    row = {f.name: _CELLS[f.type][1](raw[f.name]) for f in fields(MetricRecord)}
                except ValueError as exc:
                    raise ParseError(reader.line_num, str(exc)) from exc
                rows.append(row)
    except UnicodeDecodeError as exc:
        raise FormatError(f"metrics {path} is not UTF-8 text: {exc}") from exc
    return rows
