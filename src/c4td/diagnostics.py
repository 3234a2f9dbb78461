"""Instrumentation for the perturbation-variance decomposition of TD residuals.

Estimates the three directional moments A, B, C whose combination
gamma^2 k'^2 A + k^2 B - 2 gamma k k' C approximates Var[delta] under random
input perturbations, and cross-checks them against a direct Monte-Carlo
variance that actually perturbs the inputs. Also reports the cosine geometry
of the second-moment gradient split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DISCOUNT, NONNEGATIVE, InputError, at_least, check_fields
from .nets import MlpCritic
from .train import bootstrap_targets, second_moment_split

# Keeps the (replicates x batch) perturbation tensor within a few MB.
_REPLICATE_CHUNK = 512
_GAMMA = {"gamma": DISCOUNT}


@dataclass(frozen=True)
class PerturbSpec:
    """Perturbation magnitudes and replicate count for directional probes.

    Directions are drawn uniformly on the unit sphere, one (w', w) pair per
    replicate, shared by every sample in the batch.
    """

    k: float
    k_prime: float
    n_directions: int

    def __post_init__(self):
        check_fields(vars(self), {"k": NONNEGATIVE, "k_prime": NONNEGATIVE,
                                  "n_directions": at_least(2)})


def default_perturb_spec(features: np.ndarray, n_directions: int = 1000) -> PerturbSpec:
    """Magnitudes at 0.01 of the mean per-dimension feature deviation."""
    k = 0.01 * float(np.mean(np.std(np.asarray(features, dtype=float), axis=0)))
    return PerturbSpec(k=k, k_prime=k, n_directions=n_directions)


@dataclass(frozen=True)
class AbcEstimate:
    """Directional variance terms and their composed variance value.

    A = Var<w', g'>, B = Var<w, g>, C = Cov(<w', g'>, <w, g>), all over the
    joint (sample, replicate) cloud; composed may go negative at finite
    replicate counts through the cross term.
    """

    a: float
    b: float
    c: float
    composed: float

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise InputError("variance terms must be nonnegative")


def _draw_directions(rng: np.random.Generator, n_directions: int,
                     dim: int) -> tuple[np.ndarray, np.ndarray]:
    """One (w', w) unit-direction pair per replicate, target side first.

    Both probe estimators call this, so handing them generators with the same
    seed makes their direction clouds identical draw for draw.
    """
    w_prime = rng.standard_normal((n_directions, dim))
    w = rng.standard_normal((n_directions, dim))
    w_prime /= np.linalg.norm(w_prime, axis=1, keepdims=True)
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return w_prime, w


def _batch_inputs(batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x, x_prime = batch.joint_inputs()
    return x, x_prime, np.asarray(batch.r, dtype=float)


def estimate_abc(critic: MlpCritic, target: MlpCritic, batch, spec: PerturbSpec,
                 gamma: float, rng: np.random.Generator) -> AbcEstimate:
    """Monte-Carlo directional moments of the TD residual's variance split.

    Projections p'_{ir} = <w'_r, grad Q'(x'_i)> and p_{ir} = <w_r, grad
    Q(x_i)> are pooled over samples and replicates jointly; A, B, C are the
    population moments of that pooled cloud.
    """
    check_fields(locals(), _GAMMA)
    if len(batch) < 2:
        raise InputError("need at least 2 transitions")
    x, x_prime, _ = _batch_inputs(batch)
    w_prime, w = _draw_directions(rng, spec.n_directions, x.shape[1])
    g_prime = target.input_gradient_batch(x_prime)
    g = critic.input_gradient_batch(x)
    proj_prime = (g_prime @ w_prime.T).ravel()
    proj = (g @ w.T).ravel()
    a = float(np.var(proj_prime))
    b = float(np.var(proj))
    c = float(np.mean(proj_prime * proj) - proj_prime.mean() * proj.mean())
    composed = (gamma * spec.k_prime) ** 2 * a + spec.k ** 2 * b \
        - 2.0 * gamma * spec.k * spec.k_prime * c
    return AbcEstimate(a=a, b=b, c=c, composed=composed)


def direct_var_delta(critic: MlpCritic, target: MlpCritic, batch,
                     spec: PerturbSpec, gamma: float,
                     rng: np.random.Generator) -> float:
    """Variance of the residual shift under actual input perturbations.

    Evaluates the networks at x + k w and x' + k' w' (no Taylor step),
    subtracts each sample's unperturbed residual so the base term drops out,
    and takes the population variance over the joint (sample, replicate)
    cloud. Rewards cancel in the differencing, so the result is invariant to
    constant reward shifts.
    """
    check_fields(locals(), _GAMMA)
    if len(batch) < 2:
        raise InputError("need at least 2 transitions")
    x, x_prime, _ = _batch_inputs(batch)
    w_prime, w = _draw_directions(rng, spec.n_directions, x.shape[1])
    q_base = critic.forward_batch(x)
    qp_base = target.forward_batch(x_prime)
    n = x.shape[0]
    shifts = np.empty(spec.n_directions * n)
    for start in range(0, spec.n_directions, _REPLICATE_CHUNK):
        wp_c = w_prime[start:start + _REPLICATE_CHUNK]
        w_c = w[start:start + _REPLICATE_CHUNK]
        reps = wp_c.shape[0]
        xp_pert = (x_prime[None, :, :] + spec.k_prime * wp_c[:, None, :]).reshape(-1, x.shape[1])
        x_pert = (x[None, :, :] + spec.k * w_c[:, None, :]).reshape(-1, x.shape[1])
        dq_prime = target.forward_batch(xp_pert).reshape(reps, n) - qp_base
        dq = critic.forward_batch(x_pert).reshape(reps, n) - q_base
        shifts[start * n:(start + reps) * n] = (gamma * dq_prime - dq).ravel()
    return float(np.var(shifts))


class CosineReport(NamedTuple):
    """Cosines of the second-moment gradient against its two components.

    nan marks an undefined cosine (one of the gradients has zero norm).
    """

    cos_var: float
    cos_mean_sq: float


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return math.nan
    return float(u @ v) / (nu * nv)


def grad_cosine_report(critic: MlpCritic, target: MlpCritic, batch,
                       gamma: float) -> CosineReport:
    """Parameter-space cosine split of grad E[delta^2].

    The split and its identity checks are ``train.second_moment_split``, run
    on one forward pass of the critic with delta = Q - y. Flipping the sign
    of delta flips all three gradients together, so the cosines do not
    depend on the convention.
    """
    check_fields(locals(), _GAMMA)
    if len(batch) < 2:
        raise InputError("need at least 2 transitions")
    x, x_prime, r = _batch_inputs(batch)
    values, acts, pres = critic._forward_cached(critic._check_batch(x))
    delta = values - bootstrap_targets(r, batch.done, target.forward_batch(x_prime), gamma)
    split = second_moment_split(critic, acts, pres, delta)
    return CosineReport(cos_var=_cosine(split.grad_sq, split.grad_var),
                        cos_mean_sq=_cosine(split.grad_sq, split.grad_mean_sq))

