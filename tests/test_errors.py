"""The one value rule: every entry point checks its scalar arguments with errors.check_fields."""

import math
import sys

import numpy as np
import pytest

from c4td import gmm
from c4td.data import EnvSpec, generate, subsample
from c4td.diagnostics import PerturbSpec, direct_var_delta, estimate_abc, grad_cosine_report
from c4td.covstats import penalty
from c4td.errors import InputError, check_fields, is_kind, is_number
from c4td.nets import MlpCritic, TargetCritic, ema_update
from c4td.policy import (GaussianDist, PenaltyCoeffs, chi2_inflation_at_optimum,
                         cql_global_lower_bound, kappa_star, kappa_star_pearson_closed_form,
                         lambert_w, mixture_bound_check, unbiased_cluster_gradient_check)

NAN, INF = math.nan, math.inf
_Y = np.random.default_rng(0).standard_normal((40, 2))
_COEFFS = PenaltyCoeffs(0.1, 0.2, 0.5)
_NET = MlpCritic.init(4, (4,), np.random.default_rng(0))
_BATCH = generate(EnvSpec(), 1).take(np.arange(8))
_SPEC = PerturbSpec(0.01, 0.01, 4)


# Each of these was accepted, returned nan, or raised TypeError or NumericalError.
@pytest.mark.parametrize("call, name", [
    (lambda: PenaltyCoeffs(NAN, 0.1, 0.5), "alpha"),
    (lambda: PenaltyCoeffs(INF, 0.1, 0.5), "alpha"),
    (lambda: PenaltyCoeffs(True, 0.0, 0.5), "alpha"),
    (lambda: PerturbSpec(NAN, 0.1, 10), "k"),
    (lambda: PerturbSpec(0.1, 0.1, 2.5), "n_directions"),
    (lambda: gmm.fit(_Y, 2, max_iters=NAN), "max_iters"),
    (lambda: gmm.fit(_Y, 2, max_iters=2.5), "max_iters"),
    (lambda: gmm.fit(_Y, 2, tol=NAN), "tol"),
    (lambda: gmm.fit(_Y, 2.5), "k"),
    (lambda: MlpCritic.init(3, (2.5,)), "hidden"),
    (lambda: cql_global_lower_bound(1.0, NAN, 0.1, 0.5), "sup_chi2"),
    (lambda: kappa_star(INF, _COEFFS), "r_curvature"),
    (lambda: lambert_w(INF), "z"),
    (lambda: estimate_abc(_NET, _NET, _BATCH, _SPEC, NAN, np.random.default_rng(0)), "gamma"),
    (lambda: direct_var_delta(_NET, _NET, _BATCH, _SPEC, NAN, np.random.default_rng(0)),
     "gamma"),
    (lambda: grad_cosine_report(_NET, _NET, _BATCH, NAN), "gamma"),
    (lambda: penalty(np.eye(2), NAN), "trace_weight"),
    (lambda: penalty(np.eye(2), INF), "trace_weight"),
    (lambda: ema_update(_NET.copy(), _NET, NAN), "rate"),
    (lambda: ema_update(_NET.copy(), _NET, True), "rate"),
], ids=["coeffs-nan", "coeffs-inf", "coeffs-bool", "perturb-nan", "perturb-fraction",
        "fit-iters-nan", "fit-iters-fraction", "fit-tol-nan", "fit-k-fraction",
        "init-width-fraction", "cql-nan", "kappa-inf", "lambert-inf", "abc-gamma-nan",
        "direct-gamma-nan", "cosine-gamma-nan", "penalty-weight-nan", "penalty-weight-inf",
        "ema-rate-nan", "ema-rate-bool"])
def test_values_once_let_through_raise_input_error_naming_the_argument(call, name):
    with pytest.raises(InputError, match=rf"^{name} must be "):
        call()


def _mixture_1d():
    return gmm.GaussianMixture([0.5, 0.5], [[0.0], [1.0]], [[[1.0]], [[2.0]]])


@pytest.mark.parametrize("call, message", [
    (lambda: PenaltyCoeffs(-0.1, 0.2, 0.5), "alpha must be nonnegative, got -0.1"),
    (lambda: PenaltyCoeffs(0.1, 0.2, 1.0), "gamma must lie in [0, 1), got 1.0"),
    (lambda: PenaltyCoeffs(0.0, 0.0, 0.5), "at least one of alpha, beta_kl must be positive"),
    (lambda: lambert_w(0.0), "z must be positive, got 0.0"),
    (lambda: lambert_w(True), "z must be a finite number, got True"),
    (lambda: kappa_star(-1.0, _COEFFS), "r_curvature must be positive, got -1.0"),
    (lambda: kappa_star_pearson_closed_form(1.0, 0.0, 0.5), "alpha must be positive, got 0.0"),
    (lambda: kappa_star_pearson_closed_form(1.0, 0.1, -0.1), "gamma must lie in [0, 1)"),
    (lambda: kappa_star_pearson_closed_form(NAN, 0.1, 0.5),
     "r_curvature must be a finite number, got nan"),
    (lambda: chi2_inflation_at_optimum(1.0, PenaltyCoeffs(0.0, 1.0, 0.5)),
     "coeffs.alpha must be positive, got 0.0"),
    (lambda: cql_global_lower_bound(INF, 0.5, 0.1, 0.5), "expected_q must be a finite number"),
    (lambda: cql_global_lower_bound(1.0, 0.5, -0.1, 0.5), "alpha must be nonnegative"),
    (lambda: mixture_bound_check(GaussianDist([0.0], [[1.0]]), _mixture_1d(), "hellinger"),
     "divergence must be one of ('kl', 'chi2', 'mse'), got 'hellinger'"),
    (lambda: mixture_bound_check(GaussianDist([0.0], [[1.0]]), _mixture_1d(), 3),
     "divergence must be a string, got 3"),
    (lambda: mixture_bound_check(GaussianDist([0.0], [[1.0]]), _mixture_1d(), "kl", n_mc=1),
     "n_mc must be at least 2, got 1"),
    (lambda: mixture_bound_check(GaussianDist([0.0], [[1.0]]), _mixture_1d(), "kl", n_mc=True),
     "n_mc must be an integer, got True"),
    (lambda: mixture_bound_check(GaussianDist([0.0], [[1.0]]), _mixture_1d(), "kl",
                                 quad_tol=NAN),
     "quad_tol must be a finite number, got nan"),
    (lambda: unbiased_cluster_gradient_check(GaussianDist([0.0], [[1.0]]), _mixture_1d(),
                                             _COEFFS, 10, np.random.default_rng(0)),
     "n_trials must be at least 1000, got 10"),
    (lambda: unbiased_cluster_gradient_check(GaussianDist([0.0], [[1.0]]), _mixture_1d(),
                                             _COEFFS, 1000.5, np.random.default_rng(0)),
     "n_trials must be an integer, got 1000.5"),
    (lambda: PerturbSpec(0.1, -0.1, 10), "k_prime must be nonnegative, got -0.1"),
    (lambda: grad_cosine_report(_NET, _NET, _BATCH, 1.0), "gamma must lie in [0, 1), got 1.0"),
    (lambda: MlpCritic.init(0), "input_dim must be at least 1, got 0"),
    (lambda: MlpCritic.init(3, ()), "hidden must be a nonempty tuple of positive integers"),
    (lambda: TargetCritic(MlpCritic.init(3, (4,)), 0.0), "ema_rate must lie in (0, 1], got 0.0"),
    (lambda: TargetCritic(MlpCritic.init(3, (4,)), NAN), "ema_rate must be a finite number"),
    (lambda: ema_update(_NET.copy(), _NET, True), "rate must be a finite number, got True"),
    (lambda: penalty(np.eye(2), -0.1), "trace_weight must be nonnegative, got -0.1"),
    (lambda: gmm.fit(_Y, 0), "k must be at least 1, got 0"),
    (lambda: gmm.fit(_Y, 41), "need K <= N, got K=41, N=40"),
    (lambda: gmm.fit(_Y, 2, tol=-1.0), "tol must be nonnegative, got -1.0"),
    (lambda: gmm.fit(_Y, 2, seed=-1), "seed must be at least 0, got -1"),
    (lambda: gmm.fit(_Y, 2, seed=True), "seed must be an integer, got True"),
    (lambda: gmm.effective_clusters(_mixture_1d(), 1.0),
     "occupancy_threshold must lie in (0, 1), got 1.0"),
    (lambda: gmm.effective_clusters(_mixture_1d(), NAN),
     "occupancy_threshold must be a finite number, got nan"),
    (lambda: subsample(generate(EnvSpec(), 1), 0, 0), "n must be at least 1, got 0"),
    (lambda: subsample(generate(EnvSpec(), 1), 41, 0), "cannot take 41 of 40 transitions"),
    (lambda: subsample(generate(EnvSpec(), 1), 4, 0.5), "seed must be an integer, got 0.5"),
])
def test_every_entry_point_names_the_argument_it_rejects(call, message):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value).startswith(message)


def test_a_number_too_large_for_a_float_is_not_a_finite_number():
    with pytest.raises(InputError, match="^x must be a finite number"):
        check_fields({"x": 10 ** 400}, {"x": ("float",)})
    check_fields({"x": sys.float_info.max, "n": np.int64(3)}, {"x": ("float",), "n": ("int",)})


def test_the_json_predicates_take_no_bools():
    assert [is_number(v) for v in (1, 1.5, NAN, INF, 10 ** 400, True, "1", None)] == \
        [True, True, True, True, True, False, False, False]
    assert [is_kind("int", v) for v in (1, np.int64(1), 1.0, True)] == [True, True, False, False]
    assert [is_kind("bool", v) for v in (True, False, 0, 1)] == [True, True, False, False]
