"""Golden hashes: fixed commands must reproduce their outputs bit for bit.

The hashes gate any refactor that claims to compute the same thing. They
cover the metric log and the saved critic weights of four ``c4 train``
configs, the mixture snapshots the clustered runs write at every refresh (a
one-cluster run fits no mixture and writes none),
the report of ``c4 verify --suite all --seed 0`` (the only command that
reaches the policy module and the verify suites) and, apart, each of its
suites but the covariance one, so a change shows which suite moved; the
values the policy module's mixture checks return on fixed cases (verify
never reaches their Monte Carlo path), and one ``grad_cosine_report`` on a
fixed batch. Float
results depend on the numpy build and its BLAS kernels, so the values are
keyed by numpy version and the tests are skipped on a build they were not
recorded on.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from c4td.cli import main
from c4td.data import EnvSpec, generate, subsample
from c4td.diagnostics import grad_cosine_report
from c4td.gmm import GaussianMixture
from c4td.nets import MlpCritic
from c4td.policy import (GaussianDist, PenaltyCoeffs, mixture_bound_check,
                         unbiased_cluster_gradient_check)

RECORDED_NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"golden hashes were recorded with numpy {RECORDED_NUMPY}")

_ENV = {"n_modes": 3, "horizon": 12}
_DATA = {"n_trajectories": 12, "seed": 3}

CASES = {
    # c4 with Adam, per-step identity checks and greedy evaluation every 40 steps
    "c4_adam_checked_eval": (
        {"steps": 130, "hidden": [16, 16], "optimizer": "adam", "learning_rate": 0.01,
         "ema_rate": 0.05, "penalty_weight": 0.1, "n_clusters": 3, "refresh_period": 50,
         "batch_size": 32, "probe_size": 96, "em_max_iters": 10, "em_warm_iters": 3,
         "check_identities": True, "evaluate": True, "eval_every": 40,
         "eval_episodes": 2, "seed": 7},
        [],
        "",
    ),
    # the paired baseline (one cluster, no penalty): SGD, hidden (32, 32)
    "baseline_sgd_32": (
        {"steps": 150, "hidden": [32, 32], "optimizer": "sgd", "learning_rate": 0.05,
         "batch_size": 24, "check_identities": False, "evaluate": True,
         "eval_every": 75, "eval_episodes": 1, "seed": 5},
        ["--baseline"],
        "_baseline",
    ),
    # one cluster, a trace penalty, SGD and evaluation; the EM and feature-mode
    # settings apply only above one cluster
    "c4_k1_exact_trace_sgd": (
        {"steps": 120, "hidden": [16, 16], "optimizer": "sgd", "learning_rate": 0.05,
         "ema_rate": 0.05, "penalty_weight": 0.2, "penalty_trace_weight": 0.5,
         "n_clusters": 1, "feature_mode": "exact_input_grad", "refresh_period": 50,
         "batch_size": 24, "em_max_iters": 8, "em_warm_iters": 3,
         "check_identities": True, "evaluate": True, "eval_every": 60,
         "eval_episodes": 2, "seed": 11},
        [],
        "",
    ),
    # nine clusters on a 64-row probe: the warm fits reseed starved clusters,
    # and every row sum over the components takes numpy's eight-lane path
    "c4_k9_reseeding": (
        {"steps": 120, "hidden": [16, 16], "optimizer": "adam", "learning_rate": 0.01,
         "ema_rate": 0.05, "penalty_weight": 0.1, "n_clusters": 9, "refresh_period": 50,
         "batch_size": 24, "probe_size": 64, "em_max_iters": 12, "em_warm_iters": 4,
         "check_identities": False, "evaluate": False, "seed": 13},
        [],
        "",
    ),
}

GOLDEN = {
    "c4_adam_checked_eval": "05fedb60a76780e95c524e15b70e937d48a8d666d4776c2515c89221868df367",
    "baseline_sgd_32": "dc606d0e5a9d8198a8b8f9d1ce4e3a92b45da32790fb7908d319c457141ccb6c",
    "c4_k1_exact_trace_sgd": "bb0b45defc83aba68155994e33ff558e209119645b34d3d53993ff4929ece50a",
    "c4_k9_reseeding": "822e4e867fb15760e8a754971a78769c558934b0bacd06b5804e20e5d3d3ebc0",
}

GOLDEN_MIXTURES = {
    "c4_adam_checked_eval": "37f2216504119248cf528d3511b834e77c3074381a6efbec03c08fb3840df37a",
    "c4_k9_reseeding": "710b580aa420f7b2d888f112f589678e8f8ec3786ba9c3a20d848dcfa2ecb5f2",
}

GOLDEN_VERIFY_ALL_SEED0 = "420e2ef8b2889a5f580b4cc8659515be459e308a79dce284fa67f349b8a46dec"

# the suites of that report that do not reach covstats' SVD, each dumped as the report is
GOLDEN_VERIFY_SUITES_SEED0 = {
    "gmm": "30d170947d027f96dadf6ea2dc8fddd04e6aeff1debe9f3e1eef7e14a7ebf5ff",
    "theorem1": "f88eedd932b575c47e992a1dbe7c22e689081111a3e85f3ae26bef0f60635aef",
    "policy": "cee253bd64f59eb6dbfb151713190416450632f711812028431ef97135c2f36f",
}

GOLDEN_POLICY_CHECKS = "1073cc4c908a98a1770bf38ccee87025f4c30b1ec804e378fec235a31641fc15"

GOLDEN_COSINE_REPR = \
    "CosineReport(cos_var=0.7449617467316171, cos_mean_sq=0.9903117975562837)"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """case -> output directory of its ``c4 train`` run, each run once per module."""
    runs = {}
    for case, (train_section, flags, _) in CASES.items():
        tmp = tmp_path_factory.mktemp(case)
        out_dir = tmp / "out"
        config = tmp / "run.json"
        config.write_text(json.dumps({
            "out_dir": str(out_dir), "dataset": str(tmp / "data.jsonl"),
            "env": _ENV, "data": _DATA, "train": train_section}))
        assert main(["gen-data", "--config", str(config),
                     "--out", str(tmp / "data.jsonl")]) == 0
        assert main(["train", "--config", str(config), *flags]) == 0
        runs[case] = out_dir
    return runs


def _artifact_hash(out_dir, suffix: str) -> str:
    digest = hashlib.sha256()
    for name in (f"metrics{suffix}.csv", f"critic{suffix}.json"):
        digest.update((out_dir / name).read_bytes())
    return digest.hexdigest()


def _mixtures_hash(out_dir) -> str:
    """File names and contents of every refresh snapshot, in step order."""
    digest = hashlib.sha256()
    for path in sorted((out_dir / "mixtures").glob("refresh_*.json")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_training_artifacts_match_golden_hashes(case, trained):
    assert _artifact_hash(trained[case], CASES[case][2]) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_MIXTURES))
def test_mixture_snapshots_match_golden_hash(case, trained):
    assert len(list((trained[case] / "mixtures").glob("refresh_*.json"))) == 3
    assert _mixtures_hash(trained[case]) == GOLDEN_MIXTURES[case]


@pytest.mark.parametrize("case", sorted(set(CASES) - set(GOLDEN_MIXTURES)))
def test_one_cluster_runs_write_no_mixture_snapshots(case, trained):
    assert not (trained[case] / "mixtures").exists()


@pytest.fixture(scope="module")
def verify_all_seed0():
    """What ``c4 verify --suite all --seed 0`` prints, run once per module."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--suite", "all", "--seed", "0"]) == 0
    return out.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_all_report_matches_golden_hash(verify_all_seed0):
    assert _sha256(verify_all_seed0) == GOLDEN_VERIFY_ALL_SEED0


def test_verify_suites_match_their_golden_hashes(verify_all_seed0):
    suites = {r["suite"]: r for r in json.loads(verify_all_seed0)["suites"]}
    assert {name: _sha256(json.dumps(suites[name], indent=2, sort_keys=True))
            for name in GOLDEN_VERIFY_SUITES_SEED0} == GOLDEN_VERIFY_SUITES_SEED0


def test_grad_cosine_report_matches_golden_repr():
    data = generate(EnvSpec.with_circular_modes(3), n_trajectories=6, seed=11)
    batch = subsample(data, 48, seed=12)
    rng = np.random.default_rng(13)
    critic = MlpCritic.init(4, (12, 12), rng)
    target = MlpCritic.init(4, (12, 12), rng)
    assert repr(grad_cosine_report(critic, target, batch, gamma=0.97)) == GOLDEN_COSINE_REPR


def _behavior(weights, means, covs):
    """The behavior mixture over actions that the policy checks take."""
    return GaussianMixture(weights, means, covs)


def _behavior_case(rng, dim, k, zero=()):
    """Policy and k-component behavior in ``dim`` dimensions; weights at ``zero`` are 0.

    Every component covariance exceeds half the policy's, so each chi-square is finite.
    """
    weights = rng.uniform(0.2, 1.0, size=k)
    weights[list(zero)] = 0.0
    weights /= weights.sum()
    means = rng.normal(size=(k, dim))
    covs = []
    for _ in range(k):
        a = rng.standard_normal((dim, dim))
        covs.append(a @ a.T / dim + rng.uniform(0.3, 1.0) * np.eye(dim))
    policy = GaussianDist(rng.normal(scale=0.3, size=dim),
                          rng.uniform(0.05, 0.25) * np.eye(dim))
    return policy, _behavior(weights, means, covs)


def _policy_check_results():
    """float.hex of every value the mixture checks return on 30 fixed cases."""
    rng = np.random.default_rng(2610)
    out, cases = [], []

    def record(*values):
        cases.append(len(values))
        out.extend(float(v).hex() for v in np.concatenate([np.ravel(v) for v in values]))

    # 1-D: quadrature for kl and chi2, the exact grid for mse; then a zero
    # weight, and a single live component
    for zero in ((), (), (1,), (0, 2)):
        policy, behavior = _behavior_case(rng, 1, 3, zero)
        for divergence in ("kl", "chi2", "mse"):
            record(*mixture_bound_check(policy, behavior, divergence))
    # 2-D and 3-D Monte Carlo, one draw stream per case; one 2-D mse grid
    for trial, (dim, zero) in enumerate(((2, ()), (2, (1,)), (2, (0, 2)), (3, ()), (3, (2,)),
                                           (3, (0, 1)))):
        policy, behavior = _behavior_case(rng, dim, 3, zero)
        for divergence in ("kl", "chi2"):
            record(*mixture_bound_check(policy, behavior, divergence, n_mc=4000,
                                        rng=np.random.default_rng(300 + trial)))
        if trial == 0:
            record(*mixture_bound_check(policy, behavior, "mse"))
    # sampled-cluster gradients against the weighted full gradient
    coeffs = PenaltyCoeffs(alpha=0.3, beta_kl=0.7, gamma=0.9)
    for trial, (dim, zero) in enumerate(((1, ()), (1, (2,)), (2, (1,)), (2, (0, 3)),
                                           (3, ()))):
        policy, behavior = _behavior_case(rng, dim, 4, zero)
        record(*unbiased_cluster_gradient_check(
            policy, behavior, coeffs, n_trials=2000, rng=np.random.default_rng(400 + trial),
            q_linear=rng.normal(size=dim)))
    assert len(cases) == 30
    return out


def test_policy_mixture_checks_match_golden_hash():
    results = "\n".join(_policy_check_results())
    assert hashlib.sha256(results.encode()).hexdigest() == GOLDEN_POLICY_CHECKS
