"""Golden hashes: fixed commands must reproduce their outputs bit for bit.

The hashes gate any refactor that claims to compute the same thing. They
cover the metric log and the saved critic weights of two ``c4 train``
configs, the mixture snapshots the c4 run writes at every cluster refresh,
the report of ``c4 verify --suite all --seed 0`` (the only command that
reaches the policy module and the verify suites), and one
``grad_cosine_report`` on a fixed batch. Float results depend on the numpy
build and its BLAS kernels, so the values are keyed by numpy version and the
tests are skipped on a build they were not recorded on.
"""

import hashlib
import json

import numpy as np
import pytest

from c4td.cli import main
from c4td.data import EnvSpec, generate, subsample
from c4td.diagnostics import grad_cosine_report
from c4td.nets import MlpCritic

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
    # the paired baseline: uniform batches, no penalty, SGD, hidden (32, 32)
    "baseline_sgd_32": (
        {"steps": 150, "hidden": [32, 32], "optimizer": "sgd", "learning_rate": 0.05,
         "batch_size": 24, "check_identities": False, "evaluate": True,
         "eval_every": 75, "eval_episodes": 1, "seed": 5},
        ["--baseline"],
        "_baseline",
    ),
}

GOLDEN = {
    "c4_adam_checked_eval": "05fedb60a76780e95c524e15b70e937d48a8d666d4776c2515c89221868df367",
    "baseline_sgd_32": "dc606d0e5a9d8198a8b8f9d1ce4e3a92b45da32790fb7908d319c457141ccb6c",
}

GOLDEN_MIXTURES = {
    "c4_adam_checked_eval": "37f2216504119248cf528d3511b834e77c3074381a6efbec03c08fb3840df37a",
}

GOLDEN_VERIFY_ALL_SEED0 = "82752cb72323b912d4f828cc9271ae32112d9d7ead8ec941ac0eb69d9c165d89"

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


def test_verify_all_report_matches_golden_hash(capsys):
    capsys.readouterr()
    assert main(["verify", "--suite", "all", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY_ALL_SEED0


def test_grad_cosine_report_matches_golden_repr():
    data = generate(EnvSpec.with_circular_modes(3), n_trajectories=6, seed=11)
    batch = subsample(data, 48, seed=12)
    rng = np.random.default_rng(13)
    critic = MlpCritic.init(4, (12, 12), rng)
    target = MlpCritic.init(4, (12, 12), rng)
    assert repr(grad_cosine_report(critic, target, batch, gamma=0.97)) == GOLDEN_COSINE_REPR
