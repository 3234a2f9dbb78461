"""Golden hashes: fixed ``c4 train`` configs must reproduce their artifacts bit for bit.

The hashes were recorded before the step loop was fused and gate any
refactor that claims to compute the same thing. They cover the metric log
and the saved critic weights together. Float results depend on the numpy
build and its BLAS kernels, so the hashes are keyed by numpy version and the
test is skipped on a build it was not recorded on.
"""

import hashlib
import json

import numpy as np
import pytest

from c4td.cli import main

RECORDED_NUMPY = "2.4.6"

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


def _artifact_hash(out_dir, suffix: str) -> str:
    digest = hashlib.sha256()
    for name in (f"metrics{suffix}.csv", f"critic{suffix}.json"):
        digest.update((out_dir / name).read_bytes())
    return digest.hexdigest()


@pytest.mark.skipif(np.__version__ != RECORDED_NUMPY,
                    reason=f"golden hashes were recorded with numpy {RECORDED_NUMPY}")
@pytest.mark.parametrize("case", sorted(CASES))
def test_training_artifacts_match_golden_hashes(case, tmp_path, capsys):
    train_section, flags, suffix = CASES[case]
    out_dir = tmp_path / "out"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "out_dir": str(out_dir), "dataset": str(tmp_path / "data.jsonl"),
        "env": _ENV, "data": _DATA, "train": train_section}))
    assert main(["gen-data", "--config", str(config),
                 "--out", str(tmp_path / "data.jsonl")]) == 0
    assert main(["train", "--config", str(config), *flags]) == 0
    capsys.readouterr()
    assert _artifact_hash(out_dir, suffix) == GOLDEN[case]
