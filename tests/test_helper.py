"""The train helper: identity checks and early evaluations in a forked process.

``train()`` forks one helper when the process may use two CPUs and the run has
work that no step reads: identity checks, or evaluations before its last step
(``train._start_helper``). These tests patch the usable CPUs to 1 and 2 and
require every output byte, and every failure, to be the same either way, with
no child process left behind.
"""

import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from c4td import cli
from c4td import train as train_module
from c4td.data import EnvSpec, generate
from c4td.errors import NumericalError
from c4td.gmm import mixture_to_json
from c4td.train import RngStreams, TrainConfig, _eval_starts, baseline_of, metrics_to_csv, train
from c4td.workers import fork

ENV = EnvSpec.with_circular_modes(3)
SMALL = generate(ENV, n_trajectories=10, seed=5)
GATE = generate(ENV, n_trajectories=50, seed=1)  # N = 2000, the gate's size

# the acceptance gate's shape: hidden (16, 16), batch 256, K = 5, probe 512, Adam
_GATE = dict(hidden=(16, 16), batch_size=256, n_clusters=5, probe_size=512,
             refresh_period=100, optimizer="adam", learning_rate=0.03, ema_rate=0.05,
             penalty_weight=0.1)
_SMALL = dict(hidden=(8, 8), batch_size=32, n_clusters=2, refresh_period=25,
              em_max_iters=10, em_warm_iters=3, eval_env=ENV, eval_episodes=2, seed=3)

# name -> (dataset, config, whether the run has work for a helper)
CASES = {
    "one_cluster_checked": (SMALL, TrainConfig(
        steps=60, **{**_SMALL, "n_clusters": 1}, check_identities=True, eval_every=25), True),
    "gate_shape_adam": (GATE, TrainConfig(
        steps=250, **_GATE, eval_env=ENV, eval_every=100, eval_episodes=4, seed=2), True),
    "sgd_hidden_32_32": (SMALL, TrainConfig(
        steps=80, **{**_SMALL, "hidden": (32, 32)}, optimizer="sgd", learning_rate=0.05,
        eval_every=30), True),
    "exact_input_grad": (SMALL, TrainConfig(
        steps=80, **_SMALL, feature_mode="exact_input_grad", eval_every=30), True),
    "eval_every_1": (SMALL, TrainConfig(steps=12, **_SMALL, eval_every=1), True),
    "eval_every_7_unchecked": (SMALL, TrainConfig(
        steps=30, **_SMALL, eval_every=7, check_identities=False), True),
    "eval_every_steps": (SMALL, TrainConfig(steps=40, **_SMALL, eval_every=40), True),
    "eval_every_past_steps": (SMALL, TrainConfig(steps=40, **_SMALL, eval_every=500), True),
    "eval_every_past_steps_unchecked": (SMALL, TrainConfig(
        steps=40, **_SMALL, eval_every=500, check_identities=False), False),
    "one_step": (SMALL, TrainConfig(steps=1, **_SMALL), True),
}


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _refuse_fork(monkeypatch):
    def fork():
        raise AssertionError("this run must not fork")

    monkeypatch.setattr(os, "fork", fork)


def _count_forks(monkeypatch) -> list:
    calls, real = [], os.fork

    def counting_fork():
        calls.append(None)
        return real()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _outputs(dataset, cfg, path: Path):
    """Every byte a run writes: its metrics CSV, its critic and each mixture snapshot."""
    snapshots = []
    critic, metrics = train(dataset, cfg, on_refresh=lambda step, mixture: snapshots.append(
        (step, mixture_to_json(mixture))))
    metrics_to_csv(metrics, path)
    return path.read_bytes(), critic.to_json(), snapshots


@pytest.mark.parametrize("name", CASES)
def test_the_helper_changes_no_output_byte(name, monkeypatch, tmp_path):
    dataset, cfg, has_work = CASES[name]
    with monkeypatch.context() as patch:
        _cpus(patch, 1)
        _refuse_fork(patch)
        inline = _outputs(dataset, cfg, tmp_path / "inline.csv")
    _cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    helped = _outputs(dataset, cfg, tmp_path / "helped.csv")
    assert len(forks) == has_work
    assert helped == inline
    _no_child_left()


# The decision to fork reads only the config: these stand for the benchmark's
# desk_pair (an evaluation at the last step alone, no identity checks) and
# em_refresh (no evaluation, no identity checks) and for any zero-step set-up.
NO_WORK = {
    "desk_pair": (GATE, TrainConfig(steps=60, **_GATE, eval_env=ENV, eval_every=5000,
                                    eval_episodes=8, check_identities=False)),
    "desk_pair_baseline": (GATE, baseline_of(TrainConfig(
        steps=60, **_GATE, eval_env=ENV, eval_every=5000, eval_episodes=8,
        check_identities=False))),
    "em_refresh": (GATE, TrainConfig(steps=50, **{**_GATE, "n_clusters": 8},
                                     check_identities=False)),
    "zero_steps": (SMALL, TrainConfig(steps=0, **_SMALL, eval_every=1)),
}


@pytest.mark.parametrize("name", NO_WORK)
def test_a_run_without_off_path_work_never_forks(name, monkeypatch):
    _cpus(monkeypatch, 2)
    _refuse_fork(monkeypatch)
    dataset, cfg = NO_WORK[name]
    _, metrics = train(dataset, cfg)
    assert len(metrics) == cfg.steps


def test_a_pipe_left_at_its_default_size_changes_no_output_byte(monkeypatch, tmp_path):
    dataset, cfg, _ = CASES["gate_shape_adam"]
    _cpus(monkeypatch, 2)
    widened = _outputs(dataset, cfg, tmp_path / "widened.csv")

    def refuse(*args):
        raise OSError("no pipe resizing here")

    monkeypatch.setattr(fcntl, "fcntl", refuse)
    assert _outputs(dataset, cfg, tmp_path / "default.csv") == widened


def test_the_pipe_to_a_worker_is_widened_to_the_system_maximum():
    try:
        limit = int(Path("/proc/sys/fs/pipe-max-size").read_text())
    except OSError:
        pytest.skip("the system publishes no pipe size limit")
    worker = fork(lambda inbox, outbox: outbox.write(b"up") and 0, inbound=True)
    try:
        assert worker.from_worker.read() == b"up"  # the worker widens it before its body
        assert fcntl.fcntl(worker.to_worker.fileno(), fcntl.F_GETPIPE_SZ) == limit
    finally:
        assert worker.reap() == 0
    _no_child_left()


def _cli_config(run_dir: Path, dataset: Path, **train_keys) -> Path:
    """A small clustered ``c4 train`` config: a refresh every 10 steps, an eval every 7."""
    cfg = {"out_dir": str(run_dir / "out"), "dataset": str(dataset),
           "env": {"n_modes": 3}, "data": {"n_trajectories": 6, "seed": 0},
           "train": {"steps": 60, "hidden": [8, 8], "refresh_period": 10, "batch_size": 16,
                     "n_clusters": 2, "em_max_iters": 10, "em_warm_iters": 3,
                     "eval_every": 7, "eval_episodes": 2, "seed": 1, **train_keys}}
    run_dir.mkdir(parents=True)
    config = run_dir / "run.json"
    config.write_text(json.dumps(cfg))
    if not dataset.exists():
        assert cli.main(["gen-data", "--config", str(config), "--out", str(dataset)]) == 0
    return config


def _cli_run(run_dir: Path, cpus: int, monkeypatch, capsys, **train_keys):
    """``c4 train`` at ``cpus`` usable CPUs: its exit code, its stderr, every file it wrote."""
    config = _cli_config(run_dir, run_dir.parent / "data.jsonl", **train_keys)
    capsys.readouterr()
    with monkeypatch.context() as patch:
        _cpus(patch, cpus)
        if cpus == 1:
            _refuse_fork(patch)
        code = cli.main(["train", "--config", str(config)])
    files = {str(p.relative_to(run_dir)): p.read_bytes()
             for p in sorted((run_dir / "out").rglob("*")) if p.is_file()}
    return code, capsys.readouterr().err, files


_REAL_SPLIT = train_module.second_moment_split


def _split_failing_at_call(monkeypatch, n):
    """Patches ``second_moment_split`` to raise on its n-th call in a process and every
    later one: from step n on, as every check of a run runs in one process."""
    real, calls = _REAL_SPLIT, []

    def split(*args):
        calls.append(None)
        if len(calls) >= n:
            raise NumericalError(f"split patched to fail at call {len(calls)}")
        return real(*args)

    monkeypatch.setattr(train_module, "second_moment_split", split)


@pytest.mark.parametrize("step", [1, 23, 60])
def test_a_failed_identity_check_fails_as_inline(step, tmp_path, monkeypatch, capsys):
    runs = []
    for cpus in (1, 2):
        _split_failing_at_call(monkeypatch, step)
        runs.append(_cli_run(tmp_path / f"cpus{cpus}", cpus, monkeypatch, capsys))
        _no_child_left()
    assert runs[1] == runs[0]
    code, err, files = runs[0]
    assert (code, err) == (2, f"error: split patched to fail at call {step}\n")
    # the snapshots of the refreshes up to the failing step, which come before its
    # check, and nothing after them
    assert sorted(files) == [f"out/mixtures/refresh_{s:06d}.json"
                             for s in range(0, step + 1, 10)]


@pytest.mark.parametrize("k", [2, 9])  # evaluations at steps 7, 14, ..., 56 and 60
def test_a_non_finite_evaluation_fails_as_inline(k, tmp_path, monkeypatch, capsys):
    # the k-th evaluation is found by its initial states, which the run draws in this
    # process whichever process runs the evaluation
    rng = RngStreams.from_seed(1).eval
    for _ in range(k):
        starts = _eval_starts(cli.build_env({"env": {"n_modes": 3}}), 2, rng)
    real = train_module._eval_return
    monkeypatch.setattr(train_module, "_eval_return", lambda critic, env, s: (
        float("nan") if np.array_equal(s, starts) else real(critic, env, s)))
    runs = [_cli_run(tmp_path / f"cpus{cpus}", cpus, monkeypatch, capsys) for cpus in (1, 2)]
    _no_child_left()
    assert runs[1] == runs[0]
    step = 7 * k if k < 9 else 60
    assert runs[0][:2] == (2, "error: evaluation diverged: greedy return not finite at "
                              f"step {step}; lower env.box_radius or env.action_bound\n")


def test_an_earlier_helper_failure_wins_over_a_later_divergence(tmp_path, monkeypatch, capsys):
    # one cluster: no refresh, so nothing waits for the helper before the divergence
    diverging = {"n_clusters": 1, "learning_rate": 1e6, "steps": 200, "evaluate": False}
    code, err, _ = _cli_run(tmp_path / "unchecked", 1, monkeypatch, capsys,
                            check_identities=False, **diverging)
    assert code == 2 and err.startswith("error: training diverged")
    assert not err.endswith("at step 1\n")
    for cpus in (1, 2):
        _split_failing_at_call(monkeypatch, 1)
        assert _cli_run(tmp_path / f"cpus{cpus}", cpus, monkeypatch, capsys, **diverging)[:2] \
            == (2, "error: split patched to fail at call 1\n")
        _no_child_left()


def test_a_helper_that_dies_raises_naming_its_status(monkeypatch):
    parent = os.getpid()

    def die(*args):
        if os.getpid() != parent:  # only ever the helper, never the test process
            os._exit(3)
        raise AssertionError("the identity check ran in the test process")

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(train_module, "second_moment_split", die)
    with pytest.raises(RuntimeError, match="^train helper exited with status 3$"):
        train(SMALL, TrainConfig(steps=60, **_SMALL))
    _no_child_left()


_IMPORTS = ("import json, os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from c4td import cli\n"
            "code = cli.main(['train', '--config', sys.argv[1]])\n"
            "print(json.dumps([code, 'c4td.helper' in sys.modules, 'c4td.workers' in sys.modules,\n"
            "                  'fcntl' in sys.modules]))\n")


@pytest.mark.parametrize("train_keys, loaded", [
    ({"check_identities": False, "evaluate": False}, False),  # as em_refresh
    ({"check_identities": False, "eval_every": 5000}, False),  # as desk_pair
    ({"steps": 0}, False),  # any set-up run
    ({}, True),
])
def test_train_loads_the_helper_code_only_when_a_helper_starts(train_keys, loaded, tmp_path):
    config = _cli_config(tmp_path / "run", tmp_path / "data.jsonl", **train_keys)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _IMPORTS, str(config)], env=env,
                         capture_output=True, text=True, timeout=120)
    # the helper widens its pipe itself, so the command's process never loads fcntl
    assert json.loads(out.stdout.splitlines()[-1]) == [0, loaded, loaded, False]
