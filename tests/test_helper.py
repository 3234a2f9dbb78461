"""The train helper: identity checks, early evaluations and half of a large
refresh's EM work in a forked process.

``train()`` forks one helper when the process may use two CPUs and the run
trains and has work that no step reads, identity checks or evaluations before
its last step, or refreshes of at least ``train._SPLIT_ELEMS`` pair elements
(``train._start_helper``). These tests patch the usable CPUs to 1 and 2 and
require every output byte, and every failure, to be the same either way, with
no child process and no shared mapping left behind.
"""

import fcntl
import functools
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from c4td import cli, gmm, workers
from c4td import helper as helper_module
from c4td import train as train_module
from c4td.data import EnvSpec, generate, save_jsonl
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
# the benchmark's em_refresh shape: N = 10000, K = 8, probe 2048, EM to its cap
_EM = dict(hidden=(16, 16), batch_size=256, n_clusters=8, probe_size=2048, refresh_period=25,
           optimizer="adam", learning_rate=0.03, ema_rate=0.05, penalty_weight=0.1,
           em_tol=0.0, em_max_iters=10, em_warm_iters=3, check_identities=False, seed=3)


class _EmData:
    """The em_refresh shape's dataset, generated on first use (about 0.3 s)."""

    @functools.cached_property
    def dataset(self):
        return generate(ENV, n_trajectories=250, seed=5)


_EM_DATA = _EmData()

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
    # no checks and no evaluations, but refreshes past the size rule: the helper
    # runs half of their EM and E-step work (the dataset is made on first use)
    "em_refresh_shape": (None, TrainConfig(steps=50, **_EM), True),
}


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    # as under the benchmark's BLAS variables; pytest's own pool is left as it is
    monkeypatch.setattr(workers, "one_blas_thread", lambda: True)


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


def _count_splits(monkeypatch) -> list:
    """Records the name of each per-component job that the helper shares."""
    calls, real = [], helper_module.Helper.each_component

    def counting(self, fn, *args):
        calls.append(fn.__name__)
        return real(self, fn, *args)

    monkeypatch.setattr(helper_module.Helper, "each_component", counting)
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


def _case(name):
    dataset, cfg, has_work = CASES[name]
    return (_EM_DATA.dataset if dataset is None else dataset), cfg, has_work


@pytest.mark.parametrize("name", CASES)
def test_the_helper_changes_no_output_byte(name, monkeypatch, tmp_path):
    dataset, cfg, has_work = _case(name)
    with monkeypatch.context() as patch:
        _cpus(patch, 1)
        _refuse_fork(patch)
        inline = _outputs(dataset, cfg, tmp_path / "inline.csv")
    _cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    splits = _count_splits(monkeypatch)
    helped = _outputs(dataset, cfg, tmp_path / "helped.csv")
    assert len(forks) == has_work
    # only the em_refresh shape is past the size rule; the gate's shape and
    # checked_eval's (gate_shape_adam) keep every refresh inline
    assert bool(splits) == (name == "em_refresh_shape")
    assert helped == inline
    _no_child_left()


# The decision to fork reads only the config and the pairs' size: these stand
# for the benchmark's desk_pair (an evaluation at the last step alone, no
# identity checks, N = 2000) and for a gate-shape run with no evaluation and no
# identity checks at K = 8, whose refreshes are below the size rule, and for
# zero-step set-ups, which run their one refresh inline at any size: a small
# one, one with the size rule patched down to 1 element (name ending "_split")
# and one at em_refresh's shape (the dataset is made on first use).
NO_WORK = {
    "desk_pair": (GATE, TrainConfig(steps=60, **_GATE, eval_env=ENV, eval_every=5000,
                                    eval_episodes=8, check_identities=False)),
    "desk_pair_baseline": (GATE, baseline_of(TrainConfig(
        steps=60, **_GATE, eval_env=ENV, eval_every=5000, eval_episodes=8,
        check_identities=False))),
    "gate_shape_k8_unchecked": (GATE, TrainConfig(steps=50, **{**_GATE, "n_clusters": 8},
                                                  check_identities=False)),
    "zero_steps": (SMALL, TrainConfig(steps=0, **_SMALL, eval_every=1)),
    "zero_steps_split": (SMALL, TrainConfig(steps=0, **_SMALL)),
    "zero_steps_em_refresh_shape": (None, TrainConfig(steps=0, **_EM)),
}


@pytest.mark.parametrize("name", NO_WORK)
def test_a_run_without_off_path_work_never_forks(name, monkeypatch):
    _cpus(monkeypatch, 2)
    _refuse_fork(monkeypatch)
    dataset, cfg = NO_WORK[name]
    if name.endswith("_split"):
        monkeypatch.setattr(train_module, "_SPLIT_ELEMS", 1)
    _, metrics = train(_EM_DATA.dataset if dataset is None else dataset, cfg)
    assert len(metrics) == cfg.steps


def test_the_gate_shape_is_below_the_size_rule():
    # the pairs of a gate-shape refresh: N = 2000 rows of D = 2 x 16
    assert len(GATE) * 32 < train_module._SPLIT_ELEMS <= len(_EM_DATA.dataset) * 32


def _counting_reseeds(monkeypatch) -> list:
    """Patches ``gmm.fit``, which runs in the loop, to record each fit's reseeds."""
    reseeds, real = [], gmm.fit

    def fit(*args, **kwargs):
        result = real(*args, **kwargs)
        reseeds.append(result.n_reseeds)
        return result

    monkeypatch.setattr(gmm, "fit", fit)
    return reseeds


# Run with the size rule patched down to 1 element, so every refresh splits its
# per-component work with the helper: odd and even K, reseeds (K = 9 on 240
# rows), input-gradient features, no probe or a small one, and identity checks
# and evaluations sharing the helper with the split.
SPLIT = {
    "k2_no_probe_checked": (SMALL, TrainConfig(steps=60, **_SMALL, eval_every=25)),
    # the E-step's full table reaches past EM's arrays, as at any small probe
    "k8_probe_40": (SMALL, TrainConfig(steps=60, **{**_SMALL, "n_clusters": 8}, probe_size=40,
                                       check_identities=False)),
    "k3_probe_unchecked": (SMALL, TrainConfig(
        steps=60, **{**_SMALL, "n_clusters": 3, "eval_env": None}, probe_size=100,
        check_identities=False)),
    "k9_reseeding": (SMALL, TrainConfig(steps=60, **{**_SMALL, "n_clusters": 9},
                                        eval_every=20)),
    "exact_input_grad_k4": (SMALL, TrainConfig(
        steps=60, **{**_SMALL, "n_clusters": 4}, feature_mode="exact_input_grad",
        eval_every=30)),
    "gate_shape_adam_k5": (GATE, TrainConfig(
        steps=150, **_GATE, eval_env=ENV, eval_every=100, eval_episodes=4, seed=2)),
}


@pytest.mark.parametrize("name", SPLIT)
def test_a_forced_split_changes_no_output_byte(name, monkeypatch, tmp_path):
    dataset, cfg = SPLIT[name]
    monkeypatch.setattr(train_module, "_SPLIT_ELEMS", 1)
    with monkeypatch.context() as patch:
        _cpus(patch, 1)
        _refuse_fork(patch)
        inline = _outputs(dataset, cfg, tmp_path / "inline.csv")
    _cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    splits = _count_splits(monkeypatch)
    reseeds = _counting_reseeds(monkeypatch)
    assert _outputs(dataset, cfg, tmp_path / "split.csv") == inline
    assert len(forks) == 1
    assert {"gaussian_logpdf", "_covariances"} <= set(splits)
    if name == "k9_reseeding":
        assert sum(reseeds) > 0
    _no_child_left()


def _recording_sends(monkeypatch) -> list:
    """Records every message the loop sends to its helper."""
    sent, real = [], workers.Worker.send

    def send(self, message):
        sent.append(message)
        real(self, message)

    monkeypatch.setattr(workers.Worker, "send", send)
    return sent


def _recording_layouts(monkeypatch) -> list:
    """Records the arguments and result of each ``helper._layout`` call."""
    layouts, real = [], helper_module._layout

    def layout(cfg, n, d):
        layouts.append((cfg, n, d, real(cfg, n, d)))
        return layouts[-1][-1]

    monkeypatch.setattr(helper_module, "_layout", layout)
    return layouts


def _check_mapping_holds_only_the_refresh(cfg, n, d, layout):
    """The mapping holds the pairs, then the full table or EM's table, probe rows and
    covariances over it, each slot starting on a 64-byte line."""
    lines = helper_module._lines
    k, rows = cfg.n_clusters, n if cfg.probe_size is None else min(cfg.probe_size, n)
    assert set(layout) == {"pairs", "table", "probe", "covs"}
    assert max(start + size for start, size in layout.values()) <= lines(n * d) + max(
        lines(k * n), lines(k * rows) + lines(rows * d) + lines(k * d * d))


@pytest.mark.parametrize("name", ["k2_no_probe_checked", "k8_probe_40", "k9_reseeding"])
def test_a_split_job_sends_places_and_raw_bytes_not_pickled_arrays(name, monkeypatch):
    dataset, cfg = SPLIT[name]
    monkeypatch.setattr(train_module, "_SPLIT_ELEMS", 1)
    _cpus(monkeypatch, 2)
    sent, layouts = _recording_sends(monkeypatch), _recording_layouts(monkeypatch)
    train(dataset, cfg)
    _no_child_left()
    forms = set()
    for message in sent:
        assert b"numpy" not in pickle.dumps(message)  # nor any other numpy object
        kind, _, *args = message
        for arg in args if kind == helper_module._SPLIT else ():
            if len(arg) == 3:  # the helper's view of the mapping
                offset, shape, strides = arg
                assert all(type(v) is int for v in (offset, *shape, *strides))
            else:  # an input that lies outside it
                shape, data = arg
                assert type(data) is bytes and len(data) == 8 * math.prod(shape)
            forms.add(len(arg))
    assert forms == {2, 3}  # the pairs and tables as places, the means as bytes
    [(cfg, n, d, layout)] = layouts
    _check_mapping_holds_only_the_refresh(cfg, n, d, layout)


@pytest.mark.parametrize("n, d, k, probe", [
    (10000, 32, 8, 2048),  # em_refresh's shape
    (2000, 32, 5, 512),  # the gate's
    (240, 16, 9, None),
    (240, 16, 2, 1000),  # a probe larger than the data
    (240, 16, 8, 40),  # the full table past EM's arrays
])
def test_the_shared_mapping_holds_only_a_refreshs_arrays(n, d, k, probe):
    cfg = TrainConfig(steps=1, **{**_SMALL, "n_clusters": k}, probe_size=probe)
    _check_mapping_holds_only_the_refresh(cfg, n, d, helper_module._layout(cfg, n, d))


@pytest.mark.parametrize("rate, message", [
    (1e6, "objective or gradient not finite at step 24"),
    (1e20, "gradient pairs not finite or too large for EM at step 3")])
def test_a_split_run_that_diverges_fails_as_inline(rate, message, monkeypatch):
    # with the helper mid-run and its arrays mapped: in the loop, or in a refresh
    monkeypatch.setattr(train_module, "_SPLIT_ELEMS", 1)
    cfg = TrainConfig(steps=60, **{**_SMALL, "refresh_period": 1, "eval_env": None},
                      learning_rate=rate, check_identities=False)
    errors = []
    for cpus in (1, 2):
        with monkeypatch.context() as patch:
            _cpus(patch, cpus)
            forks = _count_forks(patch)
            with pytest.raises(NumericalError) as caught:
                train(SMALL, cfg)
            errors.append(str(caught.value))
            assert len(forks) == cpus - 1
        _no_child_left()
    assert errors == [f"training diverged: {message}"] * 2


def _raising_in(monkeypatch, name, where, raised):
    """Patches ``gmm.<name>`` to raise ``raised`` in the helper, in the test process or
    in both (``where``), and otherwise run."""
    parent, real = os.getpid(), getattr(gmm, name)

    @functools.wraps(real)  # the helper finds a job's function by its name
    def patched(*args):
        if where in ("both", "helper" if os.getpid() != parent else "loop"):
            raise raised
        return real(*args)

    monkeypatch.setattr(gmm, name, patched)


@pytest.mark.parametrize("name", ["gaussian_logpdf", "_covariances"])
@pytest.mark.parametrize("where", ["both", "helper", "loop"])
def test_a_split_job_that_raises_fails_the_run(name, where, monkeypatch):
    monkeypatch.setattr(train_module, "_SPLIT_ELEMS", 1)
    _cpus(monkeypatch, 2)
    _raising_in(monkeypatch, name, where, ValueError(f"{name} patched to fail"))
    with pytest.raises(ValueError, match=f"^{name} patched to fail$"):
        train(SMALL, TrainConfig(steps=30, **_SMALL))
    _no_child_left()


def test_a_split_helper_that_dies_raises_naming_its_status(monkeypatch):
    parent = os.getpid()
    real = gmm.gaussian_logpdf

    @functools.wraps(real)
    def die(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(train_module, "_SPLIT_ELEMS", 1)
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(gmm, "gaussian_logpdf", die)
    with pytest.raises(RuntimeError, match="^train helper exited with status 3$"):
        train(SMALL, TrainConfig(steps=30, **{**_SMALL, "eval_env": None},
                                 check_identities=False))
    _no_child_left()


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
    worker = fork(lambda channel: channel.send("up") or 0)
    try:
        assert worker.recv() == "up"  # the worker widens it before its body
        assert fcntl.fcntl(worker.writer.fileno(), fcntl.F_GETPIPE_SZ) == limit
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


# em_refresh's train keys, for its dataset of 10000 rows
_EM_KEYS = {"hidden": [16, 16], "batch_size": 256, "n_clusters": 8, "probe_size": 2048,
            "em_tol": 0.0, "check_identities": False, "evaluate": False}


@pytest.mark.parametrize("train_keys, loaded", [
    ({"check_identities": False, "evaluate": False}, False),  # as em_refresh, small
    ({"check_identities": False, "eval_every": 5000}, False),  # as desk_pair
    ({"steps": 0}, False),  # any set-up run
    ({**_EM_KEYS, "steps": 0}, False),  # em_refresh's set-up, past the size rule
    ({}, True),
])
def test_train_loads_the_helper_code_only_when_a_helper_starts(train_keys, loaded, tmp_path):
    dataset = tmp_path / "data.jsonl"
    if train_keys.get("probe_size"):
        save_jsonl(_EM_DATA.dataset, str(dataset))
    config = _cli_config(tmp_path / "run", dataset, **train_keys)
    # as under the benchmark's BLAS variables, where a large refresh may split
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _IMPORTS, str(config)], env=env,
                         capture_output=True, text=True, timeout=120)
    # the helper widens its pipe itself, so the command's process never loads fcntl
    assert json.loads(out.stdout.splitlines()[-1]) == [0, loaded, loaded, False]


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("name, n", [("fork", 1), ("pipe", 2)])
def test_a_helper_that_cannot_start_leaves_the_work_inline(name, n, split, refuse_call,
                                                          monkeypatch, tmp_path):
    dataset, cfg, _ = CASES["eval_every_1"]
    if split:  # its shared arrays are mapped before the fork is refused
        monkeypatch.setattr(train_module, "_SPLIT_ELEMS", 1)
    with monkeypatch.context() as patch:
        _cpus(patch, 1)
        _refuse_fork(patch)
        inline = _outputs(dataset, cfg, tmp_path / "inline.csv")
    _cpus(monkeypatch, 2)
    refuse_call(name, n)
    fds = len(os.listdir("/proc/self/fd"))
    assert _outputs(dataset, cfg, tmp_path / "refused.csv") == inline
    assert len(os.listdir("/proc/self/fd")) == fds
    _no_child_left()
