"""End-to-end tests for the c4 command-line interface."""

import contextlib
import ctypes
import inspect
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import types
from dataclasses import fields
from pathlib import Path
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import c4td
from c4td import BLAS_THREAD_VARS, cli
from c4td.cli import _SECTIONS, main, render_metric_svg
from c4td.data import DATA_SCHEMA, ENV_SCHEMA, EnvSpec, generate
from c4td.train import (FEATURE_MODES, METRIC_COLUMNS, OPTIMIZERS, TRAIN_SCHEMA, TrainConfig,
                        metrics_from_csv)


def _write_config(tmp_path, **extra):
    cfg = {
        "out_dir": str(tmp_path / "out"),
        "dataset": str(tmp_path / "data.jsonl"),
        "env": {"n_modes": 3},
        "data": {"n_trajectories": 4, "seed": 0},
        "train": {"steps": 60, "hidden": [8, 8], "refresh_period": 25,
                  "batch_size": 16, "n_clusters": 2, "em_max_iters": 10,
                  "em_warm_iters": 3, "evaluate": False, "seed": 1},
    }
    cfg.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def _gen(tmp_path, config):
    assert main(["gen-data", "--config", str(config),
                 "--out", str(tmp_path / "data.jsonl")]) == 0


def test_gen_data_writes_dataset_and_summary(tmp_path, capsys):
    config, _ = _write_config(tmp_path)
    out = tmp_path / "data.jsonl"
    assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info == {"path": str(out), "n_transitions": 160, "ds": 2, "da": 2,
                    "modes": 3, "seed": 0}
    assert out.read_text().count("\n") == 161  # header plus one line per row


def test_gen_data_is_deterministic(tmp_path):
    config, _ = _write_config(tmp_path)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["gen-data", "--config", str(config), "--out", str(a)]) == 0
    assert main(["gen-data", "--config", str(config), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_writes_artifacts_and_reruns_identically(tmp_path, capsys):
    config, cfg = _write_config(tmp_path)
    _gen(tmp_path, config)
    assert main(["train", "--config", str(config)]) == 0
    info = json.loads(capsys.readouterr().out.splitlines()[-1])
    out_dir = tmp_path / "out"
    assert info["steps"] == 60
    metrics = out_dir / "metrics.csv"
    critic = out_dir / "critic.json"
    assert metrics.is_file() and critic.is_file()
    refreshes = sorted(p.name for p in (out_dir / "mixtures").iterdir())
    assert refreshes == ["refresh_000000.json", "refresh_000025.json",
                         "refresh_000050.json"]
    first = metrics.read_bytes()

    other = _write_config(tmp_path, out_dir=str(tmp_path / "out2"))[0]
    assert main(["train", "--config", str(other)]) == 0
    assert (tmp_path / "out2" / "metrics.csv").read_bytes() == first


def test_train_baseline_suffixes_artifacts(tmp_path, capsys):
    config, _ = _write_config(tmp_path)
    _gen(tmp_path, config)
    assert main(["train", "--config", str(config), "--baseline"]) == 0
    out_dir = tmp_path / "out"
    assert (out_dir / "metrics_baseline.csv").is_file()
    assert (out_dir / "critic_baseline.json").is_file()
    assert not (out_dir / "mixtures").exists()


def test_baseline_is_the_one_cluster_zero_penalty_run(tmp_path):
    config, _ = _write_config(tmp_path, train={
        "steps": 60, "hidden": [8, 8], "refresh_period": 25, "batch_size": 16,
        "n_clusters": 3, "penalty_weight": 0.4, "penalty_trace_weight": 0.5,
        "eval_every": 30, "eval_episodes": 1, "seed": 4})
    _gen(tmp_path, config)
    assert main(["train", "--config", str(config), "--baseline"]) == 0
    assert main(["train", "--config", str(config), "--set", "train.n_clusters=1",
                 "--set", "train.penalty_weight=0"]) == 0
    out_dir = tmp_path / "out"
    for name in ("metrics.csv", "critic.json"):
        baseline = name.replace(".", "_baseline.")
        assert (out_dir / baseline).read_bytes() == (out_dir / name).read_bytes()
    assert not (out_dir / "mixtures").exists()


def test_train_set_override_reaches_the_trainer(tmp_path):
    config, _ = _write_config(tmp_path)
    _gen(tmp_path, config)
    assert main(["train", "--config", str(config),
                 "--set", "train.steps=0"]) == 0
    metrics = tmp_path / "out" / "metrics.csv"
    assert metrics.read_text().strip() == ",".join(METRIC_COLUMNS)


def test_unknown_keys_are_rejected_at_every_level(tmp_path, capsys):
    config, _ = _write_config(tmp_path)
    _gen(tmp_path, config)
    for assignment, fragment in (("bogus=1", "'bogus'"),
                                 ("env.warp=2", "'env.warp'"),
                                 ("data.rate=3", "'data.rate'"),
                                 ("train.moment=4", "'train.moment'"),
                                 ("train.full_refit=true", "'train.full_refit'"),
                                 ("train.ridge=0.1", "'train.ridge'"),
                                 ("train.baseline_mode=true", "'train.baseline_mode'")):
        assert main(["train", "--config", str(config),
                     "--set", assignment]) == 2
        err = capsys.readouterr().err
        assert "unknown config key" in err and fragment in err


def test_schema_tables_match_the_signatures_they_feed():
    # the CLI's keys come from these tables: a row left behind would let a key
    # through to a constructor that does not take it
    assert tuple(TRAIN_SCHEMA) == tuple(f.name for f in fields(TrainConfig))
    env_params = {f.name for f in fields(EnvSpec)}
    env_params |= set(inspect.signature(EnvSpec.with_circular_modes).parameters)
    assert set(ENV_SCHEMA) <= env_params
    keywords = [p.name for p in inspect.signature(generate).parameters.values()
                if p.default is not p.empty]
    assert tuple(DATA_SCHEMA) == tuple(keywords)


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    listroot = tmp_path / "list.json"
    listroot.write_text("[1, 2]")
    assert main(["train", "--config", str(listroot)]) == 2
    assert "root must be a JSON object" in capsys.readouterr().err

    config, _ = _write_config(tmp_path)
    assert main(["train", "--config", str(config)]) == 2  # dataset not generated
    assert "dataset not found" in capsys.readouterr().err

    missing = tmp_path / "nope.json"
    assert main(["train", "--config", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err

    assert main(["train", "--config", str(config), "--set", "out_dir.x=1"]) == 2
    assert "--set path 'out_dir.x' crosses a non-object value" in capsys.readouterr().err

    _, cfg = _write_config(tmp_path)
    del cfg["dataset"]
    config.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(config)]) == 2
    assert "error: config must set 'dataset'" in capsys.readouterr().err


@pytest.mark.parametrize("lineno, edit, message", [
    (5, lambda text: json.dumps({**json.loads(text), "r": float("nan")}),
     "line 5: field 'r' must be finite"),
    (4, lambda text: json.dumps({**json.loads(text), "r": 10 ** 400}),
     "line 4: field 'r' holds a number too large for a float"),
    (5, lambda text: text.replace('"r": ', '"r": ' + "9" * 5000 + ', "x": ', 1),
     "line 5: not valid JSON: Exceeds the limit (4300 digits)"),
    (6, lambda text: "[" * 100000, "line 6: not valid JSON: maximum recursion depth"),
    (1, lambda text: text.replace('"seed": 0', '"seed": ' + "9" * 5000),
     "line 1: header is not valid JSON: Exceeds the limit (4300 digits)"),
    (1, lambda text: "[" * 100000, "line 1: header is not valid JSON: maximum recursion depth"),
    (1, lambda text: text.replace('"ds": 2', '"ds": 2.5'), "line 1: header field 'ds' must be int"),
    (1, lambda text: text.replace('"ds": 2', '"ds": 0'),
     "line 1: header field 'ds' must be at least 1, got 0"),
], ids=["nan", "int-overflow", "int-digits", "nesting", "header-int-digits", "header-nesting",
        "header-fractional-ds", "header-zero-ds"])
def test_bad_dataset_value_exits_2_with_its_line(tmp_path, capsys, lineno, edit, message):
    config, _ = _write_config(tmp_path)
    _gen(tmp_path, config)
    data = tmp_path / "data.jsonl"
    lines = data.read_text().splitlines()
    lines[lineno - 1] = edit(lines[lineno - 1])
    data.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--config", str(config), "--baseline"]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics_baseline.csv").exists()


def test_missing_steps_is_a_config_error(tmp_path, capsys):
    config, cfg = _write_config(tmp_path)
    _gen(tmp_path, config)
    del cfg["train"]["steps"]
    config.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(config)]) == 2
    assert "train.steps" in capsys.readouterr().err


@pytest.mark.parametrize("assignment, message", [
    ("train.eval_episodes=0", "eval_episodes must be at least 1"),
    ('train.steps="20"', "steps must be an integer, got '20'"),
    ("train.learning_rate=NaN", "learning_rate must be a finite number"),
    (f"train.gamma=1{'0' * 400}", "gamma must be a finite number"),  # once an OverflowError
    ('train.hidden=["a"]', "hidden must be a nonempty tuple of positive integers"),
    ("train.check_identities=1", "check_identities must be true or false"),
    ("train.probe_size=3", "n_clusters (5) must not exceed probe_size (3)"),
    ('train.evaluate="no"', "evaluate must be true or false"),
    ("train.n_clusters=500", "n_clusters (500) must not exceed the dataset's 160 rows"),
])
def test_bad_train_values_exit_2_naming_the_field(tmp_path, capsys, assignment, message):
    config, _ = _write_config(tmp_path)
    _gen(tmp_path, config)
    capsys.readouterr()
    assert main(["train", "--config", str(config), "--set", "train.n_clusters=5",
                 "--set", assignment]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("assignment, message", [
    ('env.ds="x"', "env.ds must be an integer, got 'x'"),
    ("env.horizon=2.5", "env.horizon must be an integer, got 2.5"),
    ('env.n_modes="x"', "env.n_modes must be an integer, got 'x'"),
    ("env.mode_std=NaN", "env.mode_std must be a finite number, got nan"),
])
def test_bad_env_values_exit_2_naming_the_field(tmp_path, capsys, assignment, message):
    config, _ = _write_config(tmp_path)
    _gen(tmp_path, config)
    capsys.readouterr()
    assert main(["train", "--config", str(config), "--set", assignment]) == 2
    assert message in capsys.readouterr().err


_TRAIN_ONLY_RULES = ("train.em_max_iters=0", "train.em_warm_iters=0", "train.em_tol=-1",
                     "train.penalty_trace_weight=-1")


@pytest.mark.parametrize("command, assignment", [
    *(("gen-data", a) for a in (
        'data.n_trajectories="x"', "data.n_trajectories=2.5", "data.seed=true",
        "data.seed=-1", "env.mode_std=-0.05", "env.mode_std=0", "env.mode_std=1e200",
        "env.n_modes=0", "env.n_modes=-2", "env.da=1")),
    ("train", "train.seed=-1"),
    *(("train", f'{key}="{bad}"') for key in ("out_dir", "dataset")
      for bad in ("a\\u0000b", "\\udc00")),  # a NUL; a lone surrogate
    *(("train", a) for a in _TRAIN_ONLY_RULES),
    *(("train --baseline", a) for a in _TRAIN_ONLY_RULES),
])
def test_every_bad_value_exits_2_naming_section_and_field(tmp_path, capsys, command,
                                                          assignment):
    config, _ = _write_config(tmp_path)
    _gen(tmp_path, config)
    capsys.readouterr()
    name, *flags = command.split()
    out = ["--out", str(tmp_path / "again.jsonl")] if name == "gen-data" else []
    assert main([name, *flags, "--config", str(config), *out, "--set", assignment]) == 2
    err = capsys.readouterr().err
    assert f"error: {assignment.partition('=')[0]} must" in err
    assert "Traceback" not in err
    assert not (tmp_path / "again.jsonl").exists()


def test_eval_env_must_match_the_dataset(tmp_path, capsys):
    config, _ = _write_config(tmp_path)
    _gen(tmp_path, config)
    capsys.readouterr()
    wider = ["--set", "env.ds=3", "--set", "env.da=3"]
    assert main(["train", "--config", str(config), *wider,
                 "--set", "train.evaluate=true", "--set", "train.eval_every=10"]) == 2
    assert "env.ds and env.da (3, 3) must match the dataset's (2, 2)" in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.csv").exists()
    assert main(["train", "--config", str(config), *wider]) == 0  # no eval


def test_env_state_and_action_dims_must_agree(tmp_path, capsys):
    config, _ = _write_config(tmp_path)
    assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / "d.jsonl"),
                 "--set", "env.ds=3"]) == 2
    assert "env.ds (3) must equal env.da (2)" in capsys.readouterr().err


def test_out_dir_naming_a_file_exits_2(tmp_path, capsys):
    config, _ = _write_config(tmp_path)
    _gen(tmp_path, config)
    (tmp_path / "out").write_text("not a directory")
    capsys.readouterr()
    assert main(["train", "--config", str(config)]) == 2
    assert "error: " in capsys.readouterr().err


def test_gen_data_out_naming_a_directory_exits_2(tmp_path, capsys):
    config, _ = _write_config(tmp_path)
    assert main(["gen-data", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("value", ["[" * 100000, "2" * 5000], ids=["nesting", "digits"])
def test_values_beyond_the_json_parser_limits_exit_2(tmp_path, capsys, value):
    config, _ = _write_config(tmp_path)
    _gen(tmp_path, config)
    capsys.readouterr()
    assert main(["train", "--config", str(config), "--set", f"train.steps={value}"]) == 2
    assert f"train.steps must be an integer, got '{value[:4]}" in capsys.readouterr().err
    config.write_text('{"train": {"steps": ' + value + "}}")
    assert main(["train", "--config", str(config)]) == 2
    assert f"config {config} is not valid JSON" in capsys.readouterr().err


def _undecodable(path):
    path.write_bytes(b"\xff\xfe" + path.read_bytes())


def test_undecodable_config_exits_2_naming_the_file(tmp_path, capsys):
    config, _ = _write_config(tmp_path)
    _undecodable(config)
    assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / "d.jsonl")]) == 2
    assert f"config {config} is not valid JSON: 'utf-8' codec can't decode" \
        in capsys.readouterr().err


def test_undecodable_dataset_exits_2_naming_the_file(tmp_path, capsys):
    config, cfg = _write_config(tmp_path)
    _gen(tmp_path, config)
    _undecodable(tmp_path / "data.jsonl")
    capsys.readouterr()
    assert main(["train", "--config", str(config)]) == 2
    assert f"dataset {cfg['dataset']} is not UTF-8 text" in capsys.readouterr().err


def test_undecodable_metrics_csv_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "metrics.csv"
    path.write_bytes(b"\xff\xfe" + ",".join(METRIC_COLUMNS).encode() + b"\n")
    assert main(["report", str(path), "--out", str(tmp_path / "rep")]) == 2
    assert f"metrics {path} is not UTF-8 text" in capsys.readouterr().err


def test_gen_data_rejects_overflowing_env_without_numpy_warnings(tmp_path):
    config, _ = _write_config(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(c4td.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-m", "c4td.cli", "gen-data", "--config",
                          str(config), "--out", str(tmp_path / "data.jsonl"),
                          "--set", "env.box_radius=1e300"],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 2
    assert out.stderr.strip() == ("error: generated values are not finite: lower "
                                  "env.box_radius, env.noise_scale or env.mode_std")
    assert not (tmp_path / "data.jsonl").exists()


_KNOWN_KEYS = [(section, key) for section, schema in _SECTIONS.items() for key in schema]
# Integers stay small, so any config the schema accepts trains in milliseconds;
# scalars are drawn as often as containers, and unit-range floats and the
# option names make a fair share of the draws valid.
_SCALARS = (st.integers(-3, 12) | st.floats(-2, 2) | st.sampled_from(FEATURE_MODES + OPTIMIZERS)
            | st.booleans() | st.none() | st.floats() | st.text(max_size=8))
_JSON_VALUES = _SCALARS | st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A 10-row dataset and a config that trains on it for one step, evaluating."""
    root = tmp_path_factory.mktemp("tiny")
    cfg = {"out_dir": str(root / "out"), "dataset": str(root / "data.jsonl"),
           "env": {"n_modes": 2, "horizon": 5},
           "data": {"n_trajectories": 2, "seed": 0},
           "train": {"steps": 1, "hidden": [4], "batch_size": 4, "n_clusters": 2,
                     "em_max_iters": 3, "em_warm_iters": 2, "eval_every": 1,
                     "eval_episodes": 1}}
    config = root / "run.json"
    config.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--config", str(config), "--out", cfg["dataset"]]) == 0
    return root, cfg


def _gen_data_then_train(root, config, *flags) -> list[tuple[int, str]]:
    """(exit code, stderr) of gen-data and of train on one config."""
    results = []
    for argv in (["gen-data", "--out", str(root / "gen.jsonl")], ["train"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--config", str(config), *flags])
        results.append((code, err.getvalue()))
    return results


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(where=st.sampled_from(_KNOWN_KEYS), value=_JSON_VALUES)
def test_any_json_value_at_any_known_key_exits_0_or_2_naming_it(tiny_run, where, value):
    root, cfg = tiny_run
    section, key = where
    config = root / "any_value.json"
    config.write_text(json.dumps({**cfg, section: {**cfg[section], key: value}}))
    for code, err in _gen_data_then_train(root, config):
        assert code in (0, 2) and "Traceback" not in err
        if code == 2:
            assert f"{section}." in err and key in err


@settings(max_examples=600, derandomize=True, deadline=None)
@given(assignment=st.text() | st.builds(
    "{0[0]}.{0[1]}={1}".format, st.sampled_from(_KNOWN_KEYS),
    st.text(max_size=3) | _SCALARS.map(json.dumps)))
def test_any_set_string_exits_0_or_2(tiny_run, assignment):
    """Arbitrary --set strings, and short text or a JSON scalar assigned to a known key."""
    root, cfg = tiny_run
    config = root / "any_set.json"
    config.write_text(json.dumps(cfg))
    section, _, key = assignment.partition("=")[0].partition(".")
    for code, err in _gen_data_then_train(root, config, "--set", assignment):
        assert code in (0, 2) and "Traceback" not in err
        if code == 2 and (section, key) in _KNOWN_KEYS:
            assert f"{section}." in err and key in err


def test_diverging_run_exits_2_naming_the_step_without_numpy_warnings(tmp_path):
    config, _ = _write_config(tmp_path)
    _gen(tmp_path, config)
    env = dict(os.environ, PYTHONPATH=str(Path(c4td.__file__).parents[1]))
    for overrides, message in (
            (['train.optimizer="sgd"', "train.learning_rate=1e6"],
             r"error: training diverged: .* at step \d+"),
            # the dataset was generated in range; only the evaluation env overflows
            (["env.box_radius=1e300", "train.evaluate=true", "train.eval_every=10"],
             r"error: evaluation diverged: greedy return not finite at step 10; "
             r"lower env\.box_radius or env\.action_bound")):
        sets = [arg for value in overrides for arg in ("--set", value)]
        out = subprocess.run([sys.executable, "-m", "c4td.cli", "train", "--config",
                              str(config), *sets], env=env, capture_output=True, text=True)
        assert out.returncode == 2
        assert re.fullmatch(message, out.stderr.strip())  # no traceback, no RuntimeWarning
        assert not (tmp_path / "out" / "metrics.csv").exists()


def test_a_refresh_on_diverged_pairs_exits_2_naming_the_step(tmp_path):
    # overflowing pairs once reached EM, which printed numpy warnings and then
    # rejected its data or its mixture without naming the step
    config, _ = _write_config(tmp_path, data={"n_trajectories": 10, "seed": 0},
                              train={"steps": 20, "optimizer": "sgd"})
    _gen(tmp_path, config)
    env = dict(os.environ, PYTHONPATH=str(Path(c4td.__file__).parents[1]))
    sets = ["train.refresh_period=1", "train.evaluate=false", "train.check_identities=false",
            "train.n_clusters=2"]
    for rate in ("1e6", "1e20"):
        args = [arg for value in (*sets, f"train.learning_rate={rate}")
                for arg in ("--set", value)]
        out = subprocess.run([sys.executable, "-m", "c4td.cli", "train", "--config",
                              str(config), *args], env=env, capture_output=True, text=True)
        assert out.returncode == 2
        assert re.fullmatch(r"error: training diverged: gradient pairs not finite or too "
                            r"large for EM at step \d+", out.stderr.strip()), out.stderr
        assert not (tmp_path / "out" / "metrics.csv").exists()


def test_sizes_memory_cannot_hold_exit_2_naming_the_size_fields(tmp_path, capsys):
    config, _ = _write_config(tmp_path)
    _gen(tmp_path, config)
    capsys.readouterr()
    # numpy refuses each allocation at once: tebibytes, far beyond any host
    for assignment in ("train.batch_size=10000000000000", "train.hidden=[100000000000]"):
        assert main(["train", "--config", str(config), "--set", assignment]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: .*; lower train\.batch_size, train\.hidden or "
                            r"train\.probe_size\n", err)
        assert not (tmp_path / "out" / "metrics.csv").exists()


def test_verify_rejects_a_negative_seed(capsys):
    assert main(["verify", "--suite", "gmm", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be at least 0, got -1\n"


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["report", "--out", "somewhere"]) == 2
    assert main(["verify", "--suite", "nonsense"]) == 2
    capsys.readouterr()


def test_thread_cap_validation(tmp_path, capsys, monkeypatch):
    config, _ = _write_config(tmp_path)
    monkeypatch.setenv("C4_THREADS", "banana")
    assert main(["gen-data", "--config", str(config),
                 "--out", str(tmp_path / "x.jsonl")]) == 2
    assert "C4_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("C4_THREADS", "0")
    assert main(["gen-data", "--config", str(config),
                 "--out", str(tmp_path / "x.jsonl")]) == 2
    monkeypatch.setenv("C4_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    assert main(["gen-data", "--config", str(config),
                 "--out", str(tmp_path / "x.jsonl")]) == 0
    import os
    assert os.environ["OMP_NUM_THREADS"] == "1"
    capsys.readouterr()


def test_c4_threads_alone_caps_blas_before_numpy_loads():
    # the cap has to be exported before numpy loads, so it needs a fresh process
    code = ("import c4td.cli\n"
            "import numpy as np\n"
            "a = np.random.default_rng(0).random((256, 256))\n"
            "a @ a\n"
            "print([l.split()[1] for l in open('/proc/self/status')"
            " if l.startswith('Threads:')][0])\n")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["C4_THREADS"] = "1"
    env["PYTHONPATH"] = str(Path(c4td.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "1"


@pytest.mark.parametrize("setting", [*cli._MALLOC_ENV, "GLIBC_TUNABLES", "no mallopt",
                                     "no libc", "refused", None])
def test_heap_setting_yields_to_explicit_settings(monkeypatch, setting):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 0 if setting == "refused" else 1  # glibc returns 0 on a value it refuses

    def cdll(name):
        if setting == "no libc":
            raise OSError(f"{name}: cannot open shared object file")
        return object() if setting == "no mallopt" else types.SimpleNamespace(mallopt=mallopt)

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    for var in (*cli._MALLOC_ENV, "GLIBC_TUNABLES"):
        monkeypatch.delenv(var, raising=False)
    if setting == "GLIBC_TUNABLES":
        monkeypatch.setenv(setting, "glibc.cpu.x86_rep_movsb_threshold=4096")
        cli._keep_freed_heap()
        assert len(calls) == 2  # a tunable of another namespace leaves malloc to c4
        calls.clear()
        monkeypatch.setenv(setting, "glibc.cpu.x86_rep_movsb_threshold=4096:"
                                    "glibc.malloc.trim_threshold=0")
    elif setting in cli._MALLOC_ENV:
        monkeypatch.setenv(setting, "0")
    cli._keep_freed_heap()
    if setting == "refused":  # a trim threshold alone would freeze the mmap threshold
        assert calls == [(-3, 32 << 20)]
    else:
        assert calls == ([(-3, 32 << 20), (-1, 64 << 20)] if setting is None else [])


@pytest.fixture(scope="module")
def em_shape(tmp_path_factory):
    """em_refresh's shape (N = 10000, hidden (16, 16), K = 8, probe 2048) for 100 steps.

    Returns the config and a function that trains it in a child process with
    extra environment settings and returns the child's minor page faults.
    """
    root = tmp_path_factory.mktemp("em_shape")
    cfg = {"out_dir": str(root / "out"), "dataset": str(root / "data.jsonl"),
           "env": {"n_modes": 3}, "data": {"n_trajectories": 250, "seed": 5},
           "train": {"steps": 100, "hidden": [16, 16], "batch_size": 256, "n_clusters": 8,
                     "probe_size": 2048, "penalty_weight": 0.1, "em_tol": 0.0,
                     "em_max_iters": 10, "em_warm_iters": 3, "evaluate": False,
                     "check_identities": False}}
    config = root / "run.json"
    config.write_text(json.dumps(cfg))
    base = {k: v for k, v in os.environ.items()
            if k not in (*cli._MALLOC_ENV, "GLIBC_TUNABLES", "C4_THREADS")}
    base.update(dict.fromkeys(BLAS_THREAD_VARS, "1"),
                PYTHONPATH=str(Path(c4td.__file__).parents[1]))
    subprocess.run([sys.executable, "-m", "c4td.cli", "gen-data", "--config", str(config),
                    "--out", cfg["dataset"]], env=base, capture_output=True, check=True)

    def train(out_dir, *sets, **env) -> int:
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        args = [arg for value in (f'out_dir="{out_dir}"', *sets) for arg in ("--set", value)]
        subprocess.run([sys.executable, "-m", "c4td.cli", "train", "--config", str(config),
                        *args], env={**base, **env}, capture_output=True, check=True)
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

    return root, train


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap setting and the fault counts are glibc's")
def test_a_refresh_faults_in_no_fresh_memory(em_shape):
    # glibc's default mmaps every N-row array of a refresh and unmaps it when
    # freed, so each refresh faulted about 1900 pages in again; c4 keeps them
    root, train = em_shape
    one = train(root / "one", "train.refresh_period=1000")
    five = train(root / "five", "train.refresh_period=25")
    assert (five - one) / 4 < 400, (one, five)


def test_the_heap_setting_moves_no_bit(em_shape):
    # a preset MALLOC_ variable makes c4 leave the allocator alone, so the two
    # runs allocate differently
    root, train = em_shape
    train(root / "default", "train.refresh_period=25")
    train(root / "preset", "train.refresh_period=25", MALLOC_TRIM_THRESHOLD_=str(128 << 10))
    snapshots = sorted(p.name for p in (root / "default" / "mixtures").iterdir())
    assert snapshots == [f"refresh_{step:06d}.json" for step in range(0, 101, 25)]
    assert sorted(p.name for p in (root / "preset" / "mixtures").iterdir()) == snapshots
    for name in ("metrics.csv", "critic.json", *(f"mixtures/{n}" for n in snapshots)):
        assert (root / "default" / name).read_bytes() == (root / "preset" / name).read_bytes()


def test_gen_data_and_train_import_only_the_modules_they_run(tmp_path):
    config, _ = _write_config(tmp_path)
    unused = ["c4td.verify", "c4td.policy", "c4td.diagnostics", "statistics", "html"]
    code = ("import json, sys\n"
            "from c4td.cli import main\n"
            "code = main(sys.argv[1:])\n"
            f"print(json.dumps([code, [m for m in {unused!r} if m in sys.modules]]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(c4td.__file__).parents[1]))
    for argv in (["gen-data", "--config", str(config), "--out", str(tmp_path / "data.jsonl")],
                 ["train", "--config", str(config)],
                 ["train", "--config", str(config), "--baseline"]):
        out = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                             capture_output=True, text=True, check=True)
        assert json.loads(out.stdout.splitlines()[-1]) == [0, []], argv
    # the suites load when a command runs them
    out = subprocess.run([sys.executable, "-c", code, "verify", "--suite", "nonsense"],
                         env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [2, ["c4td.verify", "c4td.policy",
                                                          "c4td.diagnostics"]]
    assert "choose from ('covariance', 'gmm', 'theorem1', 'policy', 'all')" in out.stderr


def test_verify_suite_passes_and_prints_json(capsys):
    assert main(["verify", "--suite", "gmm"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["suite"] == "gmm"


def test_report_builds_plots_and_summary(tmp_path, capsys):
    config, cfg = _write_config(tmp_path)
    _gen(tmp_path, config)
    cfg["train"]["evaluate"] = True
    cfg["train"]["eval_every"] = 20
    cfg["train"]["eval_episodes"] = 1
    config.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config), "--baseline"]) == 0
    out_dir = tmp_path / "out"
    capsys.readouterr()

    report_dir = tmp_path / "report"
    csvs = [str(out_dir / "metrics.csv"), str(out_dir / "metrics_baseline.csv")]
    assert main(["report", *csvs, "--out", str(report_dir)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["plots"] == ["td_loss.svg", "tr_n_sample_convention.svg",
                             "eval_return.svg"]

    svg = (report_dir / "td_loss.svg").read_text()
    assert svg.count("<polyline") == 2
    assert "metrics<" in svg and "metrics_baseline<" in svg

    summary = json.loads((report_dir / "summary.json").read_text())
    assert set(summary) == {"metrics", "metrics_baseline"}
    rows = metrics_from_csv(out_dir / "metrics.csv")
    td = [row["td_loss"] for row in rows]
    evals = [row["eval_return"] for row in rows if row["eval_return"] is not None]
    got = summary["metrics"]
    assert got["td_loss"]["final"] == td[-1]
    assert got["td_loss"]["median"] == statistics.median(td)
    assert got["eval_return"]["final"] == evals[-1]
    assert got["eval_return"]["median"] == statistics.median(evals)


def test_report_deduplicates_run_labels(tmp_path, capsys):
    config, cfg = _write_config(tmp_path)
    _gen(tmp_path, config)
    assert main(["train", "--config", str(config)]) == 0
    path = str(tmp_path / "out" / "metrics.csv")
    capsys.readouterr()
    assert main(["report", path, path, "--out", str(tmp_path / "rep")]) == 0
    summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
    assert set(summary) == {"metrics", "metrics-2"}
    capsys.readouterr()


def test_report_escapes_run_labels_so_every_svg_parses(tmp_path, capsys):
    # an unescaped '&' or '<' in a file name once made td_loss.svg malformed XML
    path = tmp_path / "a&b<c.csv"
    path.write_text(",".join(METRIC_COLUMNS) + "\n1,0.5,0.1,0.6,0.01,0,0.0,-3.0\n"
                    "2,0.4,0.1,0.5,0.02,1,0.1,\n")
    assert main(["report", str(path), "--out", str(tmp_path / "rep")]) == 0
    capsys.readouterr()
    for svg in sorted((tmp_path / "rep").glob("*.svg")):
        root = ElementTree.parse(svg).getroot()
        texts = [node.text for node in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "a&b<c" in texts, svg.name


def test_report_rejects_malformed_csv_with_file_and_line(tmp_path, capsys):
    # a non-finite cell once reached summary.json as Infinity or NaN
    for row in ("2,x,0.1,0.6,0.01,0,0.0,", "2,inf,0.1,0.6,0.01,0,0.0,",
                "2,0.5,0.1,0.6,nan,0,0.0,"):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(METRIC_COLUMNS) + "\n"
                       + "1,0.5,0.1,0.6,0.01,0,0.0,\n" + row + "\n")
        assert main(["report", str(bad), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert "bad.csv" in err and "line 3" in err
        assert not (tmp_path / "rep" / "summary.json").exists()


def test_svg_renderer_handles_empty_and_constant_series():
    empty = render_metric_svg("eval_return", [("run", [])])
    assert "no data" in empty and "<polyline" not in empty
    rows = [{"step": 1, "td_loss": 2.0}, {"step": 5, "td_loss": 2.0}]
    flat = render_metric_svg("td_loss", [("run", rows)])
    assert flat.count("<polyline") == 1


def test_svg_renderer_thins_long_series():
    rows = [{"step": i, "td_loss": float(i % 7)} for i in range(10001)]
    svg = render_metric_svg("td_loss", [("run", rows)])
    line = next(part for part in svg.splitlines() if "<polyline" in part)
    coords = line.split('points="')[1].split('"')[0].split()
    assert len(coords) <= 2001
    # the last step must survive thinning; it lands on the right plot edge
    assert coords[-1].startswith("560.00,")
    rows_short = [{"step": i, "td_loss": 1.0 * i} for i in range(50)]
    svg_short = render_metric_svg("td_loss", [("run", rows_short)])
    short_line = next(p for p in svg_short.splitlines() if "<polyline" in p)
    short_coords = short_line.split('points="')[1].split('"')[0].split()
    assert len(short_coords) == 50
