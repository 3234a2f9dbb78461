"""Tests of the benchmark's own code: span arithmetic, metric names, wrappers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(i, parent, start, end, name="x", run_id="r"):
    return {"id": i, "parent": parent, "name": name, "start": start, "end": end,
            "value": None, "run": run_id}


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [span(0, None, 0.0, 10.0),
             span(1, 0, 1.0, 4.0),   # sibling children of 0
             span(2, 0, 5.0, 6.0),
             span(3, 1, 2.0, 3.0)]   # grandchild: counts against 1, not 0
    own = tracer.self_times(spans)
    assert own[("r", 0)] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[("r", 1)] == pytest.approx(3.0 - 1.0)
    assert own[("r", 2)] == pytest.approx(1.0)
    assert own[("r", 3)] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once_and_keeps_runs_apart():
    spans = [span(0, None, 0.0, 10.0),
             span(1, 0, 2.0, 6.0),
             span(2, 0, 4.0, 8.0),
             span(0, None, 0.0, 5.0, run_id="other")]
    own = tracer.self_times(spans)
    assert own[("r", 0)] == pytest.approx(10.0 - 6.0)
    assert own[("other", 0)] == pytest.approx(5.0)


def test_tracer_records_parent_links_and_values():
    t = tracer.Tracer("run-a")
    inner = t.wrap("inner", lambda x: x + 1, measure=lambda args, result: result)
    outer = t.wrap("outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    records = {r["name"]: r for r in t.records()}
    assert records["inner"]["parent"] == records["outer"]["id"]
    assert records["outer"]["parent"] is None
    assert records["inner"]["value"] == 4
    assert {r["run"] for r in records.values()} == {"run-a"}


def test_every_metric_name_is_well_formed_and_declared():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer = tracer.layer_metrics([])
    produced_layer = set(layer) | {"trace.overhead_s"}
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    for name in names + sorted(produced_layer) + sorted(run.E2E_UNITS):
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names)
    assert {m["name"] for m in declared["per_layer"]} == produced_layer
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.E2E_UNITS
    assert {w["name"] for w in declared["workloads"]} == set(run.WORKLOADS)
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in layer.items())


def _digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("metrics.csv", "critic.json")}


def test_wrapping_a_c4_run_leaves_its_outputs_unchanged(tmp_path):
    from c4td import cli

    data = tmp_path / "data.jsonl"
    cfg = {"dataset": str(data), "env": {"n_modes": 3},
           "data": {"n_trajectories": 10, "seed": 4},
           "train": {**run._GATE_TRAIN, "steps": 300, "refresh_period": 50,
                     "eval_every": 150, "eval_episodes": 2, "seed": 4}}
    config = tmp_path / "run.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["gen-data", "--config", str(config), "--out", str(data)]) == 0

    def train(out_dir: Path) -> dict[str, str]:
        assert cli.main(["train", "--config", str(config),
                         "--set", f"out_dir={out_dir}"]) == 0
        return _digests(out_dir)

    plain = train(tmp_path / "plain")
    t = tracer.Tracer("c4")
    undo = tracer.install(t)
    try:
        wrapped = train(tmp_path / "traced")
    finally:
        tracer.uninstall(undo)
    assert wrapped == plain
    layer = tracer.layer_metrics(t.records())
    assert layer["train.refresh_calls"][0] == 300 // 50 + 1
    assert layer["nets.forwards_per_step"][0] == 7  # identity checks are on
    assert not hasattr(cli.train, "__wrapped__")  # originals are back
