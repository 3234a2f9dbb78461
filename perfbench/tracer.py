"""Outside-in span tracer for the c4td benchmark.

Wrappers installed from here, never from ``src/``, record one span per call
into a layer: name, start, end, parent span id and run id. Spans stay in
memory and are written when the run ends. A span's self time is its
duration minus the part of its interval that its child spans cover.

Each name is patched where it is looked up at call time: a function imported
by name into another module (``c4td.train.cross_cov``) is patched there as
well as in its home module, and methods are patched on their classes.

Run a traced ``c4`` command in-process with::

    PYTHONPATH=src python3 perfbench/tracer.py --spans OUT.json --run-id ID -- \
        train --config run.json
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Records spans and per-call values in memory, for one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # (id, parent, name, start, end, value); id is the index in the list
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, measure=None):
        """``fn`` wrapped in a span; ``measure(args, result)`` gives its value."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, clock(), None, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            if measure is not None:
                span[5] = measure(args, result)
            return result

        return traced

    def records(self) -> list[dict]:
        return [{"id": i, "parent": p, "name": n, "start": s, "end": e,
                 "value": v, "run": self.run_id} for i, p, n, s, e, v in self.spans]


def self_times(spans: list[dict]) -> dict[tuple, float]:
    """(run id, span id) -> duration minus the union of its direct children's intervals."""
    children: dict[tuple, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp["parent"] is not None:
            children[(sp["run"], sp["parent"])].append((sp["start"], sp["end"]))
    out = {}
    for sp in spans:
        start, end = sp["start"], sp["end"]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get((sp["run"], sp["id"]), ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[(sp["run"], sp["id"])] = (end - start) - covered
    return out


def _rows(args, result) -> int:
    x = args[1]
    return int(getattr(x, "shape", (len(x),))[0])


def _e_step_rows(args, result) -> int:
    y = args[1]
    return int(getattr(getattr(y, "matrix", y), "shape")[0])


def _fit_counts(args, result) -> list[int]:
    return [int(result.n_iterations), int(result.n_reseeds)]


def _train_steps(args, result) -> int:
    return int(args[1].steps)


def _failed_checks(args, result) -> int:
    reports = result.get("suites", [result])
    return sum(1 for rep in reports for check in rep["checks"] if not check["passed"])


# (span name, "module:attr" or "module:Class.method" lookup sites, measure)
SITES = (
    ("cli.load_run_config", ("c4td.cli:load_run_config",), None),
    ("cli.build_env", ("c4td.cli:build_env",), None),
    ("cli.build_train_config", ("c4td.cli:build_train_config",), None),
    ("cli.metrics_to_csv", ("c4td.cli:metrics_to_csv",), None),
    ("cli.mixture_to_json", ("c4td.cli:mixture_to_json",), None),
    ("cli.critic_save", ("c4td.nets:MlpCritic.save",), None),
    ("cli.run_suite", ("c4td.cli:run_suite",), _failed_checks),
    ("data.load_jsonl", ("c4td.cli:load_jsonl",), None),
    ("data.take", ("c4td.data:OfflineDataset.take",), None),
    ("data.joint_inputs", ("c4td.data:OfflineDataset.joint_inputs",), None),
    ("train.loop", ("c4td.cli:train",), _train_steps),
    ("train.objective", ("c4td.train:_objective_report",), None),
    ("train.sample_batch", ("c4td.train:single_cluster_batch",), None),
    ("train.optimizer", ("c4td.train:_Adam.apply", "c4td.train:_Sgd.apply"), None),
    ("train.identity_check", ("c4td.train:_check_step_identities",), None),
    ("train.eval", ("c4td.train:_eval_return",), None),
    ("train.greedy_action", ("c4td.train:_greedy_action",), None),
    ("train.refresh", ("c4td.train:refresh_clusters",), None),
    ("train.gradient_pairs", ("c4td.train:gradient_pairs",), None),
    ("nets.forward", ("c4td.nets:MlpCritic._forward_cached",), _rows),
    ("nets.backprop", ("c4td.nets:MlpCritic.backprop",), None),
    ("nets.input_gradient", ("c4td.nets:MlpCritic.input_gradient_batch",), None),
    ("nets.ema", ("c4td.nets:TargetCritic.update",), None),
    ("covstats.cross_cov", ("c4td.covstats:cross_cov", "c4td.train:cross_cov"), None),
    ("covstats.penalty", ("c4td.covstats:penalty", "c4td.train:penalty"), None),
    ("covstats.svd", ("c4td.covstats:jacobi_svd", "c4td.covstats:spectral_norm",
                      "c4td.verify:jacobi_svd", "c4td.verify:spectral_norm"), None),
    ("gmm.fit", ("c4td.gmm:fit",), _fit_counts),
    ("gmm.log_components", ("c4td.gmm:_log_components",), None),
    ("gmm.m_step", ("c4td.gmm:m_step",), None),
    ("gmm.e_step", ("c4td.gmm:e_step",), _e_step_rows),
    ("gmm.mixture_check", ("c4td.gmm:GaussianMixture.__post_init__",), None),
    ("gmm.sample_cluster", ("c4td.gmm:sample_cluster",), None),
    ("policy.bound_check", ("c4td.policy:mixture_bound_check",
                            "c4td.verify:mixture_bound_check"), None),
    ("policy.logpdf", ("c4td.policy:GaussianDist.logpdf",), None),
    ("verify.suite_covariance", ("c4td.verify:suite_covariance",), None),
    ("verify.suite_gmm", ("c4td.verify:suite_gmm",), None),
    ("verify.suite_theorem1", ("c4td.verify:suite_theorem1",), None),
    ("verify.suite_policy", ("c4td.verify:suite_policy",), None),
)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Patch every site in SITES; returns (owner, attr, original) to undo."""
    undo = []
    for name, lookups, measure in SITES:
        for site in lookups:
            module_name, _, path = site.partition(":")
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, tracer.wrap(name, original, measure))
            undo.append((owner, attr, original))
    verify = importlib.import_module("c4td.verify")
    suites = verify._SUITE_FNS
    for key in list(suites):
        undo.append((suites, key, suites[key]))
        suites[key] = getattr(verify, f"suite_{key}")
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)


# metric -> (unit, how, span names). ``how`` is "self" (self time), "total"
# (whole span time), "calls", "value" (summed per-call values) or "value<i>"
# (item i of a per-call list). The phase totals train.refresh_s, train.eval_s
# and train.identity_check_s include the layers they call, so they compare with
# a run's training time; every other ``_s`` metric is self time.
LAYER_METRICS = {
    "cli.config_s": ("s", "self", ("cli.load_run_config", "cli.build_env",
                                   "cli.build_train_config")),
    "cli.artifacts_s": ("s", "self", ("cli.metrics_to_csv", "cli.mixture_to_json",
                                      "cli.critic_save")),
    "cli.mixture_snapshots": ("count", "calls", ("cli.mixture_to_json",)),
    "data.load_jsonl_s": ("s", "self", ("data.load_jsonl",)),
    "data.take_s": ("s", "self", ("data.take",)),
    "data.take_calls": ("count", "calls", ("data.take",)),
    "train.loop_self_s": ("s", "self", ("train.loop",)),
    "train.objective_s": ("s", "self", ("train.objective",)),
    "train.sample_batch_s": ("s", "self", ("train.sample_batch",)),
    "train.optimizer_s": ("s", "self", ("train.optimizer",)),
    "train.identity_check_s": ("s", "total", ("train.identity_check",)),
    "train.eval_s": ("s", "total", ("train.eval",)),
    "train.greedy_action_calls": ("count", "calls", ("train.greedy_action",)),
    "train.refresh_s": ("s", "total", ("train.refresh",)),
    "train.refresh_calls": ("count", "calls", ("train.refresh",)),
    "train.gradient_pairs_s": ("s", "self", ("train.gradient_pairs",)),
    "nets.forward_s": ("s", "self", ("nets.forward",)),
    "nets.forward_calls": ("count", "calls", ("nets.forward",)),
    "nets.backprop_s": ("s", "self", ("nets.backprop",)),
    "nets.backprop_calls": ("count", "calls", ("nets.backprop",)),
    "nets.ema_s": ("s", "self", ("nets.ema",)),
    "nets.input_gradient_s": ("s", "self", ("nets.input_gradient",)),
    "nets.input_gradient_calls": ("count", "calls", ("nets.input_gradient",)),
    "covstats.cross_cov_s": ("s", "self", ("covstats.cross_cov",)),
    "covstats.cross_cov_calls": ("count", "calls", ("covstats.cross_cov",)),
    "covstats.penalty_s": ("s", "self", ("covstats.penalty",)),
    "covstats.svd_s": ("s", "self", ("covstats.svd",)),
    "gmm.fit_s": ("s", "self", ("gmm.fit",)),
    "gmm.fit_calls": ("count", "calls", ("gmm.fit",)),
    "gmm.em_iterations": ("count", "value0", ("gmm.fit",)),
    "gmm.reseeds": ("count", "value1", ("gmm.fit",)),
    "gmm.log_components_s": ("s", "self", ("gmm.log_components",)),
    "gmm.log_components_calls": ("count", "calls", ("gmm.log_components",)),
    "gmm.m_step_s": ("s", "self", ("gmm.m_step",)),
    "gmm.e_step_s": ("s", "self", ("gmm.e_step",)),
    "gmm.e_step_rows": ("count", "value", ("gmm.e_step",)),
    "gmm.mixture_check_s": ("s", "self", ("gmm.mixture_check",)),
    "gmm.sample_cluster_s": ("s", "self", ("gmm.sample_cluster",)),
    "policy.bound_check_s": ("s", "self", ("policy.bound_check",)),
    "policy.logpdf_s": ("s", "self", ("policy.logpdf",)),
    "policy.logpdf_calls": ("count", "calls", ("policy.logpdf",)),
    "verify.suite_covariance_s": ("s", "self", ("verify.suite_covariance",)),
    "verify.suite_gmm_s": ("s", "self", ("verify.suite_gmm",)),
    "verify.suite_theorem1_s": ("s", "self", ("verify.suite_theorem1",)),
    "verify.suite_policy_s": ("s", "self", ("verify.suite_policy",)),
    "verify.checks_failed": ("count", "value", ("cli.run_suite",)),
}


class SpanTotals:
    """Self time, total time, calls and summed values per span name."""

    def __init__(self, spans: list[dict]):
        own = self_times(spans)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.values: dict[str, list] = defaultdict(list)
        for sp in spans:
            name = sp["name"]
            self.self_s[name] += own[(sp["run"], sp["id"])]
            self.total_s[name] += sp["end"] - sp["start"]
            self.calls[name] += 1
            if sp["value"] is not None:
                self.values[name].append(sp["value"])

    def value_sum(self, name: str, index: int | None = None) -> float:
        return float(sum(v if index is None else v[index] for v in self.values[name]))

    def steps(self) -> int:
        return int(self.value_sum("train.loop"))


def _outside_phases(spans: list[dict], name: str) -> int:
    """Calls of ``name`` with no refresh or eval span among their ancestors."""
    by_key = {(sp["run"], sp["id"]): sp for sp in spans}
    count = 0
    for sp in spans:
        if sp["name"] != name:
            continue
        parent = sp["parent"]
        while parent is not None:
            anc = by_key[(sp["run"], parent)]
            if anc["name"] in ("train.refresh", "train.eval"):
                break
            parent = anc["parent"]
        else:
            count += 1
    return count


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """BENCHMARK.json's per-layer metrics from the spans of a traced run."""
    totals = SpanTotals(spans)
    out = {}
    for metric, (unit, how, names) in LAYER_METRICS.items():
        if how == "self":
            value = sum(totals.self_s[n] for n in names)
        elif how == "total":
            value = sum(totals.total_s[n] for n in names)
        elif how == "calls":
            value = sum(totals.calls[n] for n in names)
        else:
            index = int(how[5:]) if how[5:] else None
            value = sum(totals.value_sum(n, index) for n in names)
        out[metric] = (value, unit)
    steps = totals.steps()
    forwards = totals.calls["nets.forward"]
    out["data.joint_inputs_per_step"] = (
        totals.calls["data.joint_inputs"] / steps if steps else 0.0, "count/step")
    out["nets.forwards_per_step"] = (
        _outside_phases(spans, "nets.forward") / steps if steps else 0.0, "count/step")
    out["nets.rows_per_forward"] = (
        totals.value_sum("nets.forward") / forwards if forwards else 0.0, "rows")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one c4 command under the tracer")
    parser.add_argument("--spans", required=True, help="where to write the span list")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("c4_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    c4_args = args.c4_args[1:] if args.c4_args[:1] == ["--"] else args.c4_args
    from c4td import cli

    tracer = Tracer(args.run_id)
    undo = install(tracer)
    try:
        code = cli.main(c4_args)
    finally:
        uninstall(undo)
    Path(args.spans).write_text(json.dumps(tracer.records()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
