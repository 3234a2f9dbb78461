"""Tests for the built-in numerical invariant suites."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import c4td
from c4td import verify
from c4td.errors import InputError
from c4td.verify import SUITES, run_suite

NAMES = [s for s in SUITES if s != "all"]


def test_every_named_suite_passes():
    for name in SUITES:
        if name == "all":
            continue
        report = run_suite(name, seed=0)
        assert report["suite"] == name
        assert report["passed"], report
        assert report["checks"]
        for check in report["checks"]:
            assert check["passed"], check


# every check of ``run_suite("all")`` with its tolerance; a dropped or loosened check shows here
CHECK_TABLE = [
    ("covariance", "law_of_total_covariance", 1e-10),
    ("covariance", "within_bound_chain_slack", 1e-10),
    ("covariance", "svd_alignment_lower_bound", 1e-10),
    ("covariance", "spectral_norm_vs_jacobi_svd", 1e-8),
    ("gmm", "log_likelihood_max_drop", 1e-9),
    ("gmm", "responsibility_row_sums", 1e-12),
    ("gmm", "separated_clusters_label_error", 0.0),
    ("theorem1", "linear_direct_vs_composed", 1e-10),
    ("theorem1", "relu_relative_gap", 0.05),
    ("theorem1", "gradient_identity_and_cosines", 0.0),
    ("policy", "kappa_star_residual", 1e-12),
    ("policy", "pearson_lambert_route_gap", 1e-10),
    ("policy", "chi2_inflation_cap_slack", 1e-10),
    ("policy", "mixture_bound_slack", 1e-6),
]


@pytest.fixture(scope="module")
def all_report():
    return run_suite("all", seed=1)


def test_all_suite_aggregates_the_rest(all_report):
    assert all_report["passed"]
    assert [r["suite"] for r in all_report["suites"]] == \
        [s for s in SUITES if s != "all"]


def test_every_check_keeps_its_name_and_tolerance(all_report):
    assert [(r["suite"], c["name"], c["tolerance"])
            for r in all_report["suites"] for c in r["checks"]] == CHECK_TABLE


def test_covariance_suite_passes_at_many_seeds():
    failed = [seed for seed in range(50) if not run_suite("covariance", seed)["passed"]]
    assert failed == []


def test_unknown_suite_is_rejected():
    with pytest.raises(InputError):
        run_suite("entropy")


@pytest.mark.parametrize("seed", [-1, 0.5, True])
def test_a_seed_that_is_not_a_nonnegative_integer_is_rejected(seed):
    with pytest.raises(InputError, match="^seed must be "):
        run_suite("gmm", seed=seed)


@pytest.mark.parametrize("seed", [0, 1, 8841])
def test_each_suite_reports_the_same_bytes_in_any_order(seed):
    # the split over processes relies on this: no suite reads state another leaves behind
    orders = {"forward": NAMES, "reversed": NAMES[::-1], "interleaved": NAMES[::2] + NAMES[1::2]}
    seen = {name: set() for name in NAMES}
    for order in orders.values():
        for name in order:
            seen[name].add(json.dumps(run_suite(name, seed), sort_keys=True))
    assert {name: len(texts) for name, texts in seen.items()} == dict.fromkeys(NAMES, 1)


def _dump(report):
    return json.dumps(report, indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def serial_seed1():
    """``run_suite("all", 1)``'s report assembled from one suite call after another."""
    reports = [run_suite(name, 1) for name in NAMES]
    return _dump({"suite": "all", "suites": reports, "passed": all(r["passed"] for r in reports)})


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.parametrize("cpus, forks", [(1, 0), (2, 1), (4, 3)])
def test_all_is_the_serial_report_byte_for_byte_at_any_cpu_count(
        cpus, forks, serial_seed1, monkeypatch):
    _cpus(monkeypatch, cpus)
    real_fork, calls = os.fork, []

    def fork():
        if cpus == 1:
            raise AssertionError("one usable CPU must not fork")
        calls.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    assert _dump(run_suite("all", 1)) == serial_seed1
    assert len(calls) == forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _stub_suites(monkeypatch, broken, failure):
    """Cheap stand-ins for the suites; ``broken`` fails by ``failure``."""
    caller = os.getpid()

    def fail(seed):
        if failure == "die" and os.getpid() != caller:
            os._exit(3)  # a worker that dies without writing; never the test process itself
        raise ValueError("suite broke")

    for name in NAMES:
        monkeypatch.setitem(verify._SUITE_FNS, name,
                            fail if name == broken else lambda seed: [verify._check("c", 0, 0)])


@pytest.mark.parametrize("failure, status", [("raise", 1), ("die", 3)])
def test_a_failing_worker_raises_naming_its_suites_after_reaping(failure, status, monkeypatch):
    _cpus(monkeypatch, 2)  # the caller runs covariance and theorem1, a child gmm and policy
    _stub_suites(monkeypatch, "policy", failure)
    detail = "ValueError: suite broke" if failure == "raise" else "no output"
    with pytest.raises(RuntimeError, match=f"suites gmm, policy exited with status {status}: "
                                           f"{detail}"):
        run_suite("all", 0)
    _no_child_left()


def test_a_failing_suite_in_the_caller_propagates_after_reaping(monkeypatch):
    _cpus(monkeypatch, 2)
    _stub_suites(monkeypatch, "covariance", "raise")
    with pytest.raises(ValueError, match="^suite broke$"):
        run_suite("all", 0)
    _no_child_left()


def test_a_worker_neither_prints_nor_flushes_the_callers_stdout():
    # pending bytes in the caller's stdout buffer are copied into each child at the fork
    code = ("import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "sys.stdout.write('pending ')\n"
            "from c4td.verify import run_suite\n"
            "print(run_suite('all', 0)['passed'])\n")
    env = dict(os.environ, PYTHONPATH=str(Path(c4td.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert (out.returncode, out.stdout, out.stderr) == (0, "pending True\n", "")
