"""Tests for the built-in numerical invariant suites."""

import pytest

from c4td.errors import InputError
from c4td.verify import SUITES, run_suite


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


def test_all_suite_aggregates_the_rest():
    report = run_suite("all", seed=1)
    assert report["passed"]
    assert [r["suite"] for r in report["suites"]] == \
        [s for s in SUITES if s != "all"]


def test_unknown_suite_is_rejected():
    with pytest.raises(InputError):
        run_suite("entropy")


@pytest.mark.parametrize("seed", [-1, 0.5, True])
def test_a_seed_that_is_not_a_nonnegative_integer_is_rejected(seed):
    with pytest.raises(InputError, match="^seed must be "):
        run_suite("gmm", seed=seed)
