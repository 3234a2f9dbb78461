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
