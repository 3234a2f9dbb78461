import json
import warnings

import numpy as np
import pytest

from c4td import gmm
from c4td.errors import InputError
from c4td.gmm import (GaussianMixture, default_ridge, e_step, effective_clusters, fit,
                      log_density, m_step, mixture_to_json, sample_cluster)
from oracles import (adjusted_rand_index, gaussian_logpdf_per_component, logsumexp_rows_one_pass,
                     m_step_moments, mixture_json_dumps, mixture_logpdf, posterior_out_of_place)


def _random_mixture(rng, k, dim):
    weights = rng.uniform(0.5, 1.5, size=k)
    weights /= weights.sum()
    means = rng.standard_normal((k, dim))
    covs = []
    for _ in range(k):
        a = rng.standard_normal((dim, dim))
        covs.append(a @ a.T / dim + 0.2 * np.eye(dim))
    return GaussianMixture(weights, means, np.asarray(covs))


def test_e_step_rows_are_posteriors():
    rng = np.random.default_rng(0)
    mix = _random_mixture(rng, 3, 4)
    y = rng.standard_normal((50, 4))
    resp = e_step(mix, y)
    assert resp.shape == (50, 3)
    assert np.all(resp >= 0)
    assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)
    # direct Bayes computation via scipy densities
    log_joint = np.stack([
        np.log(mix.weights[j])
        + mixture_logpdf(y, [1.0], [mix.means[j]], [mix.covariances[j]])
        for j in range(3)], axis=1)
    direct = np.exp(log_joint - log_joint.max(axis=1, keepdims=True))
    direct /= direct.sum(axis=1, keepdims=True)
    assert np.max(np.abs(resp - direct)) < 1e-10


def test_log_likelihood_matches_scipy():
    rng = np.random.default_rng(1)
    mix = _random_mixture(rng, 2, 3)
    y = rng.standard_normal((40, 3))
    direct = float(np.sum(mixture_logpdf(y, mix.weights, mix.means,
                                         mix.covariances)))
    assert float(log_density(mix, y).sum()) == pytest.approx(direct, rel=1e-10)


def test_log_density_is_the_mixture_row_by_row():
    rng = np.random.default_rng(12)
    mix = _random_mixture(rng, 3, 2)
    # a zero-weight component adds nothing to any row
    weights = np.array([0.2, 0.0, 0.8])
    mix = GaussianMixture(weights, mix.means, mix.covariances)
    y = rng.standard_normal((15, 2))
    direct = mixture_logpdf(y, weights, mix.means, mix.covariances)
    assert log_density(mix, y).shape == (15,)
    assert np.allclose(log_density(mix, y), direct, rtol=1e-12, atol=1e-12)
    with pytest.raises(InputError):
        log_density(mix, np.ones((3, 3)))


def test_m_step_matches_weighted_moments():
    rng = np.random.default_rng(2)
    y = rng.standard_normal((60, 3))
    resp = rng.uniform(size=(60, 2))
    resp /= resp.sum(axis=1, keepdims=True)
    ridge = 1e-6
    mix = m_step(y, resp, ridge)
    assert np.allclose(mix.weights, resp.mean(axis=0))
    for j in range(2):
        w = resp[:, j]
        mu = (w[:, None] * y).sum(axis=0) / w.sum()
        centered = y - mu
        cov = (w[:, None] * centered).T @ centered / w.sum() + ridge * np.eye(3)
        assert np.allclose(mix.means[j], mu)
        assert np.allclose(mix.covariances[j], cov)
    assert mix.weights.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("k", [1, 5, 8])
@pytest.mark.parametrize("d", [1, 2, 32])
@pytest.mark.parametrize("n", [1, 7, 512, 2053])
def test_em_kernels_match_their_unbuffered_forms_byte_for_byte(n, d, k):
    # reused buffers, a stacked inverse and in-place exp move no bit
    rng = np.random.default_rng(n * 100 + d * 10 + k)
    mix = _random_mixture(rng, k, d)
    if k > 1:  # an empty component exercises the -inf column
        weights = mix.weights.copy()
        weights[-1] = 0.0
        mix = GaussianMixture(weights / weights.sum(), mix.means, mix.covariances)
    y = rng.standard_normal((n, d)) * rng.uniform(0.1, 4.0, d) + mix.means[0]
    logs = gmm.gaussian_logpdf(y, mix.means, mix.chols)
    assert logs.tobytes() == gaussian_logpdf_per_component(y, mix.means, mix.chols).tobytes()
    resp, row_ll = gmm._posterior(mix, y)
    ref_resp, ref_ll = posterior_out_of_place(mix, y)
    assert resp.tobytes() == ref_resp.tobytes() and row_ll.tobytes() == ref_ll.tobytes()
    soft = rng.dirichlet(np.ones(k), size=n)
    moved = m_step(y, soft, 1e-6)
    for got, ref in zip((moved.weights, moved.means, moved.covariances),
                        m_step_moments(y, soft, 1e-6)):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", [8, 32, 64, 128])
@pytest.mark.parametrize("n", [1023, 1024, 1025, 2047, 2048, 2049, 10_000])
def test_e_step_row_blocks_move_no_bit(n, d):
    # Blocks hold 4096, 1024, 512 and 256 rows at these D: n sits one row
    # below, at and above a single block, two blocks, and many blocks with a
    # remainder joined to the last one.
    rng = np.random.default_rng(n + d)
    mix = _random_mixture(rng, 5, d)
    y = rng.standard_normal((n, d)) * rng.uniform(0.1, 4.0, d) + mix.means[0]
    logs = gmm.gaussian_logpdf(y, mix.means, mix.chols)
    assert logs.tobytes() == gaussian_logpdf_per_component(y, mix.means, mix.chols).tobytes()
    resp, row_ll = gmm._posterior(mix, y)
    ref_resp, ref_ll = posterior_out_of_place(mix, y)
    assert resp.tobytes() == ref_resp.tobytes() and row_ll.tobytes() == ref_ll.tobytes()


@pytest.mark.parametrize("k", [1, 3, 8, 33])
def test_logsumexp_rows_blocks_move_no_bit(k):
    # Blocks hold _BLOCK_ELEMS // k rows: n sits at and around one and two
    # blocks. Each row holds a -inf column, and one row is -inf throughout.
    rows = gmm._BLOCK_ELEMS // k
    rng = np.random.default_rng(k)
    for n in (1, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows, 2 * rows + 1, 10_000):
        logs = rng.standard_normal((n, k)) * 50.0 - 300.0
        logs[:, -1] = -np.inf
        logs[n // 2] = -np.inf
        with np.errstate(divide="ignore"):  # log(0) for the row with no mass, in both
            got, ref = gmm.logsumexp_rows(logs), logsumexp_rows_one_pass(logs)
        assert got.tobytes() == ref.tobytes()


def test_e_step_holds_two_row_buffers_whatever_k_is(traced_peak):
    # In units of N D doubles, the peak (0.67 here) is set inside
    # gaussian_logpdf: its (N, K) output table (K/D = 0.25), which becomes
    # the responsibilities, and its diff and u buffers, one row block each,
    # at most 2047 rows whatever N is (1808 rows here: 0.36), with a few (N,)
    # vectors (1/D = 0.03 each). logsumexp_rows shifts the table in row
    # blocks, not as an (N, K) copy. A single (N, D) array would reach the
    # bound of 1.0 on its own; two of them, as the E-step once kept, read 2.31.
    n, d, k = 10_000, 32, 8
    rng = np.random.default_rng(5)
    mix = _random_mixture(rng, k, d)
    y = rng.standard_normal((n, d))
    assert traced_peak(lambda: e_step(mix, y)) <= 1.0 * n * d * 8


def test_e_step_scratch_grows_with_n_only_by_its_k_wide_table_and_vectors(traced_peak):
    # From N = 10 000 to 40 000 rows, the peak may grow by the (N, K) table
    # and six (N,) vectors: 14 doubles a row at K = 8 (8.9 measured).
    # The peak itself is set inside gaussian_logpdf (previous test), and
    # logsumexp_rows's shift runs in row blocks; a whole (N, K) shifted copy,
    # as it once made, grew the peak by 19.5 doubles a row. One (N, D) array
    # would add 32 on its own.
    d, k = 32, 8
    rng = np.random.default_rng(6)
    mix = _random_mixture(rng, k, d)
    small, large = (rng.standard_normal((n, d)) for n in (10_000, 40_000))
    growth = traced_peak(lambda: e_step(mix, large)) - traced_peak(lambda: e_step(mix, small))
    assert growth <= 30_000 * (k + 6) * 8


def test_fit_log_likelihood_is_monotone_on_generic_data():
    rng = np.random.default_rng(3)
    for trial in range(10):
        k = int(rng.integers(2, 5))
        y = rng.standard_normal((120, 4)) + rng.standard_normal(4)
        result = fit(y, k, seed=trial)
        diffs = np.diff(result.log_likelihoods)
        assert diffs.min() >= -1e-9
        resp = e_step(result.mixture, y)
        assert resp.shape == (120, k)
        assert np.allclose(resp.sum(axis=1), 1.0)


def test_fit_recovers_well_separated_clusters_exactly():
    rng = np.random.default_rng(4)
    centers = np.array([[-10.0, 0.0], [10.0, 0.0]])
    labels_true = rng.integers(0, 2, size=200)
    y = centers[labels_true] + 0.5 * rng.standard_normal((200, 2))
    labels_fit = e_step(fit(y, 2, seed=0).mixture, y).argmax(axis=1)
    assert adjusted_rand_index(labels_true, labels_fit) == 1.0


def test_fit_unpacks_and_reports_iterations():
    rng = np.random.default_rng(5)
    y = rng.standard_normal((80, 3))
    result = fit(y, 2, seed=1)
    mixture, trace, iterations, reseeds = result
    assert mixture is result.mixture and trace is result.log_likelihoods
    assert mixture.n_components == 2
    # reseeds restart the recorded trace, so iterations can exceed its length
    assert iterations == result.n_iterations >= len(trace)
    assert reseeds == result.n_reseeds >= 0


def test_fit_never_returns_a_mixture_below_the_recorded_trace():
    rng = np.random.default_rng(11)
    for trial in range(8):
        y = rng.standard_normal((90, 4))
        y[:, 2] = y[:, 0]  # rank-deficient: ridge dips become likely
        result = fit(y, 2, seed=trial)
        final_ll = float(log_density(result.mixture, y).sum())
        assert final_ll >= result.log_likelihoods[-1] - 1e-8
        if result.n_iterations < 200:  # converged before the iteration cap
            assert final_ll == pytest.approx(result.log_likelihoods[-1], abs=1e-8)
        assert np.diff(result.log_likelihoods).min() >= -1e-9


def test_fit_runs_no_e_step_outside_its_loop(monkeypatch):
    rng = np.random.default_rng(7)
    y = rng.standard_normal((60, 3))
    calls = []
    real_e_step = gmm.e_step

    def counting_e_step(mixture, rows):
        calls.append(len(rows))
        return real_e_step(mixture, rows)

    monkeypatch.setattr(gmm, "e_step", counting_e_step)
    result = fit(y, 2, seed=3)
    assert calls == []
    assert not hasattr(result, "responsibilities")
    resp = gmm.e_step(result.mixture, y)
    assert calls == [60]
    assert np.allclose(resp.sum(axis=1), 1.0, atol=1e-12)


def test_fit_factors_each_mixture_once_and_the_e_step_never(monkeypatch):
    rng = np.random.default_rng(12)
    y = rng.standard_normal((80, 3))
    y[:40] += 6.0
    k = 3
    counts = {"cholesky": 0, "built": 0}
    real_cholesky = np.linalg.cholesky
    real_post_init = GaussianMixture.__post_init__

    def counting_cholesky(a):
        counts["cholesky"] += 1
        return real_cholesky(a)

    def counting_post_init(self):
        counts["built"] += 1
        real_post_init(self)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    monkeypatch.setattr(GaussianMixture, "__post_init__", counting_post_init)
    result = fit(y, k, max_iters=20, tol=0.0, seed=2)
    assert result.n_iterations > 1
    # the initial mixture and one per M-step or reseed
    assert counts["built"] >= result.n_iterations
    # one stacked call factors all k covariances of a mixture
    assert counts["cholesky"] == counts["built"]
    built = counts["built"]
    warm = fit(y, k, max_iters=1, seed=2, init=result.mixture)
    assert counts["built"] == built + 1  # its one M-step; the warm start is used as given
    assert counts["cholesky"] == counts["built"]
    e_step(warm.mixture, y)  # _log_components reads the stored factors
    log_density(warm.mixture, y)
    assert counts["cholesky"] == counts["built"]


def test_mixture_arrays_are_read_only_copies():
    rng = np.random.default_rng(13)
    covs = np.stack([np.eye(2), 2.0 * np.eye(2)])
    mix = GaussianMixture(np.array([0.5, 0.5]), rng.standard_normal((2, 2)), covs)
    covs[0, 0, 0] = 5.0  # the caller's array stays writable and detached
    assert mix.covariances[0, 0, 0] == 1.0
    for arr in (mix.weights, mix.means, mix.covariances, mix.chols, mix.cdf):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(ValueError):
        mix.covariances[1, 0, 0] = 3.0
    assert np.array_equal(mix.chols[1], np.sqrt(2.0) * np.eye(2))


def test_symmetry_tolerance_is_allcloses_and_names_the_first_bad_component():
    eye = np.eye(2)
    for gap in (0.0, 0.5e-10, 1e-10, 1.0000001e-10, 1.1e-10, 1e-6):
        covs = np.stack([eye, eye, eye])
        covs[1, 0, 1] = gap  # 1e-10 itself is allclose's atol, so it still passes
        covs[2, 1, 0] = -gap
        symmetric = all(np.allclose(c, c.T, rtol=0.0, atol=1e-10) for c in covs)
        assert symmetric == (gap <= 1e-10)
        if symmetric:
            GaussianMixture(np.full(3, 1 / 3), np.zeros((3, 2)), covs)
        else:
            with pytest.raises(InputError, match="^covariance 1 is not symmetric$"):
                GaussianMixture(np.full(3, 1 / 3), np.zeros((3, 2)), covs)


def test_fit_is_deterministic_given_seed():
    rng = np.random.default_rng(6)
    y = rng.standard_normal((70, 4))
    a = fit(y, 3, seed=9)
    b = fit(y, 3, seed=9)
    assert np.array_equal(a.mixture.means, b.mixture.means)
    assert np.array_equal(e_step(a.mixture, y), e_step(b.mixture, y))


def test_fit_survives_degenerate_data():
    # rank-deficient rows collapse covariances to the ridge floor, no raise
    y = np.zeros((40, 4))
    y[:, 0] = np.arange(40.0)
    result = fit(y, 2, seed=0)
    for cov in result.mixture.covariances:
        assert np.all(np.linalg.eigvalsh(cov) > 0)


def test_default_ridge_scales_with_variance():
    rng = np.random.default_rng(7)
    y = rng.standard_normal((50, 3))
    assert default_ridge(10.0 * y) == pytest.approx(100.0 * default_ridge(y), rel=1e-6)


@pytest.mark.parametrize("scale", [1e153, 5e153])
def test_fit_rejects_data_whose_variance_overflows(scale):
    # finite rows whose squares overflow once reached rng.choice with an
    # infinite ridge: "Probabilities do not sum to 1" at 1e153, "contain NaN"
    # at 5e153, each after numpy RuntimeWarnings
    y = scale * np.random.default_rng(0).standard_normal((2048, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="data too large for EM"):
            fit(y, 2, max_iters=3)


def test_sample_cluster_follows_weights():
    mix = GaussianMixture(np.array([0.2, 0.8]),
                          np.zeros((2, 2)),
                          np.stack([np.eye(2), np.eye(2)]))
    rng = np.random.default_rng(9)
    draws = np.array([sample_cluster(mix, rng) for _ in range(20_000)])
    assert abs(draws.mean() - 0.8) < 0.01


def test_sample_cluster_draws_what_generator_choice_draws():
    rng = np.random.default_rng(21)
    for trial in range(400):
        k = int(rng.integers(1, 9))
        weights = rng.dirichlet(np.ones(k))
        if k > 1 and trial % 2:  # zero some weights, keeping one live
            weights[rng.permutation(k)[:int(rng.integers(1, k))]] = 0.0
            weights /= weights.sum()
        mix = GaussianMixture(weights, np.zeros((k, 1)), np.ones((k, 1, 1)))
        ours, numpys = np.random.default_rng(trial), np.random.default_rng(trial)
        for _ in range(5):
            z = sample_cluster(mix, ours)
            assert z == numpys.choice(k, p=mix.weights)
            assert mix.weights[z] > 0
        assert ours.random() == numpys.random()


def test_effective_clusters_counts_live_weights():
    mix = GaussianMixture(np.array([0.005, 0.495, 0.5]),
                          np.zeros((3, 2)),
                          np.stack([np.eye(2)] * 3))
    assert effective_clusters(mix) == 2
    assert effective_clusters(mix, occupancy_threshold=0.001) == 3


def test_mixture_json_is_the_json_dumps_payload_byte_for_byte():
    rng = np.random.default_rng(11)
    fitted = fit(rng.standard_normal((300, 6)) @ rng.standard_normal((6, 6)), 4,
                 max_iters=5, seed=1).mixture
    tiny = 5e-324  # the smallest subnormal
    edge = GaussianMixture(
        [1.0, tiny],
        [[1e308, -0.0, tiny], [-1e308, 2.5e-320, 0.0]],
        [[[1e308, 0.0, tiny], [-0.0, 1.0, -2.5e-320], [tiny, -2.5e-320, 1.0]],  # signed zeros
         [[2.0, 0.5, 0.0], [0.5 + 1e-12, 2.0, 0.1], [0.0, 0.1, 2.0]]])  # not symmetric
    for mix in (_random_mixture(rng, 3, 4), fitted, edge):
        assert mixture_to_json(mix) == mixture_json_dumps(mix)
        # the snapshot reads back with json.loads, every bit kept
        payload = json.loads(mixture_to_json(mix))
        k, d = payload["K"], len(payload["means"][0])
        back = GaussianMixture(payload["weights"], payload["means"],
                               np.reshape(payload["covariances"], (k, d, d)))
        for name in ("weights", "means", "covariances"):
            got, want = getattr(back, name), getattr(mix, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes())


_EYES = np.stack([np.eye(2), np.eye(2)])


@pytest.mark.parametrize("weights, means, covs, match", [
    ([0.5, 0.5], np.zeros((1, 2)), _EYES, r"means must be \(K, D\)"),
    ([1.0], np.zeros(2), _EYES[:1], r"means must be \(K, D\)"),
    ([0.5, 0.5], np.zeros((2, 2)), _EYES[:1], r"covariances must be \(K, D, D\)"),
    ([1.0], np.zeros((1, 2)), np.eye(3)[None], r"covariances must be \(K, D, D\)"),
    ([1.0], np.zeros((1, 2)), [[1.0, 0.0, 0.0, 1.0]], r"covariances must be \(K, D, D\)"),
    ([1.5, -0.5], np.zeros((2, 2)), _EYES, "weights must be a probability vector"),
    ([0.5, 0.6], np.zeros((2, 2)), _EYES, "weights must be a probability vector"),
], ids=["means_not_k", "means_one_dimensional", "covariances_not_k", "covariances_not_d",
        "covariances_as_written_in_a_snapshot", "negative_weight", "weights_not_summing_to_one"])
def test_mixture_rejects_arrays_that_do_not_fit_k_and_d(weights, means, covs, match):
    # a snapshot's covariances are K row-major D*D rows: read unreshaped, they are refused
    with pytest.raises(InputError, match=match):
        GaussianMixture(weights, means, covs)


def test_mixture_validation():
    eyes = np.stack([np.eye(2), np.eye(2)])
    with pytest.raises(InputError):
        GaussianMixture(np.array([0.5, 0.6]), np.zeros((2, 2)), eyes)
    bad_cov = eyes.copy()
    bad_cov[1, 0, 1] = np.inf
    for weights, means, covs in (([np.nan, np.nan], np.zeros((2, 2)), eyes),
                                 ([0.5, 0.5], np.full((2, 2), np.nan), eyes),
                                 ([0.5, 0.5], np.zeros((2, 2)), bad_cov)):
        with pytest.raises(InputError, match="finite"):
            GaussianMixture(np.array(weights), means, covs)
    with pytest.raises(InputError, match="symmetric"):
        GaussianMixture(np.array([1.0]), np.zeros((1, 2)), np.array([[[1.0, 0.5], [0.0, 1.0]]]))
    for weights in (np.array(1.0), np.array([[0.5, 0.5]])):
        with pytest.raises(InputError, match=r"weights must be \(K,\)"):
            GaussianMixture(weights, np.zeros((1, 1)), np.ones((1, 1, 1)))
    with pytest.raises(InputError, match="positive definite"):
        GaussianMixture(np.array([1.0]), np.zeros((1, 2)), -eyes[:1])
    with pytest.raises(InputError):
        fit(np.zeros((5, 2)), 0)
    with pytest.raises(InputError):
        fit(np.zeros((3, 2)), 4)  # more clusters than rows
