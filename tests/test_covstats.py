import math

import numpy as np
import pytest

from c4td.covstats import (cross_cov, jacobi_svd, penalty,
                           spectral_norm, svd_alignment_bound,
                           total_cov_decomposition, within_bound_check)
from c4td.errors import InputError
from oracles import brute_total_cov, random_psd


def test_cross_cov_conventions():
    rng = np.random.default_rng(0)
    gp = rng.standard_normal((40, 3))
    g = rng.standard_normal((40, 3))
    gp_c = gp - gp.mean(axis=0)
    g_c = g - g.mean(axis=0)
    sample = cross_cov(gp, g, "sample")
    pop = cross_cov(gp, g, "population")
    assert np.allclose(sample, gp_c.T @ g_c / 39)
    assert np.allclose(pop, gp_c.T @ g_c / 40)
    with_centered, centered = cross_cov(gp, g, "sample", return_centered=True)
    assert with_centered.tobytes() == sample.tobytes() and centered.tobytes() == gp_c.tobytes()
    with pytest.raises(InputError):
        cross_cov(gp, g, "bessel")
    with pytest.raises(InputError):
        cross_cov(gp[:1], g[:1], "sample")


def test_cross_cov_rectangular():
    rng = np.random.default_rng(1)
    gp = rng.standard_normal((30, 5))
    g = rng.standard_normal((30, 2))
    assert cross_cov(gp, g).shape == (5, 2)


def test_penalty_formula():
    rng = np.random.default_rng(2)
    c = rng.standard_normal((4, 4))
    assert penalty(c) == pytest.approx(np.sum(c * c))
    beta = 0.7
    assert penalty(c, beta) == pytest.approx(np.sum(c * c) + beta * np.trace(c) ** 2)
    est = cross_cov(rng.standard_normal((10, 3)), rng.standard_normal((10, 3)))
    assert penalty(est) == pytest.approx(np.sum(est ** 2))
    with pytest.raises(InputError):
        penalty(c, -0.1)
    with pytest.raises(InputError):
        penalty(rng.standard_normal((3, 4)), 0.5)


def test_total_cov_decomposition_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, m = 50, 4
        k = int(rng.integers(1, 6))
        gp = rng.standard_normal((n, m))
        g = rng.standard_normal((n, m))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)
        dec = total_cov_decomposition(gp, g, labels)
        total, within, between = brute_total_cov(gp, g, labels)
        assert np.max(np.abs(dec.c_total - total)) < 1e-12
        assert np.max(np.abs(dec.within_expectation - within)) < 1e-12
        assert np.max(np.abs(dec.between - between)) < 1e-12
        recon = dec.within_expectation + dec.between
        assert np.max(np.abs(dec.c_total - recon)) < 1e-12


def test_single_label_decomposition_has_zero_between():
    rng = np.random.default_rng(4)
    gp = rng.standard_normal((30, 3))
    g = rng.standard_normal((30, 3))
    dec = total_cov_decomposition(gp, g, np.zeros(30, dtype=int))
    assert not dec.between.any()
    assert np.array_equal(dec.within_expectation, dec.c_total)


def test_decomposition_rejects_bad_labels():
    rng = np.random.default_rng(5)
    gp, g = rng.standard_normal((10, 2)), rng.standard_normal((10, 2))
    with pytest.raises(InputError):
        total_cov_decomposition(gp, g, np.zeros(9, dtype=int))
    with pytest.raises(InputError, match="paired rows"):
        total_cov_decomposition(gp, g[:9], np.zeros(10, dtype=int))


def test_spectral_norm_against_numpy():
    rng = np.random.default_rng(6)
    for _ in range(25):
        m = rng.standard_normal((int(rng.integers(2, 9)), int(rng.integers(2, 9))))
        assert spectral_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0],
                                                 rel=1e-8, abs=1e-10)
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_jacobi_svd_against_numpy():
    rng = np.random.default_rng(7)
    for _ in range(25):
        rows = int(rng.integers(2, 8))
        cols = int(rng.integers(2, 8))
        m = rng.standard_normal((rows, cols))
        u, s, vt = jacobi_svd(m)
        assert np.allclose(u @ np.diag(s) @ vt, m, atol=1e-10)
        assert np.allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-10)
        assert np.allclose(vt @ vt.T, np.eye(vt.shape[0]), atol=1e-10)
        assert np.all(np.diff(s) <= 1e-12)
        ref = np.linalg.svd(m, compute_uv=False)
        assert np.allclose(s[:ref.size], ref, atol=1e-10)


def test_within_bound_chain_on_joint_psd_blocks():
    rng = np.random.default_rng(8)
    for _ in range(60):
        mp = int(rng.integers(2, 6))
        m = int(rng.integers(2, 6))
        big = random_psd(rng, mp + m)
        sigma_prime = big[:mp, :mp]
        sigma = big[mp:, mp:]
        c_z = big[:mp, mp:]
        wp = rng.standard_normal(mp)
        wp /= np.linalg.norm(wp)
        w = rng.standard_normal(m)
        w /= np.linalg.norm(w)
        lhs, mid, rhs = within_bound_check(sigma_prime, sigma, c_z, wp, w)
        assert lhs <= mid + 1e-10
        assert mid <= rhs + 1e-10


def test_within_bound_rejects_non_psd_marginals():
    with pytest.raises(InputError):
        within_bound_check(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2),
                           np.eye(2), np.ones(2), np.ones(2))


def test_svd_alignment_bound_holds_and_is_tight_at_top_pair():
    rng = np.random.default_rng(9)
    # random small shapes, then two wider than 64
    shapes = [(int(rng.integers(2, 6)), int(rng.integers(2, 6))) for _ in range(100)]
    for shape in shapes + [(70, 66), (3, 80)]:
        c = rng.standard_normal(shape)
        wp = rng.standard_normal(c.shape[0])
        wp /= np.linalg.norm(wp)
        w = rng.standard_normal(c.shape[1])
        w /= np.linalg.norm(w)
        value, lower = svd_alignment_bound(c, wp, w)
        assert value >= lower - 1e-10
        u, s, vt = np.linalg.svd(c)
        top_value, top_lower = svd_alignment_bound(c, u[:, 0], vt[0])
        assert top_value == pytest.approx(s[0], abs=1e-9)
        assert top_lower == pytest.approx(s[0], abs=1e-9)


def test_svd_alignment_zero_matrix():
    wp = np.array([1.0, 0.0, 0.0])
    w = np.array([0.0, 1.0])
    assert svd_alignment_bound(np.zeros((3, 2)), wp, w) == (0.0, 0.0)


def test_directions_must_be_unit():
    with pytest.raises(InputError):
        svd_alignment_bound(np.eye(2), np.ones(2), np.array([1.0, 0.0]))


_E = np.array([1.0, 0.0])
_BAD_MATRICES = [
    (np.array([[1.0, math.nan], [0.0, 1.0]]), "must be finite"),
    (np.array([[1.0, 0.0], [-math.inf, 1.0]]), "must be finite"),
    (np.ones(2), r"must be 2-D, got shape \(2,\)"),
    (np.ones((2, 2, 1)), r"must be 2-D, got shape \(2, 2, 1\)"),
]


@pytest.mark.parametrize("bad, message", _BAD_MATRICES, ids=["nan", "inf", "1-d", "3-d"])
def test_non_finite_or_non_matrix_input_is_rejected_naming_the_argument(bad, message):
    with pytest.raises(InputError, match=f"^matrix {message}"):
        spectral_norm(bad)
    with pytest.raises(InputError, match=f"^matrix {message}"):
        jacobi_svd(bad)
    with pytest.raises(InputError, match=f"^c {message}"):
        svd_alignment_bound(bad, _E, _E)
    with pytest.raises(InputError, match=f"^c_z {message}"):
        within_bound_check(np.eye(2), np.eye(2), bad, _E, _E)
    with pytest.raises(InputError, match=f"^sigma {message}"):
        within_bound_check(np.eye(2), bad, np.eye(2), _E, _E)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_directions_are_rejected(bad):
    w = np.array([bad, 0.0])
    with pytest.raises(InputError, match="^w must be finite"):
        svd_alignment_bound(np.eye(2), _E, w)
    with pytest.raises(InputError, match="^w_prime must be finite"):
        within_bound_check(np.eye(2), np.eye(2), np.eye(2), w, _E)
