"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way (explicit loops, direct
formulas, scipy where it has the canonical routine) so that agreement with
the package is meaningful.
"""

import json
import math
import re

import numpy as np
from scipy import stats

from c4td.data import _ROW_KEYS, OfflineDataset
from c4td.errors import FormatError, NumericalError, ParseError

_HEADER_KEYS = {"ds": int, "da": int, "env": str, "modes": int, "seed": int}


def central_diff(f, x, eps=1e-6):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[i] += eps
        lo[i] -= eps
        grad[i] = (f(hi) - f(lo)) / (2.0 * eps)
    return grad


def smooth_points(net, n, rng, margin=1e-3):
    """n inputs at which every pre-activation of ``net`` is far from the ReLU kink."""
    points = []
    while len(points) < n:
        x = rng.standard_normal(net.input_dim)
        _, _, pres = net._forward_cached(x[None, :])
        if all(np.min(np.abs(p)) > margin for p in pres):
            points.append(x)
    return np.asarray(points)


def param_fd_gradient(critic, loss, eps=1e-6):
    """Finite-difference gradient of loss(critic) in every weight and bias."""
    grads = []
    for w, b in critic.layers:
        gw = np.zeros_like(w)
        gb = np.zeros_like(b)
        for arr, g in ((w, gw), (b, gb)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = arr[idx]
                arr[idx] = old + eps
                hi = loss(critic)
                arr[idx] = old - eps
                lo = loss(critic)
                arr[idx] = old
                g[idx] = (hi - lo) / (2.0 * eps)
        grads.append((gw, gb))
    return grads


def flatten_params(params):
    """``W`` row-major then ``b``, layer by layer: the layout of ``MlpCritic.flat``."""
    return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in params])


def adjusted_rand_index(labels_a, labels_b):
    """ARI from the contingency table, the textbook pair-counting formula."""
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    n = labels_a.size
    cats_a = np.unique(labels_a)
    cats_b = np.unique(labels_b)
    table = np.zeros((cats_a.size, cats_b.size))
    for i, ca in enumerate(cats_a):
        for j, cb in enumerate(cats_b):
            table[i, j] = np.sum((labels_a == ca) & (labels_b == cb))

    def comb2(v):
        return v * (v - 1) / 2.0

    sum_ij = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(n)
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return (sum_ij - expected) / (max_index - expected)


def bisection_root(f, lo, hi, tol=1e-15, max_iters=300):
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    assert flo * fhi < 0.0, "root not bracketed"
    for _ in range(max_iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < tol * max(1.0, abs(mid)):
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def mixture_logpdf(y, weights, means, covs):
    """Mixture log-density via scipy's multivariate normal, per point."""
    y = np.atleast_2d(y)
    dens = np.zeros(y.shape[0])
    for w, mu, cov in zip(weights, means, covs):
        if w > 0:
            dens += w * stats.multivariate_normal(mean=mu, cov=cov).pdf(y)
    return np.log(dens)


def brute_total_cov(pairs_prime, pairs, labels):
    """Law-of-total-covariance pieces by explicit per-group loops.

    Returns (total, within_expectation, between) cross-covariance matrices
    using the population (1/n) convention throughout.
    """
    n = pairs.shape[0]

    def cross(a, b):
        am = a - a.mean(axis=0)
        bm = b - b.mean(axis=0)
        return am.T @ bm / a.shape[0]

    total = cross(pairs_prime, pairs)
    within = np.zeros_like(total)
    mu_prime = []
    mu = []
    sizes = []
    for z in np.unique(labels):
        mask = labels == z
        within += mask.sum() / n * cross(pairs_prime[mask], pairs[mask])
        mu_prime.append(pairs_prime[mask].mean(axis=0))
        mu.append(pairs[mask].mean(axis=0))
        sizes.append(mask.sum())
    mu_prime = np.asarray(mu_prime)
    mu = np.asarray(mu)
    w = np.asarray(sizes, dtype=float) / n
    mp_bar = w @ mu_prime
    m_bar = w @ mu
    between = np.zeros_like(total)
    for k in range(w.size):
        between += w[k] * np.outer(mu_prime[k] - mp_bar, mu[k] - m_bar)
    return total, within, between


def random_psd(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim))
    return scale * (a @ a.T) / dim + 1e-3 * np.eye(dim)


def solve_tabular_q(p, r, pi, gamma):
    """Exact SARSA fixed point Q = R + gamma * P Pi Q on a finite MDP.

    p has shape (S, A, S), r has shape (S, A), pi has shape (S, A).
    """
    n_s, n_a, _ = p.shape
    dim = n_s * n_a
    m = np.zeros((dim, dim))
    for s in range(n_s):
        for a in range(n_a):
            for s2 in range(n_s):
                for a2 in range(n_a):
                    m[s * n_a + a, s2 * n_a + a2] = p[s, a, s2] * pi[s2, a2]
    q_flat = np.linalg.solve(np.eye(dim) - gamma * m, r.reshape(-1))
    return q_flat.reshape(n_s, n_a)


def discrete_chi2(pi_row, beta_row):
    """Pearson divergence between two pmfs over the same finite support."""
    return float(np.sum(pi_row ** 2 / beta_row) - 1.0)


def greedy_action_one_state(critic, state_vec, env, cand):
    """Greedy search for one state: one forward pass per point, episode by episode.

    The grid is one (len(cand), d) pass; each refinement trial is its own
    1-row pass, and the input gradient at the current point reuses it.
    """
    bound = env.action_bound
    ds = state_vec.shape[0]
    joint = np.empty((cand.shape[0], ds + cand.shape[1]))
    joint[:, :ds] = state_vec
    joint[:, ds:] = cand
    values = critic._forward_cached(joint)[0]
    best = cand[int(np.argmax(values))]
    best_val = float(values.max())
    a = best.copy()
    _, _, pres = critic._forward_cached(np.concatenate([state_vec, a])[None, :])
    step_len = 0.3 * bound
    for _ in range(8):
        grad_a = critic.input_gradient_cached(pres)[0, ds:]
        norm = float(np.linalg.norm(grad_a))
        if norm == 0.0:
            break
        trial = a + step_len * grad_a / norm
        t_norm = float(np.linalg.norm(trial))
        if t_norm > bound:
            trial = trial * (bound / t_norm)
        value, _, trial_pres = critic._forward_cached(
            np.concatenate([state_vec, trial])[None, :])
        val = float(value[0])
        if val > best_val:
            best_val, a, pres = val, trial, trial_pres
        else:
            step_len *= 0.5
    return a


def eval_return_one_episode_at_a_time(critic, env, episodes, rng, cand):
    """Mean greedy return, each rollout run to its end before the next starts."""
    total = 0.0
    for _ in range(episodes):
        s = env.sample_initial_state(rng)
        ep = 0.0
        for _ in range(env.horizon):
            a = greedy_action_one_state(critic, s, env, cand)
            ep += env.reward(s, a)
            s = env.step(s, a)
        total += ep
    return total / episodes


def adaptive_simpson_recursive(f, a, b, tol, max_depth=40):
    """Recursive adaptive Simpson rule on a vectorized integrand."""

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flm, frm = (float(v) for v in f(np.array([lmid, rmid])))
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        if depth >= max_depth:
            return left + right
        if abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, flo, flm, fmid, left, depth + 1)
                + recurse(mid, hi, fmid, frm, fhi, right, depth + 1))

    # Seed the recursion on a few panels so narrow modes are not missed.
    panels = np.linspace(a, b, 9)
    total = 0.0
    for lo, hi in zip(panels[:-1], panels[1:]):
        m = 0.5 * (lo + hi)
        flo, fm_, fhi = (float(v) for v in f(np.array([lo, m, hi])))
        whole = simpson(lo, hi, flo, fm_, fhi)
        total += recurse(lo, hi, flo, fm_, fhi, whole, 0)
    return total


def _float_vector(value, length: int, line: int, key: str) -> list[float]:
    if (not isinstance(value, list) or len(value) != length
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise ParseError(line, f"field {key!r} must be a list of {length} numbers")
    return [float(v) for v in value]


def load_jsonl_line_by_line(path: str) -> OfflineDataset:
    """The dataset loader as it was before chunked parsing: one json.loads per line.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``; unlike ``str.splitlines()``, a
    U+2028 or ``\\x85`` inside a JSON string ends no line.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        lines = re.split(r"\r\n|\r|\n", fh.read())
    if lines[-1] == "":  # after the last line end
        lines.pop()
    if not lines:
        raise FormatError("empty dataset file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ParseError(1, f"header is not valid JSON: {exc.msg}") from exc
    if not isinstance(header, dict) or set(header) != set(_HEADER_KEYS):
        raise ParseError(1, f"header must have exactly the keys {sorted(_HEADER_KEYS)}")
    for key, typ in _HEADER_KEYS.items():
        if not isinstance(header[key], typ) or (typ is int and isinstance(header[key], bool)):
            raise ParseError(1, f"header field {key!r} must be {typ.__name__}")
    for key in ("ds", "da"):
        if header[key] < 1:
            raise ParseError(1, f"header field {key!r} must be at least 1, got {header[key]}")
    ds, da = header["ds"], header["da"]

    cols: dict[str, list] = {k: [] for k in _ROW_KEYS}
    for lineno, text in enumerate(lines[1:], start=2):
        if not text.strip():
            raise ParseError(lineno, "blank line")
        try:
            row = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(lineno, f"not valid JSON: {exc.msg}") from exc
        if not isinstance(row, dict) or set(row) != _ROW_KEYS:
            raise ParseError(lineno, f"row must have exactly the keys {sorted(_ROW_KEYS)}")
        cols["s"].append(_float_vector(row["s"], ds, lineno, "s"))
        cols["a"].append(_float_vector(row["a"], da, lineno, "a"))
        cols["sn"].append(_float_vector(row["sn"], ds, lineno, "sn"))
        cols["an"].append(_float_vector(row["an"], da, lineno, "an"))
        if not isinstance(row["r"], (int, float)) or isinstance(row["r"], bool):
            raise ParseError(lineno, "field 'r' must be a number")
        if not isinstance(row["done"], bool):
            raise ParseError(lineno, "field 'done' must be a boolean")
        cols["r"].append(float(row["r"]))
        cols["done"].append(row["done"])
    if not cols["r"]:
        raise FormatError("dataset has a header but no transitions")
    arrays = {key: np.array(cols[key]) for key in ("s", "a", "r", "sn", "an")}
    bad = [key for key, arr in arrays.items() if not np.isfinite(arr).all()]
    if bad:
        # JSON admits NaN, Infinity and overflowing literals; name the first such row
        n = len(cols["r"])
        first = {key: int(np.flatnonzero(~np.isfinite(arrays[key]).reshape(n, -1)
                                         .all(axis=1))[0]) for key in bad}
        key = min(bad, key=first.get)
        raise ParseError(first[key] + 2, f"field {key!r} must be finite")
    return OfflineDataset(ds, da, header["env"], header["modes"], header["seed"],
                          arrays["s"], arrays["a"], arrays["r"], arrays["sn"], arrays["an"],
                          np.array(cols["done"], dtype=bool))


def forward_keeping_every_layer(net, x):
    """(values, penultimate features) as the inference forwards once made them.

    Every layer's product, pre-activation and activation is a fresh array,
    the way ``MlpCritic._forward_cached`` still computes them for training.
    """
    h = x
    for w, b in net.layers[:-1]:
        h = np.maximum(h @ w.T + b, 0.0)
    w_out, b_out = net.layers[-1]
    return (h @ w_out.T + b_out)[..., 0], h


def gaussian_logpdf_per_component(y, means, chols):
    """``gmm.gaussian_logpdf`` as it was: fresh (N, D) arrays and one inv per component."""
    out = np.empty((y.shape[0], len(means)))
    for z, (mean, chol) in enumerate(zip(means, chols)):
        diff = y - mean
        u = diff @ np.linalg.inv(chol).T
        maha = np.einsum("ij,ij->i", u, u)
        log_det = 2.0 * np.sum(np.log(np.diag(chol)))
        out[:, z] = -0.5 * (maha + log_det + y.shape[1] * np.log(2.0 * np.pi))
    return out


def logsumexp_rows_one_pass(logs):
    """``gmm.logsumexp_rows`` as it was: one shifted (N, K) copy of the whole table."""
    peak = logs.max(axis=1)
    safe = np.where(np.isfinite(peak), peak, 0.0)
    return safe + np.log(np.exp(logs - safe[:, None]).sum(axis=1))


def posterior_out_of_place(mixture, y):
    """``gmm._posterior`` as it was: (responsibilities, log p(y_i)), exp into new arrays."""
    logs = gaussian_logpdf_per_component(y, mixture.means, mixture.chols)
    logs += [np.log(w) if w > 0 else -np.inf for w in mixture.weights]
    row_ll = logsumexp_rows_one_pass(logs)
    logs -= row_ll[:, None]
    resp = np.exp(logs)
    resp /= resp.sum(axis=1, keepdims=True)
    return resp, row_ll


def m_step_moments(y, resp, ridge):
    """``gmm.m_step``'s (weights, means, covariances) as it was: fresh arrays per component."""
    n, d = y.shape
    counts = resp.sum(axis=0)
    means = (resp.T @ y) / counts[:, None]
    covs = np.empty((resp.shape[1], d, d))
    eye = ridge * np.eye(d)
    for z in range(resp.shape[1]):
        diff = y - means[z]
        weighted = diff * resp[:, z, None]
        cov = (weighted.T @ diff) / counts[z]
        covs[z] = 0.5 * (cov + cov.T) + eye
    return counts / n, means, covs


def mixture_json_dumps(mixture):
    """``gmm.mixture_to_json`` as it was: a dict of Python floats through ``json.dumps``."""
    return json.dumps({
        "K": mixture.n_components,
        "weights": [float(v) for v in mixture.weights],
        "means": [[float(v) for v in row] for row in mixture.means],
        "covariances": [[float(v) for v in cov.ravel(order="C")]
                        for cov in mixture.covariances],
    })


def kappa_star_two_pass(r_curvature, coeffs, hits=None):
    """``policy.kappa_star`` as it was: residual, log residual and slope share
    each evaluate the equation on their own.

    ``hits``, when given, collects the branches taken: "closed" (alpha = 0),
    "overflow" (an iterate with kappa^2 R > 700) and "bisect" (a Newton step
    that left the bracket).
    """
    hits = set() if hits is None else hits
    r = float(r_curvature)
    rho = coeffs.rho_bar
    alpha, beta = coeffs.alpha, coeffs.beta_kl
    if alpha == 0.0:
        hits.add("closed")
        return (1.0 - coeffs.gamma) / beta
    lo, hi = 0.0, 1.0 / ((2.0 * alpha + beta) * rho)

    def log_residual(k):
        expo = k * k * r
        if expo > 700.0:
            hits.add("overflow")
            return math.log(2.0 * alpha * rho) + expo + math.log(k)
        return math.log(2.0 * alpha * rho * math.exp(expo) + beta * rho) + math.log(k)

    def residual(k):
        expo = k * k * r
        if expo > 700.0:
            return math.inf
        return (2.0 * alpha * rho * math.exp(expo) + beta * rho) * k - 1.0

    k = 0.5 * hi
    for _ in range(300):
        f = residual(k)
        if abs(f) < 1e-13:
            return k
        g = log_residual(k)
        if g > 0.0:
            hi = k
        else:
            lo = k
        expo = k * k * r
        if expo > 700.0:
            share = 1.0
        else:
            exp_term = 2.0 * alpha * rho * math.exp(expo)
            share = exp_term / (exp_term + beta * rho)
        slope = 1.0 / k + 2.0 * k * r * share
        k_newton = k - g / slope
        if not lo < k_newton < hi:
            hits.add("bisect")
        k = k_newton if lo < k_newton < hi else 0.5 * (lo + hi)
    if abs(residual(k)) < 1e-12:
        return k
    raise NumericalError("kappa_star iteration did not reach residual 1e-12")
