import json
import re

import numpy as np
import pytest

from c4td.errors import FormatError, InputError
from c4td.nets import MlpCritic, TargetCritic, ema_update, param_gradient
from oracles import (central_diff, flatten_params, forward_keeping_every_layer,
                     param_fd_gradient, smooth_points)


def test_init_shapes_and_determinism():
    rng = np.random.default_rng(3)
    net = MlpCritic.init(4, (8, 5), rng)
    assert [w.shape for w, _ in net.layers] == [(8, 4), (5, 8), (1, 5)]
    assert net.input_dim == 4
    assert net.arch[-2] == 5
    other = MlpCritic.init(4, (8, 5), np.random.default_rng(3))
    assert all(np.array_equal(w1, w2) and np.array_equal(b1, b2)
               for (w1, b1), (w2, b2) in zip(net.layers, other.layers))


def test_forward_matches_manual_relu_stack():
    rng = np.random.default_rng(0)
    net = MlpCritic.init(3, (6, 4), rng)
    x = rng.standard_normal((10, 3))
    h = x
    for w, b in net.layers[:-1]:
        h = np.maximum(h @ w.T + b, 0.0)
    w, b = net.layers[-1]
    manual = (h @ w.T + b).ravel()
    assert np.allclose(net.forward_batch(x), manual, atol=0, rtol=0)
    assert net.forward(x[0]) == manual[0]


def test_penultimate_features_are_last_hidden_activation():
    rng = np.random.default_rng(1)
    net = MlpCritic.init(3, (6, 4), rng)
    x = rng.standard_normal((5, 3))
    feats = net.penultimate_features_batch(x)
    assert feats.shape == (5, 4)
    w, b = net.layers[-1]
    assert np.allclose(feats @ w.T + b, net.forward_batch(x)[:, None])
    assert np.array_equal(net.penultimate_features_batch(x[2:3])[0], feats[2])


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    net = MlpCritic.init(5, (16, 16), rng)
    for x in smooth_points(net, 20, rng):
        fd = central_diff(lambda v: net.forward(v), x)
        analytic = net.input_gradient_batch(x[None, :])[0]
        assert np.max(np.abs(analytic - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))


def test_input_gradient_batch_agrees_with_loop():
    rng = np.random.default_rng(8)
    net = MlpCritic.init(4, (8,), rng)
    x = rng.standard_normal((12, 4))
    batched = net.input_gradient_batch(x)
    for i in range(12):
        assert np.allclose(batched[i], net.input_gradient_batch(x[i:i + 1])[0], atol=0)


@pytest.mark.parametrize("hidden", [(16, 16), (8, 8, 8)])
@pytest.mark.parametrize("rows", [1, 37])
def test_stacked_passes_equal_per_slice_passes_byte_for_byte(hidden, rows):
    # greedy evaluation stacks one slice per episode and relies on this
    rng = np.random.default_rng(rows + len(hidden))
    net = MlpCritic.init(4, hidden, rng)
    x = rng.standard_normal((5, rows, 4))
    values, acts, pres = net._forward_cached(x)
    grads = net.input_gradient_cached(pres)
    assert values.shape == (5, rows) and grads.shape == (5, rows, 4)
    for e in range(5):
        one_values, one_acts, one_pres = net._forward_cached(x[e].copy())
        assert values[e].tobytes() == one_values.tobytes()
        for stacked, alone in zip(acts + pres, one_acts + one_pres):
            assert stacked[e].tobytes() == alone.tobytes()
        assert grads[e].tobytes() == net.input_gradient_cached(one_pres).tobytes()


@pytest.mark.parametrize("hidden", [(16, 16), (32, 32), (5, 7, 3)])
@pytest.mark.parametrize("rows", [1, 7, 512, 2053])
def test_inference_forwards_match_the_kept_layer_forward_byte_for_byte(hidden, rows):
    # one live activation, the bias and the clamp in place: the same bits
    rng = np.random.default_rng(rows + 10 * len(hidden))
    net = MlpCritic.init(6, hidden, rng)
    x = rng.standard_normal((rows, 6))
    values, feats = forward_keeping_every_layer(net, x)
    cached_values, acts, _ = net._forward_cached(x)
    assert values.tobytes() == cached_values.tobytes() == net.forward_batch(x).tobytes()
    assert feats.tobytes() == acts[-1].tobytes() == net.penultimate_features_batch(x).tobytes()
    stack = rng.standard_normal((3, rows, 6))
    stacked_values = net.forward_batch(stack)
    assert stacked_values.shape == (3, rows)
    for e in range(3):
        one_values, _ = forward_keeping_every_layer(net, stack[e].copy())
        assert stacked_values[e].tobytes() == one_values.tobytes()


@pytest.mark.parametrize("hidden", [(16, 16), (8, 8, 8)])
@pytest.mark.parametrize("rows", [1, 37, 256])
def test_stacked_backprop_rows_equal_their_solo_calls(hidden, rows):
    # the identity check runs its three backward passes as one stack
    rng = np.random.default_rng(rows + len(hidden))
    net = MlpCritic.init(4, hidden, rng)
    _, acts, pres = net._forward_cached(rng.standard_normal((rows, 4)))
    upstream = rng.standard_normal((3, rows))
    shared = rng.standard_normal((rows, hidden[-1]))
    per_row = rng.standard_normal((3, rows, hidden[-1]))
    for features, row_features in ((None, [None] * 3), (shared, [shared] * 3),
                                   (per_row, list(per_row))):
        stacked = net.backprop_cached(acts, pres, upstream, features)
        assert stacked.shape == (3, net.flat.size)
        for s, f in enumerate(row_features):
            solo = net.backprop_cached(acts, pres, upstream[s].copy(), f)
            assert stacked[s].tobytes() == solo.tobytes()


def test_inference_forwards_hold_two_hidden_activations_at_most(traced_peak):
    # Hidden (16, 16): the product of a layer is made while the activation
    # it reads is alive, so at most two (N, 16) arrays coexist (2), plus the
    # (N, 1) values (1/16) in forward_batch: 2.06 in units of N x 16
    # doubles. Keeping every activation and pre-activation for a backward
    # pass, as _forward_cached does, holds four (4.13). 2.2 admits no third.
    n = 10_000
    rng = np.random.default_rng(6)
    net = MlpCritic.init(6, (16, 16), rng)
    x = rng.standard_normal((n, 6))
    for forward in (net.penultimate_features_batch, net.forward_batch):
        assert traced_peak(lambda: forward(x)) <= 2.2 * n * 16 * 8


@pytest.mark.parametrize("width", [1, 8, 16, 32])
@pytest.mark.parametrize("rows", [1, 63, 64, 65, 10_000, 40_000])
def test_hidden_written_into_a_column_half_keeps_its_bits(width, rows):
    # gradient_pairs writes each side's last layer into one half of an
    # (N, 2w) array: BLAS writes through the row stride 2w, same bits
    rng = np.random.default_rng(rows + width)
    net = MlpCritic.init(4, (16, width), rng)
    x = rng.standard_normal((rows, 4))
    alone = net._hidden(x)
    y = np.full((rows, 2 * width), np.nan)
    for half in (y[:, :width], y[:, width:]):
        assert net._hidden(x, out=half) is half
        assert np.ascontiguousarray(half).tobytes() == alone.tobytes()


def test_stacked_matmul_runs_each_slice_as_its_own_blas_call():
    # Not skipped on other numpy versions: a numpy that fuses the slices of a
    # stack into one BLAS call gives rows other bits (a 1-row gemv and the
    # same row inside a larger gemv differ) and would move eval_return.
    rng = np.random.default_rng(3)
    w = rng.standard_normal((16, 6))
    w_out = rng.standard_normal((1, 16))
    for rows in (1, 37):
        x = rng.standard_normal((8, rows, 6))
        hidden = x @ w.T  # gemv for one row, gemm for 37
        head = np.maximum(hidden, 0.0) @ w_out.T  # ddot for one row, gemv for 37
        for e in range(8):
            assert hidden[e].tobytes() == (x[e].copy() @ w.T).tobytes()
            assert head[e].tobytes() == (np.maximum(hidden[e], 0.0) @ w_out.T).tobytes()
    v = rng.standard_normal((8, 3))
    sq = np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0]  # one ddot per row
    for e in range(8):
        assert sq[e].tobytes() == v[e].dot(v[e]).tobytes()  # what np.linalg.norm runs


def test_backprop_matches_parameter_finite_differences():
    rng = np.random.default_rng(11)
    net = MlpCritic.init(3, (7, 5), rng)
    x = rng.standard_normal((9, 3))
    coef = rng.standard_normal(9)

    grads = net.backprop(x, coef / len(x))
    fd = param_fd_gradient(net, lambda n: float(coef @ n.forward_batch(x)) / len(x))
    for (gw, gb), (fw, fb) in zip(grads, fd):
        assert np.max(np.abs(gw - fw)) < 1e-7
        assert np.max(np.abs(gb - fb)) < 1e-7


def test_backprop_feature_head_matches_finite_differences():
    rng = np.random.default_rng(12)
    net = MlpCritic.init(3, (6, 4), rng)
    x = rng.standard_normal((8, 3))
    gf = rng.standard_normal((8, 4))

    def functional(n):
        return float(np.sum(gf * n.penultimate_features_batch(x)))

    grads = net.backprop(x, np.zeros(8), gf)
    fd = param_fd_gradient(net, functional)
    for (gw, gb), (fw, fb) in zip(grads, fd):
        assert np.max(np.abs(gw - fw)) < 1e-6
        assert np.max(np.abs(gb - fb)) < 1e-6


def test_param_gradient_closure_route():
    rng = np.random.default_rng(13)
    net = MlpCritic.init(4, (8,), rng)
    x = rng.standard_normal((16, 4))
    y = rng.standard_normal(16)

    def loss_closure(values, feats):
        resid = values - y
        return float(np.mean(resid ** 2)), 2.0 * resid / len(resid), None

    value, grads = param_gradient(net, x, loss_closure)
    assert value == pytest.approx(np.mean((net.forward_batch(x) - y) ** 2))
    fd = param_fd_gradient(net, lambda n: float(np.mean((n.forward_batch(x) - y) ** 2)))
    assert np.max(np.abs(flatten_params(grads) - flatten_params(fd))) < 1e-6


def test_relu_gradient_uses_zero_at_kink():
    net = MlpCritic(layers=[(np.eye(1), np.zeros(1)), (np.ones((1, 1)), np.zeros(1))])
    assert net.input_gradient_batch(np.zeros((1, 1)))[0, 0] == 0.0
    assert net.input_gradient_batch(np.ones((1, 1)))[0, 0] == 1.0


def test_far_along_a_ray_a_critic_is_its_bias_free_twin_plus_a_constant():
    # The paper's ray statement: along x + k w, a hidden unit with u^T w > 0 ends
    # up active with value k u^T w + O(1). So once every unit's sign is settled,
    # f(x + k w) = k f0(w) + c, where f0 is the same critic with every bias zeroed.
    rng = np.random.default_rng(2026)
    ks = np.array([1e3, 1e4, 2e4, 1e5])
    skipped = 0
    for _ in range(64):
        net = MlpCritic.init(4, (16, 16), rng)
        net.layers = [(w, rng.standard_normal(b.shape)) for w, b in net.layers]
        bias_free = MlpCritic([(w, np.zeros_like(b)) for w, b in net.layers])
        x = rng.standard_normal(4)
        w = rng.standard_normal(4)
        w /= np.linalg.norm(w)
        f0_w = bias_free.forward(w)
        pattern = [z[0] > 0.0 for z in bias_free._forward_cached(w[None])[2]]
        values, _, pres = net._forward_cached(x + ks[:, None] * w)
        if not all(np.array_equal(z[i] > 0.0, p) for z, p in zip(pres, pattern)
                   for i in range(len(ks))):
            skipped += 1  # some unit still crosses its kink past k = 1e3
            continue
        k = ks[1]
        assert abs(values[2] - values[1] - k * f0_w) <= 1e-12 * k  # relative to the ray's scale
        constant = [t * abs(v / t - f0_w) for t, v in zip(ks[[0, 1, 3]], values[[0, 1, 3]])]
        assert constant[1] == pytest.approx(constant[0], rel=1e-6)
        assert constant[2] == pytest.approx(constant[0], rel=1e-6)
    assert skipped <= 8  # at most an eighth of the rays


def test_json_round_trip_and_schema_errors(tmp_path):
    rng = np.random.default_rng(2)
    net = MlpCritic.init(3, (5,), rng)
    clone = MlpCritic.from_json(net.to_json())
    x = rng.standard_normal((4, 3))
    assert np.array_equal(clone.forward_batch(x), net.forward_batch(x))
    path = tmp_path / "critic.json"
    net.save(str(path))
    assert np.array_equal(MlpCritic.load(str(path)).forward_batch(x),
                          net.forward_batch(x))
    with pytest.raises(FormatError):
        MlpCritic.from_json("{}")
    with pytest.raises(FormatError):
        MlpCritic.from_json('{"layers": "nope"}')


@pytest.mark.parametrize("text", ['{"arch": [' + "9" * 5000 + "]}", "[" * 100_000],
                         ids=["5000_digit_integer", "100000_brackets"])
def test_from_json_turns_python_json_limits_into_format_errors(text):
    with pytest.raises(FormatError, match="not valid JSON"):
        MlpCritic.from_json(text)


@pytest.mark.parametrize("where, literal, match", [
    (("layers", 0, "w"), "5", "shapes"),
    (("layers", 0, "b"), "null", "shapes"),
    (("layers", 1, "b"), "true", "shapes"),
    (("arch", 2), "true", "bad arch"),
    (("layers", 0, "w", 2), '"x"', "lists of numbers"),
    (("layers", 0, "w", 2), "[1.0, 2.0]", "lists of numbers"),
    (("layers", 0, "w", 0), "1" + "0" * 400, "lists of numbers"),
    (("layers", 0, "w", 2), "NaN", "layer 0: w and b must be finite"),
    (("layers", 1, "w", 0), "Infinity", "layer 1: w and b must be finite"),
    (("layers", 0, "b", 1), "1e400", "layer 0: w and b must be finite"),
    (("layers", 0, "w", 1), '"1.5"', "layer 0: w and b must be lists of numbers (w); found '1.5'"),
    (("layers", 1, "b", 0), "true", "layer 1: w and b must be lists of numbers (b); found True"),
    (("layers",), "[]", "layer count does not match arch"),
    (("layers", 1), '{"w": [1.0, 2.0], "b": [0.0], "bias": [0.0]}',
     "layer 1 must have exactly the keys w, b"),
], ids=["w_number", "b_null", "b_true", "arch_true", "string_weight", "nested_weight",
        "int_too_large_for_a_float", "nan_weight", "infinite_weight", "overflowing_bias",
        "numeric_string_weight", "bool_bias", "no_layers", "extra_layer_key"])
def test_from_json_rejects_malformed_layers_with_format_errors(where, literal, match):
    payload = json.loads(MlpCritic.init(3, (2,), np.random.default_rng(0)).to_json())
    *path, last = where
    node = payload
    for key in path:
        node = node[key]
    node[last] = "@"  # a placeholder replaced by the raw JSON text
    with pytest.raises(FormatError, match=re.escape(match)):
        MlpCritic.from_json(json.dumps(payload).replace('"@"', literal))


def test_load_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "critic.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(FormatError, match="critic.json: critic file is not UTF-8"):
        MlpCritic.load(str(path))


def test_target_critic_ema():
    rng = np.random.default_rng(4)
    online = MlpCritic.init(3, (5,), rng)
    target = TargetCritic.of(online, ema_rate=0.25)
    # the copy is detached: changing online must not touch the target
    before = [w.copy() for w, _ in target.net.layers]
    online.layers[0][0][:] += 1.0
    assert np.array_equal(target.net.layers[0][0], before[0])
    expected = 0.75 * before[0] + 0.25 * online.layers[0][0]
    target.update(online)
    assert np.allclose(target.net.layers[0][0], expected)


def test_ema_update_rate_bounds():
    rng = np.random.default_rng(5)
    online = MlpCritic.init(2, (3,), rng)
    target = online.copy()
    with pytest.raises(InputError):
        ema_update(target, online, 1.5)
    ema_update(target, online, 1.0)
    assert np.array_equal(target.layers[0][0], online.layers[0][0])


def test_layers_are_views_of_one_flat_buffer():
    net = MlpCritic.init(3, (4, 2), np.random.default_rng(8))
    assert np.array_equal(net.flat, flatten_params(net.layers))
    w, b = np.ones((4, 3)), np.full(4, 2.0)
    net.layers[0] = (w, b)
    assert np.array_equal(net.flat[:16], np.concatenate([w.ravel(), b]))
    net.flat[-1] = 5.0
    assert net.layers[-1][1][0] == 5.0
    with pytest.raises(InputError, match="layer 1"):
        net.layers[1] = (np.ones((3, 4)), np.zeros(3))
    with pytest.raises(InputError):
        net.layers = net.layers[:-1]
    grads = net.backprop(np.ones((2, 3)), np.ones(2))
    flat_grads = net.backprop_cached(*net._forward_cached(np.ones((2, 3)))[1:], np.ones(2))
    assert np.array_equal(flatten_params(grads), flat_grads)


def test_input_validation():
    rng = np.random.default_rng(9)
    net = MlpCritic.init(3, (4,), rng)
    with pytest.raises(InputError):
        net.forward_batch(np.zeros((2, 5)))
    with pytest.raises(InputError):
        MlpCritic.init(0, (4,), rng)
