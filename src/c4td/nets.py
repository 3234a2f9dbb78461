"""Dense ReLU MLP critic with exact reverse-mode gradients.

The critic maps a joint state-action vector to a scalar value. Everything is
plain numpy: forward passes, input gradients, parameter gradients, and the
EMA target update are all explicit, so results are bit-reproducible given a
seed and there is no hidden autodiff tape.

Convention fixed throughout: the ReLU subgradient at exactly 0 is 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InputError, at_least, check_fields, check_json_numbers, is_kind

Params = list[tuple[np.ndarray, np.ndarray]]
EMA_RATE = ("float", lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")


class MlpCritic:
    """Fully connected ReLU network with a linear scalar head.

    ``layers`` is a list of ``(W, b)`` pairs where ``W`` has shape
    ``(fan_out, fan_in)``. The pairs are views into one flat vector,
    ``flat``, laid out layer by layer as ``W`` row-major then ``b``, so an
    optimizer or the EMA update can act on all parameters at once. At least
    one hidden layer is required because the penultimate-feature surrogate
    needs a hidden activation to read.
    """

    def __init__(self, layers: Params):
        if len(layers) < 2:
            raise InputError("critic needs at least one hidden layer")
        arch = [layers[0][0].shape[1]]
        for i, (w, b) in enumerate(layers):
            w = np.asarray(w, dtype=float)
            b = np.asarray(b, dtype=float)
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise InputError(f"layer {i}: weight/bias shapes {w.shape}/{b.shape}")
            if w.shape[1] != arch[-1]:
                raise InputError(f"layer {i}: fan-in {w.shape[1]} != {arch[-1]}")
            arch.append(w.shape[0])
        if arch[-1] != 1:
            raise InputError("output head must be scalar")
        self.arch = arch
        self.flat = np.empty(sum(o * i + o for i, o in zip(arch[:-1], arch[1:])))
        self._layers = _LayerViews(self.flat, arch)
        self.layers = layers

    @property
    def layers(self) -> Params:
        """``(W, b)`` views into ``flat``; assigning copies into the views."""
        return self._layers

    @layers.setter
    def layers(self, layers: Params) -> None:
        if len(layers) != len(self._layers):
            raise InputError(f"expected {len(self._layers)} layers, got {len(layers)}")
        for i, layer in enumerate(layers):
            self._layers[i] = layer

    # ---------------------------------------------------------------- setup

    @classmethod
    def init(cls, input_dim: int, hidden: tuple[int, ...] = (32, 32),
             rng: np.random.Generator | None = None) -> "MlpCritic":
        """He-style Gaussian init, zero biases. Deterministic given ``rng``."""
        check_fields(locals(), {"input_dim": at_least(1), "hidden": ("widths",)})
        rng = rng if rng is not None else np.random.default_rng(0)
        dims = [input_dim, *hidden, 1]
        layers = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
            layers.append((w, np.zeros(fan_out)))
        return cls(layers)

    def copy(self) -> "MlpCritic":
        return MlpCritic(self.layers)

    @property
    def input_dim(self) -> int:
        return self.arch[0]

    # -------------------------------------------------------------- forward

    def _check_batch(self, x: np.ndarray, stacked: bool = False) -> np.ndarray:
        """``x`` as floats, shaped (n, input_dim), or (E, n, input_dim) if ``stacked``."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in ((2, 3) if stacked else (2,)) or x.shape[-1] != self.input_dim:
            raise InputError(f"expected (n, {self.input_dim}) inputs, got {x.shape}")
        return x

    def _forward_cached(self, x: np.ndarray):
        """Returns (values, activations, pre_activations).

        ``activations[0]`` is the input; ``activations[-1]`` the penultimate
        features. ``pre_activations`` has one entry per hidden layer. ``x``
        may also be a stack ``(E, n, input_dim)``: matmul runs each 2-D slice
        as its own BLAS call, so every slice gets the bits it gets alone.
        """
        acts = [x]
        pres = []
        h = x
        for w, b in self.layers[:-1]:
            z = h @ w.T + b
            pres.append(z)
            h = np.maximum(z, 0.0)
            acts.append(h)
        w_out, b_out = self.layers[-1]
        values = h @ w_out.T + b_out
        return values[..., 0], acts, pres

    def _last_product(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The last hidden layer's product ``h @ w.T``, before its bias and clamp.

        The layers before it run as ``_hidden`` runs them, keeping only the
        current layer's array. The product is written into ``out`` when
        given, which may be a strided view such as the column half of a
        wider array: BLAS writes it through its row stride, with the bits of
        a fresh array.
        """
        h = x
        *inner, (w_last, _) = self.layers[:-1]
        for w, b in inner:
            h = h @ w.T
            h += b
            np.maximum(h, 0.0, out=h)
        return np.matmul(h, w_last.T, out=out)

    def _hidden(self, x: np.ndarray) -> np.ndarray:
        """The last hidden activations, keeping only the current layer's array.

        The same ``h @ w.T + b`` and ``max(., 0)`` as ``_forward_cached``, the
        add and the clamp done in place on the product: elementwise, so the
        bits do not depend on where they are written. 2-D or stacked.
        """
        h = self._last_product(x)
        h += self.layers[-2][1]
        np.maximum(h, 0.0, out=h)
        return h

    def forward_batch(self, x: np.ndarray) -> np.ndarray:
        """Scalar critic values, shape (n,) for (n, input_dim) inputs or (E, n) for a stack."""
        w_out, b_out = self.layers[-1]
        values = self._hidden(self._check_batch(x, stacked=True)) @ w_out.T
        values += b_out
        return values[..., 0]

    def forward(self, x: np.ndarray) -> float:
        """Critic value at a single joint input vector."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1:
            raise InputError(f"expected a flat input vector, got shape {x.shape}")
        return float(self.forward_batch(x[None, :])[0])

    def penultimate_features_batch(self, x: np.ndarray) -> np.ndarray:
        """Last hidden activations, shape (n, arch[-2])."""
        return self._hidden(self._check_batch(x))

    # ------------------------------------------------------------ gradients

    def input_gradient_batch(self, x: np.ndarray) -> np.ndarray:
        """dQ/dx for every row, shape (n, input_dim). Exact reverse pass."""
        _, _, pres = self._forward_cached(self._check_batch(x))
        return self.input_gradient_cached(pres)

    def input_gradient_cached(self, pres: list[np.ndarray]) -> np.ndarray:
        """dQ/dx from the pre-activations of a ``_forward_cached`` pass, 2-D or stacked."""
        w_out = self.layers[-1][0]
        g = np.repeat(w_out, pres[0].shape[-2], axis=0)  # (n, width of last hidden)
        for (w, _), z in zip(reversed(self.layers[:-1]), reversed(pres)):
            g = (g * (z > 0.0)) @ w
        return g

    def backprop(self, x: np.ndarray, grad_values: np.ndarray,
                 grad_features: np.ndarray | None = None) -> Params:
        """Parameter gradients given upstream gradients on a batch.

        ``grad_values[i]`` is dL/d(value_i); ``grad_features[i]`` optionally
        adds dL/d(penultimate_features_i). Both paths are accumulated in a
        single reverse pass, so a loss that touches the features directly
        (the cross-covariance penalty does) costs no extra forward work.
        """
        x = self._check_batch(x)
        n = x.shape[0]
        grad_values = np.asarray(grad_values, dtype=float)
        if grad_values.shape != (n,):
            raise InputError(f"grad_values must have shape ({n},)")
        _, acts, pres = self._forward_cached(x)
        if grad_features is not None:
            grad_features = np.asarray(grad_features, dtype=float)
            if grad_features.shape != acts[-1].shape:
                raise InputError(f"grad_features must have shape {acts[-1].shape}")
        return _LayerViews(self.backprop_cached(acts, pres, grad_values, grad_features),
                           self.arch)

    def backprop_cached(self, acts: list[np.ndarray], pres: list[np.ndarray],
                        grad_values: np.ndarray,
                        grad_features: np.ndarray | None = None) -> np.ndarray:
        """``backprop`` from a cached forward pass, as one vector laid out like ``flat``.

        ``acts`` and ``pres`` come from a 2-D ``_forward_cached`` pass at the
        current parameters; the inputs are trusted to have matching shapes.
        ``grad_values`` may also be a stack (S, n) of upstream gradients, and
        ``grad_features`` then (n, width) or (S, n, width): the result is
        (S, flat.size), each row with the bits of its own call, because matmul
        runs every 2-D slice as its own BLAS call.
        """
        flat = np.empty(grad_values.shape[:-1] + self.flat.shape)
        grads = _LayerViews(flat, self.arch)
        gw, gb = grads[-1]
        np.matmul(grad_values[..., None, :], acts[-1], out=gw)
        gb[..., 0] = grad_values.sum(axis=-1)
        g = grad_values[..., None] * self.layers[-1][0]  # gradient flowing into the features
        if grad_features is not None:
            g = g + grad_features
        for i in range(len(self.layers) - 2, -1, -1):
            dz = g * (pres[i] > 0.0)
            gw, gb = grads[i]
            np.matmul(dz.swapaxes(-1, -2), acts[i], out=gw)
            np.sum(dz, axis=-2, out=gb)
            if i > 0:
                g = dz @ self.layers[i][0]
        return flat

    # -------------------------------------------------------- serialization

    def to_json(self) -> str:
        payload = {
            "arch": self.arch,
            "layers": [{"w": w.ravel().tolist(), "b": b.tolist()} for w, b in self.layers],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "MlpCritic":
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also int-digit and nesting limits
            raise FormatError(f"critic payload is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or set(payload) != {"arch", "layers"}:
            raise FormatError("critic payload must have exactly the keys arch, layers")
        arch = payload["arch"]
        entries = payload["layers"]
        if not isinstance(arch, list) or len(arch) < 3 or not is_kind("widths", tuple(arch)):
            raise FormatError(f"bad arch {arch!r}")
        if not isinstance(entries, list) or len(entries) != len(arch) - 1:
            raise FormatError("layer count does not match arch")
        layers = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or set(entry) != {"w", "b"}:
                raise FormatError(f"layer {i} must have exactly the keys w, b")
            fan_out, fan_in = arch[i + 1], arch[i]
            for key in ("w", "b"):
                check_json_numbers(entry[key],
                                   f"layer {i}: w and b must be lists of numbers ({key})")
            try:
                w, b = (np.array(entry[key], dtype=float) for key in ("w", "b"))
            except (TypeError, ValueError, OverflowError) as exc:  # ragged, non-numeric, huge
                raise FormatError(f"layer {i}: w and b must be lists of numbers: {exc}") from exc
            if w.shape != (fan_out * fan_in,) or b.shape != (fan_out,):
                raise FormatError(f"layer {i}: got w/b shapes {w.shape}/{b.shape}, "
                                  f"expected ({fan_out * fan_in},)/({fan_out},)")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise FormatError(f"layer {i}: w and b must be finite")
            layers.append((w.reshape(fan_out, fan_in), b))
        return cls(layers)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "MlpCritic":
        with open(path, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: critic file is not UTF-8: {exc}") from exc
        return cls.from_json(text)


@dataclass
class TargetCritic:
    """Slow copy of an online critic, moved by exponential averaging."""

    net: MlpCritic
    ema_rate: float = 0.005

    def __post_init__(self):
        check_fields(vars(self), {"ema_rate": EMA_RATE})

    @classmethod
    def of(cls, online: MlpCritic, ema_rate: float = 0.005) -> "TargetCritic":
        return cls(online.copy(), ema_rate)

    def update(self, online: MlpCritic) -> None:
        ema_update(self.net, online, self.ema_rate)


def ema_update(target: MlpCritic, online: MlpCritic, rate: float) -> None:
    """In place: target <- rate * online + (1 - rate) * target."""
    check_fields(locals(), {"rate": EMA_RATE})
    if target.arch != online.arch:
        raise InputError(f"arch mismatch: {target.arch} vs {online.arch}")
    step = online.flat - target.flat
    step *= rate
    target.flat += step


def param_gradient(critic: MlpCritic, x: np.ndarray, loss_closure) -> tuple[float, Params]:
    """Exact parameter gradient of a scalar loss of the critic's outputs.

    ``loss_closure(values, features) -> (loss, grad_values, grad_features)``
    where ``grad_features`` may be None if the loss ignores the penultimate
    features. Returns ``(loss, grads)`` with ``grads`` shaped like the layers.
    """
    x = critic._check_batch(np.asarray(x, dtype=float))
    values, acts, _ = critic._forward_cached(x)
    loss, grad_values, grad_features = loss_closure(values, acts[-1])
    grads = critic.backprop(x, grad_values, grad_features)
    return float(loss), grads


class _LayerViews(list):
    """``(W, b)`` pairs viewing one flat vector, laid out layer by layer.

    A stack of flat vectors, shape (S, size), gives (S, fan_out, fan_in) and
    (S, fan_out) views. Item assignment copies into the views after checking
    shapes, so the pairs keep sharing the flat vector.
    """

    def __init__(self, flat: np.ndarray, arch: list[int]):
        views, start = [], 0
        lead = flat.shape[:-1]
        for fan_in, fan_out in zip(arch[:-1], arch[1:]):
            stop = start + fan_out * fan_in
            views.append((flat[..., start:stop].reshape(*lead, fan_out, fan_in),
                          flat[..., stop:stop + fan_out]))
            start = stop + fan_out
        super().__init__(views)

    def __setitem__(self, i, layer) -> None:
        w, b = self[i]
        new_w, new_b = (np.asarray(v, dtype=float) for v in layer)
        if new_w.shape != w.shape or new_b.shape != b.shape:
            raise InputError(f"layer {i}: expected shapes {w.shape}/{b.shape}, "
                             f"got {new_w.shape}/{new_b.shape}")
        w[...] = new_w
        b[...] = new_b
