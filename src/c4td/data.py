"""Offline transition datasets for a small point-mass control task.

The task is deliberately tiny: states and actions live in Euclidean balls
(``||s|| <= box_radius``, ``||a|| <= action_bound``), the dynamics are
``s' = clip(s + 0.1 a)``, and the reward is ``-||s||^2 - 0.1 ||a||^2``.
Norm clipping (not per-coordinate) keeps the reward bound
``-(box_radius^2 + 0.1 action_bound^2) <= r <= 0`` exact.

Behavior data comes from an M-mode Gaussian action mixture, one mode drawn
per trajectory, and the next action is the behavior's actually-taken one, so
consecutive rows of a trajectory form SARSA pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (NONNEGATIVE, POSITIVE, FormatError, InputError, ParseError, at_least,
                     check_fields, is_kind, is_number)
from .gmm import GaussianMixture

STEP_GAIN = 0.1
ACTION_COST = 0.1


# The run config's env section: EnvSpec's numeric fields plus the circular-mode layout.
ENV_SCHEMA = {
    "n_modes": at_least(1),
    "mode_radius": ("float",),
    # squared into the mode covariance, which must stay finite and PD
    "mode_std": ("float", lambda v: 1e-150 < v < 1e150, "must lie in (1e-150, 1e150)"),
    "ds": at_least(1),
    "da": at_least(2),
    "horizon": at_least(1),
    "box_radius": POSITIVE,
    "action_bound": POSITIVE,
    "noise_scale": NONNEGATIVE,
}
DATA_SCHEMA = {"n_trajectories": at_least(1), "seed": at_least(0)}  # generate's knobs


def _clip_norm(v: np.ndarray, radius: float) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm <= radius or norm == 0.0:
        return v
    return v * (radius / norm)


@dataclass(frozen=True)
class EnvSpec:
    """Point-mass task plus the Gaussian behavior mixture that explores it."""

    ds: int = 2
    da: int = 2
    env_name: str = "pointmass"
    horizon: int = 40
    box_radius: float = 1.0
    action_bound: float = 1.0
    mode_means: tuple[tuple[float, ...], ...] = ((0.0, 0.0),)
    mode_covs: tuple[tuple[tuple[float, ...], ...], ...] = (((0.01, 0.0), (0.0, 0.01)),)
    noise_scale: float = 1.0

    def __post_init__(self):
        check_fields(vars(self), ENV_SCHEMA, "env.")
        if self.ds != self.da:  # step() adds the action to the state
            raise InputError(f"env.ds ({self.ds}) must equal env.da ({self.da})")
        if len(self.mode_means) != len(self.mode_covs) or not self.mode_means:
            raise InputError("need one covariance per behavior mode")
        for mu, cov in zip(self.mode_means, self.mode_covs):
            if len(mu) != self.da or np.shape(cov) != (self.da, self.da):
                raise InputError("behavior mode shapes must match da")
        n = self.n_modes  # not a field, so fields(EnvSpec) stays the config
        object.__setattr__(self, "_behavior", GaussianMixture(
            np.full(n, 1.0 / n), self.mode_means, self.mode_covs))

    @property
    def n_modes(self) -> int:
        return len(self.mode_means)

    @classmethod
    def with_circular_modes(cls, n_modes: int = 1, mode_radius: float = 0.6,
                            mode_std: float = 0.05, **kwargs) -> "EnvSpec":
        """Behavior modes evenly spaced on a circle in the action plane."""
        check_fields(dict(kwargs, n_modes=n_modes, mode_radius=mode_radius,
                          mode_std=mode_std), ENV_SCHEMA, "env.")
        da = kwargs.get("da", cls.da)
        means = []
        for j in range(n_modes):
            angle = 2.0 * np.pi * j / n_modes
            mu = np.zeros(da)
            mu[0] = mode_radius * np.cos(angle)
            mu[1] = mode_radius * np.sin(angle)
            means.append(tuple(float(v) for v in mu))
        cov = tuple(tuple(float(v) for v in row) for row in mode_std ** 2 * np.eye(da))
        return cls(mode_means=tuple(means), mode_covs=tuple(cov for _ in range(n_modes)),
                   **kwargs)

    def reward(self, s: np.ndarray, a: np.ndarray) -> float:
        return float(-(s @ s) - ACTION_COST * (a @ a))

    def step(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Deterministic dynamics; replaying (s, a) reproduces s_next exactly."""
        return _clip_norm(np.asarray(s, dtype=float) + STEP_GAIN * np.asarray(a, dtype=float),
                          self.box_radius)

    def sample_action(self, mode: int, rng: np.random.Generator) -> np.ndarray:
        behavior = self._behavior
        a = behavior.means[mode] + self.noise_scale * (
            behavior.chols[mode] @ rng.standard_normal(self.da))
        return _clip_norm(a, self.action_bound)

    def sample_initial_state(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform draw from the state ball."""
        direction = rng.standard_normal(self.ds)
        direction /= np.linalg.norm(direction)
        radius = self.box_radius * rng.uniform() ** (1.0 / self.ds)
        return radius * direction


@dataclass
class OfflineDataset:
    """Column-major bag of transitions plus the header describing its origin."""

    ds: int
    da: int
    env_name: str
    n_modes: int
    seed: int
    s: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    s_next: np.ndarray = field(repr=False)
    a_next: np.ndarray = field(repr=False)
    done: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = len(self.r)
        shapes = {"s": (n, self.ds), "a": (n, self.da), "s_next": (n, self.ds),
                  "a_next": (n, self.da)}
        for name, shape in shapes.items():
            if getattr(self, name).shape != shape:
                raise InputError(f"{name} must have shape {shape}")
        if self.done.shape != (n,) or self.done.dtype != bool:
            raise InputError("done must be a boolean vector")

    def __len__(self) -> int:
        return len(self.r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OfflineDataset):
            return NotImplemented
        header_eq = (self.ds, self.da, self.env_name, self.n_modes, self.seed) == \
                    (other.ds, other.da, other.env_name, other.n_modes, other.seed)
        return header_eq and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("s", "a", "r", "s_next", "a_next", "done"))

    def joint_inputs(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, x') pairs where x = concat(s, a) and x' = concat(s', a')."""
        return (np.concatenate([self.s, self.a], axis=1),
                np.concatenate([self.s_next, self.a_next], axis=1))

    def take(self, idx: np.ndarray) -> "OfflineDataset":
        return OfflineDataset(self.ds, self.da, self.env_name, self.n_modes, self.seed,
                              self.s[idx], self.a[idx], self.r[idx],
                              self.s_next[idx], self.a_next[idx], self.done[idx])


def generate(spec: EnvSpec, n_trajectories: int = 50, seed: int = 0) -> OfflineDataset:
    """Roll n_trajectories full episodes under the behavior mixture.

    One behavior mode is drawn per trajectory (uniformly). The final step of
    each trajectory is marked done; its a_next slot is a zero vector and is
    never consumed because targets bootstrap with (1 - done).
    """
    check_fields({"n_trajectories": n_trajectories, "seed": seed}, DATA_SCHEMA, "data.")
    rng = np.random.default_rng(seed)
    rows_s, rows_a, rows_r, rows_sn, rows_an, rows_done = [], [], [], [], [], []
    # an overflowing spec is reported once, below, so load_jsonl reads back every save
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_trajectories):
            mode = int(rng.integers(spec.n_modes))
            states = [spec.sample_initial_state(rng)]
            actions = []
            for _ in range(spec.horizon):
                actions.append(spec.sample_action(mode, rng))
                states.append(spec.step(states[-1], actions[-1]))
            for t in range(spec.horizon):
                last = t == spec.horizon - 1
                rows_s.append(states[t])
                rows_a.append(actions[t])
                rows_r.append(spec.reward(states[t], actions[t]))
                rows_sn.append(states[t + 1])
                rows_an.append(np.zeros(spec.da) if last else actions[t + 1])
                rows_done.append(last)
    columns = dict(s=np.array(rows_s), a=np.array(rows_a), r=np.array(rows_r),
                   s_next=np.array(rows_sn), a_next=np.array(rows_an))
    if not all(np.isfinite(column).all() for column in columns.values()):
        raise InputError("generated values are not finite: lower env.box_radius, "
                         "env.noise_scale or env.mode_std")
    return OfflineDataset(spec.ds, spec.da, spec.env_name, spec.n_modes, seed,
                          done=np.array(rows_done, dtype=bool), **columns)


def subsample(dataset: OfflineDataset, n: int, seed: int) -> OfflineDataset:
    """Uniform subsample without replacement, original row order kept."""
    check_fields(locals(), {"n": at_least(1), "seed": at_least(0)})
    if n > len(dataset):
        raise InputError(f"cannot take {n} of {len(dataset)} transitions")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(dataset), size=n, replace=False))
    return dataset.take(idx)


# ------------------------------------------------------------------- JSONL

_HEADER_KEYS = {"ds": "int", "da": "int", "env": "str", "modes": "int", "seed": "int"}
_ROW_KEYS = {"s", "a", "r", "sn", "an", "done"}
# Lines per json.loads in load_jsonl: one parse per chunk, and a chunk's
# transient Python objects are freed before the next is parsed.
_CHUNK_LINES = 1024
_MARKER = ',"",'  # load_jsonl's separator between the lines of a chunk


def save_jsonl(dataset: OfflineDataset, path: str) -> None:
    """One header line, then one JSON object per transition.

    Floats are emitted with repr precision, so a load after save reproduces
    every bit.
    """
    with open(path, "w", encoding="utf-8") as fh:
        header = {"ds": dataset.ds, "da": dataset.da, "env": dataset.env_name,
                  "modes": dataset.n_modes, "seed": dataset.seed}
        fh.write(json.dumps(header) + "\n")
        for i in range(len(dataset)):
            row = {"s": dataset.s[i].tolist(), "a": dataset.a[i].tolist(),
                   "r": float(dataset.r[i]), "sn": dataset.s_next[i].tolist(),
                   "an": dataset.a_next[i].tolist(), "done": bool(dataset.done[i])}
            fh.write(json.dumps(row) + "\n")


def _json_line(text: str, line: int, prefix: str = ""):
    """``json.loads`` of one line; any failure, malformed JSON or one of Python's
    integer-digit and nesting limits, is a ParseError naming the line."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(line, f"{prefix}not valid JSON: {getattr(exc, 'msg', exc)}") from exc


def _float_vector(value, length: int, line: int, key: str) -> list[float]:
    if not isinstance(value, list) or len(value) != length or not all(map(is_number, value)):
        raise ParseError(line, f"field {key!r} must be a list of {length} numbers")
    try:
        return [float(v) for v in value]
    except OverflowError:  # an integer literal beyond the float range
        raise ParseError(line, f"field {key!r} holds a number too large for a float") from None


def _rows_line_by_line(lines: list[str], first: int, ds: int, da: int) -> dict[str, list]:
    """Columns of ``lines``, numbered from ``first``; raises the first row's first error."""
    cols: dict[str, list] = {k: [] for k in _ROW_KEYS}
    for lineno, text in enumerate(lines, start=first):
        if not text.strip():
            raise ParseError(lineno, "blank line")
        row = _json_line(text, lineno)
        if not isinstance(row, dict) or set(row) != _ROW_KEYS:
            raise ParseError(lineno, f"row must have exactly the keys {sorted(_ROW_KEYS)}")
        cols["s"].append(_float_vector(row["s"], ds, lineno, "s"))
        cols["a"].append(_float_vector(row["a"], da, lineno, "a"))
        cols["sn"].append(_float_vector(row["sn"], ds, lineno, "sn"))
        cols["an"].append(_float_vector(row["an"], da, lineno, "an"))
        if not is_number(row["r"]):
            raise ParseError(lineno, "field 'r' must be a number")
        if not is_kind("bool", row["done"]):
            raise ParseError(lineno, "field 'done' must be a boolean")
        cols["r"].extend(_float_vector([row["r"]], 1, lineno, "r"))
        cols["done"].append(row["done"])
    return cols


def _all_float_lists(column: list, width: int) -> bool:
    return (set(map(type, column)) == {list} and set(map(len, column)) == {width}
            and set(map(type, chain.from_iterable(column))) == {float})


def _rows_in_one_parse(lines: list[str], widths: dict[str, int]) -> dict[str, list] | None:
    """Columns of ``lines`` from one ``json.loads``, or None unless every line is a clean row.

    The lines are joined into one array with an empty string between each
    two. A valid row holds no string but its keys, so a marker can only
    parse as an array element of its own; when the parse alternates rows and
    markers, each line held exactly one row and would parse to it alone.
    Integers take the line-by-line path, which converts them one by one.
    """
    try:
        items = json.loads("[" + _MARKER.join(lines) + "]")
    except (ValueError, RecursionError):
        return None
    rows = items[::2]
    if (len(rows) != len(lines) or items[1::2] != [""] * (len(lines) - 1)
            or set(map(type, rows)) != {dict} or set(map(len, rows)) != {len(_ROW_KEYS)}):
        return None
    try:  # six keys, all of them found: exactly _ROW_KEYS
        cols = {key: [row[key] for row in rows] for key in _ROW_KEYS}
    except KeyError:
        return None
    if (all(_all_float_lists(cols[key], width) for key, width in widths.items())
            and set(map(type, cols["r"])) == {float} and set(map(type, cols["done"])) == {bool}):
        return cols
    return None


def load_jsonl(path: str) -> OfflineDataset:
    """Read a dataset written by ``save_jsonl``; errors name the line, as ParseError.

    Rows are parsed ``_CHUNK_LINES`` at a time with one ``json.loads``; a chunk
    that is not all clean rows is parsed again line by line, so the first
    error reported is the first in line order. Non-finite values are looked
    for once every row has parsed.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"dataset {path} is not UTF-8 text: {exc}") from exc
    if not lines:
        raise FormatError("empty dataset file")
    header = _json_line(lines[0], 1, "header is ")
    if not isinstance(header, dict) or set(header) != set(_HEADER_KEYS):
        raise ParseError(1, f"header must have exactly the keys {sorted(_HEADER_KEYS)}")
    for key, kind in _HEADER_KEYS.items():
        if not is_kind(kind, header[key]):
            raise ParseError(1, f"header field {key!r} must be {kind}")
    ds, da = header["ds"], header["da"]
    if ds < 1 or da < 1:
        raise ParseError(1, "header dimensions must be positive")

    n = len(lines) - 1
    if not n:
        raise FormatError("dataset has a header but no transitions")
    widths = {"s": ds, "a": da, "sn": ds, "an": da}
    parts = []  # per chunk, so nothing is sized from the header before its rows parse
    for start in range(0, n, _CHUNK_LINES):
        chunk = lines[1 + start:1 + start + _CHUNK_LINES]
        cols = (_rows_in_one_parse(chunk, widths)
                or _rows_line_by_line(chunk, start + 2, ds, da))
        parts.append({**{key: np.fromiter(chain.from_iterable(cols[key]), float,
                                          len(chunk) * width).reshape(len(chunk), width)
                         for key, width in widths.items()},
                      "r": np.array(cols["r"], dtype=float),
                      "done": np.array(cols["done"], dtype=bool)})
    arrays = {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
    bad = [key for key in ("s", "a", "r", "sn", "an") if not np.isfinite(arrays[key]).all()]
    if bad:
        # JSON admits NaN, Infinity and overflowing literals; name the first such row
        first = {key: int(np.flatnonzero(~np.isfinite(arrays[key]).reshape(n, -1)
                                         .all(axis=1))[0]) for key in bad}
        key = min(bad, key=first.get)
        raise ParseError(first[key] + 2, f"field {key!r} must be finite")
    return OfflineDataset(ds, da, header["env"], header["modes"], header["seed"],
                          arrays["s"], arrays["a"], arrays["r"], arrays["sn"], arrays["an"],
                          arrays["done"])
