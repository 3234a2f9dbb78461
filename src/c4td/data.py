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

import hashlib
import io
import json
import os
import tempfile
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import methodcaller

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


@dataclass(eq=False)
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
# Lines per chunk in load_jsonl: a chunk's lines and Python objects become
# arrays before the next chunk is read, so a parse holds one chunk at a time.
_CHUNK_LINES = 1024
# save_jsonl, and load_jsonl on a miss, keep the arrays in <dataset>.c4cache.
# The file is the key (this format version and the SHA-256 of the dataset's
# bytes) on one line, the header fields and the row count n as one JSON line,
# then the raw columns s, a, r, sn, an (little-endian float64) and done (one
# byte per row).
_CACHE_SUFFIX = ".c4cache"
_CACHE_FORMAT = b"c4td dataset cache, format 1, sha256 "
_HASH_BYTES = 1 << 16  # bytes per read while hashing a dataset


def save_jsonl(dataset: OfflineDataset, path: str) -> None:
    """One header line, then one JSON object per transition.

    Floats are emitted with repr precision, so a load after save reproduces
    every bit. The SHA-256 of the bytes written keys ``<path>.c4cache``,
    the cache that the first ``load_jsonl`` of the file would write, so no
    load parses a file saved here. Only float columns are cached (a bool
    column, for one, is written as JSON that does not load); an ``OSError``
    while writing the cache leaves it unwritten.
    """
    sha256 = hashlib.sha256()
    rows = ({"s": dataset.s[i].tolist(), "a": dataset.a[i].tolist(),
             "r": float(dataset.r[i]), "sn": dataset.s_next[i].tolist(),
             "an": dataset.a_next[i].tolist(), "done": bool(dataset.done[i])}
            for i in range(len(dataset)))
    with open(path, "wb") as fh:
        for item in chain([_header_of(dataset)], rows):
            line = (json.dumps(item) + "\n").encode()
            sha256.update(line)
            fh.write(line)
    columns = (dataset.s, dataset.a, dataset.r, dataset.s_next, dataset.a_next)
    if all(column.dtype.kind == "f" for column in columns):
        _write_cache(os.fspath(path) + _CACHE_SUFFIX, _key(sha256), dataset)


def _header_of(dataset: OfflineDataset) -> dict:
    return {"ds": dataset.ds, "da": dataset.da, "env": dataset.env_name,
            "modes": dataset.n_modes, "seed": dataset.seed}


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


def load_jsonl(path: str) -> OfflineDataset:
    """Read a dataset written by ``save_jsonl``; errors name the line, as ParseError.

    The file is streamed: lines are decoded and split as read, and parsed
    one ``json.loads`` per line, ``_CHUNK_LINES`` lines at a time, so beyond
    the arrays it returns a load holds one chunk's text and objects, never
    the whole file. Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r`` (Python's
    universal newlines) and nowhere else, unlike ``str.splitlines()``, which
    also breaks a JSON string at U+2028 or ``\\x85``. The first error reported
    is the first in line order. Non-finite values are looked for once every
    row has parsed. A file that is not UTF-8 is reported ahead of any other
    error, with the position of the bad byte in the file.

    A clean parse is kept in ``<path>.c4cache``, keyed by a format version and
    the SHA-256 of the bytes it parsed, and a later load of the same bytes
    reads its arrays back instead of parsing; ``save_jsonl`` leaves the same
    cache, so only a file written otherwise is parsed, once. Any cache that
    does not fit exactly is passed over and the file parsed. Deleting the
    cache is always safe; an ``OSError`` while writing it, as in a read-only
    directory, only leaves it unwritten.
    """
    cache = os.fspath(path) + _CACHE_SUFFIX
    try:
        with _HashingFile(path) as raw:
            buffer = bytearray(_HASH_BYTES)
            while raw.readinto(buffer):
                pass
            key = _key(raw.sha256)
            dataset = _cached(cache, key)
            if dataset is not None:
                return dataset
            # the cache is keyed by the bytes the parse reads, which differ
            # from those hashed above if the file is rewritten in between
            raw.seek(0)
            raw.sha256 = hashlib.sha256()
            text = io.TextIOWrapper(io.BufferedReader(raw, _HASH_BYTES), encoding="utf-8")
            dataset = _dataset_of_lines(map(methodcaller("removesuffix", "\n"), text))
    except (ParseError, UnicodeDecodeError):  # a FormatError needs all lines decoded
        with open(path, "rb") as fh:
            try:
                fh.read().decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"dataset {path} is not UTF-8 text: {exc}") from exc
        raise
    if _key(raw.sha256) == key:
        _write_cache(cache, key, dataset)
    return dataset


class _HashingFile(io.FileIO):
    """A file open for binary reads that keeps the SHA-256 of the bytes it reads."""

    def __init__(self, path):
        super().__init__(path)
        self.sha256 = hashlib.sha256()

    def readinto(self, buffer) -> int:
        n = super().readinto(buffer)
        self.sha256.update(memoryview(buffer)[:n])
        return n


def _key(sha256) -> bytes:
    """The cache key of hashed bytes: the format, then their digest, one line."""
    return _CACHE_FORMAT + sha256.hexdigest().encode() + b"\n"


def _cached(cache: str, key: bytes) -> OfflineDataset | None:
    """The dataset kept in ``cache`` under ``key``, or None if the cache does not fit it.

    No cache, another key, a header that is not a dataset's, a size that is
    not its arrays', a ``done`` byte other than 0 or 1, a non-finite value
    and any ``OSError`` all give None.
    """
    try:
        with open(cache, "rb") as fh:
            if fh.read(len(key)) != key:
                return None
            header = json.loads(fh.readline())
            n = header.pop("n", None) if isinstance(header, dict) else None
            if not is_kind("int", n) or n < 1:
                return None
            ds, da = _checked_header(header)["ds"], header["da"]
            if os.fstat(fh.fileno()).st_size - fh.tell() != n * (8 * (2 * ds + 2 * da + 1) + 1):
                return None
            arrays = {"s": np.empty((n, ds), "<f8"), "a": np.empty((n, da), "<f8"),
                      "r": np.empty(n, "<f8"), "sn": np.empty((n, ds), "<f8"),
                      "an": np.empty((n, da), "<f8"), "done": np.empty(n, np.uint8)}
            if any(fh.readinto(array) != array.nbytes for array in arrays.values()):
                return None
    except (OSError, ValueError, RecursionError):  # ParseError is a ValueError
        return None
    done = arrays.pop("done")
    if not ((done <= 1).all() and all(np.isfinite(a).all() for a in arrays.values())):
        return None
    return OfflineDataset(ds, da, header["env"], header["modes"], header["seed"],
                          arrays["s"], arrays["a"], arrays["r"], arrays["sn"], arrays["an"],
                          done.view(bool))


def _write_cache(cache: str, key: bytes, dataset: OfflineDataset) -> None:
    """Writes ``dataset`` to ``cache`` under ``key`` through a temp file and
    ``os.replace``, so no reader meets half a cache; an ``OSError`` skips it."""
    directory, name = os.path.split(cache)
    try:
        fd, temp = tempfile.mkstemp(suffix=".tmp", prefix=name + ".", dir=directory or ".")
    except OSError:
        return
    try:
        with open(fd, "wb") as fh:
            fh.write(key + json.dumps({**_header_of(dataset), "n": len(dataset)}).encode()
                     + b"\n")
            for column in (dataset.s, dataset.a, dataset.r, dataset.s_next, dataset.a_next):
                fh.write(np.ascontiguousarray(column, "<f8"))
            fh.write(np.ascontiguousarray(dataset.done))
        os.replace(temp, cache)
    except OSError:
        with suppress(OSError):
            os.unlink(temp)


def _checked_header(header) -> dict:
    """``header`` if it holds a dataset header's fields, else a ParseError naming line 1."""
    if not isinstance(header, dict) or set(header) != set(_HEADER_KEYS):
        raise ParseError(1, f"header must have exactly the keys {sorted(_HEADER_KEYS)}")
    for key, kind in _HEADER_KEYS.items():
        if not is_kind(kind, header[key]):
            raise ParseError(1, f"header field {key!r} must be {kind}")
    for key in ("ds", "da"):
        if header[key] < 1:
            raise ParseError(1, f"header field {key!r} must be at least 1, got {header[key]}")
    return header


def _dataset_of_lines(lines) -> OfflineDataset:
    """``load_jsonl``'s parse of an iterator over the file's lines."""
    text = next(lines, None)
    if text is None:
        raise FormatError("empty dataset file")
    header = _checked_header(_json_line(text, 1, "header is "))
    ds, da = header["ds"], header["da"]

    widths = {"s": ds, "a": da, "sn": ds, "an": da}
    parts = []  # per chunk, so nothing is sized from the header before its rows parse
    n = 0
    while chunk := list(islice(lines, _CHUNK_LINES)):
        cols = _rows_line_by_line(chunk, n + 2, ds, da)
        n += len(chunk)
        parts.append({**{key: np.fromiter(chain.from_iterable(cols[key]), float,
                                          len(chunk) * width).reshape(len(chunk), width)
                         for key, width in widths.items()},
                      "r": np.array(cols["r"], dtype=float),
                      "done": np.array(cols["done"], dtype=bool)})
    if not n:
        raise FormatError("dataset has a header but no transitions")
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
