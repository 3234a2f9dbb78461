"""The train helper: a forked process that runs work beside the train loop.

That work is of two kinds. No training step reads the first: the identity
check of each step and every greedy evaluation before the last step. The loop
sends each such job in the order an inline run meets it and never waits for
it, except in ``Helper.drain``. The second is half of a large refresh's
per-component EM and E-step work (``gmm.Inline``): the helper runs the upper
half of the components while the loop runs the lower half, on arrays the two
processes share, and the loop waits for it. ``train.train`` starts a
``Helper`` only where a run has such work and the process may use two CPUs
(``train._start_helper``), so other runs never import this module.

Each job crosses the pipe as one message. A check or an evaluation carries its
kind, its step and its arrays as raw bytes, which the helper reads back with
numpy. A split job carries the name of a ``gmm`` function and the places of
its arguments in the shared mapping, into which the loop first copies those
that lie elsewhere. Only a sync and a split job are answered.
"""

from __future__ import annotations

import functools
import math
import mmap

import numpy as np

from . import gmm, train
from .nets import MlpCritic
from .workers import Channel, fork

_SYNC, _CHECK, _EVAL, _SPLIT = 0, 1, 2, 3


def _layout(cfg: train.TrainConfig, n: int, d: int) -> dict[str, tuple[int, int]]:
    """(start, size) in doubles of each array that a refresh of ``n`` pairs of width ``d``
    shares with the helper, by the name ``train.refresh_clusters`` and ``gmm`` ask for.

    "stage" holds a split job's other inputs (``_Shared.places``): the means,
    Cholesky factors, responsibilities and soft counts of at most K
    components. EM's arrays lie past the first K x rows doubles of the
    "table" array, the part of it that EM uses: the E-step's full table
    covers them, and is made only once the fit has returned.
    """
    rows = n if cfg.probe_size is None else min(cfg.probe_size, n)  # the rows EM fits
    k = cfg.n_clusters
    layout, start = {}, 0
    for name, size in (("pairs", n * d), ("stage", _lines(k * d) + _lines(k * d * d)
                                          + _lines(k * rows) + _lines(k)),
                       ("table", k * rows), ("probe", rows * d), ("covs", k * d * d)):
        layout[name] = (start, size)
        start += _lines(size)
    layout["table"] = (layout["table"][0], k * n)
    return layout


def _lines(size: int) -> int:
    """``size`` doubles rounded up to whole 64-byte lines, on which each array starts."""
    return -(-size // 8) * 8


class _Shared:
    """Named float arrays in one anonymous shared mapping.

    It is made before the fork, so the loop and the helper see the same
    pages; each process touches only what it uses. The mapping is unmapped
    once no array of it is left.
    """

    def __init__(self, layout: dict[str, tuple[int, int]]):
        self.slots = {name: slice(start, start + size) for name, (start, size) in layout.items()}
        doubles = max(slot.stop for slot in self.slots.values())
        self.root = np.frombuffer(mmap.mmap(-1, doubles * 8))
        self._base = self.root.__array_interface__["data"][0]

    def array(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """The array kept under ``name``; ValueError if ``shape`` is larger than its slot."""
        return self.root[self.slots[name]][:math.prod(shape)].reshape(shape)

    def places(self, arrays) -> list[tuple[int, tuple, tuple]]:
        """Where each of ``arrays`` lies in the mapping, as (offset, shape, strides).

        An array that lies elsewhere is copied into the "stage" slot first, one
        after another: a copy costs less than a pickle sent through the pipe.
        """
        places, stage = [], self.slots["stage"]
        start = stage.start
        for a in arrays:
            offset = a.__array_interface__["data"][0] - self._base
            if not 0 <= offset < self.root.nbytes:
                copy = self.root[start:stage.stop][:a.size].reshape(a.shape)
                copy[...] = a
                offset, a = start * 8, copy
                start += _lines(a.size)
            places.append((offset, a.shape, a.strides))
        return places

    def view(self, place) -> np.ndarray:
        """The array that ``place`` describes."""
        offset, shape, strides = place
        return np.ndarray(shape, buffer=self.root, offset=offset, strides=strides)


def _serve(critic: MlpCritic, x_all: np.ndarray, cfg: train.TrainConfig,
           shared: _Shared | None, channel: Channel) -> int:
    """Body of the helper: the jobs ``Helper`` sends, in order, until its pipe closes.

    A check job carries the online parameters before the step's update, the
    batch indices and delta; the helper rebuilds the online forward pass from
    them, with the bits of the step's own. An eval job carries the parameters
    after the update and the initial states. After the first job that raises,
    the rest of these are read and skipped. A sync is answered with (that
    failure or None, the greedy returns by step since the last sync, the
    largest identity residual so far). A split job is run and answered with
    what it raised, or None, whatever failed before it. Nothing is allocated
    before a job arrives, so a run too large to start fails in the loop, as
    it does inline.
    """
    failure, returns, residual_max = None, {}, 0.0
    while True:
        try:
            # ``tag`` is a check's or evaluation's step, or a split job's function
            kind, tag, *buffers = channel.recv()
        except EOFError:  # the train loop has finished, or died
            return 0
        if kind == _SYNC:
            channel.send((failure, returns, residual_max))
            returns = {}
            continue
        if kind == _SPLIT:
            raised = None
            try:
                getattr(gmm, tag)(*map(shared.view, buffers))
            except Exception as exc:  # the loop raises it
                raised = exc
            channel.send(raised)
            continue
        if failure is not None:
            continue
        try:
            critic.flat[...] = np.frombuffer(buffers[0])
            with np.errstate(over="ignore", invalid="ignore"):  # as in the train loop
                if kind == _CHECK:
                    idx = np.frombuffer(buffers[1], dtype=np.intp)
                    # copied, as the arrays the loop computed with, into numpy's memory
                    delta = np.frombuffer(buffers[2]).copy()
                    _, acts, pres = critic._forward_cached(x_all[idx])
                    residual_max = max(residual_max, train._check_step_identities(
                        delta, critic, acts, pres))
                else:
                    starts = np.frombuffer(buffers[1]).reshape(cfg.eval_episodes, -1).copy()
                    returns[tag] = train._checked_eval(critic, cfg.eval_env, starts, tag)
        except Exception as exc:  # the train loop raises it at its next drain
            failure = exc


class Helper:
    """The helper process of one train run, forked from the loop's.

    Jobs go out in the order an inline run meets them, and the helper stops at
    its first failure, so ``drain`` raises the failure an inline run raises first.
    With ``pair_dim``, the width D of the run's gradient pairs, it also shares a
    refresh's arrays with the loop, offers ``gmm.Inline``'s methods and runs
    half of each per-component job.
    """

    def __init__(self, critic: MlpCritic, x_all: np.ndarray, cfg: train.TrainConfig,
                 pair_dim: int | None = None):
        self.shared = _Shared(_layout(cfg, len(x_all), pair_dim)) if pair_dim else None
        self.worker = fork(functools.partial(_serve, critic, x_all, cfg, self.shared))
        self.returns: dict[int, float] = {}  # greedy return by step
        self.residual_max = 0.0
        self.failure: Exception | None = None

    def check(self, step: int, params: np.ndarray, idx: np.ndarray,
              delta: np.ndarray) -> None:
        """The identity check of ``step``: ``params`` before its update, its batch and delta."""
        self._send(_CHECK, step, bytes(params), bytes(idx), bytes(delta))

    def evaluate(self, step: int, params: np.ndarray, starts: np.ndarray) -> None:
        """The greedy evaluation of ``step``, from ``starts``, with ``params`` after its update."""
        self._send(_EVAL, step, bytes(params), bytes(starts))

    def array(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """The shared array kept under ``name``, as ``gmm.Inline.array``."""
        return self.shared.array(name, shape)

    def each_component(self, fn, y: np.ndarray, *parts: np.ndarray) -> None:
        """``fn`` over the upper half of the components in the helper and the rest here.

        Raises what this half raised, else what the helper's raised, or a failure
        met already; the helper's answer is read in every case.
        """
        mid = (len(parts[0]) + 1) // 2
        self._send(_SPLIT, fn.__name__,
                   *self.shared.places([y, *(part[mid:] for part in parts)]))
        try:
            fn(y, *(part[:mid] for part in parts))
        finally:
            raised = self._recv() or self.failure
        if raised is not None:
            raise raised

    def drain(self) -> None:
        """Waits until the helper has run every job sent so far; raises the first failure."""
        self._send(_SYNC, 0)
        answer = self._recv()
        if answer is not None:
            self.failure, returns, residual = answer
            self.returns.update(returns)
            self.residual_max = max(self.residual_max, residual)
        if self.failure is not None:
            raise self.failure

    def _recv(self):
        """The helper's answer to the job sent last; None once it has failed or died."""
        if self.failure is None:
            try:
                return self.worker.recv()
            except EOFError:
                self.failure = self._died()
        return None

    def close(self) -> None:
        """Ends the helper and reaps it."""
        self.worker.reap()

    def _send(self, *message) -> None:
        """Arrays cross as bytes or as places in the shared mapping: a pickled array
        costs several times as much to send."""
        if self.failure is None:
            try:
                self.worker.send(message)
            except BrokenPipeError:
                self.failure = self._died()

    def _died(self) -> RuntimeError:
        return RuntimeError(f"train helper exited with status {self.worker.reap()}")
