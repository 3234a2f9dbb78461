"""The train helper: a forked process that runs the work no training step reads.

That work is the identity check of each step and every greedy evaluation
before the last step. ``train.train`` starts a ``Helper`` only where a run has
such work and the process may use two CPUs (``train._start_helper``), so
other runs never import this module. The loop sends each job in the order an
inline run meets it and never waits for it, except in ``Helper.drain``.

Each job crosses the pipe as one message: its kind, its step and its arrays
as raw bytes, which the helper reads back with numpy. Only a sync is answered.
"""

from __future__ import annotations

import functools

import numpy as np

from . import train
from .nets import MlpCritic
from .workers import Channel, fork

_SYNC, _CHECK, _EVAL = 0, 1, 2


def _serve(critic: MlpCritic, x_all: np.ndarray, cfg: train.TrainConfig,
           channel: Channel) -> int:
    """Body of the helper: the jobs ``Helper`` sends, in order, until its pipe closes.

    A check job carries the online parameters before the step's update, the
    batch indices and delta; the helper rebuilds the online forward pass from
    them, with the bits of the step's own. An eval job carries the parameters
    after the update and the initial states. After the first job that raises,
    the rest are read and skipped. A sync is answered with (that failure or
    None, the greedy returns by step since the last sync, the largest identity
    residual so far). Nothing is allocated before a job arrives, so a run too
    large to start fails in the loop, as it does inline.
    """
    failure, returns, residual_max = None, {}, 0.0
    while True:
        try:
            kind, step, *buffers = channel.recv()
        except EOFError:  # the train loop has finished, or died
            return 0
        if kind == _SYNC:
            channel.send((failure, returns, residual_max))
            returns = {}
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
                    returns[step] = train._checked_eval(critic, cfg.eval_env, starts, step)
        except Exception as exc:  # the train loop raises it at its next drain
            failure = exc


class Helper:
    """The helper process of one train run, forked from the loop's.

    Jobs go out in the order an inline run meets them, and the helper stops at
    its first failure, so ``drain`` raises the failure an inline run raises first.
    """

    def __init__(self, critic: MlpCritic, x_all: np.ndarray, cfg: train.TrainConfig):
        self.worker = fork(functools.partial(_serve, critic, x_all, cfg))
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

    def drain(self) -> None:
        """Waits until the helper has run every job sent so far; raises the first failure."""
        self._send(_SYNC, 0)
        if self.failure is None:
            try:
                self.failure, returns, residual = self.worker.recv()
            except EOFError:
                self.failure = self._died()
            else:
                self.returns.update(returns)
                self.residual_max = max(self.residual_max, residual)
        if self.failure is not None:
            raise self.failure

    def close(self) -> None:
        """Ends the helper and reaps it."""
        self.worker.reap()

    def _send(self, *message) -> None:
        """Arrays cross as bytes: a pickled array costs several times as much to send."""
        if self.failure is None:
            try:
                self.worker.send(message)
            except BrokenPipeError:
                self.failure = self._died()

    def _died(self) -> RuntimeError:
        return RuntimeError(f"train helper exited with status {self.worker.reap()}")
