"""Training orchestration: per-student loss re-weighting, splits, padded
batches, truncated-BPTT windows, and the early-stopped RMSprop loop.

Two training levels share one architecture and one code path.  Student
level runs each student's full history as a single sequence with weights
equal to the student's average session length at end-of-session steps.
Session level zeroes the recurrent state at every session start and
weights each end-of-session step by its own session's length.

Padding is recorded only as per-lane ``lengths``, and a TBPTT window is a
slice of its batch with the lengths clipped to it (0 for a student who has
already ended).  ``forward_batch`` steps only the window's real lane-steps
and caches them as packed rows, so a window's training memory and its
head and weight-gradient work follow its real lane-steps, not its padded
``T * B``.  ``backward_batch`` consumes that cache, and the next window's
is built only after it is released.

The caller passes the thread pool that all parallel work runs on; the
CLI sizes it by one rule (``cli.gemm_workers``).  Batch scoring
(``evaluate`` and the validation pass of ``train``) runs its independent
batches on the pool, longest batch first.  Training has one window at a
time, and a window's lanes are independent until their gradients are
summed, so it cuts each window into lane groups of at most
``LANE_GROUP`` lanes and runs each group's forward and backward pass as
one pool task (``net``'s ``lanes=``).  The groups keep the window's
dropout masks and its weight sum, and their gradients are summed in
group order, so a window of at most ``LANE_GROUP`` lanes gives the bits
of an unsplit one and wider windows differ only in rounding.  Neither
path's output depends on the pool size.
"""

from __future__ import annotations

import math
import time
from functools import reduce
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from eosnet.errors import DataValidationError, NumericalFault
from eosnet.evaluation import auc
from eosnet.features import DEFAULT_UTC_OFFSET_MINUTES, SESSION_START, featurize_logs
from eosnet.net import (
    ModelParams,
    OptState,
    backward_batch,
    forward_batch,
    init_params,
    rmsprop_update,
)
from eosnet.sessions import LabeledSequence

_SPLIT_NS = 0x53504C54
_BATCH_NS = 0xB47C4E5
_DROPOUT_NS = 0xD709

# The most lanes of a window that one training task runs.  Fixed, so that
# the sums of a window's gradients, and so the outputs, do not depend on
# the pool size.
LANE_GROUP = 32


class Level(Enum):
    STUDENT = "student"
    SESSION = "session"


@dataclass(slots=True)
class TrainConfig:
    learning_rate: float = 0.001
    dropout_p: float = 0.4
    batch_size: int = 64
    patience: Optional[int] = 3  # None disables early stopping
    tbptt_window: int = 200
    max_epochs: int = 50
    level: Level = Level.STUDENT
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.level, str):
            self.level = Level(self.level)
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.tbptt_window < 1:
            raise ValueError("tbptt_window must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, "
                             f"got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be >= 1 or None")


@dataclass(slots=True)
class Split:
    """Disjoint student-id partition: ~81% train, ~9% validation, ~10% test."""

    train: list[str]
    validation: list[str]
    test: list[str]


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def split_students(student_ids: Iterable[str], seed: int) -> Split:
    """Shuffle ids deterministically and slice test = round(N/10),
    validation = round((N - test)/10), train = the rest."""
    ids = sorted(set(student_ids))
    n = len(ids)
    if n < 10:
        raise DataValidationError(f"need at least 10 students to split, got {n}")
    rng = np.random.default_rng([_SPLIT_NS, seed])
    perm = rng.permutation(n)
    n_test = _round_half_up(0.1 * n)
    n_val = _round_half_up(0.1 * (n - n_test))
    test = sorted(ids[i] for i in perm[:n_test])
    validation = sorted(ids[i] for i in perm[n_test:n_test + n_val])
    train = sorted(ids[i] for i in perm[n_test + n_val:])
    return Split(train=train, validation=validation, test=test)


def student_weights(seq: LabeledSequence) -> np.ndarray:
    """1.0 everywhere except label-1 steps, which carry the student's
    average session length (actions / sessions)."""
    weights = np.ones(seq.n_actions)
    ratio = seq.n_actions / np.count_nonzero(seq.labels)
    weights[seq.labels == 1] = ratio
    return weights


def session_weights(seq: LabeledSequence) -> np.ndarray:
    """Session-level analogue: each end-of-session step weighs its own
    session's length."""
    weights = np.ones(seq.n_actions)
    weights[seq.labels == 1] = seq.session_lengths
    return weights


@dataclass(slots=True)
class TrainSequence:
    """Featurized per-student training data for one level."""

    student_id: str
    features: np.ndarray  # (n, 13)
    labels: np.ndarray    # (n,) float64
    weights: np.ndarray   # (n,)
    resets: np.ndarray    # (n,) bool

    def __len__(self) -> int:
        return self.labels.shape[0]


def prepare_sequences(seqs: Sequence[LabeledSequence], level: Level,
                      utc_offset_minutes: int = DEFAULT_UTC_OFFSET_MINUTES
                      ) -> list[TrainSequence]:
    """Featurize students in one encoder call and attach level-appropriate
    weights/resets; each ``features`` is a view of the block's frames.

    Session level resets the state wherever the session-start feature is
    set, so training, batch scoring and streaming share one boundary rule.
    """
    frames = featurize_logs(seqs, utc_offset_minutes)
    bounds = np.cumsum([seq.n_actions for seq in seqs])[:-1]
    prepared = []
    for seq, features in zip(seqs, np.split(frames, bounds)):
        if level is Level.SESSION:
            resets = features[:, SESSION_START] == 1.0
            weights = session_weights(seq)
        else:
            resets = np.zeros(seq.n_actions, dtype=bool)
            weights = student_weights(seq)
        prepared.append(TrainSequence(
            student_id=seq.student_id,
            features=features,
            labels=seq.labels.astype(np.float64),
            weights=weights,
            resets=resets,
        ))
    return prepared


def prepare_sequence(seq: LabeledSequence, level: Level,
                     utc_offset_minutes: int = DEFAULT_UTC_OFFSET_MINUTES) -> TrainSequence:
    """The one-student case of :func:`prepare_sequences`."""
    return prepare_sequences([seq], level, utc_offset_minutes)[0]


@dataclass(slots=True)
class Batch:
    """A group of students padded to its longest lane, time-major.

    ``lengths`` (non-decreasing) is the only record of padding: lane b
    holds real steps ``[:lengths[b]]`` of ``X``, ``labels``, ``weights``
    and ``resets``, and zeros after them.
    """

    student_ids: list[str]
    lengths: np.ndarray  # (B,) int
    X: np.ndarray        # (T, B, D)
    labels: np.ndarray   # (T, B)
    weights: np.ndarray  # (T, B)
    resets: np.ndarray   # (T, B) bool

    def windows(self, size: int) -> Iterator["Batch"]:
        """Consecutive TBPTT windows of at most ``size`` steps.

        Each is a ``Batch`` of views into this one (no copy); its lengths
        are the lanes' real steps inside it, 0 for a lane already ended.
        """
        for start in range(0, self.X.shape[0], size):
            stop = start + size
            yield Batch(self.student_ids, np.clip(self.lengths - start, 0, size),
                        self.X[start:stop], self.labels[start:stop],
                        self.weights[start:stop], self.resets[start:stop])


def _build_batch(group: Sequence[TrainSequence]) -> Batch:
    lengths = np.array([len(s) for s in group])
    steps, lanes = int(lengths.max()), len(group)
    X = np.zeros((steps, lanes, group[0].features.shape[1]))
    labels = np.zeros((steps, lanes))
    weights = np.zeros((steps, lanes))
    resets = np.zeros((steps, lanes), dtype=bool)
    for lane, seq in enumerate(group):
        n = len(seq)
        X[:n, lane] = seq.features
        labels[:n, lane] = seq.labels
        weights[:n, lane] = seq.weights
        resets[:n, lane] = seq.resets
    return Batch(student_ids=[s.student_id for s in group], lengths=lengths,
                 X=X, labels=labels, weights=weights, resets=resets)


def make_batches(sequences: Sequence[TrainSequence], batch_size: int,
                 seed: int, epoch: int = 0) -> list[Batch]:
    """Deterministic epoch batching.

    Students are shuffled, then stably sorted by length so each batch
    holds similar lengths (less padding waste); batch order is shuffled
    again.  Within a batch the lanes keep that non-decreasing length
    order, which is the order ``forward_batch`` needs to step only the
    live lanes.  Training cuts each batch into TBPTT windows with
    :meth:`Batch.windows`.
    """
    if not sequences:
        return []
    rng = np.random.default_rng([_BATCH_NS, seed, epoch])
    perm = rng.permutation(len(sequences))
    order = sorted(perm.tolist(), key=lambda idx: len(sequences[idx]))
    groups = [order[i:i + batch_size] for i in range(0, len(order), batch_size)]
    return [_build_batch([sequences[i] for i in groups[g]])
            for g in rng.permutation(len(groups))]


def _score_group(params: ModelParams, group: Sequence[TrainSequence]) -> list[np.ndarray]:
    """Each lane's probabilities, copied out of one ``forward_batch``."""
    batch = _build_batch(group)
    h = c = np.zeros((len(group), params.hidden_size))
    probs = forward_batch(params, batch.X, batch.resets, h, c,
                          lengths=batch.lengths).probs
    return [probs[:len(seq), lane].copy() for lane, seq in enumerate(group)]


def _in_order(futures: list) -> list:
    """The futures' results in order, so the first fault in that order is
    raised, as in a serial run.  On a fault or an interrupt this cancels
    those not yet started, and returns only once those already started
    have finished, so the caller's pool is left with none of its work."""
    try:
        return [future.result() for future in futures]
    finally:
        wait([future for future in futures if not future.cancel()])


def score_sequences(params: ModelParams, sequences: Sequence[TrainSequence],
                    pool: ThreadPoolExecutor, batch_size: int = 64) -> dict[str, np.ndarray]:
    """Inference-mode probabilities for many students, batched.

    Students are processed in (length, id) order, so each batch's lanes
    come in the non-decreasing length order that lets one
    ``forward_batch`` call step only the live lanes; padding is never run.

    The batches share no state, so they all go to ``pool`` at once, the
    longest batch submitted first so that no long batch starts last.
    numpy releases the interpreter lock in the GEMMs and ufuncs.  Each
    batch is still one ``forward_batch`` call with the same rows, so every
    probability has the same bits at any pool size.  Results are collected
    in input order (see :func:`_in_order`).
    """
    order = sorted(range(len(sequences)),
                   key=lambda i: (len(sequences[i]), sequences[i].student_id))
    groups = [[sequences[i] for i in order[start:start + batch_size]]
              for start in range(0, len(order), batch_size)]
    results = _in_order([pool.submit(_score_group, params, group)
                         for group in reversed(groups)][::-1])
    return {seq.student_id: probs for group, lane_probs in zip(groups, results)
            for seq, probs in zip(group, lane_probs)}


class EarlyStopper:
    """Patience-based stopper tracking the best validation score."""

    def __init__(self, patience: Optional[int]):
        self.patience = patience
        self.best_score: Optional[float] = None
        self.best_epoch: Optional[int] = None
        self.stale = 0

    def update(self, score: float, epoch: int) -> bool:
        """Record an epoch score; returns True when training should stop.

        The epoch becomes the best one when it is the first, or when its
        score is not NaN and either beats the best score or the best score
        is NaN.  A NaN score never counts as an improvement.
        """
        best = self.best_score
        if best is None or (not math.isnan(score)
                            and (math.isnan(best) or score > best)):
            self.best_score = score
            self.best_epoch = epoch
            self.stale = 0
            return False
        self.stale += 1
        return self.patience is not None and self.stale >= self.patience


@dataclass(slots=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_auc: float
    seconds: float


@dataclass(slots=True)
class TrainResult:
    params: ModelParams
    history: list[EpochStats]
    best_epoch: int
    best_val_auc: float


def _lane_groups(n_lanes: int) -> list[slice]:
    """A window's lane groups: lanes ``g::n`` for the fewest groups n of at
    most ``LANE_GROUP`` lanes.  Each keeps the non-decreasing lengths
    order, and the groups' lengths are alike."""
    n = -(-n_lanes // LANE_GROUP)
    return [slice(g, None, n) for g in range(n)]


def _weight_sum(window: Batch) -> float:
    """The sum of a window's weights over its real lane-steps, in the order
    ``backward_batch`` adds them."""
    real = np.arange(window.X.shape[0])[:, None] < window.lengths
    return float(window.weights[real].sum())


def _train_group(params: ModelParams, window: Batch, lanes: slice, state: tuple,
                 dropout_p: float, key: list, weight_sum: float) -> tuple:
    """Lane group ``lanes``'s forward and backward pass over a window, from
    its ``(h, c)`` ``state``, with the window's dropout stream ``key``: its
    next state, its gradients and its loss numerator."""
    result = forward_batch(params, window.X, window.resets, *state,
                           dropout_p=dropout_p, rng=np.random.default_rng(key),
                           want_cache=True, lengths=window.lengths, lanes=lanes)
    grads, num, _ = backward_batch(params, result.cache, window.labels,
                                   window.weights, weight_sum)
    return (result.h, result.c), grads, num


@contextmanager
def _diverged(**context):
    """Re-raise a numerical fault as ``training diverged`` with ``context``."""
    try:
        yield
    except NumericalFault as fault:
        raise NumericalFault("training diverged", **context) from fault


def train(config: TrainConfig, train_seqs: Sequence[TrainSequence],
          val_seqs: Sequence[TrainSequence], pool: ThreadPoolExecutor,
          progress=None) -> TrainResult:
    """Run the full training loop and return the best-validation model.

    One RMSprop update per TBPTT window; recurrent state carries across a
    batch's windows while gradients do not.  Epoch loss is the
    weight-normalized BCE over all real steps.  After each epoch the pooled
    validation AUC decides early stopping (patience epochs without
    improvement).  ``pool`` runs each window's lane groups and the
    validation batches.
    """
    if not train_seqs or not val_seqs:
        raise DataValidationError("train and validation sets must be non-empty")
    params = init_params(config.seed)
    opt = OptState.for_params(params)
    stopper = EarlyStopper(config.patience)
    history: list[EpochStats] = []
    best_params = params.copy()

    val_labels = np.concatenate([s.labels for s in val_seqs])

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        batches = make_batches(train_seqs, config.batch_size, config.seed, epoch)
        loss_num = loss_den = 0.0
        for b_idx, batch in enumerate(batches):
            groups = _lane_groups(len(batch.student_ids))
            zeros = np.zeros((len(batch.student_ids), params.hidden_size))
            states = [(zeros[lanes], zeros[lanes]) for lanes in groups]
            for w_idx, window in enumerate(batch.windows(config.tbptt_window)):
                key = [_DROPOUT_NS, config.seed, epoch, b_idx, w_idx]
                den = _weight_sum(window)
                with _diverged(epoch=epoch, batch=b_idx, window=w_idx):
                    # each group's cache is spent inside its task, so all are
                    # gone before the next window's are built
                    states, grads, nums = zip(*_in_order([
                        pool.submit(_train_group, params, window, lanes, state,
                                    config.dropout_p, key, den)
                        for lanes, state in zip(groups, states)]))
                    # summed in group order; one group's are kept as they are
                    grads = ModelParams(*(reduce(np.add, arrays) for arrays
                                          in zip(*(g.arrays() for g in grads))))
                    num = sum(nums)
                    if not math.isfinite(num):
                        raise NumericalFault("non-finite loss")
                    if den > 0.0:
                        params, opt = rmsprop_update(params, grads, opt,
                                                     lr=config.learning_rate)
                    # the gradients are spent by the update
                    del grads
                loss_num += num
                loss_den += den
        train_loss = loss_num / loss_den if loss_den else 0.0

        with _diverged(epoch=epoch):
            scored = score_sequences(params, val_seqs, pool, config.batch_size)
        val_scores = np.concatenate([scored[s.student_id] for s in val_seqs])
        val_auc = auc(val_scores, val_labels)
        val_auc = float("nan") if val_auc is None else val_auc

        seconds = time.perf_counter() - t0
        history.append(EpochStats(epoch, train_loss, val_auc, seconds))
        if progress is not None:
            progress(history[-1])

        stop = stopper.update(val_auc, epoch)
        if stopper.best_epoch == epoch:
            best_params = params.copy()
        if stop:
            break

    return TrainResult(
        params=best_params,
        history=history,
        best_epoch=stopper.best_epoch,
        best_val_auc=stopper.best_score,
    )
