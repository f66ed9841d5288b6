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
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from eosnet.errors import DataValidationError, NumericalFault
from eosnet.evaluation import auc
from eosnet.features import DEFAULT_UTC_OFFSET_MINUTES, SESSION_START, featurize
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


def prepare_sequence(seq: LabeledSequence, level: Level,
                     utc_offset_minutes: int = DEFAULT_UTC_OFFSET_MINUTES) -> TrainSequence:
    """Featurize one student and attach level-appropriate weights/resets.

    Session level resets the state wherever the session-start feature is
    set, so training, batch scoring and streaming share one boundary rule.
    """
    features = featurize(seq, utc_offset_minutes=utc_offset_minutes)
    if level is Level.SESSION:
        resets = features[:, SESSION_START] == 1.0
        weights = session_weights(seq)
    else:
        resets = np.zeros(seq.n_actions, dtype=bool)
        weights = student_weights(seq)
    return TrainSequence(
        student_id=seq.student_id,
        features=features,
        labels=seq.labels.astype(np.float64),
        weights=weights,
        resets=resets,
    )


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


def score_sequences(params: ModelParams, sequences: Sequence[TrainSequence],
                    batch_size: int = 64) -> dict[str, np.ndarray]:
    """Inference-mode probabilities for many students, batched.

    Deterministic: students are processed in (length, id) order, so each
    batch's lanes come in the non-decreasing length order that lets one
    ``forward_batch`` call step only the live lanes; padding is never run.
    """
    order = sorted(range(len(sequences)),
                   key=lambda i: (len(sequences[i]), sequences[i].student_id))
    out: dict[str, np.ndarray] = {}
    for start in range(0, len(order), batch_size):
        group = [sequences[i] for i in order[start:start + batch_size]]
        batch = _build_batch(group)
        h = c = np.zeros((len(group), params.hidden_size))
        result = forward_batch(params, batch.X, batch.resets, h, c,
                               lengths=batch.lengths)
        for lane, seq in enumerate(group):
            out[seq.student_id] = result.probs[:len(seq), lane].copy()
    return out


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


@contextmanager
def _diverged(**context):
    """Re-raise a numerical fault as ``training diverged`` with ``context``."""
    try:
        yield
    except NumericalFault as fault:
        raise NumericalFault("training diverged", **context) from fault


def train(config: TrainConfig, train_seqs: Sequence[TrainSequence],
          val_seqs: Sequence[TrainSequence],
          progress=None) -> TrainResult:
    """Run the full training loop and return the best-validation model.

    One RMSprop update per TBPTT window; recurrent state carries across a
    batch's windows while gradients do not.  Epoch loss is the
    weight-normalized BCE over all real steps.  After each epoch the pooled
    validation AUC decides early stopping (patience epochs without
    improvement).
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
            h = c = np.zeros((len(batch.student_ids), params.hidden_size))
            for w_idx, window in enumerate(batch.windows(config.tbptt_window)):
                rng = np.random.default_rng(
                    [_DROPOUT_NS, config.seed, epoch, b_idx, w_idx])
                with _diverged(epoch=epoch, batch=b_idx, window=w_idx):
                    result = forward_batch(params, window.X, window.resets, h, c,
                                           dropout_p=config.dropout_p, rng=rng,
                                           want_cache=True, lengths=window.lengths)
                    h, c = result.h, result.c
                    grads, num, den = backward_batch(params, result.cache,
                                                     window.labels, window.weights)
                    # the spent cache goes before the next window's is built
                    del result
                    if not math.isfinite(num):
                        raise NumericalFault("non-finite loss")
                    if den > 0.0:
                        params, opt = rmsprop_update(params, grads, opt,
                                                     lr=config.learning_rate)
                    # and so do its gradients, spent by the update
                    del grads
                loss_num += num
                loss_den += den
        train_loss = loss_num / loss_den if loss_den else 0.0

        with _diverged(epoch=epoch):
            scored = score_sequences(params, val_seqs, config.batch_size)
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
