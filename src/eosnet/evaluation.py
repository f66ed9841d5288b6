"""ROC-AUC evaluation: global score, homework / session-length / usage
stratifications, and the within-session probability trajectory.

AUC uses the average-rank (Mann-Whitney) formulation: the probability
that a uniformly random positive outranks a uniformly random negative,
with ties counted one half.  All stratified scores pool the actions of
the stratum's sessions (or students) into one score/label set.

Every per-session fact (length, homework class, usage) is read from
``sessions.session_table``: a stratum is a mask over sessions, expanded
over their actions, and no per-session copy of probabilities is kept.

``compute_report`` gives the report as ``(metric, stratum, value)`` rows,
each appended as it is computed, so their order is stated once.  A stratum
that does not hold both classes has no row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from eosnet.sessions import HomeworkClass, LabeledSequence, session_table

N_TRAJECTORY_CHUNKS = 20
MIN_TRAJECTORY_LENGTH = 20

LENGTH_BUCKETS: tuple[tuple[int, Optional[int]], ...] = (
    (1, 5), (6, 10), (11, 20), (21, 30), (31, 40), (41, 50),
    (51, 60), (61, 70), (71, 80), (81, 90), (91, None),
)
BUCKET_LABELS = tuple(f"{lo}-{'max' if hi is None else hi}" for lo, hi in LENGTH_BUCKETS)
_BUCKET_LOWS = np.array([lo for lo, _ in LENGTH_BUCKETS])


def bucket_keys(counts: np.ndarray) -> np.ndarray:
    """Map each positive count onto its interval label, e.g. 7 -> '6-10'."""
    if counts.size and counts.min() < 1:
        raise ValueError(f"counts must be positive, got {counts.min()}")
    return np.array(BUCKET_LABELS)[np.searchsorted(_BUCKET_LOWS, counts, side="right") - 1]


def auc(scores, labels) -> Optional[float]:
    """Average-rank AUC; None when only one class is present."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape:
        raise ValueError(f"length mismatch: {s.shape} vs {y.shape}")
    pos = y != 0
    n_pos = int(pos.sum())
    n_neg = s.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    cumulative = np.cumsum(counts)
    avg_rank = cumulative - (counts - 1) / 2.0  # mean of each tie group's ranks
    rank_sum = float(avg_rank[inverse][pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(slots=True)
class ScoredActions:
    """Every scored action of the evaluated students, in student order and
    then in time order, as aligned per-action arrays.

    ``labels`` is the one record of session boundaries: each session ends
    at a 1 and each student's last action is one.
    """

    probs: np.ndarray     # (n,) float64
    labels: np.ndarray    # (n,) int8
    homework: np.ndarray  # (n,) bool
    students: np.ndarray  # (n,) int, the ordinal of the action's student


def scored_sessions(seqs: Sequence[LabeledSequence], probs: np.ndarray) -> ScoredActions:
    """Align ``probs``, the probabilities of every action of ``seqs`` in
    order (as ``training.score_sequences`` gives them), with the labels and
    homework flags of those actions; another shape is a ValueError."""
    n_actions = sum(seq.n_actions for seq in seqs)
    if probs.shape != (n_actions,):
        raise ValueError(f"probabilities of shape {probs.shape} for {n_actions} actions")
    return ScoredActions(
        probs=probs,
        labels=np.concatenate([np.zeros(0, np.int8)] + [s.labels for s in seqs]),
        homework=np.array([a.homework for s in seqs for a in s.actions], dtype=bool),
        students=np.repeat(np.arange(len(seqs)), [s.n_actions for s in seqs]),
    )


def trajectory(scored: ScoredActions, session_of: np.ndarray,
               lengths: np.ndarray) -> Optional[tuple[np.ndarray, float]]:
    """Mean probability per 5% chunk over sessions of length >= 20, plus
    the mean probability at their true end-of-session actions, given the
    ``session_of`` and ``lengths`` of ``scored``'s ``session_table``.

    Action j (0-based) of a length-L session lands in chunk
    floor(20*j/L), which distributes remainders evenly and gives exactly
    one action per chunk at L = 20.  Both means add in action order.
    """
    length = lengths[session_of]  # per action
    long = length >= MIN_TRAJECTORY_LENGTH
    if not long.any():
        return None
    position = np.arange(length.shape[0]) - (np.cumsum(lengths) - lengths)[session_of]
    # every long session fills all the chunks, so each count is positive
    chunks = (N_TRAJECTORY_CHUNKS * position[long]) // length[long]
    sums = np.bincount(chunks, weights=scored.probs[long])
    eos = scored.probs[long & (scored.labels == 1)]
    # np.cumsum adds one by one, in session order; .sum() would add pairwise
    return sums / np.bincount(chunks), float(np.cumsum(eos)[-1]) / eos.shape[0]


def compute_report(scored: ScoredActions) -> tuple[list, Optional[np.ndarray]]:
    """``(rows, chunk_means)``: the ``(metric, stratum, value)`` rows of
    ``report.csv`` in order, and the ``trajectory`` chunk means.

    The rows are the ``auc`` of ``global``, ``homework_<class>`` in
    ``HomeworkClass`` order, ``length_<bucket>``, ``div5``, ``nondiv5`` and
    ``usage_<bucket>`` (the student's session count), omitting each stratum
    without both classes; then ``mean_prob,eos``.  That row is absent and
    ``chunk_means`` is None when no session is long enough for the
    trajectory.  A stratum's AUC pools its actions in their original order.
    """
    session_of, lengths, classes, usage = session_table(
        scored.labels, scored.homework, scored.students)
    rows: list = []

    def put(stratum: str, session_mask) -> None:
        mask = session_mask[session_of]
        value = auc(scored.probs[mask], scored.labels[mask]) if mask.any() else None
        if value is not None:
            rows.append(("auc", stratum, value))

    def put_each(prefix: str, session_keys: np.ndarray, keys) -> None:
        for key in keys:
            put(f"{prefix}_{key}", session_keys == key)

    put("global", np.ones(lengths.shape[0], dtype=bool))
    put_each("homework", classes, [cls.value for cls in HomeworkClass])
    put_each("length", bucket_keys(lengths), BUCKET_LABELS)
    put("div5", lengths % 5 == 0)
    put("nondiv5", lengths % 5 != 0)
    put_each("usage", bucket_keys(usage), BUCKET_LABELS)

    chunk_means, eos_mean = trajectory(scored, session_of, lengths) or (None, None)
    if chunk_means is not None:
        rows.append(("mean_prob", "eos", eos_mean))
    return rows, chunk_means
