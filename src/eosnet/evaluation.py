"""ROC-AUC evaluation: global score, homework / session-length / usage
stratifications, and the within-session probability trajectory.

AUC uses the average-rank (Mann-Whitney) formulation: the probability
that a uniformly random positive outranks a uniformly random negative,
with ties counted one half.  All stratified scores pool the actions of
the stratum's sessions (or students) into one score/label set.

The per-action end-of-session ``labels`` are the one record of session
boundaries here too: a stratum is a mask over sessions, expanded over
their actions, and no per-session copy of probabilities is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from eosnet.sessions import HomeworkClass, LabeledSequence, homework_class, session_lengths

N_TRAJECTORY_CHUNKS = 20
MIN_TRAJECTORY_LENGTH = 20

LENGTH_BUCKETS: tuple[tuple[int, Optional[int]], ...] = (
    (1, 5), (6, 10), (11, 20), (21, 30), (31, 40), (41, 50),
    (51, 60), (61, 70), (71, 80), (81, 90), (91, None),
)
BUCKET_LABELS = tuple(f"{lo}-{'max' if hi is None else hi}" for lo, hi in LENGTH_BUCKETS)


def bucket_key(count: int) -> str:
    """Map a positive count onto its interval label, e.g. 7 -> '6-10'."""
    for (lo, hi), key in zip(LENGTH_BUCKETS, BUCKET_LABELS):
        if lo <= count and (hi is None or count <= hi):
            return key
    raise ValueError(f"count must be positive, got {count}")


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


def scored_sessions(seqs: Sequence[LabeledSequence],
                    probs: Mapping[str, np.ndarray]) -> ScoredActions:
    """Align each student's probabilities ``probs[student_id]`` with the
    labels and homework flags of its actions, students in ``seqs`` order."""
    for seq in seqs:
        if probs[seq.student_id].shape[0] != seq.n_actions:
            raise ValueError(f"probabilities do not align with {seq.student_id}")
    return ScoredActions(
        probs=np.concatenate([np.zeros(0)] + [probs[s.student_id] for s in seqs]),
        labels=np.concatenate([np.zeros(0, np.int8)] + [s.labels for s in seqs]),
        homework=np.array([a.homework for s in seqs for a in s.actions], dtype=bool),
        students=np.repeat(np.arange(len(seqs)), [s.n_actions for s in seqs]),
    )


@dataclass(slots=True)
class EvalReport:
    """Every evaluation output: global and stratified AUCs, trajectory."""

    global_auc: Optional[float] = None
    homework_auc: dict = field(default_factory=dict)   # HomeworkClass -> float
    length_auc: dict = field(default_factory=dict)     # "1-5" ... "91-max" -> float
    div5_auc: tuple = (None, None)                     # (divisible, not divisible)
    usage_auc: dict = field(default_factory=dict)      # session-count bucket -> float
    trajectory: Optional[np.ndarray] = None            # (20,) chunk means
    eos_mean_prob: Optional[float] = None

    def metric_lines(self) -> list[str]:
        """Flatten to ``metric,stratum,value`` rows (absent strata omitted)."""
        rows: list[str] = []

        def put(metric, stratum, value):
            if value is not None:
                rows.append(f"{metric},{stratum},{value!r}")

        put("auc", "global", self.global_auc)
        for cls in HomeworkClass:
            put("auc", f"homework_{cls.value}", self.homework_auc.get(cls))
        for key in BUCKET_LABELS:
            put("auc", f"length_{key}", self.length_auc.get(key))
        put("auc", "div5", self.div5_auc[0])
        put("auc", "nondiv5", self.div5_auc[1])
        for key in BUCKET_LABELS:
            put("auc", f"usage_{key}", self.usage_auc.get(key))
        put("mean_prob", "eos", self.eos_mean_prob)
        return rows

    def trajectory_rows(self) -> list[str]:
        """Plot-data rows ``chunk,mean_prob`` for chunks 1..20."""
        if self.trajectory is None:
            return []
        return [f"{i + 1},{float(v)!r}" for i, v in enumerate(self.trajectory)]


def _stratum_aucs(pooled, session_keys: list, keys) -> dict:
    """``pooled`` AUC of the sessions whose key is each of ``keys``, in
    that order, omitting keys without an AUC."""
    session_keys = np.array(session_keys, dtype=object)
    aucs = {key: pooled(session_keys == key) for key in keys}
    return {key: value for key, value in aucs.items() if value is not None}


def trajectory(scored: ScoredActions) -> Optional[tuple[np.ndarray, float]]:
    """Mean probability per 5% chunk over sessions of length >= 20, plus
    the mean probability at their true end-of-session actions.

    Action j (0-based) of a length-L session lands in chunk
    floor(20*j/L), which distributes remainders evenly and gives exactly
    one action per chunk at L = 20.
    """
    sums = np.zeros(N_TRAJECTORY_CHUNKS)
    counts = np.zeros(N_TRAJECTORY_CHUNKS)
    eos_sum = 0.0
    eos_count = 0
    end = 0
    for length in session_lengths(scored.labels).tolist():
        start, end = end, end + length
        if length < MIN_TRAJECTORY_LENGTH:
            continue
        probs = scored.probs[start:end]
        chunks = (N_TRAJECTORY_CHUNKS * np.arange(length)) // length
        np.add.at(sums, chunks, probs)
        np.add.at(counts, chunks, 1)
        eos_sum += float(probs[-1])
        eos_count += 1
    if eos_count == 0:
        return None
    return sums / counts, eos_sum / eos_count


def compute_report(scored: ScoredActions) -> EvalReport:
    """Assemble the full report from the scored actions.

    Each stratum is a mask over sessions, expanded over their actions;
    its AUC pools those actions in their original order.
    """
    lengths = session_lengths(scored.labels)
    session_of = np.cumsum(scored.labels) - scored.labels  # per action

    def pooled(session_mask) -> Optional[float]:
        mask = session_mask[session_of]
        return auc(scored.probs[mask], scored.labels[mask]) if mask.any() else None

    report = EvalReport()
    report.global_auc = pooled(np.ones(lengths.shape[0], dtype=bool))

    homework = np.bincount(session_of[scored.homework], minlength=lengths.shape[0])
    report.homework_auc = _stratum_aucs(
        pooled, list(map(homework_class, homework.tolist(), lengths.tolist())), HomeworkClass)
    report.length_auc = _stratum_aucs(
        pooled, list(map(bucket_key, lengths.tolist())), BUCKET_LABELS)
    report.div5_auc = (pooled(lengths % 5 == 0), pooled(lengths % 5 != 0))
    session_students = scored.students[np.flatnonzero(scored.labels)]
    usage = np.bincount(session_students)[session_students]  # the student's sessions
    report.usage_auc = _stratum_aucs(
        pooled, list(map(bucket_key, usage.tolist())), BUCKET_LABELS)

    traj = trajectory(scored)
    if traj is not None:
        report.trajectory, report.eos_mean_prob = traj
    return report
