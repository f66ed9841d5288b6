"""ROC-AUC evaluation: global score, homework / session-length / usage
stratifications, and the within-session probability trajectory.

AUC uses the average-rank (Mann-Whitney) formulation: the probability
that a uniformly random positive outranks a uniformly random negative,
with ties counted one half.  All stratified scores pool the actions of
the stratum's sessions (or students) into one score/label set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from eosnet.sessions import HomeworkClass, LabeledSequence, session_homework_class

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
class ScoredSession:
    """One session's predicted probabilities plus stratification metadata."""

    student_id: str
    index: int
    homework: HomeworkClass
    probs: np.ndarray  # (length,), aligned with the session's actions

    @property
    def length(self) -> int:
        return self.probs.shape[0]

    @property
    def labels(self) -> np.ndarray:
        labels = np.zeros(self.length, dtype=np.int8)
        labels[-1] = 1
        return labels


def scored_sessions(seq: LabeledSequence, probs: np.ndarray) -> list[ScoredSession]:
    """Split a student's per-action probabilities back into sessions."""
    if probs.shape[0] != seq.n_actions:
        raise ValueError("probabilities do not align with the sequence")
    out = []
    pos = 0
    for session in seq.sessions:
        out.append(ScoredSession(
            student_id=seq.student_id,
            index=session.index,
            homework=session_homework_class(session),
            probs=probs[pos:pos + len(session)].copy(),
        ))
        pos += len(session)
    return out


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


def _pooled_auc(sessions: Sequence[ScoredSession]) -> Optional[float]:
    if not sessions:
        return None
    scores = np.concatenate([s.probs for s in sessions])
    labels = np.concatenate([s.labels for s in sessions])
    return auc(scores, labels)


def _bucket_aucs(sessions: Sequence[ScoredSession], count_of) -> dict:
    """Pooled AUC per ``bucket_key(count_of(session))``, in bucket order,
    omitting buckets without an AUC."""
    groups: dict[str, list[ScoredSession]] = {key: [] for key in BUCKET_LABELS}
    for session in sessions:
        groups[bucket_key(count_of(session))].append(session)
    aucs = {key: _pooled_auc(members) for key, members in groups.items()}
    return {key: value for key, value in aucs.items() if value is not None}


def trajectory(sessions: Sequence[ScoredSession]) -> Optional[tuple[np.ndarray, float]]:
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
    for session in sessions:
        length = session.length
        if length < MIN_TRAJECTORY_LENGTH:
            continue
        chunks = (N_TRAJECTORY_CHUNKS * np.arange(length)) // length
        np.add.at(sums, chunks, session.probs)
        np.add.at(counts, chunks, 1)
        eos_sum += float(session.probs[-1])
        eos_count += 1
    if eos_count == 0:
        return None
    return sums / counts, eos_sum / eos_count


def compute_report(sessions: Sequence[ScoredSession]) -> EvalReport:
    """Assemble the full report from scored sessions."""
    report = EvalReport()
    report.global_auc = _pooled_auc(sessions)

    for cls in HomeworkClass:
        value = _pooled_auc([s for s in sessions if s.homework is cls])
        if value is not None:
            report.homework_auc[cls] = value

    report.length_auc = _bucket_aucs(sessions, lambda s: s.length)

    report.div5_auc = (
        _pooled_auc([s for s in sessions if s.length % 5 == 0]),
        _pooled_auc([s for s in sessions if s.length % 5 != 0]),
    )

    session_counts = Counter(s.student_id for s in sessions)
    report.usage_auc = _bucket_aucs(sessions, lambda s: session_counts[s.student_id])

    traj = trajectory(sessions)
    if traj is not None:
        report.trajectory, report.eos_mean_prob = traj
    return report
