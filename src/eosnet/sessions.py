"""Gap-based session segmentation and end-of-session labelling.

A session is a maximal run of one student's actions where no inter-action
gap exceeds ``SESSION_GAP_SECONDS`` (15 minutes).  ``starts_session`` is
the one statement of that rule: an action starts a session when it is the
student's first or follows the previous one by strictly more than 900 s,
so two actions exactly 900 s apart stay in the same session.  ``segment``
and ``features.StreamFeaturizer.push`` both decide session starts with
it.  The last action of every session carries label 1, all others 0.

These per-action ``labels`` are the one record of where a student's
sessions end.  ``session_table`` is the one derivation of the per-session
facts that ``evaluation`` and ``synthgen.summarize`` read from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from eosnet.ingest import StudentLog

SESSION_GAP_SECONDS = 900


def starts_session(previous_timestamp: Optional[int], timestamp: int) -> bool:
    """Whether an action at ``timestamp`` starts a new session, given the
    timestamp of the student's previous action (None if there is none)."""
    return previous_timestamp is None or timestamp - previous_timestamp > SESSION_GAP_SECONDS


@dataclass(slots=True)
class LabeledSequence(StudentLog):
    """A student log plus per-action end-of-session labels.

    ``labels`` aligns with ``actions`` and holds exactly one 1 per session,
    at its last action, so the last action of a non-empty sequence is 1.
    """

    labels: np.ndarray  # int8, length = number of actions

    @property
    def n_actions(self) -> int:
        return self.labels.shape[0]

    @property
    def session_lengths(self) -> np.ndarray:
        return session_lengths(self.labels)


def session_lengths(labels: np.ndarray) -> np.ndarray:
    """The length of each session, in order, read off end-of-session labels."""
    return np.diff(np.flatnonzero(labels), prepend=-1)


class HomeworkClass(Enum):
    ONLY = "only"
    PARTLY = "partly"
    NONE = "none"


def segment(log: StudentLog) -> list[int]:
    """The lengths of a chronological student log's sessions, in order:
    a session starts at every action that ``starts_session``."""
    lengths: list[int] = []
    previous: Optional[int] = None
    for action in log.actions:
        if starts_session(previous, action.timestamp):
            lengths.append(0)
        lengths[-1] += 1
        previous = action.timestamp
    return lengths


def label(log: StudentLog) -> LabeledSequence:
    """Segment ``log`` and label 1 at each session's last action."""
    labels = np.zeros(len(log.actions), dtype=np.int8)
    labels[np.cumsum(segment(log), dtype=np.intp) - 1] = 1
    return LabeledSequence(log.student_id, log.actions, labels)


def session_table(labels: np.ndarray, homework: np.ndarray,
                  students: np.ndarray) -> tuple[np.ndarray, ...]:
    """From per-action labels, homework flags (bool) and student ordinals,
    in student then time order: each action's session ordinal, and each
    session's length, ``HomeworkClass`` value (Only if all its actions are
    homework, None if none is, else Partly) and student's session count."""
    session_of = np.cumsum(labels) - labels
    lengths = session_lengths(labels)
    n_homework = np.bincount(session_of[homework], minlength=lengths.shape[0])
    classes = np.where(n_homework == lengths, HomeworkClass.ONLY.value,
                       np.where(n_homework == 0, HomeworkClass.NONE.value,
                                HomeworkClass.PARTLY.value))
    session_students = students[labels == 1]
    return session_of, lengths, classes, np.bincount(session_students)[session_students]
