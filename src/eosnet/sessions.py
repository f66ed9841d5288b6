"""Gap-based session segmentation and end-of-session labelling.

A session is a maximal run of one student's actions where no inter-action
gap exceeds ``SESSION_GAP_SECONDS`` (15 minutes).  ``session_starts`` is
the one statement of that rule, a vector predicate over a block of
actions: an action starts a session when it is its student's first or
follows the previous one by strictly more than 900 s, so two actions
exactly 900 s apart stay in the same session.  ``label`` (and so
``segment``) and ``features.encode_block`` both decide session starts with
it.  The last action of every session carries label 1, all others 0.

These per-action ``labels`` are the one record of where a student's
sessions end.  ``session_table`` is the one derivation of the per-session
facts that ``evaluation`` and ``synthgen.summarize`` read from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

import numpy as np

from eosnet.ingest import StudentLog

SESSION_GAP_SECONDS = 900


def session_starts(first, gaps: np.ndarray) -> np.ndarray:
    """Whether each action starts a session, given whether it is its
    student's first (``first``, a bool array or one bool for all) and the
    seconds since the student's previous action (``gaps``, read only
    where ``first`` is unset)."""
    return first | (gaps > SESSION_GAP_SECONDS)


_timestamp = attrgetter("timestamp")


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


def label(log: StudentLog) -> LabeledSequence:
    """Label a chronological student log: 1 at its last action and at each
    action whose successor ``session_starts`` marks, else 0."""
    timestamps = np.fromiter(map(_timestamp, log.actions), np.int64, len(log.actions))
    labels = np.ones(timestamps.shape[0], dtype=np.int8)
    labels[:-1] = session_starts(False, timestamps[1:] - timestamps[:-1])
    return LabeledSequence(log.student_id, log.actions, labels)


def segment(log: StudentLog) -> list[int]:
    """The lengths of a chronological student log's sessions, in order."""
    ends = np.flatnonzero(label(log).labels).tolist()
    return [end - start for start, end in zip([-1, *ends], ends)]


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
