"""Gap-based session segmentation and end-of-session labelling.

A session is a maximal run of one student's actions where no inter-action
gap exceeds ``DEFAULT_GAP_SECONDS`` (15 minutes).  The gap rule is a
strict "greater than": two actions exactly 900 s apart stay in the same
session.  The last action of every session carries label 1, all others 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from eosnet.ingest import RawAction, StudentLog

DEFAULT_GAP_SECONDS = 900


@dataclass(slots=True)
class Session:
    """One session: non-empty chronological actions of a single student."""

    student_id: str
    actions: list[RawAction]
    index: int  # 0-based ordinal within the student's history

    def __len__(self) -> int:
        return len(self.actions)


@dataclass(slots=True)
class LabeledSequence:
    """A student's sessions plus per-action end-of-session labels.

    ``labels`` aligns with the concatenation of all session actions and
    holds exactly one 1 per session, at its last action.
    """

    student_id: str
    sessions: list[Session]
    labels: np.ndarray  # int8, length = total number of actions

    @property
    def actions(self) -> list[RawAction]:
        return [action for session in self.sessions for action in session.actions]

    @property
    def n_actions(self) -> int:
        return self.labels.shape[0]


class HomeworkClass(Enum):
    ONLY = "only"
    PARTLY = "partly"
    NONE = "none"


def segment(log: StudentLog, gap_seconds: int = DEFAULT_GAP_SECONDS) -> list[Session]:
    """Split a chronological student log at gaps strictly greater than
    ``gap_seconds``.  The concatenation of the result equals the input."""
    if gap_seconds <= 0:
        raise ValueError("gap_seconds must be positive")
    sessions: list[Session] = []
    current: list[RawAction] = []
    for action in log.actions:
        if current and action.timestamp - current[-1].timestamp > gap_seconds:
            sessions.append(Session(log.student_id, current, len(sessions)))
            current = []
        current.append(action)
    if current:
        sessions.append(Session(log.student_id, current, len(sessions)))
    return sessions


def label(sessions: list[Session]) -> LabeledSequence:
    """Attach end-of-session labels: 1 at each session's last action."""
    if not sessions:
        return LabeledSequence(student_id="", sessions=[], labels=np.zeros(0, dtype=np.int8))
    labels = np.zeros(sum(len(s) for s in sessions), dtype=np.int8)
    pos = -1
    for session in sessions:
        pos += len(session)
        labels[pos] = 1
    return LabeledSequence(student_id=sessions[0].student_id, sessions=sessions, labels=labels)


def session_homework_class(session: Session) -> HomeworkClass:
    """Only if every action is homework, None if none is, Partly otherwise."""
    flags = [action.homework for action in session.actions]
    if all(flags):
        return HomeworkClass.ONLY
    if not any(flags):
        return HomeworkClass.NONE
    return HomeworkClass.PARTLY
