"""Gap-based session segmentation and end-of-session labelling.

A session is a maximal run of one student's actions where no inter-action
gap exceeds ``SESSION_GAP_SECONDS`` (15 minutes).  ``starts_session`` is
the one statement of that rule: an action starts a session when it is the
student's first or follows the previous one by strictly more than 900 s,
so two actions exactly 900 s apart stay in the same session.  ``segment``
and ``features.StreamFeaturizer.push`` both decide session starts with
it.  The last action of every session carries label 1, all others 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from eosnet.ingest import RawAction, StudentLog

SESSION_GAP_SECONDS = 900


def starts_session(previous_timestamp: Optional[int], timestamp: int) -> bool:
    """Whether an action at ``timestamp`` starts a new session, given the
    timestamp of the student's previous action (None if there is none)."""
    return previous_timestamp is None or timestamp - previous_timestamp > SESSION_GAP_SECONDS


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


def segment(log: StudentLog) -> list[Session]:
    """Split a chronological student log into sessions at every action
    that ``starts_session``.  The concatenation of the result equals the
    input."""
    sessions: list[Session] = []
    previous: Optional[int] = None
    for action in log.actions:
        if starts_session(previous, action.timestamp):
            sessions.append(Session(log.student_id, [], len(sessions)))
        sessions[-1].actions.append(action)
        previous = action.timestamp
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
