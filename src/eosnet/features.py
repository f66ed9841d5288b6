"""Per-action feature encoding.

Every action becomes a frame of 13 floats with the layout below;
``FEATURE_NAMES`` holds the column names in this order.
:class:`StreamFeaturizer` encodes one student's actions one at a time,
causally, as live scoring needs, each frame a list of 13 Python floats;
``featurize`` pushes every action of a labelled sequence through it and
stacks the frames once into an (n, 13) array, so batch and live scoring
share one encoder.  Session starts (column 12, and the session gap of
column 4) come from ``sessions.starts_session``, the same rule that
segments sessions.

Layout (column indices):

==== =======================================================
0-2  time-of-day one-hot: [08,12), [12,15), [15,08) local
3    log-compressed time since last action, capped at 900 s
4    log-compressed time since last session, capped at 30 d,
     constant within a session
5-7  action-kind one-hot: fillout, multichoice, material
8    lesson id changed vs previous action
9    topic id changed vs previous action
10   answered correctly (0 for material views)
11   done as homework
12   action starts a new session (session-level models reset here)
==== =======================================================

A student's first-ever action takes 1.0 for both time features, 0 for the
change flags, and 1 for the session-start flag.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from eosnet.ingest import ActionKind, RawAction
from eosnet.sessions import LabeledSequence, starts_session

FEATURE_NAMES = (
    "tod_8_12", "tod_12_15", "tod_15_8", "gap_action", "gap_session",
    "kind_fillout", "kind_multichoice", "kind_material", "lesson_changed",
    "topic_changed", "correct", "homework", "session_start",
)
FEATURE_DIM = len(FEATURE_NAMES)

# column indices
TOD_8_12, TOD_12_15, TOD_15_8 = 0, 1, 2
TIME_SINCE_ACTION = 3
TIME_SINCE_SESSION = 4
KIND_FILLOUT, KIND_MULTICHOICE, KIND_MATERIAL = 5, 6, 7
LESSON_CHANGED = 8
TOPIC_CHANGED = 9
CORRECT = 10
HOMEWORK = 11
SESSION_START = 12

ACTION_GAP_CAP_SECONDS = 900
SESSION_GAP_CAP_SECONDS = 30 * 86400

DEFAULT_UTC_OFFSET_MINUTES = 60  # fixed offset, no DST handling

_KIND_COLUMN = {
    ActionKind.FILL_OUT_QUESTION: KIND_FILLOUT,
    ActionKind.MULTIPLE_CHOICE_QUESTION: KIND_MULTICHOICE,
    ActionKind.MATERIAL: KIND_MATERIAL,
}


# JSON types of the ``to_dict`` fields; None means no action seen yet
_STATE_TYPES = {
    "last_timestamp": (int, type(None)),
    "last_lesson": (str, type(None)),
    "last_topic": (str, type(None)),
    "session_gap_value": (int, float),
}


def time_of_day_column(timestamp: int, utc_offset_minutes: int) -> int:
    """Column of the local-time bucket: [8,12) 0, [12,15) 1, [15,8) 2."""
    local = (timestamp + 60 * utc_offset_minutes) % 86400
    if 8 * 3600 <= local < 12 * 3600:
        return TOD_8_12
    if 12 * 3600 <= local < 15 * 3600:
        return TOD_12_15
    return TOD_15_8


def transform_gap(delta_seconds: int, cap_seconds: int) -> float:
    """Map a non-negative gap into [0, 1]: ln(1+delta)/ln(1+cap), capped."""
    if delta_seconds < 0:
        raise ValueError("negative gap")
    if cap_seconds <= 0:
        raise ValueError("cap must be positive")
    return min(math.log1p(delta_seconds) / math.log1p(cap_seconds), 1.0)


class StreamFeaturizer:
    """Causal per-student featurizer.

    Feeds one action at a time and returns its frame; an action
    starts a session where ``starts_session`` says so.  The student's
    history (``to_dict``) is serializable so scoring can be resumed
    across process invocations; the UTC offset is not part of it.
    """

    def __init__(self, utc_offset_minutes: int = DEFAULT_UTC_OFFSET_MINUTES):
        self.utc_offset_minutes = utc_offset_minutes
        self.last_timestamp: Optional[int] = None
        self.last_lesson: Optional[str] = None
        self.last_topic: Optional[str] = None
        self.session_gap_value = 1.0  # column 4, constant within a session

    def push(self, action: RawAction) -> list[float]:
        """Encode one action; returns its frame as a list of 13 floats."""
        first_ever = self.last_timestamp is None
        if not first_ever and action.timestamp < self.last_timestamp:
            raise ValueError(
                f"out-of-order timestamp {action.timestamp} after {self.last_timestamp}"
            )
        session_start = starts_session(self.last_timestamp, action.timestamp)

        frame = [0.0] * FEATURE_DIM
        frame[time_of_day_column(action.timestamp, self.utc_offset_minutes)] = 1.0
        if first_ever:
            frame[TIME_SINCE_ACTION] = 1.0
        else:
            frame[TIME_SINCE_ACTION] = transform_gap(
                action.timestamp - self.last_timestamp, ACTION_GAP_CAP_SECONDS
            )
        if session_start and not first_ever:
            self.session_gap_value = transform_gap(
                action.timestamp - self.last_timestamp, SESSION_GAP_CAP_SECONDS
            )
        frame[TIME_SINCE_SESSION] = float(self.session_gap_value)
        frame[_KIND_COLUMN[action.kind]] = 1.0
        if not first_ever:
            frame[LESSON_CHANGED] = float(action.lesson_id != self.last_lesson)
            frame[TOPIC_CHANGED] = float(action.topic_id != self.last_topic)
        frame[CORRECT] = float(action.correct is True)
        frame[HOMEWORK] = float(action.homework)
        frame[SESSION_START] = float(session_start)

        self.last_timestamp = action.timestamp
        self.last_lesson = action.lesson_id
        self.last_topic = action.topic_id
        return frame

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in _STATE_TYPES}

    @classmethod
    def from_dict(cls, state: dict, utc_offset_minutes: int) -> "StreamFeaturizer":
        """Inverse of :meth:`to_dict` for a featurizer at the given UTC
        offset; a field of the wrong type or out of range raises
        ``ValueError``."""
        for key, types in _STATE_TYPES.items():
            if isinstance(state[key], bool) or not isinstance(state[key], types):
                raise ValueError(f"{key} has the wrong type: {state[key]!r}")
        if not 0.0 <= state["session_gap_value"] <= 1.0:
            raise ValueError(
                f"session_gap_value must be in [0, 1], got {state['session_gap_value']}")
        featurizer = cls(utc_offset_minutes)
        for key in _STATE_TYPES:
            setattr(featurizer, key, state[key])
        return featurizer


def featurize(seq: LabeledSequence,
              utc_offset_minutes: int = DEFAULT_UTC_OFFSET_MINUTES) -> np.ndarray:
    """Encode every action of a labelled sequence; returns (n, 13)."""
    featurizer = StreamFeaturizer(utc_offset_minutes=utc_offset_minutes)
    frames = [featurizer.push(action) for action in seq.actions]
    return np.array(frames, dtype=np.float64).reshape(len(frames), FEATURE_DIM)
