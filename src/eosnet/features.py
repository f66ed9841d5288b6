"""Per-action feature encoding.

Every action becomes a frame of 13 floats with the layout below;
``FEATURE_NAMES`` holds the column names in this order.  There is one
encoder, :func:`encode_block`.  It maps a block of flat columns
(:class:`ActionColumns`: students one after another, each in time order)
and each student's carried history to the block's (n, 13) frames and the
new histories, with array statements.  A history is the four fields of
``StreamFeaturizer.to_dict``, so a log cut into blocks anywhere encodes to
the bits of one block.  ``featurize_logs`` encodes whole logs from fresh
histories, and ``featurize`` is its one-student case.
``StreamFeaturizer.push`` is a one-action call of the encoder that no
command makes; it stays only because ``perfbench/tracer.py`` ``TARGETS``
resolves it.  Session starts (column 12, and the session gap of column 4)
come from ``sessions.session_starts``, the rule that segments sessions.
Column 3 reads a table of ``transform_gap`` below its cap and column 4
calls it once per session start, so both are its values bit for bit.

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
from dataclasses import dataclass
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from eosnet.ingest import TIMESTAMP_LIMIT, ActionKind, RawAction, StudentLog
from eosnet.sessions import LabeledSequence, session_starts

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

# the time-of-day column of each local hour: [8,12) 0, [12,15) 1, [15,8) 2
_TOD_OF_HOUR = np.array([TOD_15_8] * 8 + [TOD_8_12] * 4 + [TOD_12_15] * 3
                        + [TOD_15_8] * 9, dtype=np.intp)


# JSON types of the ``to_dict`` fields; None means no action seen yet
_STATE_TYPES = {
    "last_timestamp": (int, type(None)),
    "last_lesson": (str, type(None)),
    "last_topic": (str, type(None)),
    "session_gap_value": (int, float),
}

# the history of a student without actions
FRESH_HISTORY = MappingProxyType({"last_timestamp": None, "last_lesson": None,
                                  "last_topic": None, "session_gap_value": 1.0})


def time_of_day_column(timestamp, utc_offset_minutes: int):
    """Column of the local-time bucket: [8,12) 0, [12,15) 1, [15,8) 2.
    ``timestamp`` is an int or an int64 array."""
    return _TOD_OF_HOUR[(timestamp + 60 * utc_offset_minutes) % 86400 // 3600]


def transform_gap(delta_seconds: int, cap_seconds: int) -> float:
    """Map a non-negative gap into [0, 1]: ln(1+delta)/ln(1+cap), capped."""
    if delta_seconds < 0:
        raise ValueError("negative gap")
    if cap_seconds <= 0:
        raise ValueError("cap must be positive")
    return min(math.log1p(delta_seconds) / math.log1p(cap_seconds), 1.0)


# column 3 of every gap below the cap; a longer gap takes 1.0, the last entry
_ACTION_GAP = np.array([transform_gap(delta, ACTION_GAP_CAP_SECONDS)
                        for delta in range(ACTION_GAP_CAP_SECONDS + 1)])


@dataclass(slots=True)
class ActionColumns:
    """A block of actions as flat columns: students one after another,
    each in time order, ``first`` set at each student's first action."""

    timestamps: np.ndarray  # int64
    kinds: np.ndarray       # intp, the frame column of the action kind
    lessons: np.ndarray     # object (str)
    topics: np.ndarray      # object (str)
    correct: np.ndarray     # bool, False for material views
    homework: np.ndarray    # bool
    first: np.ndarray       # bool

    @classmethod
    def of(cls, actions: Sequence[RawAction], first: np.ndarray) -> "ActionColumns":
        n = len(actions)

        def column(name, dtype):
            return np.fromiter(map(attrgetter(name), actions), dtype, n)

        kinds = map(_KIND_COLUMN.__getitem__, map(attrgetter("kind"), actions))
        return cls(column("timestamp", np.int64), np.fromiter(kinds, np.intp, n),
                   column("lesson_id", object), column("topic_id", object),
                   column("correct", bool), column("homework", bool), first)


def _previous(values: np.ndarray, first: np.ndarray, carried) -> np.ndarray:
    """Each action's value at its student's previous action: the one
    before it in the block, or at ``first`` the student's ``carried`` one."""
    previous = np.empty_like(values)
    previous[1:] = values[:-1]
    previous[first] = carried
    return previous


def _gaps(columns: ActionColumns, histories: Sequence[Mapping]) -> tuple[np.ndarray, ...]:
    """Each action's seconds since its student's previous action, and
    whether it has one."""
    last = [history["last_timestamp"] for history in histories]
    has_previous = np.ones(columns.first.shape[0], dtype=bool)
    has_previous[columns.first] = [t is not None for t in last]
    previous = _previous(columns.timestamps, columns.first,
                         [-1 if t is None else t for t in last])
    return columns.timestamps - previous, has_previous


def late_actions(columns: ActionColumns,
                 histories: Sequence[Mapping]) -> tuple[np.ndarray, list[str]]:
    """The block positions of the actions earlier than their student's
    previous one, and for each the error that names it."""
    gaps, has_previous = _gaps(columns, histories)
    late = np.flatnonzero(has_previous & (gaps < 0))
    return late, [f"out-of-order timestamp {ts} after {ts - gap}" for ts, gap in
                  zip(columns.timestamps[late].tolist(), gaps[late].tolist())]


def encode_block(columns: ActionColumns, histories: Sequence[Mapping],
                 utc_offset_minutes: int) -> tuple[np.ndarray, list[dict]]:
    """Encode a block of actions; returns its (n, 13) frames and each
    student's history after it.

    ``histories`` holds each student's ``to_dict`` history, in block
    order.  The first of :func:`late_actions` raises ``ValueError``.  A
    ``session_gap_value`` is kept as it is (an int stays an int) until a
    session start replaces it.
    """
    _, errors = late_actions(columns, histories)
    if errors:
        raise ValueError(errors[0])
    ts, first = columns.timestamps, columns.first
    n = ts.shape[0]
    starts = np.flatnonzero(first)
    gaps, has_previous = _gaps(columns, histories)
    session_start = session_starts(~has_previous, gaps)

    frames = np.zeros((n, FEATURE_DIM))
    rows = np.arange(n)
    frames[rows, time_of_day_column(ts, utc_offset_minutes)] = 1.0
    frames[:, TIME_SINCE_ACTION] = np.where(
        has_previous, _ACTION_GAP[np.minimum(gaps, ACTION_GAP_CAP_SECONDS)], 1.0)
    # Column 4 holds the value of the student's latest session start that
    # has a previous action (``renewed``), or else its carried one.
    renewed = session_start & has_previous
    value = np.empty(n)
    value[starts] = [float(history["session_gap_value"]) for history in histories]
    value[renewed] = [transform_gap(gap, SESSION_GAP_CAP_SECONDS)
                      for gap in gaps[renewed].tolist()]
    anchor = np.maximum.accumulate(np.where(first | renewed, rows, -1))
    frames[:, TIME_SINCE_SESSION] = value[anchor]
    frames[rows, columns.kinds] = 1.0
    for column, ids, key in ((LESSON_CHANGED, columns.lessons, "last_lesson"),
                             (TOPIC_CHANGED, columns.topics, "last_topic")):
        previous = _previous(ids, first, [history[key] for history in histories])
        frames[:, column] = has_previous & (ids != previous)
    frames[:, CORRECT] = columns.correct
    frames[:, HOMEWORK] = columns.homework
    frames[:, SESSION_START] = session_start

    ends = np.append(starts[1:], n) - 1 if n else starts  # each student's last action
    gap_values = [new if changed else history["session_gap_value"] for new, changed, history
                  in zip(value[anchor[ends]].tolist(), renewed[anchor[ends]].tolist(), histories)]
    return frames, [dict(zip(_STATE_TYPES, fields)) for fields in zip(
        ts[ends].tolist(), columns.lessons[ends].tolist(), columns.topics[ends].tolist(),
        gap_values)]


def featurize_logs(logs: Sequence[StudentLog],
                   utc_offset_minutes: int = DEFAULT_UTC_OFFSET_MINUTES) -> np.ndarray:
    """Encode every action of the logs, each from a fresh history, in one
    block; returns the (n, 13) frames of all their actions in order."""
    lengths = np.array([len(log.actions) for log in logs], dtype=np.intp)
    first = np.zeros(int(lengths.sum()), dtype=bool)
    first[(np.cumsum(lengths) - lengths)[lengths > 0]] = True
    columns = ActionColumns.of([a for log in logs for a in log.actions], first)
    frames, _ = encode_block(columns, [FRESH_HISTORY] * int(np.count_nonzero(lengths)),
                             utc_offset_minutes)
    return frames


def featurize(seq: LabeledSequence,
              utc_offset_minutes: int = DEFAULT_UTC_OFFSET_MINUTES) -> np.ndarray:
    """Encode every action of a labelled sequence; returns (n, 13)."""
    return featurize_logs([seq], utc_offset_minutes)


class StreamFeaturizer:
    """One student's history at a UTC offset, which is not part of it.

    ``push`` is a one-action call of :func:`encode_block`.  ``to_dict`` and
    ``from_dict`` carry the history through JSON, as ``score --state-out``
    and ``--state-in`` do.
    """

    def __init__(self, utc_offset_minutes: int = DEFAULT_UTC_OFFSET_MINUTES,
                 history: Mapping = FRESH_HISTORY):
        self.utc_offset_minutes = utc_offset_minutes
        self.history = dict(history)

    def push(self, action: RawAction) -> list[float]:
        """Encode one action; returns its frame as a list of 13 floats."""
        frames, (self.history,) = encode_block(
            ActionColumns.of([action], np.ones(1, dtype=bool)), [self.history],
            self.utc_offset_minutes)
        return frames[0].tolist()

    def to_dict(self) -> dict:
        return dict(self.history)

    @classmethod
    def from_dict(cls, state: Mapping, utc_offset_minutes: int) -> "StreamFeaturizer":
        """Inverse of :meth:`to_dict` for a featurizer at the given UTC
        offset; a missing field raises ``KeyError``, and one of the wrong
        type or out of range ``ValueError``."""
        for key, types in _STATE_TYPES.items():
            if isinstance(state[key], bool) or not isinstance(state[key], types):
                raise ValueError(f"{key} has the wrong type: {state[key]!r}")
        last = state["last_timestamp"]
        if last is not None and not 0 <= last < TIMESTAMP_LIMIT:
            raise ValueError(f"last_timestamp must be in [0, 2**62), got {last}")
        if not 0.0 <= state["session_gap_value"] <= 1.0:
            raise ValueError(
                f"session_gap_value must be in [0, 1], got {state['session_gap_value']}")
        return cls(utc_offset_minutes, {key: state[key] for key in _STATE_TYPES})
