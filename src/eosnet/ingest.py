"""Parsing, validation, and per-student ordering of raw action logs.

Log format: UTF-8 comma-separated lines, one action per line, optional
header::

    student_id,timestamp,action_kind,lesson_id,topic_id,correct,homework

with ``action_kind`` one of ``fillout``/``multichoice``/``material``,
``correct`` in ``{"", "0", "1"}`` (empty exactly when the action is a
material view), ``homework`` in ``{"0", "1"}``, and ``timestamp`` integer
UTC seconds in [0, 2**62), so that sums and differences of timestamps
are exact in int64.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional

from eosnet.errors import DataValidationError, LogParseError

HEADER = "student_id,timestamp,action_kind,lesson_id,topic_id,correct,homework"
TIMESTAMP_LIMIT = 2**62


class ActionKind(Enum):
    FILL_OUT_QUESTION = "fillout"
    MULTIPLE_CHOICE_QUESTION = "multichoice"
    MATERIAL = "material"


_KIND_TOKENS = {kind.value: kind for kind in ActionKind}
_MATERIAL = ActionKind.MATERIAL


@dataclass(slots=True)
class RawAction:
    """One timestamped student interaction: a slots record validated at
    construction (``ValueError`` on a defect); not hashable."""

    student_id: str
    timestamp: int
    kind: ActionKind
    lesson_id: str
    topic_id: str
    correct: Optional[bool]
    homework: bool

    def __post_init__(self):
        if self.timestamp < 0:
            raise ValueError(f"negative timestamp {self.timestamp}")
        if self.timestamp >= TIMESTAMP_LIMIT:
            raise ValueError(f"timestamp {self.timestamp} is not below 2**62")
        if self.kind is _MATERIAL:
            if self.correct is not None:
                raise ValueError("material action with a correct flag")
        elif self.correct is None:
            raise ValueError("question action without a correct flag")


@dataclass(slots=True)
class StudentLog:
    """All actions of one student, sorted by timestamp (stable)."""

    student_id: str
    actions: list[RawAction]


def parse_line(line: str, line_no: int = 0) -> RawAction:
    """Parse one record; raises :class:`LogParseError` on any defect.

    The id fields are interned, so the actions of one student, lesson or
    topic share one string object each.
    """
    parts = line.rstrip("\n").split(",")
    if len(parts) != 7:
        raise LogParseError(line_no, f"expected 7 fields, got {len(parts)}")
    student_id, ts_s, kind_s, lesson_id, topic_id, correct_s, homework_s = parts
    if not student_id:
        raise LogParseError(line_no, "empty student_id")
    try:
        timestamp = int(ts_s)
    except ValueError:
        raise LogParseError(line_no, f"bad timestamp {ts_s!r}") from None
    kind = _KIND_TOKENS.get(kind_s)
    if kind is None:
        raise LogParseError(line_no, f"unknown action_kind {kind_s!r}")
    if correct_s == "":
        correct = None
    elif correct_s in ("0", "1"):
        correct = correct_s == "1"
    else:
        raise LogParseError(line_no, f"bad correct flag {correct_s!r}")
    if homework_s not in ("0", "1"):
        raise LogParseError(line_no, f"bad homework flag {homework_s!r}")
    try:
        # positional arguments: a keyword call takes about twice as long
        return RawAction(sys.intern(student_id), timestamp, kind, sys.intern(lesson_id),
                         sys.intern(topic_id), correct, homework_s == "1")
    except ValueError as exc:
        raise LogParseError(line_no, str(exc)) from None


def format_action(action: RawAction) -> str:
    """Inverse of :func:`parse_line` (without trailing newline)."""
    correct = "" if action.correct is None else ("1" if action.correct else "0")
    return ",".join(
        (
            action.student_id,
            str(action.timestamp),
            action.kind.value,
            action.lesson_id,
            action.topic_id,
            correct,
            "1" if action.homework else "0",
        )
    )


def read_actions(
    lines: Iterable[str],
    strict: bool = True,
    bad_records: Optional[list[LogParseError]] = None,
) -> Iterator[tuple[int, RawAction]]:
    """Yield ``(line_no, action)`` for each record of a log, in file order.

    Blank lines and a header on line 1 are skipped.  In strict mode
    (default) the first malformed record raises :class:`LogParseError`; in
    lenient mode malformed records are skipped and collected into
    ``bad_records`` when given.  A text stream that is not UTF-8 raises
    :class:`DataValidationError` naming the stream, in either mode.
    """
    try:
        for line_no, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or (line_no == 1 and stripped == HEADER):
                continue
            try:
                action = parse_line(stripped, line_no)
            except LogParseError as exc:
                if strict:
                    raise
                if bad_records is not None:
                    bad_records.append(exc)
                continue
            yield line_no, action
    except UnicodeDecodeError as exc:
        name = getattr(lines, "name", "input")
        raise DataValidationError(f"{name}: not UTF-8 text ({exc.reason})") from None


def parse_log_file(path, strict: bool = True,
                   bad_records: Optional[list[LogParseError]] = None) -> list[RawAction]:
    with open(path, encoding="utf-8") as handle:
        return [action for _, action in read_actions(handle, strict, bad_records)]


def group_by_student(actions: Iterable[RawAction]) -> list[StudentLog]:
    """Group actions into per-student chronological logs.

    Within a student, actions are stably sorted by timestamp, so records
    sharing a timestamp keep their input order.  Students come out sorted
    by id so grouping is deterministic regardless of input interleaving.
    """
    by_student: dict[str, list[RawAction]] = {}
    for action in actions:
        by_student.setdefault(action.student_id, []).append(action)
    return [
        StudentLog(student_id=sid, actions=sorted(by_student[sid], key=lambda a: a.timestamp))
        for sid in sorted(by_student)
    ]
