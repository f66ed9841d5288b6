"""Independent float64 reference for the numbers the benchmark checks.

A plain re-implementation of the log format, the 900 s gap rule, the 13
feature columns and the LSTM -> ReLU -> ReLU -> sigmoid forward pass, one
action at a time with matrix-vector products.  It imports nothing from
``eosnet``, so a change to any of those layers that alters an output
shows up as a mismatch.
"""

from __future__ import annotations

import math

import numpy as np

GAP_SECONDS = 900
ACTION_GAP_CAP_SECONDS = 900
SESSION_GAP_CAP_SECONDS = 30 * 86400
UTC_OFFSET_MINUTES = 60
FEATURE_DIM = 13
KIND_COLUMN = {"fillout": 5, "multichoice": 6, "material": 7}


def read_log(path) -> tuple[list[str], dict[str, list[tuple]]]:
    """Return the log's data lines (file order) and, per student, the
    parsed actions ``(timestamp, kind, lesson, topic, correct, homework)``
    stably sorted by timestamp."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()[1:]
    by_student: dict[str, list[tuple]] = {}
    for line in lines:
        sid, ts, kind, lesson, topic, correct, homework = line.split(",")
        by_student.setdefault(sid, []).append(
            (int(ts), kind, lesson, topic, correct == "1", homework == "1"))
    for actions in by_student.values():
        actions.sort(key=lambda action: action[0])
    return lines, by_student


def _gap_value(delta: int, cap: int) -> float:
    return min(math.log1p(delta) / math.log1p(cap), 1.0)


def features(actions: list[tuple]) -> np.ndarray:
    """The (n, 13) feature rows of one student's time-ordered actions."""
    rows = np.zeros((len(actions), FEATURE_DIM))
    prev = None
    session_gap = 1.0
    for r, (ts, kind, lesson, topic, correct, homework) in enumerate(actions):
        hour = ((ts + 60 * UTC_OFFSET_MINUTES) % 86400) / 3600.0
        rows[r, 0 if 8.0 <= hour < 12.0 else 1 if 12.0 <= hour < 15.0 else 2] = 1.0
        if prev is None:
            rows[r, 3] = 1.0
            start = True
        else:
            gap = ts - prev[0]
            start = gap > GAP_SECONDS
            rows[r, 3] = _gap_value(gap, ACTION_GAP_CAP_SECONDS)
            if start:
                session_gap = _gap_value(gap, SESSION_GAP_CAP_SECONDS)
            rows[r, 8] = float(lesson != prev[2])
            rows[r, 9] = float(topic != prev[3])
        rows[r, 4] = session_gap
        rows[r, KIND_COLUMN[kind]] = 1.0
        rows[r, 10] = float(correct)
        rows[r, 11] = float(homework)
        rows[r, 12] = float(start)
        prev = (ts, kind, lesson, topic)
    return rows


def _sigmoid(z):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def probabilities(weights, frames: np.ndarray) -> np.ndarray:
    """Inference probabilities of one sequence from a zero state.

    ``weights`` are the eight arrays in checkpoint order: LSTM W (4H, D+H)
    with gate blocks input, forget, candidate, output, LSTM b, then the
    weight and bias of the two dense layers and of the output unit.
    """
    W, b, W1, b1, W2, b2, Wo, bo = weights
    hidden = b.shape[0] // 4
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    out = np.empty(len(frames))
    for t, x in enumerate(frames):
        z = W @ np.concatenate([x, h]) + b
        i = _sigmoid(z[:hidden])
        f = _sigmoid(z[hidden:2 * hidden])
        g = np.tanh(z[2 * hidden:3 * hidden])
        o = _sigmoid(z[3 * hidden:])
        c = f * c + i * g
        h = o * np.tanh(c)
        a1 = np.maximum(W1 @ h + b1, 0.0)
        a2 = np.maximum(W2 @ a1 + b2, 0.0)
        out[t] = _sigmoid(Wo @ a2 + bo)[0]
    return out


def mismatches(name: str, got, want, tolerance: float) -> list[str]:
    """Describe where ``got`` differs from ``want`` by more than the
    absolute tolerance (or in length); empty when they agree."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{name}: {got.shape[0]} values, expected {want.shape[0]}"]
    err = np.abs(got - want)
    if not (err <= tolerance).all():
        worst = int(np.argmax(np.where(np.isnan(err), np.inf, err)))
        return [f"{name}: value {worst} is {got.flat[worst]!r}, "
                f"reference {want.flat[worst]!r} (tolerance {tolerance})"]
    return []
