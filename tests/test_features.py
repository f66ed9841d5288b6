"""Feature encoding: time-of-day columns, gap transform, full featurization,
and the block encoder against a per-action scalar oracle."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from eosnet import features as F
from eosnet.features import (
    FRESH_HISTORY,
    ActionColumns,
    StreamFeaturizer,
    encode_block,
    featurize,
    featurize_logs,
    late_actions,
    time_of_day_column,
    transform_gap,
)
from eosnet.ingest import ActionKind, RawAction, StudentLog
from eosnet.sessions import label


def encode_one_block(logs, histories, utc_offset_minutes=60):
    """Encode the actions of ``logs`` (one per student, in order) as one
    block from ``histories``; returns the frames and the new histories."""
    first = np.zeros(sum(len(log) for log in logs), dtype=bool)
    first[np.cumsum([0, *map(len, logs)])[:-1]] = True
    columns = ActionColumns.of([a for log in logs for a in log], first)
    return encode_block(columns, histories, utc_offset_minutes)


def oracle_push(history, action, utc_offset_minutes):
    """The per-action encoder, one Python statement per column: encode one
    action from a ``to_dict`` history, updating it in place."""
    last = history["last_timestamp"]
    first_ever = last is None
    if not first_ever and action.timestamp < last:
        raise ValueError(f"out-of-order timestamp {action.timestamp} after {last}")
    session_start = first_ever or action.timestamp - last > 900

    frame = [0.0] * 13
    local = (action.timestamp + 60 * utc_offset_minutes) % 86400
    frame[0 if 8 * 3600 <= local < 12 * 3600 else 1 if 12 * 3600 <= local < 15 * 3600
          else 2] = 1.0
    frame[3] = 1.0 if first_ever else transform_gap(action.timestamp - last, 900)
    if session_start and not first_ever:
        history["session_gap_value"] = transform_gap(action.timestamp - last, 30 * 86400)
    frame[4] = float(history["session_gap_value"])
    frame[{ActionKind.FILL_OUT_QUESTION: 5, ActionKind.MULTIPLE_CHOICE_QUESTION: 6,
           ActionKind.MATERIAL: 7}[action.kind]] = 1.0
    if not first_ever:
        frame[8] = float(action.lesson_id != history["last_lesson"])
        frame[9] = float(action.topic_id != history["last_topic"])
    frame[10] = float(action.correct is True)
    frame[11] = float(action.homework)
    frame[12] = float(session_start)
    history.update(last_timestamp=action.timestamp, last_lesson=action.lesson_id,
                   last_topic=action.topic_id)
    return frame


def ts_at_local_hour(hour, utc_offset_minutes=60, day=20_000):
    """UTC timestamp whose local time is `hour` on an arbitrary day."""
    return day * 86400 + int(hour * 3600) - 60 * utc_offset_minutes


class TestTimeOfDay:
    def test_morning(self):
        assert time_of_day_column(ts_at_local_hour(9), 60) == F.TOD_8_12

    def test_noon_boundary_belongs_to_afternoon(self):
        assert time_of_day_column(ts_at_local_hour(12), 60) == F.TOD_12_15

    def test_night_wraps_midnight(self):
        assert time_of_day_column(ts_at_local_hour(3), 60) == F.TOD_15_8

    def test_15_boundary(self):
        assert time_of_day_column(ts_at_local_hour(15), 60) == F.TOD_15_8

    def test_8_boundary(self):
        assert time_of_day_column(ts_at_local_hour(8), 60) == F.TOD_8_12

    def test_last_second_before_each_boundary(self):
        columns = [time_of_day_column(ts_at_local_hour(h) - 1, 60) for h in (8, 12, 15)]
        assert columns == [F.TOD_15_8, F.TOD_8_12, F.TOD_12_15]

    @given(st.integers(min_value=0, max_value=2_000_000_000),
           st.integers(min_value=-720, max_value=840))
    def test_always_one_hot(self, ts, offset):
        frames, _ = encode_one_block([[RawAction("s", ts, M, "L1", "T1", None, False)]],
                                     [FRESH_HISTORY], offset)
        hour = (ts + 60 * offset) % 86400 / 3600.0
        expected = [float(8.0 <= hour < 12.0), float(12.0 <= hour < 15.0),
                    float(hour < 8.0 or hour >= 15.0)]
        assert frames[0, 0:3].tolist() == expected
        assert frames[0, 0:3].sum() == 1.0
        assert time_of_day_column(ts, offset) == expected.index(1.0)


class TestTransformGap:
    def test_zero(self):
        assert transform_gap(0, 900) == 0.0

    def test_at_cap(self):
        assert transform_gap(900, 900) == 1.0

    def test_beyond_cap(self):
        assert transform_gap(10_000, 900) == 1.0

    def test_60_of_900(self):
        # ln(61)/ln(901), frozen from a 40-digit evaluation
        assert transform_gap(60, 900) == pytest.approx(
            0.6042288068457262, abs=1e-15)

    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=1, max_value=10**9))
    def test_range_and_monotone(self, delta, cap):
        value = transform_gap(delta, cap)
        assert 0.0 <= value <= 1.0
        assert transform_gap(delta + 1, cap) >= value


def build_seq(specs, student="s"):
    """specs: list of (ts, kind, lesson, topic, correct, homework)."""
    actions = [RawAction(student, *spec) for spec in specs]
    return label(StudentLog(student, actions))


M, Q = ActionKind.MATERIAL, ActionKind.FILL_OUT_QUESTION


class TestFeaturize:
    def test_first_ever_action(self):
        seq = build_seq([(ts_at_local_hour(9), M, "L1", "T1", None, True)])
        frame = featurize(seq)[0]
        assert frame[0:3].tolist() == [1, 0, 0]
        assert frame[F.TIME_SINCE_ACTION] == 1.0
        assert frame[F.TIME_SINCE_SESSION] == 1.0
        assert frame[5:8].tolist() == [0, 0, 1]
        assert frame[F.LESSON_CHANGED] == 0.0
        assert frame[F.TOPIC_CHANGED] == 0.0
        assert frame[F.CORRECT] == 0.0
        assert frame[F.HOMEWORK] == 1.0
        assert frame[F.SESSION_START] == 1.0

    def test_lesson_and_topic_change_flags(self):
        base = ts_at_local_hour(9)
        seq = build_seq([
            (base, M, "L1", "T1", None, False),
            (base + 30, M, "L2", "T1", None, False),
            (base + 60, M, "L3", "T2", None, False),
        ])
        frames = featurize(seq)
        assert frames[1][F.LESSON_CHANGED] == 1.0
        assert frames[1][F.TOPIC_CHANGED] == 0.0
        assert frames[2][F.LESSON_CHANGED] == 1.0
        assert frames[2][F.TOPIC_CHANGED] == 1.0

    def test_second_action_hand_trace(self):
        base = ts_at_local_hour(9)
        seq = build_seq([
            (base, M, "L1", "T1", None, False),
            (base + 30, Q, "L1", "T1", True, False),
            (base + 90, M, "L1", "T1", None, False),
        ])
        frames = featurize(seq)
        second = frames[1]
        assert second[F.TIME_SINCE_ACTION] == pytest.approx(
            math.log1p(30) / math.log1p(900), abs=1e-15)
        assert second[F.LESSON_CHANGED] == 0.0
        assert second[F.TOPIC_CHANGED] == 0.0
        assert second[F.SESSION_START] == 0.0
        assert second[F.TIME_SINCE_SESSION] == frames[0][F.TIME_SINCE_SESSION]
        assert second[F.CORRECT] == 1.0
        assert second[5:8].tolist() == [1, 0, 0]

    def test_session_gap_feature_constant_within_session(self):
        base = ts_at_local_hour(9)
        gap = 7200  # two hours between sessions
        seq = build_seq([
            (base, M, "L1", "T1", None, False),
            (base + 10, M, "L1", "T1", None, False),
            (base + 10 + gap, M, "L1", "T1", None, False),
            (base + 20 + gap, M, "L1", "T1", None, False),
        ])
        frames = featurize(seq)
        expected = math.log1p(gap) / math.log1p(30 * 86400)
        assert frames[2][F.TIME_SINCE_SESSION] == pytest.approx(expected, abs=1e-15)
        assert frames[3][F.TIME_SINCE_SESSION] == frames[2][F.TIME_SINCE_SESSION]
        assert frames[0][F.TIME_SINCE_SESSION] == 1.0
        assert frames[1][F.TIME_SINCE_SESSION] == 1.0
        # time-since-action saturates across the session boundary
        assert frames[2][F.TIME_SINCE_ACTION] == 1.0

    def test_change_flags_cross_session_boundaries(self):
        base = ts_at_local_hour(9)
        seq = build_seq([
            (base, M, "L1", "T1", None, False),
            (base + 5000, M, "L2", "T1", None, False),
        ])
        frames = featurize(seq)
        assert frames[1][F.SESSION_START] == 1.0
        assert frames[1][F.LESSON_CHANGED] == 1.0


@st.composite
def random_logs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    gaps = draw(st.lists(st.integers(min_value=0, max_value=4000),
                         min_size=n - 1, max_size=n - 1))
    timestamps = [1_600_000_000]
    for gap in gaps:
        timestamps.append(timestamps[-1] + gap)
    actions = []
    for ts in timestamps:
        kind = draw(st.sampled_from(list(ActionKind)))
        actions.append(RawAction(
            "s", ts, kind,
            draw(st.sampled_from(["L1", "L2"])),
            draw(st.sampled_from(["T1", "T2"])),
            draw(st.booleans()) if kind is not ActionKind.MATERIAL else None,
            draw(st.booleans()),
        ))
    return StudentLog("s", actions)


class TestFeatureProperties:
    @given(random_logs())
    def test_one_hot_groups_and_binary_columns(self, log):
        seq = label(log)
        frames = featurize(seq)
        assert frames.shape == (len(log.actions), F.FEATURE_DIM)
        assert (frames[:, 0:3].sum(axis=1) == 1.0).all()
        assert (frames[:, 5:8].sum(axis=1) == 1.0).all()
        binary = frames[:, [0, 1, 2, 5, 6, 7, 8, 9, 10, 11, 12]]
        assert np.isin(binary, (0.0, 1.0)).all()
        gaps = frames[:, [3, 4]]
        assert ((gaps >= 0.0) & (gaps <= 1.0)).all()

    @given(random_logs())
    def test_causality_prefix_property(self, log):
        seq = label(log)
        frames = featurize(seq)
        cut = max(1, len(log.actions) // 2)
        prefix_seq = label(StudentLog("s", log.actions[:cut]))
        prefix = featurize(prefix_seq)
        np.testing.assert_array_equal(prefix, frames[:cut])

    @given(random_logs())
    def test_exactly_one_session_start_per_session(self, log):
        seq = label(log)
        frames = featurize(seq)
        starts = frames[:, F.SESSION_START]
        assert int(starts.sum()) == len(seq.session_lengths)
        pos = 0
        for length in seq.session_lengths:
            assert starts[pos] == 1.0
            pos += length

    @given(random_logs())
    def test_stream_featurizer_matches_batch(self, log):
        """One action per block, the history carried, gives the frames of
        one block; ``push`` is that one-action call."""
        frames = featurize(label(log))
        history, rows = FRESH_HISTORY, []
        for action in log.actions:
            frame, (history,) = encode_one_block([[action]], [history])
            rows.append(frame)
        np.testing.assert_array_equal(np.concatenate(rows), frames)
        stream = StreamFeaturizer()
        np.testing.assert_array_equal(np.array([stream.push(a) for a in log.actions]), frames)
        assert stream.to_dict() == history

    def test_stream_state_round_trip(self):
        base = ts_at_local_hour(10)
        specs = [
            (base, M, "L1", "T1", None, True),
            (base + 40, Q, "L1", "T1", True, True),
            (base + 5000, M, "L2", "T2", None, False),
            (base + 5060, Q, "L2", "T2", False, False),
            (base + 5060, M, "L2", "T2", None, False),
        ]
        actions = [RawAction("s", *spec) for spec in specs]
        whole, _ = encode_one_block([actions], [FRESH_HISTORY])
        _, (history,) = encode_one_block([actions[:3]], [FRESH_HISTORY])
        resumed = StreamFeaturizer.from_dict(json.loads(json.dumps(history)), 60).to_dict()
        rest, _ = encode_one_block([actions[3:]], [resumed])
        assert rest.tobytes() == whole[3:].tobytes()

    def test_out_of_order_rejected(self):
        early, late = (RawAction("s", ts, M, "L1", "T1", None, False) for ts in (50, 100))
        with pytest.raises(ValueError, match="out-of-order timestamp 50 after 100"):
            encode_one_block([[late, early]], [FRESH_HISTORY])
        _, (history,) = encode_one_block([[late]], [FRESH_HISTORY])
        with pytest.raises(ValueError, match="out-of-order timestamp 50 after 100"):
            encode_one_block([[early]], [history])
        stream = StreamFeaturizer()
        stream.push(late)
        with pytest.raises(ValueError, match="out-of-order"):
            stream.push(early)


# gaps at and around each cap and the session rule, and ordinary ones
GAPS = st.one_of(st.sampled_from([0, 1, 899, 900, 901, 30 * 86400 - 1, 30 * 86400,
                                  30 * 86400 + 1, 10**9]),
                 st.integers(min_value=0, max_value=5000))
IDS = st.sampled_from([None, "L1", "L2"])


@st.composite
def carried_histories(draw):
    """A fresh history or any history ``from_dict`` accepts, an int
    ``session_gap_value`` included."""
    if draw(st.booleans()):
        return dict(FRESH_HISTORY)
    return {"last_timestamp": draw(st.one_of(st.none(), st.integers(0, 2 * 10**9))),
            "last_lesson": draw(IDS), "last_topic": draw(IDS),
            "session_gap_value": draw(st.one_of(
                st.sampled_from([0, 1]), st.floats(min_value=0.0, max_value=1.0)))}


@st.composite
def student_blocks(draw):
    """0-4 students, each with a carried history and 1-12 later actions."""
    logs, histories = [], []
    for k in range(draw(st.integers(0, 4))):
        history = draw(carried_histories())
        ts = history["last_timestamp"]
        ts = draw(st.integers(0, 2 * 10**9)) if ts is None else ts + draw(GAPS)
        log = []
        for i in range(draw(st.integers(1, 12))):
            if i:
                ts += draw(GAPS)
            kind = draw(st.sampled_from(list(ActionKind)))
            log.append(RawAction(f"s{k}", ts, kind, draw(st.sampled_from(["L1", "L2"])),
                                 draw(st.sampled_from(["T1", "T2"])),
                                 None if kind is M else draw(st.booleans()),
                                 draw(st.booleans())))
        logs.append(log)
        histories.append(history)
    return logs, histories


OFFSETS = st.sampled_from([-720, 0, 60, 840])


def typed(histories):
    return [{key: (type(value), value) for key, value in h.items()} for h in histories]


def log_of_gaps(student, start, gaps):
    """Material views and questions in turn, ``gaps`` seconds apart."""
    timestamps = np.cumsum([start, *gaps]).tolist()
    return [RawAction(student, ts, Q if i % 2 else M, f"L{i % 3}", "T1",
                      True if i % 2 else None, bool(i % 4)) for i, ts in enumerate(timestamps)]


# every edge at once: equal timestamps, gaps at each cap and the session
# rule, a fresh history and a carried one with an int session_gap_value
EDGES = ([log_of_gaps("a", 1_600_000_000, [0, 900, 901, 0, 30 * 86400, 30 * 86400 + 1]),
          log_of_gaps("b", 1_600_000_500, [900, 0]), log_of_gaps("c", 0, [10**9])],
         [dict(FRESH_HISTORY),
          {"last_timestamp": 1_600_000_000, "last_lesson": "L0", "last_topic": "T1",
           "session_gap_value": 0},
          {"last_timestamp": None, "last_lesson": "L1", "last_topic": None,
           "session_gap_value": 1}])


class TestBlockEncoder:
    @given(student_blocks(), OFFSETS)
    @example(EDGES, -720)
    @example(EDGES, 840)
    def test_equals_scalar_oracle_bit_for_bit(self, block, offset):
        logs, histories = block
        frames, after = encode_one_block(logs, histories, offset)
        expected, expected_after = [], []
        for log, history in zip(logs, histories):
            history = dict(history)
            expected += [oracle_push(history, action, offset) for action in log]
            expected_after.append(history)
        assert frames.tobytes() == np.array(expected, dtype=np.float64).tobytes()
        assert frames.shape == (len(expected), F.FEATURE_DIM)
        assert typed(after) == typed(expected_after)

    @given(student_blocks(), st.lists(st.integers(0, 48), max_size=6), OFFSETS)
    @example(([], []), [], 60)
    def test_blocks_cut_anywhere_equal_one_block(self, block, cuts, offset):
        """The block cut at any points, each student's history carried
        between pieces through ``to_dict``, JSON and ``from_dict``."""
        logs, histories = block
        whole, whole_after = encode_one_block(logs, histories, offset)
        flat = [(k, action) for k, log in enumerate(logs) for action in log]
        bounds = sorted({0, len(flat), *(min(c, len(flat)) for c in cuts)})
        carried, pieces = list(histories), []
        for start, end in zip(bounds, bounds[1:]):
            students = sorted({k for k, _ in flat[start:end]})
            piece_logs = [[a for k, a in flat[start:end] if k == student]
                          for student in students]
            resumed = [StreamFeaturizer.from_dict(json.loads(json.dumps(carried[k])),
                                                  offset).to_dict() for k in students]
            frames, after = encode_one_block(piece_logs, resumed, offset)
            pieces.append(frames)
            for k, history in zip(students, after):
                carried[k] = history
        joined = np.concatenate([np.zeros((0, F.FEATURE_DIM)), *pieces])
        assert joined.tobytes() == whole.tobytes()
        assert typed(carried) == typed(whole_after)

    def test_empty_block(self):
        frames, after = encode_one_block([], [])
        assert frames.shape == (0, F.FEATURE_DIM) and after == []
        assert featurize_logs([]).shape == (0, F.FEATURE_DIM)

    def test_late_actions_names_each_in_block_order(self):
        actions = [RawAction("a", ts, M, "L1", "T1", None, False) for ts in (10, 5, 7, 3)]
        first = np.array([True, False, False, False])
        late, errors = late_actions(ActionColumns.of(actions, first), [FRESH_HISTORY])
        assert late.tolist() == [1, 3]
        assert errors == ["out-of-order timestamp 5 after 10", "out-of-order timestamp 3 after 7"]

    def test_gap_column_is_transform_gap_of_every_gap_to_the_cap(self):
        """Column 3 is ``transform_gap`` bit for bit for each gap from 0 to
        901 s; ``np.log1p`` in its place would differ in the last bit of
        some of them."""
        ts, log = 0, [RawAction("s", 0, M, "L1", "T1", None, False)]
        for gap in range(902):
            ts += gap
            log.append(RawAction("s", ts, M, "L1", "T1", None, False))
        frames, _ = encode_one_block([log], [FRESH_HISTORY])
        assert frames[1:, F.TIME_SINCE_ACTION].tolist() == [
            transform_gap(gap, 900) for gap in range(902)]
