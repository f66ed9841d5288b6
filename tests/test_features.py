"""Feature encoding: time-of-day columns, gap transform, full featurization."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eosnet import features as F
from eosnet.features import (
    StreamFeaturizer,
    featurize,
    time_of_day_column,
    transform_gap,
)
from eosnet.ingest import ActionKind, RawAction, StudentLog
from eosnet.sessions import label


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
        frame = StreamFeaturizer(offset).push(RawAction("s", ts, M, "L1", "T1", None, False))
        hour = (ts + 60 * offset) % 86400 / 3600.0
        expected = [float(8.0 <= hour < 12.0), float(12.0 <= hour < 15.0),
                    float(hour < 8.0 or hour >= 15.0)]
        assert frame[0:3] == expected
        assert sum(frame[0:3]) == 1.0


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
        seq = label(log)
        frames = featurize(seq)
        stream = StreamFeaturizer()
        rows = [stream.push(a) for a in log.actions]
        np.testing.assert_array_equal(np.stack(rows), frames)

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
        stream = StreamFeaturizer()
        for action in actions[:3]:
            stream.push(action)
        resumed = StreamFeaturizer.from_dict(stream.to_dict(), stream.utc_offset_minutes)
        for action in actions[3:]:
            np.testing.assert_array_equal(stream.push(action), resumed.push(action))

    def test_out_of_order_rejected(self):
        stream = StreamFeaturizer()
        stream.push(RawAction("s", 100, M, "L1", "T1", None, False))
        with pytest.raises(ValueError, match="out-of-order"):
            stream.push(RawAction("s", 50, M, "L1", "T1", None, False))
