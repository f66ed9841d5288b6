"""Session segmentation, labelling, and the session table."""

import numpy as np
from hypothesis import given, strategies as st

from eosnet import features as F
from eosnet.features import featurize
from eosnet.ingest import ActionKind, RawAction, StudentLog
from eosnet.sessions import HomeworkClass, label, segment, session_starts, session_table


def log_from_gaps(gaps, homework=None):
    """Build a student log with the given inter-action gaps (seconds)."""
    timestamps = [0]
    for gap in gaps:
        timestamps.append(timestamps[-1] + gap)
    hw = homework or [False] * len(timestamps)
    actions = [
        RawAction("s", ts, ActionKind.MATERIAL, "L1", "T1", None, flag)
        for ts, flag in zip(timestamps, hw)
    ]
    return StudentLog("s", actions)


def scan_oracle(gaps, threshold=900):
    """One-line rule: start a new session whenever gap > threshold."""
    lengths = [1]
    for gap in gaps:
        if gap > threshold:
            lengths.append(1)
        else:
            lengths[-1] += 1
    return lengths


def encoded_session_starts(log):
    """The SESSION_START column that the feature encoder writes."""
    return featurize(label(log))[:, F.SESSION_START].tolist()


class TestSessionStarts:
    def test_rule(self):
        first = np.array([True, True, False, False, False])
        gaps = np.array([0, 5000, 899, 900, 901])
        assert session_starts(first, gaps).tolist() == [True, True, False, False, True]

    def test_one_flag_for_all(self):
        assert session_starts(False, np.array([900, 901])).tolist() == [False, True]


class TestSegment:
    def test_gap_exactly_900_stays_in_session(self):
        log = log_from_gaps([900])
        assert segment(log) == [2]
        assert encoded_session_starts(log) == [1.0, 0.0]

    def test_gap_901_splits(self):
        log = log_from_gaps([901])
        assert segment(log) == [1, 1]
        assert encoded_session_starts(log) == [1.0, 1.0]

    def test_seven_action_sequence_one_session(self):
        # M M M Q Q Q M with all gaps below the threshold: a single
        # session whose final (material) action carries the label
        kinds = [ActionKind.MATERIAL] * 3 + [ActionKind.FILL_OUT_QUESTION] * 3 \
            + [ActionKind.MATERIAL]
        actions = [
            RawAction("s", i * 60, k, f"L{i // 2}", "T1",
                      True if k is not ActionKind.MATERIAL else None, False)
            for i, k in enumerate(kinds)
        ]
        seq = label(StudentLog("s", actions))
        assert seq.session_lengths.tolist() == [7]
        assert seq.labels.tolist() == [0, 0, 0, 0, 0, 0, 1]
        assert seq.actions[-1].kind is ActionKind.MATERIAL

    def test_empty_log(self):
        assert segment(StudentLog("s", [])) == []

    def test_concatenation_and_indices(self):
        # session ordinals are checked through ``sessionize`` in test_cli
        log = log_from_gaps([10, 2000, 10, 10, 5000])
        assert segment(log) == [2, 3, 1]
        seq = label(log)
        assert seq.actions is log.actions
        assert seq.session_lengths.tolist() == [2, 3, 1]

    @given(st.lists(st.integers(min_value=0, max_value=3000), max_size=60))
    def test_matches_scan_oracle(self, gaps):
        assert segment(log_from_gaps(gaps)) == scan_oracle(gaps)

    @given(st.lists(st.integers(min_value=0, max_value=3000), max_size=60))
    def test_partition_preserves_order(self, gaps):
        log = log_from_gaps(gaps)
        lengths = segment(log)
        assert sum(lengths) == len(log.actions)
        assert min(lengths) >= 1
        seq = label(log)
        assert seq.actions == log.actions
        assert seq.session_lengths.tolist() == lengths


class TestLabel:
    def test_single_session_of_five(self):
        seq = label(log_from_gaps([1, 1, 1, 1]))
        assert seq.labels.tolist() == [0, 0, 0, 0, 1]

    def test_three_singleton_sessions(self):
        seq = label(log_from_gaps([1000, 1000]))
        assert seq.labels.tolist() == [1, 1, 1]

    def test_400_actions_16_sessions(self):
        # 16 sessions of 25 actions each
        gaps = []
        for i in range(399):
            gaps.append(1000 if (i + 1) % 25 == 0 else 5)
        seq = label(log_from_gaps(gaps))
        assert seq.session_lengths.tolist() == [25] * 16
        assert seq.labels.shape[0] == 400
        assert int(seq.labels.sum()) == 16

    @given(st.lists(st.integers(min_value=0, max_value=3000), max_size=60))
    def test_one_label_per_session_at_last_position(self, gaps):
        lengths = segment(log_from_gaps(gaps))
        seq = label(log_from_gaps(gaps))
        assert int(seq.labels.sum()) == len(lengths)
        pos = -1
        for length in lengths:
            pos += length
            assert seq.labels[pos] == 1
        assert seq.labels.shape[0] == len(log_from_gaps(gaps).actions)


class TestHomeworkClass:
    def _classify(self, flags):
        """The class ``session_table`` gives one session of these flags."""
        labels = np.zeros(len(flags), dtype=np.int8)
        labels[-1] = 1
        session_of, lengths, classes, usage = session_table(
            labels, np.array(flags), np.zeros(len(flags), dtype=int))
        assert session_of.tolist() == [0] * len(flags)
        assert lengths.tolist() == [len(flags)] and usage.tolist() == [1]
        (value,) = classes.tolist()
        return HomeworkClass(value)

    def test_only(self):
        assert self._classify([True, True]) is HomeworkClass.ONLY

    def test_partly(self):
        assert self._classify([True, False]) is HomeworkClass.PARTLY

    def test_none(self):
        assert self._classify([False, False]) is HomeworkClass.NONE


class TestSessionTable:
    @given(st.lists(st.lists(st.lists(st.booleans(), min_size=1, max_size=6),
                             min_size=1, max_size=4), max_size=5))
    def test_matches_per_session_oracle(self, students):
        """``students`` holds each student's sessions, each a list of
        per-action homework flags."""
        sessions = [(k, flags) for k, own in enumerate(students) for flags in own]
        labels = np.array([int(j == len(flags) - 1) for _, flags in sessions
                           for j in range(len(flags))], dtype=np.int8)
        homework = np.array([f for _, flags in sessions for f in flags], dtype=bool)
        ordinals = np.array([k for k, flags in sessions for _ in flags], dtype=int)
        session_of, lengths, classes, usage = session_table(labels, homework, ordinals)

        assert session_of.tolist() == [i for i, (_, flags) in enumerate(sessions)
                                       for _ in flags]
        assert lengths.tolist() == [len(flags) for _, flags in sessions]
        expected = [HomeworkClass.ONLY if all(flags) else
                    HomeworkClass.PARTLY if any(flags) else HomeworkClass.NONE
                    for _, flags in sessions]
        assert classes.tolist() == [cls.value for cls in expected]
        assert usage.tolist() == [len(students[k]) for k, _ in sessions]
