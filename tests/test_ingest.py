"""Log parsing, validation, and per-student grouping."""

import pytest
from hypothesis import given, strategies as st

from eosnet.errors import LogParseError
from eosnet.ingest import (
    HEADER,
    ActionKind,
    RawAction,
    format_action,
    group_by_student,
    parse_line,
    parse_log_file,
    read_actions,
)


def make_action(student="s1", ts=1_600_000_000, kind=ActionKind.MATERIAL,
                lesson="L3", topic="T1", correct=None, homework=False):
    return RawAction(student_id=student, timestamp=ts, kind=kind,
                     lesson_id=lesson, topic_id=topic, correct=correct,
                     homework=homework)


class TestRawAction:
    def test_negative_timestamp(self):
        with pytest.raises(ValueError, match="negative timestamp -5"):
            make_action(ts=-5)

    def test_timestamp_below_2_to_62(self):
        """Timestamps stay exact in int64, their sums and differences too."""
        make_action(ts=2**62 - 1)
        with pytest.raises(ValueError, match=r"not below 2\*\*62"):
            make_action(ts=2**62)

    def test_question_without_correct(self):
        with pytest.raises(ValueError, match="question action without a correct flag"):
            make_action(kind=ActionKind.MULTIPLE_CHOICE_QUESTION, correct=None)

    def test_material_with_correct(self):
        with pytest.raises(ValueError, match="material action with a correct flag"):
            make_action(kind=ActionKind.MATERIAL, correct=False)

    def test_not_hashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(make_action())


class TestParseLine:
    def test_fillout_line(self):
        action = parse_line("s1,1600000000,fillout,L3,T1,1,1")
        assert action == make_action(kind=ActionKind.FILL_OUT_QUESTION,
                                     correct=True, homework=True)

    def test_material_without_correct(self):
        action = parse_line("s1,1600000000,material,L3,T1,,0")
        assert action.kind is ActionKind.MATERIAL
        assert action.correct is None

    def test_material_with_correct_is_error(self):
        with pytest.raises(LogParseError, match="material action with a correct flag"):
            parse_line("s1,1600000000,material,L3,T1,1,0")

    def test_question_without_correct_is_error(self):
        with pytest.raises(LogParseError, match="question action without a correct flag"):
            parse_line("s1,1600000000,multichoice,L3,T1,,0")

    def test_unknown_kind(self):
        with pytest.raises(LogParseError, match="action_kind"):
            parse_line("s1,1600000000,video,L3,T1,,0")

    def test_negative_timestamp(self):
        with pytest.raises(LogParseError):
            parse_line("s1,-5,material,L3,T1,,0")

    def test_huge_timestamp(self):
        with pytest.raises(LogParseError):
            parse_line(f"s1,{10**30},material,L3,T1,,0")

    def test_field_count(self):
        with pytest.raises(LogParseError, match="7 fields"):
            parse_line("s1,1600000000,material,L3,T1,0")

    def test_ids_share_one_string_per_value(self):
        # ids are parsed once: every action of a student, lesson or topic
        # holds the same string object
        first = parse_line("student-7,10,material,lesson-3,topic-1,,0")
        again = parse_line("student-7,20,fillout,lesson-3,topic-1,1,0")
        assert first.student_id is again.student_id
        assert first.lesson_id is again.lesson_id
        assert first.topic_id is again.topic_id

    def test_error_carries_line_number(self):
        with pytest.raises(LogParseError) as info:
            parse_line("bad", 42)
        assert info.value.line_no == 42


class TestParseLog:
    def test_header_skipped(self):
        lines = [HEADER + "\n", "\n", "s1,10,material,L1,T1,,0\n"]
        assert [n for n, _ in read_actions(lines)] == [3]

    def test_strict_aborts_on_first_error(self):
        lines = ["s1,10,material,L1,T1,,0\n", "broken\n", "s1,20,material,L1,T1,,0\n"]
        with pytest.raises(LogParseError) as info:
            list(read_actions(lines))
        assert info.value.line_no == 2

    def test_lenient_skips_and_counts(self):
        lines = ["s1,10,material,L1,T1,,0\n", "broken\n", "s1,20,material,L1,T1,,0\n"]
        bad = []
        read = list(read_actions(lines, strict=False, bad_records=bad))
        assert [n for n, _ in read] == [1, 3]
        assert len(bad) == 1 and bad[0].line_no == 2

    def test_bytes_stream(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(f"{HEADER}\nsch\u00fcler,10,material,L1,T1,,0\n".encode("utf-8"))
        actions = parse_log_file(path)
        assert [a.student_id for a in actions] == ["sch\u00fcler"]


_KINDS = st.sampled_from(list(ActionKind))


@st.composite
def actions(draw):
    kind = draw(_KINDS)
    return RawAction(
        student_id=draw(st.text(alphabet="abcs123", min_size=1, max_size=6)),
        timestamp=draw(st.integers(min_value=0, max_value=2_000_000_000)),
        kind=kind,
        lesson_id=draw(st.sampled_from(["L1", "L2", "L9"])),
        topic_id=draw(st.sampled_from(["T1", "T2"])),
        correct=draw(st.booleans()) if kind is not ActionKind.MATERIAL else None,
        homework=draw(st.booleans()),
    )


class TestRoundTrip:
    @given(st.lists(actions(), max_size=30))
    def test_parse_serialize_parse_identity(self, items):
        lines = [format_action(a) + "\n" for a in items]
        assert [a for _, a in read_actions(lines)] == items


class TestGroupByStudent:
    def test_interleaved_students(self):
        items = [
            make_action("b", 30), make_action("a", 10),
            make_action("b", 20), make_action("a", 40),
        ]
        logs = group_by_student(items)
        assert [lg.student_id for lg in logs] == ["a", "b"]
        assert [a.timestamp for a in logs[0].actions] == [10, 40]
        assert [a.timestamp for a in logs[1].actions] == [20, 30]

    def test_empty_input(self):
        assert group_by_student([]) == []

    def test_equal_timestamps_keep_file_order(self):
        first = make_action("a", 100, lesson="L1")
        second = make_action("a", 100, lesson="L2")
        logs = group_by_student([first, second])
        assert logs[0].actions == [first, second]

    @given(st.lists(actions(), max_size=40))
    def test_against_stable_sort_oracle(self, items):
        logs = group_by_student(items)
        # oracle: brute-force stable sort of each student's slice
        by_student = {}
        for action in items:
            by_student.setdefault(action.student_id, []).append(action)
        for log in logs:
            expected = sorted(by_student[log.student_id], key=lambda a: a.timestamp)
            assert log.actions == expected

    @given(st.lists(actions(), max_size=40))
    def test_covers_input_multiset(self, items):
        logs = group_by_student(items)
        regrouped = [a for log in logs for a in log.actions]
        assert len(regrouped) == len(items)
        key = lambda a: (a.student_id, a.timestamp, a.kind.value, a.lesson_id)
        assert sorted(regrouped, key=key) == sorted(items, key=key)
