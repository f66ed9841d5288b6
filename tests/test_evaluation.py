"""AUC computation, stratified reports, trajectory, and scoring."""

from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eosnet.evaluation import (
    BUCKET_LABELS,
    LENGTH_BUCKETS,
    ScoredActions,
    auc,
    bucket_keys,
    compute_report,
    scored_sessions,
    trajectory,
)
from eosnet.ingest import ActionKind, RawAction, StudentLog
from eosnet.net import ModelParams, forward_batch, init_params
from eosnet.sessions import HomeworkClass, label, session_table
from eosnet.training import prepare_sequences, score_sequences


def brute_force_auc(scores, labels):
    """Pairwise oracle: P(random positive outranks random negative)."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    if not pos or not neg:
        return None
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_ties_give_half(self):
        assert auc([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0]) == 0.5

    def test_known_mixed_case(self):
        assert auc([0.8, 0.6, 0.4, 0.2], [1, 0, 1, 0]) == pytest.approx(0.75)

    def test_single_class_absent(self):
        assert auc([0.1, 0.9], [1, 1]) is None
        assert auc([0.1, 0.9], [0, 0]) is None

    def test_against_pair_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 50))
            scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=n)
            labels = rng.integers(0, 2, n)
            expected = brute_force_auc(scores.tolist(), labels.tolist())
            got = auc(scores, labels)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-12)

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=64),
                              st.booleans()), min_size=2, max_size=40))
    def test_invariant_under_monotone_transform(self, pairs):
        # grid-valued scores keep the transform injective in float64, so
        # ties are preserved rather than created by rounding
        scores = np.array([p[0] for p in pairs]) / 64.0
        labels = np.array([p[1] for p in pairs], dtype=int)
        base = auc(scores, labels)
        transformed = auc(np.exp(3.0 * scores) + 1.0, labels)
        if base is None:
            assert transformed is None
        else:
            assert transformed == pytest.approx(base, abs=1e-12)

    def test_negation_complement_for_tie_free_scores(self):
        rng = np.random.default_rng(1)
        scores = rng.permutation(20) / 20.0
        labels = rng.integers(0, 2, 20)
        if labels.sum() in (0, 20):
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) + auc(-scores, labels) == pytest.approx(1.0)


class TestBucketKey:
    @pytest.mark.parametrize("count,key", [
        (1, "1-5"), (5, "1-5"), (6, "6-10"), (7, "6-10"), (11, "11-20"),
        (20, "11-20"), (21, "21-30"), (90, "81-90"), (91, "91-max"),
        (500, "91-max"),
    ])
    def test_mapping(self, count, key):
        assert bucket_keys(np.array([count])).tolist() == [key]
        assert bucket_keys(np.array([count, 1])).tolist() == [key, "1-5"]

    def test_matches_scalar_oracle(self):
        counts = np.arange(1, 501)
        assert bucket_keys(counts).tolist() == [bucket_key(n) for n in counts.tolist()]

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            bucket_keys(np.array([3, 0]))
        assert bucket_keys(np.zeros(0, dtype=int)).tolist() == []


def session(student, probs, homework=HomeworkClass.NONE):
    """One hand-built session: its student, probabilities and homework
    flags (Partly marks only the first action as homework)."""
    probs = np.asarray(probs, dtype=float)
    flags = np.full(probs.shape[0], homework is HomeworkClass.ONLY)
    if homework is HomeworkClass.PARTLY:
        flags[0] = True
    return student, probs, flags


def scored(*sessions):
    """The flat record of hand-built sessions, each student's together."""
    students = list(dict.fromkeys(student for student, _, _ in sessions))
    labels = [np.zeros(len(probs), dtype=np.int8) for _, probs, _ in sessions]
    for session_labels in labels:
        session_labels[-1] = 1
    return ScoredActions(
        probs=np.concatenate([probs for _, probs, _ in sessions]),
        labels=np.concatenate(labels),
        homework=np.concatenate([flags for _, _, flags in sessions]),
        students=np.concatenate([np.full(len(probs), students.index(student))
                                 for student, probs, _ in sessions]),
    )


def report_values(*sessions):
    """The report rows of hand-built sessions as ``{(metric, stratum): value}``."""
    rows, _ = compute_report(scored(*sessions))
    return {(metric, stratum): value for metric, stratum, value in rows}


class TestStratifiedReport:
    def test_degenerate_single_length_stratum(self):
        values = report_values(session("a", [0.1, 0.2, 0.1, 0.3, 0.8]),
                               session("a", [0.2, 0.1, 0.4, 0.2, 0.9]),
                               session("b", [0.3, 0.3, 0.1, 0.2, 0.7]))
        assert [s for _, s in values if s.startswith("length_")] == ["length_1-5"]
        assert values["auc", "div5"] == pytest.approx(values["auc", "global"])
        assert ("auc", "nondiv5") not in values

    def test_strata_match_pairwise_oracle(self):
        hw = session("a", [0.2, 0.9], HomeworkClass.ONLY)
        free = session("b", [0.5, 0.4, 0.6], HomeworkClass.NONE)
        values = report_values(hw, free)
        assert values["auc", "homework_only"] == pytest.approx(
            brute_force_auc([0.2, 0.9], [0, 1]))
        assert values["auc", "homework_none"] == pytest.approx(
            brute_force_auc([0.5, 0.4, 0.6], [0, 0, 1]))
        assert values["auc", "global"] == pytest.approx(
            brute_force_auc([0.2, 0.9, 0.5, 0.4, 0.6], [0, 1, 0, 0, 1]))
        assert ("auc", "homework_partly") not in values

    def test_usage_bucket_for_seven_sessions(self):
        sessions = [session("a", [0.4, 0.6]) for _ in range(7)]
        sessions.append(session("b", [0.5, 0.5]))
        values = report_values(*sessions)
        assert ("auc", "usage_6-10") in values
        assert values["auc", "usage_6-10"] == pytest.approx(
            auc([0.4, 0.6] * 7, [0, 1] * 7))
        assert values["auc", "usage_1-5"] == 0.5

    def test_rows_schema(self):
        rows, chunk_means = compute_report(scored(
            session("a", [0.1] * 5 + [0.9] * 5, HomeworkClass.ONLY),
            session("a", [0.2, 0.8], HomeworkClass.PARTLY)))
        names = {(metric, stratum) for metric, stratum, _ in rows}
        assert ("auc", "global") in names
        assert ("auc", "homework_only") in names
        assert all(len(row) == 3 and isinstance(row[2], float) for row in rows)
        assert chunk_means is None and ("mean_prob", "eos") not in names


def traj(actions):
    """``trajectory`` of scored actions, given their session table."""
    session_of, lengths, _, _ = session_table(actions.labels, actions.homework,
                                              actions.students)
    return trajectory(actions, session_of, lengths)


class TestTrajectory:
    def test_length_20_one_action_per_chunk(self):
        probs = np.linspace(0.1, 0.9, 20)
        result = traj(scored(session("a", probs)))
        chunks, eos_mean = result
        np.testing.assert_allclose(chunks, probs)
        assert eos_mean == pytest.approx(probs[-1])

    def test_length_100_five_actions_per_chunk(self):
        probs = np.arange(100, dtype=float)
        chunks, _ = traj(scored(session("a", probs)))
        expected = probs.reshape(20, 5).mean(axis=1)
        np.testing.assert_allclose(chunks, expected)

    def test_constant_probabilities(self):
        chunks, eos_mean = traj(scored(session("a", [0.3] * 25)))
        np.testing.assert_allclose(chunks, 0.3)
        assert eos_mean == pytest.approx(0.3)

    def test_short_sessions_excluded(self):
        assert traj(scored(session("a", [0.5] * 19))) is None
        result = traj(scored(session("a", [0.5] * 19),
                                   session("a", [0.2] * 20)))
        chunks, _ = result
        np.testing.assert_allclose(chunks, 0.2)

    def test_remainders_distributed_evenly(self):
        # length 23: chunk sizes must be 1 or 2 and sum to 23
        chunks = (20 * np.arange(23)) // 23
        sizes = np.bincount(chunks, minlength=20)
        assert sizes.sum() == 23
        assert set(sizes.tolist()) <= {1, 2}


def bucket_key(count):
    """The scalar bucket mapping of the report oracle, e.g. 7 -> '6-10'."""
    for (lo, hi), key in zip(LENGTH_BUCKETS, BUCKET_LABELS):
        if lo <= count and (hi is None or count <= hi):
            return key
    raise ValueError(f"count must be positive, got {count}")


def report_oracle(students):
    """The report rows and chunk means pooled from per-session lists.

    ``students`` maps each student id to its sessions in time order, each
    a ``(probs, homework_flags)`` pair of lists; every stratum concatenates
    the lists of its sessions, students in mapping order.
    """
    sessions = [(sid, probs, flags) for sid, own in students.items()
                for probs, flags in own]

    def pooled(members):
        if not members:
            return None
        scores = [p for _, probs, _ in members for p in probs]
        labels = [int(j == len(probs) - 1) for _, probs, _ in members
                  for j in range(len(probs))]
        return auc(np.array(scores), np.array(labels, dtype=np.int8))

    rows = []

    def put(stratum, members):
        value = pooled(members)
        if value is not None:
            rows.append(("auc", stratum, value))

    def buckets(prefix, count_of):
        groups = {key: [] for key in BUCKET_LABELS}
        for member in sessions:
            groups[bucket_key(count_of(member))].append(member)
        for key, members in groups.items():
            put(f"{prefix}_{key}", members)

    def homework(flags):
        if all(flags):
            return HomeworkClass.ONLY
        return HomeworkClass.PARTLY if any(flags) else HomeworkClass.NONE

    put("global", sessions)
    for cls in HomeworkClass:
        put(f"homework_{cls.value}", [m for m in sessions if homework(m[2]) is cls])
    buckets("length", lambda m: len(m[1]))
    put("div5", [m for m in sessions if len(m[1]) % 5 == 0])
    put("nondiv5", [m for m in sessions if len(m[1]) % 5 != 0])
    counts = Counter(sid for sid, _, _ in sessions)
    buckets("usage", lambda m: counts[m[0]])

    sums, hits, eos = np.zeros(20), np.zeros(20), []
    for _, probs, _ in sessions:
        if len(probs) >= 20:
            chunks = (20 * np.arange(len(probs))) // len(probs)
            np.add.at(sums, chunks, probs)
            np.add.at(hits, chunks, 1)
            eos.append(probs[-1])
    if not eos:
        return rows, None
    total = 0.0
    for p in eos:
        total += p
    rows.append(("mean_prob", "eos", total / len(eos)))
    return rows, sums / hits


# Per student: sessions of (length, homework mix) with mix 0 none, 1 all, 2 random.
STUDENT_SESSIONS = st.lists(
    st.tuples(st.integers(min_value=1, max_value=100), st.integers(min_value=0, max_value=2)),
    min_size=1, max_size=12)


class TestReportOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(STUDENT_SESSIONS, max_size=8), st.integers(min_value=0, max_value=2**32 - 1),
           st.booleans())
    def test_report_equals_per_session_oracle(self, shapes, seed, grid):
        rng = np.random.default_rng(seed)
        seqs, probs, students = [], [], {}
        for k, shape in enumerate(shapes):
            sid = f"s{k}"
            actions, own, ts = [], [], 0
            for length, mix in shape:
                flags = [bool(f) for f in rng.integers(0, 2, length)] if mix == 2 \
                    else [bool(mix)] * length
                # grid-valued probabilities tie across sessions and students
                values = (rng.integers(0, 8, length) / 8 if grid
                          else rng.uniform(0, 1, length)).tolist()
                own.append((values, flags))
                for flag in flags:
                    actions.append(RawAction(sid, ts, ActionKind.MATERIAL,
                                             "L1", "T1", None, flag))
                    ts += 10
                ts += 2000
            seqs.append(label(StudentLog(sid, actions)))
            probs += [p for values, _ in own for p in values]
            students[sid] = own
        rows, chunk_means = compute_report(scored_sessions(seqs, np.array(probs, dtype=float)))
        expected_rows, expected_means = report_oracle(students)
        assert rows == expected_rows
        if expected_means is None:
            assert chunk_means is None
        else:
            assert chunk_means.tolist() == expected_means.tolist()


def student_fixture(rng, student="s", n_sessions=3):
    actions = []
    ts = 1_600_000_000
    for _ in range(n_sessions):
        for _ in range(int(rng.integers(2, 8))):
            actions.append(RawAction(student, ts, ActionKind.MATERIAL,
                                     "L1", "T1", None, False))
            ts += int(rng.integers(10, 400))
        ts += 2000
    return label(StudentLog(student, actions))


def lane_probs(params, features, resets):
    """Inference probabilities of one sequence run alone, as one lane."""
    zeros = np.zeros((1, params.hidden_size))
    out = forward_batch(params, features[:, None, :], resets[:, None], zeros, zeros)
    return out.probs[:, 0]


def score(params, seq, level):
    """Inference probabilities of one student's full history at ``level``."""
    with ThreadPoolExecutor(1) as pool:
        prepared = prepare_sequences([seq], level)[0]
        return score_sequences(params, [prepared], pool)


class TestScore:
    def _params(self, rng):
        base = init_params(0, hidden_size=8)
        params = ModelParams(*(rng.normal(0, 0.3, size=a.shape)
                               for a in base.arrays()))
        # keep the narrow dense stack ReLU-alive so probabilities react
        # to the input (an all-dead head degenerates to a constant)
        params.dense1_b += 0.5
        params.dense2_b += 0.5
        return params

    def test_prefix_property(self):
        rng = np.random.default_rng(0)
        params = self._params(rng)
        seq = student_fixture(rng)
        full = score(params, seq, "student")
        cut = seq.n_actions // 2
        prefix_seq = label(StudentLog("s", seq.actions[:cut]))
        prefix = score(params, prefix_seq, "student")
        np.testing.assert_allclose(prefix, full[:cut], rtol=1e-12)

    def test_session_level_ignores_earlier_sessions(self):
        # dropping earlier sessions' frames leaves a session's scores
        # unchanged when the state resets at its start
        rng = np.random.default_rng(1)
        params = self._params(rng)
        seq = student_fixture(rng, n_sessions=4)
        prepared = prepare_sequences([seq], "session")[0]
        full = lane_probs(params, prepared.features, prepared.resets)
        last_len = int(seq.session_lengths[-1])
        tail_frames = prepared.features[-last_len:]
        tail_resets = prepared.resets[-last_len:]
        tail = lane_probs(params, tail_frames, tail_resets)
        np.testing.assert_allclose(tail, full[-last_len:], rtol=1e-12)

    def test_student_level_depends_on_earlier_sessions(self):
        rng = np.random.default_rng(2)
        params = self._params(rng)
        seq = student_fixture(rng, n_sessions=4)
        prepared = prepare_sequences([seq], "student")[0]
        full = lane_probs(params, prepared.features, prepared.resets)
        last_len = int(seq.session_lengths[-1])
        tail = lane_probs(params, prepared.features[-last_len:],
                          prepared.resets[-last_len:])
        assert np.abs(tail - full[-last_len:]).max() > 1e-9

    def test_matches_batched_inference(self):
        rng = np.random.default_rng(3)
        params = self._params(rng)
        seqs = [student_fixture(rng, f"s{i}", n_sessions=int(rng.integers(1, 5)))
                for i in range(6)]
        for level in ("student", "session"):
            prepared = [prepare_sequences([s], level)[0] for s in seqs]
            with ThreadPoolExecutor(2) as pool:
                batched = score_sequences(params, prepared, pool, batch_size=3)
            # each student's probabilities start at the sum of the lengths before it
            start = 0
            for seq in seqs:
                direct = score(params, seq, level)
                np.testing.assert_allclose(batched[start:start + seq.n_actions], direct,
                                           rtol=1e-12)
                start += seq.n_actions
            assert batched.shape == (start,)

    def test_scored_sessions_alignment(self):
        rng = np.random.default_rng(4)
        seq = student_fixture(rng, n_sessions=3)
        probs = rng.uniform(0.01, 0.99, seq.n_actions)
        record = scored_sessions([seq], probs)
        assert int(record.labels.sum()) == 3
        assert record.probs.shape == record.homework.shape == (seq.n_actions,)
        np.testing.assert_array_equal(record.probs, probs)
        np.testing.assert_array_equal(record.labels, seq.labels)
        np.testing.assert_array_equal(record.students, 0)
        with pytest.raises(ValueError):
            scored_sessions([seq], probs[1:])
