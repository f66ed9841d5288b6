"""Re-weighting, splits, batching, and the training loop."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eosnet.errors import DataValidationError
from eosnet.ingest import ActionKind, RawAction, StudentLog
from eosnet.net import (
    ModelParams,
    backward_batch,
    forward_batch,
    init_params,
)
from eosnet.sessions import label
from eosnet.training import (
    EarlyStopper,
    Level,
    TrainConfig,
    TrainSequence,
    make_batches,
    prepare_sequence,
    score_sequences,
    session_weights,
    split_students,
    student_weights,
    train,
)


def lane_probs(params, seq):
    """Inference probabilities of one sequence run alone, as one lane."""
    zeros = np.zeros((1, params.hidden_size))
    out = forward_batch(params, seq.features[:, None, :], seq.resets[:, None],
                        zeros, zeros)
    return out.probs[:, 0]


def labeled_from_gaps(gaps, student="s"):
    timestamps = [0]
    for gap in gaps:
        timestamps.append(timestamps[-1] + gap)
    actions = [RawAction(student, ts, ActionKind.MATERIAL, "L1", "T1", None, False)
               for ts in timestamps]
    return label(StudentLog(student, actions))


def labeled_with_sessions(session_lengths, student="s"):
    gaps = []
    for length in session_lengths[:-1]:
        gaps.extend([5] * (length - 1) + [2000])
    gaps.extend([5] * (session_lengths[-1] - 1))
    return labeled_from_gaps(gaps, student)


class TestStudentWeights:
    def test_400_actions_16_sessions(self):
        seq = labeled_with_sessions([25] * 16)
        weights = student_weights(seq)
        assert weights.shape == (400,)
        assert (weights[seq.labels == 1] == 25.0).all()
        assert (weights[seq.labels == 0] == 1.0).all()

    def test_single_action_session(self):
        seq = labeled_with_sessions([1])
        assert student_weights(seq).tolist() == [1.0]

    def test_30_actions_3_sessions(self):
        seq = labeled_with_sessions([10, 10, 10])
        weights = student_weights(seq)
        assert (weights[seq.labels == 1] == 10.0).all()

    @given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=12))
    def test_weight_sum_identity(self, lengths):
        seq = labeled_with_sessions(lengths)
        weights = student_weights(seq)
        actions, sessions = seq.n_actions, len(lengths)
        assert weights.sum() == pytest.approx(2 * actions - sessions, rel=1e-12)


class TestSessionWeights:
    def test_each_session_weighs_its_length(self):
        seq = labeled_with_sessions([3, 5])
        weights = session_weights(seq)
        assert weights[2] == 3.0 and weights[7] == 5.0
        assert weights.sum() == pytest.approx((3 - 1) + 3 + (5 - 1) + 5)


class TestSplit:
    def test_sizes_100(self):
        split = split_students([f"s{i}" for i in range(100)], seed=0)
        assert (len(split.train), len(split.validation), len(split.test)) == (81, 9, 10)

    def test_sizes_10(self):
        split = split_students([f"s{i}" for i in range(10)], seed=0)
        assert (len(split.train), len(split.validation), len(split.test)) == (8, 1, 1)

    def test_disjoint_exhaustive(self):
        ids = [f"s{i}" for i in range(137)]
        split = split_students(ids, seed=3)
        union = set(split.train) | set(split.validation) | set(split.test)
        assert union == set(ids)
        assert len(split.train) + len(split.validation) + len(split.test) == 137

    def test_deterministic_and_seed_sensitive(self):
        ids = [f"s{i}" for i in range(50)]
        a, b = split_students(ids, 1), split_students(ids, 1)
        assert (a.train, a.validation, a.test) == (b.train, b.validation, b.test)
        c = split_students(ids, 2)
        assert a.test != c.test
        assert len(a.test) == len(c.test)

    def test_too_few_students(self):
        with pytest.raises(DataValidationError):
            split_students([f"s{i}" for i in range(9)], seed=0)

    def test_order_independent(self):
        ids = [f"s{i}" for i in range(40)]
        a = split_students(ids, 5)
        b = split_students(list(reversed(ids)), 5)
        assert a.test == b.test


def toy_sequence(rng, student, n, dim=13):
    return TrainSequence(
        student_id=student,
        features=rng.uniform(-1, 1, (n, dim)),
        labels=rng.integers(0, 2, n).astype(float),
        weights=rng.uniform(0.5, 3.0, n),
        resets=rng.random(n) < 0.2,
    )


class TestMakeBatches:
    def test_windowing_rule(self):
        rng = np.random.default_rng(0)
        seqs = [toy_sequence(rng, "a", 450)]
        batches = make_batches(seqs, batch_size=4, seed=0)
        assert len(batches) == 1
        windows = list(batches[0].windows(200))
        assert [w.X.shape[0] for w in windows] == [200, 200, 50]
        assert [w.lengths.tolist() for w in windows] == [[200], [200], [50]]
        assert all(w.X.shape[1] == 1 for w in windows)
        # windows are views of the batch's arrays, not copies
        assert all(np.shares_memory(w.X, batches[0].X) for w in windows)

    def test_padding_and_mask(self):
        rng = np.random.default_rng(1)
        seqs = [toy_sequence(rng, "a", 10), toy_sequence(rng, "b", 7)]
        batches = make_batches(seqs, batch_size=2, seed=0)
        batch = batches[0]
        assert batch.X.shape == (10, 2, 13)
        assert batch.student_ids == ["b", "a"]  # the short lane first
        assert batch.lengths.tolist() == [7, 10]
        np.testing.assert_array_equal(batch.X[:7, 0], seqs[1].features)
        np.testing.assert_array_equal(batch.X[:, 1], seqs[0].features)
        for padded in (batch.X[7:, 0], batch.labels[7:, 0],
                       batch.weights[7:, 0], batch.resets[7:, 0]):
            assert not padded.any()

    def test_every_student_appears_once_per_epoch(self):
        rng = np.random.default_rng(2)
        seqs = [toy_sequence(rng, f"s{i}", int(rng.integers(5, 40)))
                for i in range(23)]
        batches = make_batches(seqs, batch_size=4, seed=9, epoch=3)
        seen = [sid for batch in batches for sid in batch.student_ids]
        assert sorted(seen) == sorted(s.student_id for s in seqs)

    def test_deterministic_per_epoch_and_reshuffled_across_epochs(self):
        rng = np.random.default_rng(3)
        seqs = [toy_sequence(rng, f"s{i}", int(rng.integers(5, 40)))
                for i in range(30)]
        a = make_batches(seqs, 8, seed=4, epoch=1)
        b = make_batches(seqs, 8, seed=4, epoch=1)
        assert [x.student_ids for x in a] == [x.student_ids for x in b]
        c = make_batches(seqs, 8, seed=4, epoch=2)
        assert [x.student_ids for x in a] != [x.student_ids for x in c]


class TestBatchedLossMatchesUnbatched:
    def test_windowed_batch_loss_equals_per_student_loss(self):
        rng = np.random.default_rng(5)
        params = ModelParams(*(rng.normal(0, 0.3, size=a.shape)
                               for a in init_params(0, hidden_size=8).arrays()))
        seqs = [toy_sequence(rng, f"s{i}", int(rng.integers(3, 50)))
                for i in range(7)]
        batches = make_batches(seqs, batch_size=3, seed=0)

        num = den = 0.0
        ended_lanes = 0
        for batch in batches:
            lanes = len(batch.student_ids)
            h = np.zeros((lanes, 8))
            c = np.zeros((lanes, 8))
            for window in batch.windows(12):
                ended_lanes += int((window.lengths == 0).sum())
                out = forward_batch(params, window.X, window.resets, h, c,
                                    want_cache=True, lengths=window.lengths)
                _, n, d = backward_batch(params, out.cache, window.labels,
                                         window.weights)
                num += n
                den += d
                h, c = out.h, out.c
        batched_loss = num / den
        # some lane ends in an earlier window and has length 0 in a later one
        assert ended_lanes > 0

        total_num = total_den = 0.0
        for seq in seqs:
            probs = lane_probs(params, seq)
            per_step = -(seq.labels * np.log(probs)
                         + (1 - seq.labels) * np.log1p(-probs))
            total_num += float((seq.weights * per_step).sum())
            total_den += float(seq.weights.sum())
        assert batched_loss == pytest.approx(total_num / total_den, rel=1e-12)

    def test_score_sequences_matches_single_forward(self):
        rng = np.random.default_rng(6)
        params = ModelParams(*(rng.normal(0, 0.3, size=a.shape)
                               for a in init_params(0, hidden_size=8).arrays()))
        seqs = [toy_sequence(rng, f"s{i}", int(rng.integers(3, 60)))
                for i in range(9)]
        scored = score_sequences(params, seqs, batch_size=4)
        for seq in seqs:
            probs = lane_probs(params, seq)
            np.testing.assert_allclose(scored[seq.student_id], probs, rtol=1e-12)


class TestEarlyStopper:
    def test_patience_three_rule(self):
        stopper = EarlyStopper(patience=3)
        outcomes = [stopper.update(v, e) for e, v in enumerate(
            [0.6, 0.7, 0.69, 0.68, 0.67], start=1)]
        assert outcomes == [False, False, False, False, True]
        assert stopper.best_epoch == 2
        assert stopper.best_score == 0.7

    def test_patience_disabled(self):
        stopper = EarlyStopper(patience=None)
        for epoch in range(1, 30):
            assert not stopper.update(0.5 - epoch * 0.001, epoch)

    def test_counter_resets_on_improvement(self):
        stopper = EarlyStopper(patience=2)
        seq = [0.5, 0.49, 0.6, 0.59, 0.58]
        outcomes = [stopper.update(v, e) for e, v in enumerate(seq, start=1)]
        assert outcomes == [False, False, False, False, True]
        assert stopper.best_epoch == 3

    def test_nan_first_score_is_replaced(self):
        stopper = EarlyStopper(patience=3)
        outcomes = [stopper.update(v, e) for e, v in enumerate(
            [float("nan"), 0.6, 0.7, 0.8], start=1)]
        assert outcomes == [False, False, False, False]
        assert stopper.best_epoch == 4
        assert stopper.best_score == 0.8

    def test_nan_score_is_no_improvement(self):
        stopper = EarlyStopper(patience=2)
        outcomes = [stopper.update(v, e) for e, v in enumerate(
            [0.6, float("nan"), float("nan")], start=1)]
        assert outcomes == [False, False, True]
        assert stopper.best_epoch == 1


def make_toy_students(n_students, rng):
    logs = []
    for i in range(n_students):
        timestamps = [0]
        for _ in range(int(rng.integers(10, 25))):
            timestamps.append(timestamps[-1] + int(rng.choice([30, 30, 30, 2000])))
        actions = [RawAction(f"s{i}", ts, ActionKind.MATERIAL, "L1", "T1", None,
                             bool(rng.integers(2))) for ts in timestamps]
        logs.append(StudentLog(f"s{i}", actions))
    return [label(lg) for lg in logs]


class TestTrainLoop:
    def _sequences(self, level, n=12, seed=0):
        rng = np.random.default_rng(seed)
        return [prepare_sequence(seq, level) for seq in make_toy_students(n, rng)]

    def test_deterministic_end_to_end(self):
        seqs = self._sequences(Level.STUDENT)
        config = TrainConfig(max_epochs=2, patience=None, batch_size=4,
                             tbptt_window=16, seed=11)
        a = train(config, seqs[:9], seqs[9:])
        b = train(config, seqs[:9], seqs[9:])
        assert [(s.epoch, s.train_loss, s.val_auc) for s in a.history] == \
               [(s.epoch, s.train_loss, s.val_auc) for s in b.history]
        assert all((x == y).all() for x, y in zip(a.params.arrays(), b.params.arrays()))

    def test_returns_best_epoch_params(self):
        seqs = self._sequences(Level.SESSION)
        config = TrainConfig(max_epochs=3, patience=None, batch_size=4,
                             tbptt_window=32, seed=5, level=Level.SESSION)
        result = train(config, seqs[:9], seqs[9:])
        assert len(result.history) == 3
        best = max(result.history, key=lambda s: s.val_auc)
        assert result.best_epoch == best.epoch
        assert result.best_val_auc == pytest.approx(best.val_auc)

    def test_nan_first_auc_returns_best_epoch_params(self, monkeypatch):
        # The validation AUC does not feed back into training, so the
        # epoch-4 weights are the same whatever AUCs are reported.
        seqs = self._sequences(Level.STUDENT)
        config = TrainConfig(max_epochs=4, patience=3, batch_size=4,
                             tbptt_window=16, seed=2)

        def run(aucs):
            reported = iter(aucs)
            monkeypatch.setattr("eosnet.training.auc", lambda *args: next(reported))
            return train(config, seqs[:9], seqs[9:])

        nan_first = run([None, 0.6, 0.7, 0.8])
        rising = run([0.5, 0.6, 0.7, 0.8])
        assert nan_first.best_epoch == rising.best_epoch == 4
        assert all((a == b).all() for a, b in zip(nan_first.params.arrays(),
                                                  rising.params.arrays()))

    def test_session_level_resets_at_each_session(self):
        labeled = make_toy_students(12, np.random.default_rng(0))
        assert max(len(seq.session_lengths) for seq in labeled) > 1
        for seq in labeled:
            starts = np.zeros(seq.n_actions, dtype=bool)
            starts[np.cumsum([0] + seq.session_lengths[:-1].tolist())] = True
            np.testing.assert_array_equal(
                prepare_sequence(seq, Level.SESSION).resets, starts)
            assert not prepare_sequence(seq, Level.STUDENT).resets.any()

    def test_empty_sets_rejected(self):
        seqs = self._sequences(Level.STUDENT)
        config = TrainConfig(max_epochs=1, seed=0)
        with pytest.raises(DataValidationError):
            train(config, [], seqs[:2])


class TestTrainConfigValidation:
    def test_bad_dropout(self):
        with pytest.raises(ValueError):
            TrainConfig(dropout_p=1.0)

    def test_bad_batch(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -0.001])
    def test_bad_learning_rate(self, rate):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=rate)

    def test_level_from_string(self):
        assert TrainConfig(level="session").level is Level.SESSION
