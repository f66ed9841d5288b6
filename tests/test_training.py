"""Re-weighting, splits, batching, and the training loop."""

import json
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st

from eosnet import cli, net, training
from eosnet.errors import DataValidationError, NumericalFault
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
    TrainConfig,
    TrainSequence,
    make_batches,
    prepare_sequences,
    score_sequences,
    session_weights,
    split_students,
    student_weights,
    train,
)


# each level under a fixed test id, so that the tests' names stay stable
LEVELS = [pytest.param(level, id=f"Level.{level.upper()}") for level in net.LEVELS]


@pytest.fixture
def pool():
    with ThreadPoolExecutor(2) as pool:
        yield pool


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

    def test_score_sequences_matches_single_forward(self, pool):
        rng = np.random.default_rng(6)
        params = ModelParams(*(rng.normal(0, 0.3, size=a.shape)
                               for a in init_params(0, hidden_size=8).arrays()))
        seqs = [toy_sequence(rng, f"s{i}", int(rng.integers(3, 60)))
                for i in range(9)]
        scored = score_sequences(params, seqs, pool, batch_size=4)
        # each sequence's probabilities start at the sum of the lengths before it
        starts = np.cumsum([0, *map(len, seqs)])
        assert scored.shape == (starts[-1],)
        for seq, start in zip(seqs, starts):
            probs = lane_probs(params, seq)
            np.testing.assert_allclose(scored[start:start + len(seq)], probs, rtol=1e-12)


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS")
BOTH_PINNED = {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
NOT_POSITIVE = ["", "0", "x", "4,2", " 1", "-1", "\u0661"]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A 12-student log and an H=4 checkpoint for the CLI's own runs."""
    root = tmp_path_factory.mktemp("tiny")
    assert cli.main(["generate", "--out", str(root), "--n-students", "12",
                     "--seed", "3", "--quiet"]) == cli.EXIT_OK
    net.save_checkpoint(init_params(0, hidden_size=4), root / "model.ckpt")
    return root / "actions.csv", root / "model.ckpt"


class TestScoringWorkers:
    # Each case is BLAS environments that an earlier worker rule read as a
    # BLAS thread count; the pool size depends on none of them.
    @pytest.mark.parametrize("environments", [
        pytest.param([{}, {"NUMEXPR_NUM_THREADS": "1"}], id="nothing_set"),
        pytest.param([dict.fromkeys(BLAS_VARS, "1"), {"OMP_NUM_THREADS": "2"}],
                     id="one_blas_thread"),
        pytest.param([dict.fromkeys(BLAS_VARS, "2"), {"MKL_NUM_THREADS": "8"}],
                     id="blas_on_every_cpu"),
        pytest.param([{"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "2"}],
                     id="largest_value"),
        pytest.param([{"MKL_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "1"}, BOTH_PINNED,
                      {**BOTH_PINNED, "OMP_NUM_THREADS": "2"},
                      {"GOTO_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"},
                      {"OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "1",
                       "OMP_NUM_THREADS": "1"}],
                     id="own_variables"),
        *(pytest.param([{**dict.fromkeys(BLAS_VARS, "1"), "OPENBLAS_NUM_THREADS": value},
                        {**dict.fromkeys(BLAS_VARS, "1"), "MKL_NUM_THREADS": value},
                        {"OMP_NUM_THREADS": value}],
                       id=f"bad_value_{value!r}") for value in NOT_POSITIVE),
    ])
    def test_pool_size_ignores_blas_settings(self, tiny_run, monkeypatch, tmp_path,
                                             environments):
        data, ckpt = tiny_run
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        out = tmp_path / "out"
        for environ in environments:
            with monkeypatch.context() as patch:
                for var in (*BLAS_VARS, "NUMEXPR_NUM_THREADS"):
                    patch.delenv(var, raising=False)
                for var, value in environ.items():
                    patch.setenv(var, value)
                # the usable CPUs, or min(--threads, usable CPUs)
                for flags, workers in (([], 3), (["--threads", "2"], 2),
                                       (["--threads", "64"], 3)):
                    assert cli.main(["evaluate", "--checkpoint", str(ckpt), "--data",
                                     str(data), "--out", str(out), "--quiet",
                                     *flags]) == cli.EXIT_OK
                    manifest = json.loads((out / "manifest.json").read_text())
                    assert manifest["workers"] == workers

    def test_no_more_workers_than_batches(self):
        # a pool starts a thread only for a batch that finds none idle
        params = init_params(0, hidden_size=4)
        rng = np.random.default_rng(9)
        started = []
        for n_students, size in ((2, 2), (6, 8), (0, 2)):
            seqs = [toy_sequence(rng, f"s{i}", 5) for i in range(n_students)]
            with ThreadPoolExecutor(size) as pool:
                score_sequences(params, seqs, pool, batch_size=2)
                started.append(len(pool._threads))
        # 1 batch on 2 threads, 3 batches on 8, and no batch at all
        assert started[0] == 1 and 1 <= started[1] <= 3 and started[2] == 0

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_commands_read_affinity_and_environment_once(self, monkeypatch, tmp_path,
                                                         tiny_run, command):
        data, ckpt = tiny_run
        reads = []

        def affinity(pid):
            reads.append(pid)
            return {0, 1, 2}

        monkeypatch.setattr(os, "sched_getaffinity", affinity)
        for var in BLAS_VARS:
            monkeypatch.setenv(var, "2")
        assert cli.main(["report", "--data", str(data)]) == cli.EXIT_OK
        # a command without a pool leaves BLAS as the caller set it
        assert reads == [] and all(os.environ[var] == "2" for var in BLAS_VARS)
        if command == "train":
            args = ["train", "--max-epochs", "3", "--patience", "none"]
        else:
            args = ["evaluate", "--checkpoint", str(ckpt)]
        assert cli.main([*args, "--data", str(data), "--out", str(tmp_path / "out"),
                         "--quiet"]) == cli.EXIT_OK
        assert len(reads) == 1
        assert all(os.environ[var] == "1" for var in BLAS_VARS)


class TestScoringPool:
    """``score_sequences`` on a pool of 1 thread and of 3."""

    N_STUDENTS, BATCH = 40, 8  # 5 batches

    @pytest.fixture
    def params(self):
        rng = np.random.default_rng(8)
        return ModelParams(*(rng.normal(0, 0.3, size=a.shape)
                             for a in init_params(0, hidden_size=8).arrays()))

    def _sequences(self, level):
        labeled = make_toy_students(self.N_STUDENTS, np.random.default_rng(4))
        return [prepare_sequences([seq], level)[0] for seq in labeled]

    def _score(self, workers, params, seqs):
        with ThreadPoolExecutor(workers) as pool:
            return score_sequences(params, seqs, pool, batch_size=self.BATCH)

    @pytest.mark.parametrize("level", LEVELS)
    def test_any_worker_count_gives_the_same_bits(self, params, level):
        seqs = self._sequences(level)
        one = self._score(1, params, seqs)
        three = self._score(3, params, seqs)
        assert one.shape == (sum(map(len, seqs)),)
        np.testing.assert_array_equal(three, one)
        assert three.dtype == np.float64 and three.flags.owndata

    def _in_batch(self, seqs, k):
        """The last student, in scoring order, of batch k."""
        ordered = sorted(seqs, key=lambda s: (len(s), s.student_id))
        return ordered[(k + 1) * self.BATCH - 1]

    @pytest.mark.parametrize("level", LEVELS)
    def test_first_fault_in_input_order_is_raised(self, params, level):
        seqs = self._sequences(level)
        # batch 2 goes non-finite at step 3; batch 4, the longest and so
        # the first to start, at step 1
        self._in_batch(seqs, 2).features[3] = np.nan
        self._in_batch(seqs, 4).features[1] = np.nan
        faults = []
        for workers in (1, 3):
            before = threading.active_count()
            with pytest.raises(NumericalFault) as caught:
                self._score(workers, params, seqs)
            assert threading.active_count() == before
            faults.append(caught.value)
        one, three = faults
        assert one.context == {"step": 3}
        assert (str(three), three.context) == (str(one), one.context)


    def test_a_shared_pool_is_left_idle_and_scores_again(self, monkeypatch, params):
        seqs = self._sequences("student")
        expected = self._score(1, params, seqs)
        # batch 0 goes non-finite at step 3, batch 4 (the first to start)
        # at step 1, and batch 1 is still running when batch 0 raises
        faulty = [self._in_batch(seqs, 0), self._in_batch(seqs, 4)]
        saved = [seq.features.copy() for seq in faulty]
        faulty[0].features[3] = np.nan
        faulty[1].features[1] = np.nan
        slow = self._in_batch(seqs, 1)
        score_group, running = training._score_group, []

        def batch(params, group, outs):
            running.append(group)
            try:
                score_group(params, group, outs)
                if slow in group:
                    threading.Event().wait(0.5)
            finally:
                running.remove(group)

        monkeypatch.setattr(training, "_score_group", batch)
        with ThreadPoolExecutor(3) as pool:
            with pytest.raises(NumericalFault) as caught:
                score_sequences(params, seqs, pool, batch_size=self.BATCH)
            assert caught.value.context == {"step": 3}
            assert not running
            monkeypatch.undo()
            for seq, features in zip(faulty, saved):
                seq.features[...] = features
            again = score_sequences(params, seqs, pool, batch_size=self.BATCH)
        np.testing.assert_array_equal(again, expected)


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
        return [prepare_sequences([seq], level)[0] for seq in make_toy_students(n, rng)]

    def test_deterministic_end_to_end(self, pool):
        seqs = self._sequences("student")
        config = TrainConfig(max_epochs=2, patience=None, batch_size=4,
                             tbptt_window=16, seed=11)
        a = train(config, seqs[:9], seqs[9:], pool)
        b = train(config, seqs[:9], seqs[9:], pool)
        assert [(s.epoch, s.train_loss, s.val_auc) for s in a.history] == \
               [(s.epoch, s.train_loss, s.val_auc) for s in b.history]
        assert all((x == y).all() for x, y in zip(a.params.arrays(), b.params.arrays()))

    def test_returns_best_epoch_params(self, pool):
        seqs = self._sequences("session")
        config = TrainConfig(max_epochs=3, patience=None, batch_size=4,
                             tbptt_window=32, seed=5, level="session")
        result = train(config, seqs[:9], seqs[9:], pool)
        assert len(result.history) == 3
        best = max(result.history, key=lambda s: s.val_auc)
        assert result.best_epoch == best.epoch
        assert result.best_val_auc == pytest.approx(best.val_auc)

    def test_nan_first_auc_returns_best_epoch_params(self, monkeypatch, pool):
        # The validation AUC does not feed back into training, so the
        # epoch-4 weights are the same whatever AUCs are reported.
        seqs = self._sequences("student")
        config = TrainConfig(max_epochs=4, patience=3, batch_size=4,
                             tbptt_window=16, seed=2)

        def run(aucs):
            reported = iter(aucs)
            monkeypatch.setattr("eosnet.training.auc", lambda *args: next(reported))
            return train(config, seqs[:9], seqs[9:], pool)

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
                prepare_sequences([seq], "session")[0].resets, starts)
            assert not prepare_sequences([seq], "student")[0].resets.any()

    def test_empty_sets_rejected(self, pool):
        seqs = self._sequences("student")
        config = TrainConfig(max_epochs=1, seed=0)
        with pytest.raises(DataValidationError):
            train(config, [], seqs[:2], pool)


class TestTrainingSplit:
    """``train`` at H=400 with its windows cut into lane groups, on a pool
    of 3 threads and of 1."""

    N_STUDENTS = 84  # 80 train, in batches of 72 lanes (3 groups) and 8; 4 validation
    CONFIG = dict(max_epochs=2, patience=None, batch_size=72, tbptt_window=8,
                  dropout_p=0.4, seed=3)

    def _sequences(self, level):
        labeled = make_toy_students(self.N_STUDENTS, np.random.default_rng(6))
        return [prepare_sequences([seq], level)[0] for seq in labeled]

    def _train(self, monkeypatch, workers, level, seqs, **config):
        """Train on a pool of ``workers`` threads; return the result and the
        names of the threads that ran each lane group and each validation
        batch."""
        threads = {"groups": [], "batches": []}
        train_group, score_group = training._train_group, training._score_group

        def group(*args):
            threads["groups"].append(threading.current_thread().name)
            return train_group(*args)

        def batch(*args):
            threads["batches"].append(threading.current_thread().name)
            return score_group(*args)

        config = TrainConfig(level=level, **{**self.CONFIG, **config})
        with monkeypatch.context() as patch, ThreadPoolExecutor(workers) as pool:
            patch.setattr(training, "_train_group", group)
            patch.setattr(training, "_score_group", batch)
            result = train(config, seqs[:-4], seqs[-4:], pool)
        return result, threads

    @pytest.mark.parametrize("level, dropout_p", [
        *(pytest.param(*level.values, 0.4, id=level.id) for level in LEVELS),
        *(pytest.param(*level.values, 0.0, id=f"{level.id}-no-dropout") for level in LEVELS),
    ])
    def test_any_worker_count_gives_the_same_bits(self, monkeypatch, level, dropout_p):
        seqs = self._sequences(level)
        # every history is longer than the TBPTT window
        assert min(len(seq) for seq in seqs) > self.CONFIG["tbptt_window"]
        one, one_threads = self._train(monkeypatch, 1, level, seqs, dropout_p=dropout_p)
        three, three_threads = self._train(monkeypatch, 3, level, seqs, dropout_p=dropout_p)
        assert one.params.hidden_size == 400
        assert len(set(one_threads["groups"])) == 1
        # 3 groups in each window of the 72-lane batch, 1 in the 8-lane one
        batches = [batch for epoch in (1, 2)
                   for batch in make_batches(seqs[:-4], 72, 3, epoch)]
        assert sorted(len(batch.student_ids) for batch in batches) == [8, 8, 72, 72]
        tasks = sum(-(-batch.X.shape[0] // 8) * -(-len(batch.student_ids) // 32)
                    for batch in batches)
        assert len(one_threads["groups"]) == len(three_threads["groups"]) == tasks
        assert len(set(three_threads["groups"])) > 1
        for a, b in zip(one.params.arrays(), three.params.arrays()):
            np.testing.assert_array_equal(b, a)
        assert three.history and [(s.epoch, s.train_loss, s.val_auc) for s in three.history] \
            == [(s.epoch, s.train_loss, s.val_auc) for s in one.history]

    def test_masks_are_drawn_once_per_window(self, monkeypatch):
        # The 72-lane batch's windows run as 3 lane groups each, and each
        # window's masks are still drawn once, for all its lanes.
        seqs = self._sequences("student")
        shapes = []

        def draw(params, real, dropout_p, rng):
            shapes.append(real.shape)
            return net.draw_masks(params, real, dropout_p, rng)

        monkeypatch.setattr(training, "draw_masks", draw)
        self._train(monkeypatch, 2, "student", seqs, max_epochs=1)
        windows = [(min(8, batch.X.shape[0] - start), len(batch.student_ids))
                   for batch in make_batches(seqs[:-4], 72, 3, epoch=1)
                   for start in range(0, batch.X.shape[0], 8)]
        assert sorted({lanes for _, lanes in windows}) == [8, 72]
        assert shapes == windows

    def test_group_masks_are_freed_by_backward(self, monkeypatch):
        # backward_batch drops the cache's masks at their last use; with no
        # other reference to them, they are gone when it returns
        seqs = self._sequences("student")
        alive = []

        def backward(params, cache, *args):
            m0 = weakref.ref(cache.m0)
            result = net.backward_batch(params, cache, *args)
            alive.append(m0() is not None)
            return result

        monkeypatch.setattr(training, "backward_batch", backward)
        self._train(monkeypatch, 2, "student", seqs, max_epochs=1)
        assert alive and not any(alive)

    def test_splits_and_validation_share_the_pool(self, monkeypatch):
        seqs = self._sequences("student")
        _, threads = self._train(monkeypatch, 2, "student", seqs, max_epochs=3)
        assert threads["groups"] and len(threads["batches"]) == 3
        assert len(set(threads["groups"] + threads["batches"])) <= 2

    def test_fault_matches_a_serial_run(self, monkeypatch):
        seqs = self._sequences("student")
        config = TrainConfig(**self.CONFIG)
        batches = make_batches(seqs[:-4], config.batch_size, config.seed, epoch=1)
        b_idx = next(k for k, batch in enumerate(batches)
                     if len(batch.student_ids) == 72)
        lanes = batches[b_idx].student_ids
        by_id = {seq.student_id: seq for seq in seqs}
        # group 0 goes non-finite at step 7 of the first window, group 2
        # (lanes 2::3), whose task may finish first, at step 1
        by_id[lanes[0]].features[7, 2] = np.nan
        by_id[lanes[2]].features[1, 2] = np.nan
        faults = []
        for workers in (1, 3):
            before = threading.active_count()
            with pytest.raises(NumericalFault, match="training diverged") as caught:
                self._train(monkeypatch, workers, "student", seqs)
            assert threading.active_count() == before
            fault = caught.value
            faults.append((str(fault), fault.context, str(fault.__cause__)))
        assert faults[0] == faults[1]
        assert faults[0][1:] == ({"epoch": 1, "batch": b_idx, "window": 0},
                                 "non-finite activation (step=7)")


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
        assert TrainConfig(level="session").level == "session"
        with pytest.raises(ValueError, match="level must be one of"):
            TrainConfig(level="SESSION")
