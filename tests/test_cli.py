"""Command-line contract: outputs and exit codes of ``cli.main`` on a tiny
generated corpus with an untrained H=8 checkpoint per level."""

import ast
import base64
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eosnet import cli, fileio, ingest, synthgen
from eosnet.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, _load_labeled, main
from eosnet.evaluation import compute_report, scored_sessions
from eosnet.features import featurize
from eosnet.ingest import HEADER
from eosnet.net import (
    UNTRAINED_RECORD,
    forward_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from eosnet.training import (
    TrainConfig,
    prepare_sequences,
    score_sequences,
    split_students,
)

LEVELS = ["student", "session"]


def untrained(path, **record):
    """Write an untrained H=8 checkpoint whose record is the untrained
    model's with ``record``'s fields, valid or not (saving checks none)."""
    save_checkpoint(init_params(0, hidden_size=8), path, {**UNTRAINED_RECORD, **record})
    return path


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The log of 12 students and, per level, an untrained H=8 checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["generate", "--out", str(root), "--n-students", "12",
                 "--seed", "3", "--quiet"]) == EXIT_OK
    return root / "actions.csv", {level: untrained(root / f"{level}.ckpt", level=level)
                                  for level in LEVELS}


@pytest.fixture(scope="module")
def halves(corpus, tmp_path_factory):
    """The log cut in two at its middle line, header on the first part."""
    data, _ = corpus
    lines = data.read_text().splitlines(keepends=True)
    root = tmp_path_factory.mktemp("halves")
    first, second = root / "first.csv", root / "second.csv"
    middle = len(lines) // 2
    first.write_text("".join(lines[:middle]))
    second.write_text("".join(lines[middle:]))
    return first, second


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The log of 40 students and, per level, a model trained on it for one
    epoch with ``--seed 0``: 32 train, 4 validation and 4 test students."""
    root = tmp_path_factory.mktemp("trained")
    data = root / "actions.csv"
    assert main(["generate", "--out", str(root), "--n-students", "40",
                 "--seed", "3", "--quiet"]) == EXIT_OK
    for level in LEVELS:
        assert main(["train", "--data", str(data), "--out", str(root / level), "--level", level,
                     "--seed", "0", "--max-epochs", "1", "--patience", "none",
                     "--quiet"]) == EXIT_OK
    return data, {level: root / level / "model.ckpt" for level in LEVELS}


def assert_one_error_line(capsys, match):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert match in err


def assert_literals(config):
    """Every manifest config entry reads back with ``ast.literal_eval``."""
    for name, text in config.items():
        try:
            ast.literal_eval(text)
        except (ValueError, SyntaxError):
            pytest.fail(f"config entry {name} = {text} is not a Python literal")


def probs_by_student(rows, prob_column):
    """Per-student probability lists from CSV rows that start with the id."""
    out = {}
    for row in rows:
        cells = row.split(",")
        out.setdefault(cells[0], []).append(float(cells[prob_column]))
    return out


# The required flags of each subcommand; parsing fails before any is opened.
REQUIRED = {
    "generate": ["--out", "out"],
    "sessionize": ["--data", "a.csv", "--out", "b.csv"],
    "featurize": ["--data", "a.csv", "--out", "b.csv"],
    "train": ["--data", "a.csv", "--out", "out"],
    "evaluate": ["--checkpoint", "m.ckpt", "--data", "a.csv", "--out", "out"],
    "score": ["--checkpoint", "m.ckpt", "--data", "a.csv"],
    "report": ["--data", "a.csv"],
}


class TestFlags:
    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_no_config_file(self, command, tmp_path, capsys):
        config = tmp_path / "c.txt"
        config.write_text("level=session\n")
        assert main([command, *REQUIRED[command], "--config", str(config)]) == EXIT_USAGE
        assert_one_error_line(capsys, "unrecognized arguments: --config")

    @pytest.mark.parametrize("command",
                             ["sessionize", "featurize", "evaluate", "score", "report"])
    def test_seed_only_where_read(self, command, capsys):
        assert main([command, *REQUIRED[command], "--seed", "1"]) == EXIT_USAGE
        assert_one_error_line(capsys, "unrecognized arguments: --seed 1")

    @pytest.mark.parametrize("flags, match", [
        (["--patience", "0"], "patience must be >= 1"),
        (["--patience", "x"], "expected an integer or 'none', got 'x'"),
        (["--learning-rate", "nan"], "learning_rate must be finite and positive"),
        (["--learning-rate", "inf"], "learning_rate must be finite and positive"),
        (["--level", "bogus"], "level must be one of ('student', 'session'), got 'bogus'"),
    ])
    def test_bad_train_setting(self, corpus, tmp_path, capsys, flags, match):
        data, _ = corpus
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out), "--quiet",
                     *flags]) == EXIT_USAGE
        assert_one_error_line(capsys, match)
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("generate", "--seed"), ("train", "--seed"), ("evaluate", "--split-seed")])
    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_bad_seed(self, command, flag, value, capsys):
        """A bad seed is a usage error; evaluate takes none, as its split
        is the checkpoint's."""
        assert main([command, *REQUIRED[command], flag, value]) == EXIT_USAGE
        assert_one_error_line(capsys, f"unrecognized arguments: {flag} {value}"
                              if command == "evaluate"
                              else f"expected an integer >= 0, got '{value}'")

    @pytest.mark.parametrize("command, flag, value", [
        ("evaluate", "--level", "session"), ("evaluate", "--utc-offset-minutes", "0"),
        ("evaluate", "--split-seed", "0"), ("score", "--level", "session"),
        ("score", "--utc-offset-minutes", "0")])
    def test_settings_of_the_checkpoint_have_no_flag(self, command, flag, value, capsys):
        assert main([command, *REQUIRED[command], flag, value]) == EXIT_USAGE
        assert_one_error_line(capsys, f"unrecognized arguments: {flag} {value}")

    @pytest.mark.parametrize("value", ["0", "-2", "x"])
    def test_bad_threads(self, value, capsys):
        # parsing fails before BLAS is pinned or a file opened
        for command in ("train", "evaluate"):
            assert main([command, *REQUIRED[command], "--threads", value]) == EXIT_USAGE
            assert_one_error_line(capsys, f"expected an integer >= 1, got '{value}'")

    @pytest.mark.parametrize("command",
                             ["generate", "sessionize", "featurize", "score", "report"])
    def test_threads_only_where_a_pool_runs(self, command, capsys):
        assert main([command, *REQUIRED[command], "--threads", "2"]) == EXIT_USAGE
        assert_one_error_line(capsys, "unrecognized arguments: --threads 2")

    @pytest.mark.parametrize("command", ["featurize", "train", "evaluate", "score"])
    @pytest.mark.parametrize("minutes", ["-721", "841", "1500", "x"])
    def test_utc_offset_out_of_range(self, corpus, tmp_path, command, minutes, capsys):
        """A flag's offset out of range is a usage error; evaluate and score
        read theirs from the checkpoint, where it is a data error."""
        if command in ("featurize", "train"):
            assert main([command, *REQUIRED[command],
                         "--utc-offset-minutes", minutes]) == EXIT_USAGE
            assert_one_error_line(capsys, f"expected an integer in [-720, 840], got '{minutes}'")
            return
        value = minutes if minutes == "x" else int(minutes)
        ckpt = untrained(tmp_path / "m.ckpt", utc_offset_minutes=value)
        paths = {"a.csv": str(corpus[0]), "m.ckpt": str(ckpt), "out": str(tmp_path / "out")}
        argv = [paths.get(arg, arg) for arg in REQUIRED[command]]
        assert main([command, *argv, "--quiet"]) == EXIT_DATA
        assert_one_error_line(
            capsys, f"utc_offset_minutes {value!r} is not an integer in [-720, 840]")

    @pytest.mark.parametrize("minutes", ["-720", "840"])
    def test_utc_offset_range_ends(self, corpus, tmp_path, minutes):
        data, _ = corpus
        assert main(["featurize", "--data", str(data), "--out", str(tmp_path / "f.csv"),
                     "--utc-offset-minutes", minutes, "--quiet"]) == EXIT_OK
        ckpt = untrained(tmp_path / "m.ckpt", utc_offset_minutes=int(minutes))
        state = tmp_path / "state.json"
        assert main(["score", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(tmp_path / "s.csv"), "--state-out", str(state),
                     "--quiet"]) == EXIT_OK
        assert json.loads(state.read_text())["utc_offset_minutes"] == int(minutes)

    def test_generate_needs_a_student(self, tmp_path, capsys):
        out = tmp_path / "gen"
        assert main(["generate", "--out", str(out), "--n-students", "0"]) == EXIT_USAGE
        assert_one_error_line(capsys, "n_students must be >= 1")
        assert not out.exists()

    @pytest.mark.parametrize("part", ["train", "validation", "test"])
    def test_split_part_needs_split_seed(self, corpus, tmp_path, capsys, part):
        """A part of the split needs a checkpoint that records a split; an
        untrained model's records none."""
        data, ckpts = corpus
        out = tmp_path / "eval"
        assert main(["evaluate", "--checkpoint", str(ckpts["student"]), "--data", str(data),
                     "--out", str(out), "--split-part", part]) == EXIT_DATA
        assert_one_error_line(capsys, f"{ckpts['student']}: the model records no student split")
        assert list(out.iterdir()) == []

    def test_split_seed_needs_a_split_part(self, corpus, tmp_path, capsys):
        """There is no split seed to give: the split is the checkpoint's."""
        data, ckpts = corpus
        out = tmp_path / "eval"
        assert main(["evaluate", "--checkpoint", str(ckpts["student"]), "--data", str(data),
                     "--out", str(out), "--split-seed", "0"]) == EXIT_USAGE
        assert_one_error_line(capsys, "unrecognized arguments: --split-seed 0")
        assert not out.exists()


class TestGenerate:
    def test_writes_only_log_and_manifest(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path), "--n-students", "2",
                     "--quiet"]) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["actions.csv", "manifest.json"]
        assert_literals(json.loads((tmp_path / "manifest.json").read_text())["config"])

    @pytest.mark.parametrize("umask, mode", [pytest.param(0o022, 0o644, id="022"),
                                             pytest.param(0o077, 0o600, id="077")])
    def test_outputs_take_their_mode_from_the_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            assert main(["generate", "--out", str(tmp_path), "--n-students", "2",
                         "--quiet"]) == EXIT_OK
        finally:
            os.umask(old)
        for name in ("actions.csv", "manifest.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == mode


class TestFeaturize:
    HEADER = ("tod_8_12,tod_12_15,tod_15_8,gap_action,gap_session,"
              "kind_fillout,kind_multichoice,kind_material,lesson_changed,"
              "topic_changed,correct,homework,session_start,label")

    @pytest.mark.parametrize("with_keys", [False, True])
    def test_header_and_row_count(self, corpus, tmp_path, with_keys):
        data, _ = corpus
        out = tmp_path / "features.csv"
        extra = ["--with-keys"] if with_keys else []
        assert main(["featurize", "--data", str(data), "--out", str(out),
                     "--quiet", *extra]) == EXIT_OK
        header, *rows = out.read_text().splitlines()
        prefix = "student_id,timestamp," if with_keys else ""
        assert header == prefix + self.HEADER
        assert len(rows) == len(data.read_text().splitlines()) - 1
        assert all(row.count(",") == header.count(",") for row in rows)

    @pytest.mark.parametrize("text", ["", ingest.HEADER + "\n"], ids=["empty", "header-only"])
    @pytest.mark.parametrize("with_keys", [False, True])
    def test_no_records_is_the_header_line_alone(self, tmp_path, text, with_keys):
        data, out = tmp_path / "empty.csv", tmp_path / "features.csv"
        data.write_text(text)
        extra = ["--with-keys"] if with_keys else []
        assert main(["featurize", "--data", str(data), "--out", str(out),
                     "--quiet", *extra]) == EXIT_OK
        prefix = "student_id,timestamp," if with_keys else ""
        assert out.read_text() == prefix + self.HEADER + "\n"

    def test_cells_are_reprs_of_featurize(self, corpus, tmp_path):
        """Each cell is the round-trip repr of its float64, not a rounding."""
        data, _ = corpus
        out = tmp_path / "features.csv"
        assert main(["featurize", "--data", str(data), "--out", str(out),
                     "--with-keys", "--quiet"]) == EXIT_OK
        rows = iter(out.read_text().splitlines()[1:])
        labeled = _load_labeled(str(data))
        for sid in sorted(labeled):
            seq = labeled[sid]
            for action, frame, yval in zip(seq.actions, featurize(seq), seq.labels):
                cells = next(rows).split(",")
                assert cells[:2] == [sid, str(action.timestamp)]
                assert cells[2:-1] == [repr(float(v)) for v in frame]
                assert cells[-1] == str(int(yval))
        assert next(rows, None) is None


GOLDEN = Path(__file__).parent / "data"


class TestGoldenBytes:
    """``tests/data/actions.csv`` is ``generate --seed 1 --n-students 12``;
    beside it are the bytes that ``featurize`` and ``sessionize`` wrote for
    it before their encoding was vectorized.  ``generate``'s larger logs
    are pinned by their sha256."""

    @pytest.mark.parametrize("command, flags, golden", [
        ("featurize", [], "features.csv"),
        ("featurize", ["--with-keys"], "features_with_keys.csv"),
        ("featurize", ["--utc-offset-minutes", "-720"], "features_utc-720.csv"),
        ("featurize", ["--utc-offset-minutes", "840"], "features_utc840.csv"),
        ("sessionize", [], "sessions.csv"),
    ])
    def test_output_is_byte_identical(self, tmp_path, command, flags, golden):
        out = tmp_path / golden
        assert main([command, "--data", str(GOLDEN / "actions.csv"), "--out", str(out),
                     "--quiet", *flags]) == EXIT_OK
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_generate_writes_the_golden_log(self, tmp_path):
        assert main(["generate", "--seed", "1", "--n-students", "12", "--out", str(tmp_path),
                     "--quiet"]) == EXIT_OK
        assert (tmp_path / "actions.csv").read_bytes() == (GOLDEN / "actions.csv").read_bytes()

    @pytest.mark.parametrize("n_students, sha256", [
        # the benchmark's corpus before its history cut
        (1024, "e1d17d89cf6fa9f3fb89cc7946ca6b22fd8991d85bbb87cbe8af7b5285002bb2"),
        # ROADMAP's fixed corpus, 103,103 actions
        (2000, "a743717ec4007af9c0c868829e6a09c0910b83e4f1906d185aaf5ab68aaa3e2c"),
    ])
    def test_generate_bytes_are_pinned(self, tmp_path, n_students, sha256):
        assert main(["generate", "--seed", "1", "--n-students", str(n_students),
                     "--out", str(tmp_path), "--quiet"]) == EXIT_OK
        assert hashlib.sha256((tmp_path / "actions.csv").read_bytes()).hexdigest() == sha256


class TestSessionize:
    @pytest.fixture
    def with_bad_line(self, corpus, tmp_path):
        data, _ = corpus
        lines = data.read_text().splitlines(keepends=True)
        path = tmp_path / "bad.csv"
        path.write_text("".join(lines[:3] + ["s1,notatime,material,L,T,,0\n"] + lines[3:]))
        return path, len(lines) - 1

    def test_lenient_skips_bad_line(self, with_bad_line, tmp_path):
        path, n_actions = with_bad_line
        out = tmp_path / "sessions.csv"
        assert main(["sessionize", "--data", str(path), "--out", str(out),
                     "--lenient", "--quiet"]) == EXIT_OK
        header, *rows = out.read_text().splitlines()
        assert header.endswith(",session_index,label")
        assert len(rows) == n_actions

    def test_value_columns_follow_the_gap_rule(self, corpus, tmp_path):
        # session_index is 0-based per student and steps up exactly at a
        # gap over 900 s; label is 1 exactly on each session's last row
        data, _ = corpus
        out = tmp_path / "sessions.csv"
        assert main(["sessionize", "--data", str(data), "--out", str(out),
                     "--quiet"]) == EXIT_OK
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        keys = [(row[0], int(row[1]), int(row[7]), int(row[8])) for row in rows]
        assert len(keys) == len(data.read_text().splitlines()) - 1
        assert any(index > 0 for _, _, index, _ in keys)
        for k, (sid, ts, index, eos) in enumerate(keys):
            if k == 0 or keys[k - 1][0] != sid:
                assert index == 0
            else:
                previous = keys[k - 1]
                assert index == previous[2] + (ts - previous[1] > 900)
            ends = k + 1 == len(keys) or keys[k + 1][0] != sid \
                or keys[k + 1][1] - ts > 900
            assert eos == int(ends)

    def test_strict_rejects_bad_line(self, with_bad_line, tmp_path, capsys):
        path, _ = with_bad_line
        out = tmp_path / "sessions.csv"
        assert main(["sessionize", "--data", str(path), "--out", str(out),
                     "--quiet"]) == EXIT_DATA
        assert_one_error_line(capsys, "line 4")
        assert not out.exists()


class TestTrain:
    def test_one_epoch_writes_loadable_checkpoint_and_manifest(self, corpus, tmp_path):
        data, _ = corpus
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out),
                     "--max-epochs", "1", "--patience", "none", "--seed", "0",
                     "--utc-offset-minutes", "120", "--quiet"]) == EXIT_OK
        params, record = load_checkpoint(out / "model.ckpt")
        assert params.input_dim == 13 and params.all_finite()
        split = split_students(_load_labeled(str(data)), 0)
        assert record == {"level": "student", "utc_offset_minutes": 120,
                          "split": dataclasses.asdict(split)}
        header, *rows = (out / "history.csv").read_text().splitlines()
        assert header == "epoch,train_loss,val_auc" and len(rows) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        config = TrainConfig(max_epochs=1, patience=None, seed=0)
        assert manifest["config"] == {
            **{f.name: repr(getattr(config, f.name))
               for f in dataclasses.fields(TrainConfig)},
            "level": "'student'",
            "data": repr(str(data)), "out": repr(str(out)),
            "utc_offset_minutes": "120", "threads": "None", "quiet": "True",
        }
        assert manifest["config"]["patience"] == "None"
        assert "seeds" not in manifest
        assert_literals(manifest["config"])

    @staticmethod
    def _pool_workers(corpus, tmp_path, *flags):
        """The ``workers`` of a 1-epoch train's and an evaluate's manifest."""
        data, ckpts = corpus
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "m"),
                     "--max-epochs", "1", "--patience", "none", "--quiet", *flags]) == EXIT_OK
        assert main(["evaluate", "--checkpoint", str(ckpts["student"]), "--data", str(data),
                     "--out", str(tmp_path / "e"), "--quiet", *flags]) == EXIT_OK
        manifests = [json.loads((tmp_path / run / "manifest.json").read_text())
                     for run in ("m", "e")]
        assert not any("blas_threads" in manifest for manifest in manifests)
        return [manifest["workers"] for manifest in manifests]

    @pytest.mark.parametrize("pinned", [False, True])
    def test_manifests_record_the_parallel_setting(self, corpus, tmp_path,
                                                   monkeypatch, pinned):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        if pinned:  # the most common pin, alone
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        # BLAS runs on one thread either way: a worker per usable CPU
        assert self._pool_workers(corpus, tmp_path) == [3, 3]

    def test_threads_beyond_the_usable_cpus_are_capped(self, corpus, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert self._pool_workers(corpus, tmp_path, "--threads", "64") == [3, 3]

    def test_diverging_run_ends_in_one_error_line(self, corpus, tmp_path, capsys):
        # At 1e300 the first update sends the weights to ~1e300, so
        # validation scoring overflows.  At 1e100 a later gradient squares
        # to inf in RMSprop.  Either way: one error line, no warnings.
        for learning_rate, context in (("1e300", "(epoch=1)"),
                                       ("1e100", "(batch=0, epoch=2, window=0)")):
            assert main(["train", "--data", str(corpus[0]), "--out", str(tmp_path / "run"),
                         "--max-epochs", "3", "--patience", "none", "--seed", "0",
                         "--learning-rate", learning_rate, "--quiet"]) == EXIT_NUMERIC
            assert_one_error_line(capsys, f"training diverged {context}")

    @pytest.mark.parametrize("level", LEVELS)
    def test_seeded_runs_are_byte_identical(self, corpus, tmp_path, level):
        data, _ = corpus
        runs = [tmp_path / "first", tmp_path / "second"]
        for out in runs:
            assert main(["train", "--data", str(data), "--out", str(out),
                         "--level", level, "--max-epochs", "2", "--patience", "none",
                         "--seed", "5", "--tbptt-window", "7", "--quiet"]) == EXIT_OK
        for name in ("model.ckpt", "history.csv"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


class TestEvaluate:
    def test_dump_scores_writes_float_literals(self, corpus, tmp_path):
        data, ckpts = corpus
        dump = tmp_path / "scores.csv"
        assert main(["evaluate", "--checkpoint", str(ckpts["student"]), "--data", str(data),
                     "--out", str(tmp_path / "eval"), "--split-part", "all",
                     "--dump-scores", str(dump), "--quiet"]) == EXIT_OK
        header, *rows = dump.read_text().splitlines()
        assert header == "student_id,timestamp,prob,label"
        assert len(rows) == len(data.read_text().splitlines()) - 1
        for row in rows:
            prob = row.split(",")[2]
            assert not prob.startswith("np.")
            assert 0.0 < float(prob) < 1.0
        # the corpus holds a session of at least 20 actions, so both files
        # have the trajectory's values and the check is not vacuous
        report = (tmp_path / "eval" / "report.csv").read_text().splitlines()
        trajectory = (tmp_path / "eval" / "trajectory.csv").read_text().splitlines()
        assert report[0] == "metric,stratum,value" and trajectory[0] == "chunk,mean_prob"
        assert any(row.startswith("mean_prob,eos,") for row in report)
        assert len(trajectory) == 21
        for row in report[1:] + trajectory[1:]:
            cell = row.split(",")[-1]
            assert repr(float(cell)) == cell

    def test_dump_scores_cells_are_reprs_of_score_sequences(self, corpus, tmp_path):
        data, ckpts = corpus
        dump = tmp_path / "scores.csv"
        assert main(["evaluate", "--checkpoint", str(ckpts["student"]), "--data", str(data),
                     "--out", str(tmp_path / "eval"), "--split-part", "all",
                     "--dump-scores", str(dump), "--quiet"]) == EXIT_OK
        labeled = _load_labeled(str(data))
        ids = sorted(labeled)
        params, _ = load_checkpoint(str(ckpts["student"]))
        with ThreadPoolExecutor(1) as pool:
            probs = score_sequences(params, [prepare_sequences([labeled[sid]], "student")[0]
                                             for sid in ids], pool)
        # each student's probabilities start at the sum of the lengths before it
        starts = np.cumsum([0, *(labeled[sid].n_actions for sid in ids)])
        assert probs.shape == (starts[-1],)
        expected = [(sid, repr(float(p)), str(int(y))) for sid, start in zip(ids, starts)
                    for p, y in zip(probs[start:], labeled[sid].labels)]
        cells = [row.split(",") for row in dump.read_text().splitlines()[1:]]
        assert [(c[0], c[2], c[3]) for c in cells] == expected
        assert {c[3] for c in cells} <= {"0", "1"}

    def test_split_seed_scores_the_test_part(self, trained, tmp_path):
        """``--split-part test`` scores the test ids of the checkpoint's
        record: the split of the training run, with its seed."""
        data, ckpts = trained
        dump = tmp_path / "scores.csv"
        assert main(["evaluate", "--checkpoint", str(ckpts["student"]), "--data", str(data),
                     "--out", str(tmp_path / "eval"), "--split-part", "test",
                     "--dump-scores", str(dump), "--quiet"]) == EXIT_OK
        scored = probs_by_student(dump.read_text().splitlines()[1:], 2)
        test = split_students(_load_labeled(str(data)).keys(), 0).test
        assert test == load_checkpoint(ckpts["student"])[1]["split"]["test"]
        assert test and sorted(scored) == test

    def test_header_only_log_writes_header_only_files(self, corpus, tmp_path):
        _, ckpts = corpus
        log = tmp_path / "header.csv"
        log.write_text(HEADER + "\n")
        out = tmp_path / "eval"
        assert main(["evaluate", "--checkpoint", str(ckpts["student"]), "--data", str(log),
                     "--out", str(out), "--dump-scores", str(out / "scores.csv"),
                     "--quiet"]) == EXIT_OK
        assert (out / "report.csv").read_text() == "metric,stratum,value\n"
        assert (out / "trajectory.csv").read_text() == "chunk,mean_prob\n"
        assert (out / "scores.csv").read_text() == "student_id,timestamp,prob,label\n"

    def test_manifest_records_every_flag(self, corpus, tmp_path):
        """Every flag, and the level and offset read from the checkpoint;
        the manifest hashes the checkpoint, so its split is not copied."""
        data, _ = corpus
        split = dataclasses.asdict(split_students(_load_labeled(str(data)), 4))
        ckpt = untrained(tmp_path / "m.ckpt", level="session", utc_offset_minutes=-90,
                         split=split)
        out = tmp_path / "eval"
        assert main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(out), "--split-part", "validation", "--quiet"]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == {
            "checkpoint": repr(str(ckpt)), "data": repr(str(data)), "out": repr(str(out)),
            "level": "'session'", "utc_offset_minutes": "-90",
            "split_part": "'validation'", "dump_scores": "None", "threads": "None",
            "quiet": "True",
        }
        assert [entry["path"] for entry in manifest["inputs"]] == [str(ckpt), str(data)]
        assert "seeds" not in manifest
        assert_literals(manifest["config"])


class TestScore:
    @pytest.mark.parametrize("level", LEVELS)
    def test_equals_evaluate_dump_scores(self, corpus, level):
        """On the log of any set of students, the whole corpus included."""
        data, ckpts = corpus
        ckpt = ckpts[level]
        header, *records = data.read_text().splitlines(keepends=True)
        ids = sorted({record.split(",")[0] for record in records})

        @settings(max_examples=15, deadline=None)
        @given(st.sets(st.sampled_from(ids), min_size=1))
        @example(set(ids))
        def on_students(chosen):
            with tempfile.TemporaryDirectory() as tmp:
                log, dump, streamed = (str(Path(tmp) / name)
                                       for name in ("log.csv", "dump.csv", "score.csv"))
                Path(log).write_text(header + "".join(
                    r for r in records if r.split(",")[0] in chosen))
                assert main(["evaluate", "--checkpoint", str(ckpt), "--data", log,
                             "--out", str(Path(tmp) / "eval"), "--split-part", "all",
                             "--dump-scores", dump, "--quiet"]) == EXIT_OK
                assert main(["score", "--checkpoint", str(ckpt), "--data", log,
                             "--out", streamed, "--quiet"]) == EXIT_OK
                batch = probs_by_student(Path(dump).read_text().splitlines()[1:], 2)
                stream = probs_by_student(Path(streamed).read_text().splitlines(), 2)
            assert batch.keys() == stream.keys() == chosen
            for sid, probs in batch.items():
                assert stream[sid] == pytest.approx(probs, rel=0, abs=1e-12)

        on_students()

    @pytest.mark.parametrize("level", LEVELS)
    def test_split_at_any_line_equals_one_pass(self, corpus, tmp_path, level):
        data, ckpts = corpus
        ckpt = ckpts[level]
        lines = data.read_text().splitlines(keepends=True)
        whole = tmp_path / "whole.csv"
        assert main(["score", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(whole), "--quiet"]) == EXIT_OK

        @settings(max_examples=25, deadline=None)
        @given(st.integers(0, len(lines)))
        def split_at(line):
            with tempfile.TemporaryDirectory() as tmp:
                part, out, state = (str(Path(tmp) / name)
                                    for name in ("in.csv", "out.csv", "state.json"))
                rows = ""
                for chunk, flags in ((lines[:line], ["--state-out", state]),
                                     (lines[line:], ["--state-in", state])):
                    Path(part).write_text("".join(chunk))
                    assert main(["score", "--checkpoint", str(ckpt), "--data", part,
                                 "--out", out, "--quiet", *flags]) == EXIT_OK
                    rows += Path(out).read_text()
                assert rows == whole.read_text()

        split_at()

    def test_out_of_order_timestamp(self, corpus, tmp_path, capsys):
        data, ckpts = corpus
        header, first, second = data.read_text().splitlines()[:3]
        assert first.split(",")[0] == second.split(",")[0]
        assert int(first.split(",")[1]) < int(second.split(",")[1])
        path = tmp_path / "swapped.csv"
        path.write_text("\n".join([header, second, first]) + "\n")
        assert main(["score", "--checkpoint", str(ckpts["student"]), "--data", str(path),
                     "--out", str(tmp_path / "out.csv"), "--quiet"]) == EXIT_DATA
        assert_one_error_line(capsys, "line 3")

    def test_first_bad_line_is_reported_first(self, corpus, tmp_path, capsys):
        """An out-of-order timestamp on line 3 is reported, not the
        malformed record on line 6: the input is read in one pass."""
        data, ckpts = corpus
        header, first, second, *rest = data.read_text().splitlines()[:5]
        path = tmp_path / "two-faults.csv"
        path.write_text("\n".join([header, second, first, *rest,
                                   "s1,notatime,material,L,T,,0"]) + "\n")
        assert main(["score", "--checkpoint", str(ckpts["student"]), "--data", str(path),
                     "--out", str(tmp_path / "out.csv"), "--quiet"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "line 3" in err and "line 6" not in err

    def test_malformed_line_before_an_out_of_order_one_is_reported(
            self, corpus, tmp_path, capsys):
        data, ckpts = corpus
        header, first, second, *rest = data.read_text().splitlines()[:5]
        path = tmp_path / "two-faults.csv"
        path.write_text("\n".join([header, first, "s1,notatime,material,L,T,,0",
                                   *rest, second, first]) + "\n")
        assert main(["score", "--checkpoint", str(ckpts["student"]), "--data", str(path),
                     "--out", str(tmp_path / "out.csv"), "--quiet"]) == EXIT_DATA
        assert_one_error_line(capsys, "line 3: bad timestamp 'notatime'")

    def test_first_out_of_order_line_of_any_student_is_reported(
            self, corpus, tmp_path, capsys):
        """Student a's fault on line 6 comes after student b's on line 5,
        though a's actions come first when grouped by student."""
        _, ckpts = corpus
        path = tmp_path / "late.csv"
        path.write_text("\n".join([HEADER, "a,100,material,L,T,,0", "b,100,material,L,T,,0",
                                   "a,200,material,L,T,,0", "b,50,material,L,T,,0",
                                   "a,150,material,L,T,,0"]) + "\n")
        assert main(["score", "--checkpoint", str(ckpts["student"]), "--data", str(path),
                     "--out", str(tmp_path / "out.csv"), "--quiet"]) == EXIT_DATA
        assert_one_error_line(capsys, "line 5: b: out-of-order timestamp 50 after 100")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("text", ["", HEADER + "\n"], ids=["empty", "header-only"])
    def test_no_records_writes_no_rows_and_an_empty_state(self, corpus, tmp_path, text):
        _, ckpts = corpus
        data, out, state = tmp_path / "in.csv", tmp_path / "out.csv", tmp_path / "state.json"
        data.write_text(text)
        assert main(["score", "--checkpoint", str(ckpts["student"]), "--data", str(data),
                     "--out", str(out), "--state-out", str(state), "--quiet"]) == EXIT_OK
        assert out.read_text() == ""
        saved = json.loads(state.read_text())
        assert saved["students"] == {} and saved["h"] == saved["c"] == ""


NOT_UTF8 = f"{HEADER}\ns1,1,material,L,T,,0\n".encode() + b"\xff\xfe,2,material,L,T,,0\n"


class TestNotUtf8Log:
    """A log that is not UTF-8 is a data error, named in one message line."""

    @pytest.mark.parametrize("command", sorted(set(REQUIRED) - {"generate"}))
    def test_every_log_reading_command(self, corpus, tmp_path, capsys, command):
        _, ckpts = corpus
        log = tmp_path / "bad.csv"
        log.write_bytes(NOT_UTF8)
        paths = {"a.csv": str(log), "m.ckpt": str(ckpts["student"]),
                 "b.csv": str(tmp_path / "b.csv"), "out": str(tmp_path / "out")}
        argv = [paths.get(arg, arg) for arg in REQUIRED[command]]
        assert main([command, *argv, "--quiet"]) == EXIT_DATA
        assert_one_error_line(capsys, f"{log}: not UTF-8 text")

    def test_score_from_stdin(self, corpus, monkeypatch, capsys):
        _, ckpts = corpus
        raw = io.BytesIO(NOT_UTF8)
        raw.name = "<stdin>"
        # the stream a C locale gives: undecodable bytes pass as surrogates
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            raw, encoding="utf-8", errors="surrogateescape"))
        assert main(["score", "--checkpoint", str(ckpts["student"]), "--data", "-",
                     "--quiet"]) == EXIT_DATA
        assert_one_error_line(capsys, "<stdin>: not UTF-8 text")


@pytest.mark.parametrize("command", ["evaluate", "score"])
def test_non_finite_checkpoint_is_a_data_error(corpus, tmp_path, capsys, command):
    data, _ = corpus
    params = init_params(0, hidden_size=8)
    params.lstm_W[3, 5] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(params, ckpt)
    paths = {"a.csv": str(data), "m.ckpt": str(ckpt), "out": str(tmp_path / "out")}
    argv = [paths.get(arg, arg) for arg in REQUIRED[command]]
    assert main([command, *argv, "--quiet"]) == EXIT_DATA
    assert_one_error_line(capsys, f"{ckpt}: non-finite value in lstm_W")


def expected_report(ckpt, data, level):
    """The ``report.csv`` text of ``ckpt`` over every student of ``data`` at
    ``level`` and the default UTC offset, computed from the library."""
    labeled = _load_labeled(str(data))
    seqs = [labeled[sid] for sid in sorted(labeled)]
    params, _ = load_checkpoint(ckpt)
    with ThreadPoolExecutor(1) as pool:
        probs = score_sequences(params, prepare_sequences(seqs, level), pool)
    rows, _ = compute_report(scored_sessions(seqs, probs))
    return "metric,stratum,value\n" + "".join(f"{metric},{stratum},{value!r}\n"
                                               for metric, stratum, value in rows)


class TestModelRecord:
    """``evaluate`` and ``score`` take the level, the UTC offset and the
    student split from the checkpoint that ``train`` wrote."""

    @pytest.mark.parametrize("level", LEVELS)
    def test_stored_split_equals_split_students(self, trained, level):
        data, ckpts = trained
        _, record = load_checkpoint(ckpts[level])
        split = split_students(_load_labeled(str(data)), 0)
        assert record == {"level": level, "utc_offset_minutes": 60,
                          "split": dataclasses.asdict(split)}
        assert [len(ids) for ids in record["split"].values()] == [4, 32, 4]

    @pytest.mark.parametrize("change", ["none", "trained_student_dropped", "new_student"])
    def test_test_part_scores_no_trained_student(self, trained, tmp_path, change):
        data, ckpts = trained
        split = load_checkpoint(ckpts["student"])[1]["split"]
        header, *records = data.read_text().splitlines(keepends=True)
        if change == "trained_student_dropped":
            records = [r for r in records if r.split(",")[0] != split["train"][0]]
        if change == "new_student":  # in the log, in no part of the split
            records += [r.replace(split["test"][0], "new", 1) for r in records
                        if r.startswith(split["test"][0] + ",")]
        log, dump = tmp_path / "log.csv", tmp_path / "scores.csv"
        log.write_text(header + "".join(records))
        assert main(["evaluate", "--checkpoint", str(ckpts["student"]), "--data", str(log),
                     "--out", str(tmp_path / "eval"), "--split-part", "test",
                     "--dump-scores", str(dump), "--quiet"]) == EXIT_OK
        scored = sorted(probs_by_student(dump.read_text().splitlines()[1:], 2))
        assert scored == split["test"]
        assert not set(scored) & {*split["train"], *split["validation"]}
        if change == "trained_student_dropped":
            # the test part of a split of this log would hold trained students
            reseeded = split_students(_load_labeled(str(log)), 0).test
            assert set(reseeded) & set(split["train"])

    @pytest.mark.parametrize("part", ["test", "train"])
    def test_listed_student_missing_from_the_log(self, trained, tmp_path, capsys, part):
        data, ckpts = trained
        split = load_checkpoint(ckpts["student"])[1]["split"]
        header, *records = data.read_text().splitlines(keepends=True)
        log = tmp_path / "log.csv"
        log.write_text(header + "".join(r for r in records
                                        if r.split(",")[0] != split[part][0]))
        assert main(["evaluate", "--checkpoint", str(ckpts["student"]), "--data", str(log),
                     "--out", str(tmp_path / "eval"), "--split-part", part]) == EXIT_DATA
        assert_one_error_line(capsys, f"{log} lacks 1 of the {len(split[part])} {part} ids "
                                      "of the model")
        assert list((tmp_path / "eval").iterdir()) == []

    def test_session_model_needs_no_level_flag(self, trained, tmp_path):
        """The report of a session-level model, evaluated with no flag but
        its checkpoint, is the session-level report."""
        data, ckpts = trained
        out = tmp_path / "eval"
        assert main(["evaluate", "--checkpoint", str(ckpts["session"]), "--data", str(data),
                     "--out", str(out), "--quiet"]) == EXIT_OK
        report = (out / "report.csv").read_text()
        assert report == expected_report(ckpts["session"], data, "session")
        assert report != expected_report(ckpts["session"], data, "student")

    @pytest.mark.parametrize("command", ["evaluate", "score"])
    def test_eos1_checkpoint_is_one_error_line(self, corpus, tmp_path, capsys, command):
        data, ckpts = corpus
        blob = ckpts["student"].read_bytes()
        record = json.dumps(UNTRAINED_RECORD, sort_keys=True).encode()
        old = tmp_path / "old.ckpt"
        old.write_bytes(b"EOS1" + blob[4:-len(record)])
        paths = {"a.csv": str(data), "m.ckpt": str(old), "out": str(tmp_path / "out")}
        assert main([command, *(paths.get(arg, arg) for arg in REQUIRED[command]),
                     "--quiet"]) == EXIT_DATA
        assert_one_error_line(capsys, f"{old}: an EOS1 checkpoint, from before the model "
                                      "record; retrain")

    @pytest.mark.parametrize("command", ["evaluate", "score"])
    def test_bad_record_is_one_error_line(self, corpus, tmp_path, capsys, command):
        data, _ = corpus
        ckpt = untrained(tmp_path / "m.ckpt", level="both")
        paths = {"a.csv": str(data), "m.ckpt": str(ckpt), "out": str(tmp_path / "out")}
        assert main([command, *(paths.get(arg, arg) for arg in REQUIRED[command]),
                     "--quiet"]) == EXIT_DATA
        assert_one_error_line(capsys, f"{ckpt}: bad model record: level 'both'")


def forbid(*_args, **_kwargs):
    raise AssertionError("the run read or wrote a file before checking its outputs")


class TestOutputsCheckedFirst:
    """An output that cannot be written ends the run with one error line
    that names it, before any input is read or any file is written."""

    @pytest.fixture(autouse=True)
    def _no_work(self, monkeypatch):
        for owner, name in ((cli, "_load_labeled"), (cli, "_load_model"),
                            (ingest, "parse_log_file"), (synthgen, "generate"),
                            (fileio, "atomic_write_text"), (fileio, "atomic_write_bytes"),
                            (fileio, "write_manifest")):
            monkeypatch.setattr(owner, name, forbid)

    @pytest.mark.parametrize("command, flag", [
        ("sessionize", "--out"), ("featurize", "--out"), ("report", "--out"),
        ("score", "--out"), ("score", "--state-out"), ("evaluate", "--dump-scores")])
    @pytest.mark.parametrize("where", ["missing_dir", "directory", "fifo"])
    def test_unwritable_file(self, corpus, tmp_path, capsys, command, flag, where):
        data, ckpts = corpus
        target = {"missing_dir": tmp_path / "missing_dir" / "x.csv",
                  "directory": tmp_path, "fifo": tmp_path / "fifo"}[where]
        if where == "fifo":
            os.mkfifo(target)
        ckpt = str(ckpts["student"])
        inputs = {"evaluate": ["--checkpoint", ckpt, "--out", str(tmp_path / "eval")],
                  "score": ["--checkpoint", ckpt]}.get(command, [])
        assert main([command, "--data", str(data), *inputs, flag, str(target)]) == EXIT_DATA
        assert_one_error_line(capsys, f"cannot write {target}: ")
        left = [path for path in tmp_path.rglob("*") if not path.is_dir()]
        assert left == ([target] if where == "fifo" else [])
        assert where != "fifo" or target.is_fifo()

    @pytest.mark.parametrize("command, flags, named", [
        ("score", ["--out", "{tmp}/s.txt", "--state-out", "{tmp}/s.txt"], "{tmp}/s.txt"),
        ("score", ["--out", "{tmp}/s.txt", "--state-out", "{tmp}/./s.txt"], "{tmp}/./s.txt"),
        ("score", ["--out", "{tmp}/link/s.txt", "--state-out", "{tmp}/real/s.txt"],
         "{tmp}/real/s.txt"),
        ("evaluate", ["--out", "{tmp}/ev", "--dump-scores", "{tmp}/ev/report.csv"],
         "{tmp}/ev/report.csv"),
        ("evaluate", ["--out", "{tmp}/ev", "--dump-scores", "{tmp}/ev/trajectory.csv"],
         "{tmp}/ev/trajectory.csv"),
        ("evaluate", ["--out", "{tmp}/ev", "--dump-scores", "{tmp}/ev/manifest.json"],
         "{tmp}/ev/manifest.json"),
        ("evaluate", ["--out", "{tmp}/real", "--dump-scores", "{tmp}/link/report.csv"],
         "{tmp}/link/report.csv"),
    ])
    def test_two_outputs_name_one_file(self, corpus, tmp_path, capsys, command, flags, named):
        data, ckpts = corpus
        (tmp_path / "real").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "real", target_is_directory=True)
        flags = [flag.format(tmp=tmp_path) for flag in flags]
        assert main([command, "--checkpoint", str(ckpts["student"]), "--data", str(data),
                     *flags]) == EXIT_DATA
        assert_one_error_line(capsys, f"cannot write {named.format(tmp=tmp_path)}: ")
        assert [path for path in tmp_path.rglob("*") if not path.is_dir()] == []

    @pytest.mark.parametrize("command, name", [("generate", "actions.csv"),
                                               ("train", "model.ckpt")])
    def test_fifo_in_out(self, corpus, tmp_path, capsys, command, name):
        data, _ = corpus
        fifo = tmp_path / name
        os.mkfifo(fifo)
        argv = {"generate": ["generate"], "train": ["train", "--data", str(data)]}[command]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_DATA
        assert_one_error_line(capsys, f"cannot write {fifo}: ")
        assert fifo.is_fifo() and list(tmp_path.iterdir()) == [fifo]

    @pytest.mark.parametrize("command", ["generate", "train", "evaluate"])
    def test_out_is_a_file(self, corpus, tmp_path, capsys, command):
        data, ckpts = corpus
        out = tmp_path / "taken"
        out.write_text("kept\n")
        argv = {"generate": ["generate", "--out", str(out)],
                "train": ["train", "--data", str(data), "--out", str(out)],
                "evaluate": ["evaluate", "--checkpoint", str(ckpts["student"]), "--data", str(data),
                             "--out", str(out)]}[command]
        assert main(argv) == EXIT_DATA
        assert_one_error_line(capsys, str(out))
        assert out.read_text() == "kept\n" and list(tmp_path.iterdir()) == [out]


def decode_matrix(saved, key):
    """A writable copy of the (N, H) float64 matrix a v3 state stores under key."""
    raw = base64.b64decode(saved[key])
    return np.frombuffer(raw, dtype="<f8").reshape(len(saved["students"]), -1).copy()


def encode_matrix(matrix):
    return base64.b64encode(np.asarray(matrix, dtype="<f8").tobytes()).decode("ascii")


class TestScoreStateIn:
    @pytest.fixture(autouse=True)
    def _inputs(self, corpus, halves, tmp_path):
        self.data, self.ckpts = corpus
        self.first, self.second = halves
        self.tmp = tmp_path

    def _score(self, data, out, *extra, ckpt=None):
        """Score with ``ckpt``, by default the student-level checkpoint."""
        return main(["score", "--checkpoint", str(ckpt or self.ckpts["student"]),
                     "--data", str(data), "--out", str(out), "--quiet", *extra])

    def _save_state(self, *extra, ckpt=None):
        state = self.tmp / "state.json"
        assert self._score(self.first, self.tmp / "first.csv",
                           "--state-out", str(state), *extra, ckpt=ckpt) == EXIT_OK
        return state

    def _rewrite(self, edit):
        saved = json.loads(self._save_state().read_text())
        edit(saved)
        path = self.tmp / "edited.json"
        path.write_text(json.dumps(saved))
        return path

    def _assert_data_error(self, capsys, state_in, match):
        assert self._score(self.second, self.tmp / "second.csv",
                           "--state-in", str(state_in)) == EXIT_DATA
        assert_one_error_line(capsys, match)

    @pytest.mark.parametrize("level", LEVELS)
    def test_resumed_run_equals_one_pass(self, level):
        ckpt = self.ckpts[level]
        state = self._save_state(ckpt=ckpt)
        assert self._score(self.second, self.tmp / "second.csv", "--state-in", str(state),
                           ckpt=ckpt) == EXIT_OK
        assert self._score(self.data, self.tmp / "all.csv", ckpt=ckpt) == EXIT_OK
        resumed = ((self.tmp / "first.csv").read_text()
                   + (self.tmp / "second.csv").read_text())
        assert resumed == (self.tmp / "all.csv").read_text()

    def test_record_earlier_than_the_saved_last_timestamp(self, capsys):
        """A student's first record of the input is out of order when it is
        earlier than the ``last_timestamp`` of its ``--state-in`` history;
        the fault names its line, and nothing is written."""
        state = self._save_state()
        students = json.loads(state.read_text())["students"]
        (on_time, before), (late, history) = list(students.items())[:2]
        ts = history["last_timestamp"] - 1
        path = self.tmp / "late.csv"
        path.write_text("\n".join([HEADER, f"{on_time},{before['last_timestamp']},material,L,T,,0",
                                   f"{late},{ts},material,L,T,,0"]) + "\n")
        out, state_out = self.tmp / "late-rows.csv", self.tmp / "late-state.json"
        assert self._score(path, out, "--state-in", str(state),
                           "--state-out", str(state_out)) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: line 3: {late}: out-of-order timestamp {ts} after {ts + 1}\n")
        assert not out.exists() and not state_out.exists()

    def test_state_in_may_be_state_out(self):
        """Resuming a state and saving over it is one run's input and output,
        not two outputs, so it is allowed."""
        state = self._save_state()
        assert self._score(self.second, self.tmp / "second.csv", "--state-in", str(state),
                           "--state-out", str(state)) == EXIT_OK
        whole = self.tmp / "whole.json"
        assert self._score(self.data, self.tmp / "all.csv", "--state-out", str(whole)) == EXIT_OK
        assert state.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("level", LEVELS)
    def test_resumed_run_without_a_new_student_equals_one_pass(self, level):
        """The log in time order, cut where its last student first appears:
        the second part only updates rows loaded from the state."""
        header, *records = self.data.read_text().splitlines(keepends=True)
        records.sort(key=lambda record: int(record.split(",")[1]))
        ids = [record.split(",")[0] for record in records]
        cut = max(ids.index(sid) for sid in set(ids)) + 1
        assert len(set(ids[cut:])) > 1
        parts = {"first.csv": header + "".join(records[:cut]),
                 "second.csv": "".join(records[cut:]),
                 "whole.csv": header + "".join(records)}
        for name, text in parts.items():
            (self.tmp / name).write_text(text)
        state = str(self.tmp / "state.json")
        for name, flags in (("first", ["--state-out", state]),
                            ("second", ["--state-in", state]), ("whole", [])):
            assert self._score(self.tmp / f"{name}.csv", self.tmp / f"{name}.out", *flags,
                               ckpt=self.ckpts[level]) == EXIT_OK
        resumed = (self.tmp / "first.out").read_text() + (self.tmp / "second.out").read_text()
        assert resumed == (self.tmp / "whole.out").read_text()

    def test_state_holds_offset_once_and_only_history_per_student(self):
        ckpt = untrained(self.tmp / "utc0.ckpt", utc_offset_minutes=0)
        saved = json.loads(self._save_state(ckpt=ckpt).read_text())
        assert list(saved) == ["version", "level", "utc_offset_minutes", "students",
                               "h", "c"]
        assert saved["version"] == 3 and saved["utc_offset_minutes"] == 0
        assert saved["students"] and list(saved["students"]) == sorted(saved["students"])
        for history in saved["students"].values():
            assert sorted(history) == [
                "last_lesson", "last_timestamp", "last_topic", "session_gap_value"]
        for key in ("h", "c"):
            assert decode_matrix(saved, key).shape == (len(saved["students"]), 8)

    def test_header_only_log_rewrites_state_byte_for_byte(self):
        state = self._save_state()
        header_only = self.tmp / "header.csv"
        header_only.write_text(HEADER + "\n")
        again = self.tmp / "again.json"
        assert self._score(header_only, self.tmp / "none.csv", "--state-in", str(state),
                           "--state-out", str(again)) == EXIT_OK
        assert (self.tmp / "none.csv").read_text() == ""
        assert again.read_bytes() == state.read_bytes()

    def test_int_session_gap_value_passes_through(self):
        """A history's int ``session_gap_value`` is saved as it was read
        until a session start replaces it: for a student without records
        and for one whose records start no session."""
        state = self.tmp / "int.json"
        state.write_text(json.dumps({
            "version": 3, "level": "student", "utc_offset_minutes": 60,
            "students": {sid: {"last_timestamp": 1000, "last_lesson": "L",
                               "last_topic": "T", "session_gap_value": value}
                         for sid, value in (("a", 0), ("b", 1), ("c", 1))},
            "h": encode_matrix(np.zeros((3, 8))), "c": encode_matrix(np.zeros((3, 8)))}))
        log = self.tmp / "log.csv"
        log.write_text("\n".join([HEADER, "a,1010,material,L,T,,0", "a,1020,material,L,T,,0",
                                  "c,9000,material,L,T,,0"]) + "\n")
        out = self.tmp / "state-out.json"
        assert self._score(log, self.tmp / "rows.csv", "--state-in", str(state),
                           "--state-out", str(out)) == EXIT_OK
        students = json.loads(out.read_text())["students"]
        assert [students[sid]["session_gap_value"] for sid in "abc"] == [
            0, 1, pytest.approx(np.log1p(8000) / np.log1p(30 * 86400), abs=1e-15)]
        assert '"session_gap_value": 0}' in out.read_text()
        assert '"session_gap_value": 1}' in out.read_text()
        assert students["a"]["last_timestamp"] == 1020
        assert isinstance(students["c"]["session_gap_value"], float)

    @pytest.mark.parametrize("level", LEVELS)
    def test_saved_rows_equal_forward_batch_bit_for_bit(self, level):
        saved = json.loads(self._save_state(ckpt=self.ckpts[level]).read_text())
        h, c = decode_matrix(saved, "h"), decode_matrix(saved, "c")
        labeled = _load_labeled(self.first)
        params, _ = load_checkpoint(self.ckpts[level])
        assert list(saved["students"]) == sorted(labeled)
        for k, sid in enumerate(saved["students"]):
            seq = prepare_sequences([labeled[sid]], level)[0]
            out = forward_batch(params, seq.features[:, None, :], seq.resets[:, None],
                                np.zeros((1, 8)), np.zeros((1, 8)))
            assert h[k].tobytes() == out.h[0].tobytes()
            assert c[k].tobytes() == out.c[0].tobytes()

    def test_offset_differs_from_saved(self, capsys):
        """A state is checked against the record of the checkpoint that
        resumes it: here one at another UTC offset."""
        state = self._save_state()
        ckpt = untrained(self.tmp / "utc0.ckpt", utc_offset_minutes=0)
        assert self._score(self.second, self.tmp / "second.csv", "--state-in", str(state),
                           ckpt=ckpt) == EXIT_DATA
        assert_one_error_line(
            capsys, f"{state}: state is for level 'student' at offset 60, checkpoint for "
                    "'student' at 0")

    def test_level_differs_from_saved(self, capsys):
        state = self._save_state(ckpt=self.ckpts["student"])
        assert self._score(self.second, self.tmp / "second.csv", "--state-in", str(state),
                           ckpt=self.ckpts["session"]) == EXIT_DATA
        assert_one_error_line(
            capsys, f"{state}: state is for level 'student' at offset 60, checkpoint for "
                    "'session' at 60")

    @pytest.mark.parametrize("value", ["60", True, None])
    def test_bad_saved_offset(self, capsys, value):
        def corrupt(saved):
            if value is None:
                del saved["utc_offset_minutes"]
            else:
                saved["utc_offset_minutes"] = value

        path = self._rewrite(corrupt)
        match = ("lacks key 'utc_offset_minutes'" if value is None
                 else "malformed scoring state: utc_offset_minutes")
        self._assert_data_error(capsys, path, match)

    @pytest.mark.parametrize("key", ["h", "c"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_activation(self, capsys, key, value):
        sid = None

        def corrupt(saved):
            nonlocal sid
            sid = list(saved["students"])[1]
            matrix = decode_matrix(saved, key)
            matrix[1:, 0] = value
            saved[key] = encode_matrix(matrix)

        self._assert_data_error(capsys, self._rewrite(corrupt),
                                f"state of {sid} has non-finite h or c")

    @pytest.mark.parametrize("key", ["h", "c"])
    @pytest.mark.parametrize("value", [
        "0.5", True, pytest.param([0.5] * 8, id="list"), "AAAAA",
        pytest.param("AAAA\nAAAA", id="newline")])
    def test_non_number_activation(self, capsys, key, value):
        def corrupt(saved):
            saved[key] = value

        self._assert_data_error(capsys, self._rewrite(corrupt),
                                f"{key} is not base64 of float64 values")

    def test_activation_beyond_float_range(self, capsys):
        def corrupt(saved):
            saved["h"] = 10 ** 400

        self._assert_data_error(capsys, self._rewrite(corrupt),
                                "h is not base64 of float64 values: not a string")

    @pytest.mark.parametrize("key, cut", [
        pytest.param("h", 1, id="h-one-value"), pytest.param("c", 8, id="c-one-row")])
    def test_wrong_byte_count(self, capsys, key, cut):
        match = None

        def corrupt(saved):
            nonlocal match
            matrix = decode_matrix(saved, key).ravel()
            n_rows = len(saved["students"])
            match = (f"{key} has {8 * (matrix.size - cut)} bytes, "
                     f"not {n_rows} rows x 8 x 8 = {8 * matrix.size}")
            saved[key] = encode_matrix(matrix[:-cut])

        self._assert_data_error(capsys, self._rewrite(corrupt), match)

    def test_corrupt_json(self, capsys):
        path = self.tmp / "corrupt.json"
        path.write_text('{"version": 1, "level": "stu')
        self._assert_data_error(capsys, path, "not a scoring state")

    def test_missing_key(self, capsys):
        path = self._rewrite(lambda saved: saved.pop("students"))
        self._assert_data_error(capsys, path, "lacks key 'students'")

    def test_unsupported_version(self, capsys):
        path = self._rewrite(lambda saved: saved.update(version=1))
        self._assert_data_error(capsys, path, "version 1")

    def test_version_2_is_refused(self, capsys):
        def to_version_2(saved):
            h, c = decode_matrix(saved, "h"), decode_matrix(saved, "c")
            saved["version"] = 2
            saved["students"] = {
                sid: {"featurizer": history, "h": h[k].tolist(), "c": c[k].tolist()}
                for k, (sid, history) in enumerate(saved["students"].items())}
            del saved["h"], saved["c"]

        self._assert_data_error(capsys, self._rewrite(to_version_2),
                                "version 2 is not supported (expected 3)")

    @pytest.mark.parametrize("key", ["h", "c"])
    def test_hidden_size_mismatch(self, capsys, key):
        def shrink(saved):
            saved[key] = encode_matrix(decode_matrix(saved, key)[:, :5])

        path = self._rewrite(shrink)
        self._assert_data_error(capsys, path, "hidden size is 8")

    @pytest.mark.parametrize("key, value", [
        ("last_timestamp", "abc"),
        ("last_timestamp", True),
        ("last_timestamp", 1.5),
        ("last_lesson", 7),
        ("last_topic", ["T1"]),
        ("session_gap_value", 1.5),
        ("session_gap_value", -0.1),
        ("session_gap_value", "0.5"),
        ("last_timestamp", -1),
        ("last_timestamp", 2**62),
    ])
    def test_bad_featurizer_field(self, capsys, key, value):
        def corrupt(saved):
            for history in saved["students"].values():
                history[key] = value

        path = self._rewrite(corrupt)
        self._assert_data_error(capsys, path, f"malformed scoring state: {key}")


@st.composite
def mutated(draw, blob):
    """``blob`` with one byte flipped, deleted or inserted, or cut short."""
    kind = draw(st.sampled_from(["flip", "delete", "insert", "truncate"]))
    at = draw(st.integers(0, len(blob) - (kind in ("flip", "delete"))))
    if kind == "flip":
        return blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1:]
    if kind == "delete":
        return blob[:at] + blob[at + 1:]
    if kind == "insert":
        return blob[:at] + bytes([draw(st.integers(0, 255))]) + blob[at:]
    return blob[:at]


class TestFuzz:
    """Byte mutations of a tiny log, an H=8 checkpoint that records a split
    and a v3 score state never end in a traceback: every command exits 0,
    or 2 with one stderr line."""

    @pytest.fixture(scope="class")
    def inputs(self, corpus, tmp_path_factory):
        """The log's first 3 records of each student scored into a state,
        and their next 3 records as the tiny log that resumes it."""
        data, _ = corpus
        header, *records = data.read_text().splitlines(keepends=True)
        by_student = {}
        for record in records:
            by_student.setdefault(record.split(",")[0], []).append(record)
        root = tmp_path_factory.mktemp("fuzz")
        split = dataclasses.asdict(split_students(by_student, 0))
        ckpt = untrained(root / "model.ckpt", split=split)
        prefix, log, state = root / "prefix.csv", root / "log.csv", root / "state.json"
        prefix.write_text(header + "".join(r for rs in by_student.values() for r in rs[:3]))
        log.write_text(header + "".join(r for rs in by_student.values() for r in rs[3:6]))
        assert main(["score", "--checkpoint", str(ckpt), "--data", str(prefix),
                     "--out", str(root / "prefix-out.csv"), "--state-out", str(state),
                     "--quiet"]) == EXIT_OK
        return {"log": log, "checkpoint": ckpt, "state": state}

    @staticmethod
    def readers(target, paths, out):
        """The argument lists of every command that reads ``target``."""
        log, ckpt, state = paths["log"], paths["checkpoint"], paths["state"]
        score = ["score", "--checkpoint", ckpt, "--data", log, "--out", f"{out}/s.csv"]
        by_input = {"state": [[*score, "--state-in", state]]}
        by_input["checkpoint"] = [
            ["evaluate", "--checkpoint", ckpt, "--data", log, "--out", f"{out}/e",
             "--dump-scores", f"{out}/e/dump.csv"],
            ["evaluate", "--checkpoint", ckpt, "--data", log, "--out", f"{out}/t",
             "--split-part", "test"],
            score, *by_input["state"]]
        by_input["log"] = [
            ["sessionize", "--data", log, "--out", f"{out}/sessions.csv"],
            ["featurize", "--data", log, "--out", f"{out}/features.csv"],
            ["report", "--data", log, "--out", f"{out}/report.txt"],
            *by_input["checkpoint"]]
        return by_input[target]

    @pytest.mark.parametrize("target", ["log", "checkpoint", "state"])
    def test_one_mutated_input(self, inputs, target):
        blob = inputs[target].read_bytes()

        @settings(max_examples=40, deadline=None, derandomize=True, database=None)
        @given(mutated(blob))
        def run(mutant):
            with tempfile.TemporaryDirectory() as tmp:
                paths = {name: str(path) for name, path in inputs.items()}
                paths[target] = f"{tmp}/{inputs[target].name}"
                Path(paths[target]).write_bytes(mutant)
                for argv in self.readers(target, paths, tmp):
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err):
                        code = main([*argv, "--quiet"])
                    assert code in (EXIT_OK, EXIT_DATA), (argv[0], err.getvalue())
                    if code != EXIT_OK:
                        assert err.getvalue().count("\n") == 1, err.getvalue()
                        assert err.getvalue().startswith("error: ")

        if target == "checkpoint":  # also flip bytes all over the record
            start = blob.rindex(b'{"level"')
            for at in range(start, len(blob), max(1, (len(blob) - start) // 8)):
                run = example(blob[:at] + bytes([blob[at] ^ 0x20]) + blob[at + 1:])(run)
        run()
