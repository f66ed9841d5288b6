"""Command-line contract: outputs and exit codes of ``cli.main`` on a tiny
generated corpus with an H=8 checkpoint."""

import json

import pytest

from eosnet.cli import EXIT_DATA, EXIT_OK, main
from eosnet.net import init_params, save_checkpoint


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(["generate", "--out", str(root), "--n-students", "12",
                 "--seed", "3", "--quiet"]) == EXIT_OK
    ckpt = root / "model.ckpt"
    save_checkpoint(init_params(0, hidden_size=8), ckpt)
    return root / "actions.csv", ckpt


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


class TestEvaluate:
    def test_dump_scores_writes_float_literals(self, corpus, tmp_path):
        data, ckpt = corpus
        dump = tmp_path / "scores.csv"
        assert main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(tmp_path / "eval"), "--split-part", "all",
                     "--dump-scores", str(dump), "--quiet"]) == EXIT_OK
        header, *rows = dump.read_text().splitlines()
        assert header == "student_id,timestamp,prob,label"
        assert len(rows) == len(data.read_text().splitlines()) - 1
        for row in rows:
            prob = row.split(",")[2]
            assert not prob.startswith("np.")
            assert 0.0 < float(prob) < 1.0


class TestScoreStateIn:
    @pytest.fixture(autouse=True)
    def _inputs(self, corpus, halves, tmp_path):
        self.data, self.ckpt = corpus
        self.first, self.second = halves
        self.tmp = tmp_path

    def _score(self, data, out, *extra):
        return main(["score", "--checkpoint", str(self.ckpt), "--data", str(data),
                     "--out", str(out), "--quiet", *extra])

    def _save_state(self):
        state = self.tmp / "state.json"
        assert self._score(self.first, self.tmp / "first.csv",
                           "--state-out", str(state)) == EXIT_OK
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
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert match in err

    def test_resumed_run_equals_one_pass(self):
        assert self._score(self.second, self.tmp / "second.csv",
                           "--state-in", str(self._save_state())) == EXIT_OK
        assert self._score(self.data, self.tmp / "all.csv") == EXIT_OK
        resumed = ((self.tmp / "first.csv").read_text()
                   + (self.tmp / "second.csv").read_text())
        assert resumed == (self.tmp / "all.csv").read_text()

    def test_corrupt_json(self, capsys):
        path = self.tmp / "corrupt.json"
        path.write_text('{"version": 1, "level": "stu')
        self._assert_data_error(capsys, path, "not a scoring state")

    def test_missing_key(self, capsys):
        path = self._rewrite(lambda saved: saved.pop("students"))
        self._assert_data_error(capsys, path, "lacks key 'students'")

    def test_unsupported_version(self, capsys):
        path = self._rewrite(lambda saved: saved.update(version=2))
        self._assert_data_error(capsys, path, "version 2")

    @pytest.mark.parametrize("key", ["h", "c"])
    def test_hidden_size_mismatch(self, capsys, key):
        def shrink(saved):
            entry = next(iter(saved["students"].values()))
            entry[key] = entry[key][:5]

        path = self._rewrite(shrink)
        self._assert_data_error(capsys, path, "hidden size is 8")
