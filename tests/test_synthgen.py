"""Synthetic generator: determinism, calibration, and structure."""

import dataclasses
import json

import numpy as np
import pytest

from eosnet.cli import EXIT_OK, main
from eosnet.ingest import ActionKind, format_action
from eosnet.sessions import HomeworkClass, segment
from eosnet.synthgen import GenConfig, _draw_profile, generate, summarize


def small_config(**overrides):
    defaults = dict(n_students=60, seed=7)
    defaults.update(overrides)
    return GenConfig(**defaults)


def sessions_of(log):
    """The log's actions cut into sessions at the lengths ``segment`` finds."""
    sessions, start = [], 0
    for length in segment(log):
        sessions.append(log.actions[start:start + length])
        start += length
    return sessions


def profile_multipliers(cfg: GenConfig) -> dict[str, float]:
    """Replay only the latent length multipliers, drawn as ``generate``
    draws them: one spawned substream per student, the profile first."""
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(cfg.n_students)
    out = {}
    for index in range(cfg.n_students):
        rng = np.random.default_rng(children[index])
        out[f"s{index:06d}"] = _draw_profile(rng, cfg).length_multiplier
    return out


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        a = generate(small_config())
        b = generate(small_config())
        text_a = [format_action(x) for lg in a for x in lg.actions]
        text_b = [format_action(x) for lg in b for x in lg.actions]
        assert text_a == text_b

    def test_different_seed_differs(self):
        a = generate(small_config())
        b = generate(small_config(seed=8))
        text_a = [format_action(x) for lg in a for x in lg.actions]
        text_b = [format_action(x) for lg in b for x in lg.actions]
        assert text_a != text_b


class TestStructure:
    def test_all_homework_config_gives_div5_lengths(self):
        logs = generate(small_config(homework_session_fraction=1.0,
                                     partly_fraction=0.0))
        for log in logs:
            for session in sessions_of(log):
                assert len(session) % 5 == 0
                assert all(a.homework for a in session)

    def test_sessionizer_recovers_generated_boundaries(self):
        logs = generate(small_config())
        for log in logs:
            sessions = sessions_of(log)
            # within-session gaps <= 900, between-session gaps > 900
            for session in sessions:
                ts = [a.timestamp for a in session]
                assert all(b - a <= 900 for a, b in zip(ts, ts[1:]))
            for prev, cur in zip(sessions, sessions[1:]):
                gap = cur[0].timestamp - prev[-1].timestamp
                assert gap > 900

    def test_partly_sessions_mix_flags(self):
        logs = generate(small_config(partly_fraction=1.0,
                                     homework_session_fraction=0.0))
        for log in logs:
            for session in sessions_of(log):
                flags = [a.homework for a in session]
                assert any(flags) and not all(flags)

    def test_valid_actions(self):
        logs = generate(small_config())
        for log in logs:
            previous = None
            for action in log.actions:
                assert action.timestamp >= 0
                if action.kind is not ActionKind.MATERIAL:
                    assert action.correct is not None
                else:
                    assert action.correct is None
                if previous is not None:
                    assert action.timestamp >= previous
                previous = action.timestamp


class TestCalibration:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate(GenConfig(n_students=1500, seed=42))

    def test_homework_fractions_near_targets(self, corpus):
        summary = summarize(corpus)
        assert summary.homework_fractions[HomeworkClass.ONLY] == pytest.approx(
            0.483, abs=0.03)
        assert summary.homework_fractions[HomeworkClass.PARTLY] == pytest.approx(
            0.255, abs=0.03)
        assert summary.homework_fractions[HomeworkClass.NONE] == pytest.approx(
            0.262, abs=0.03)

    def test_length_histogram_spikes_at_multiples_of_five(self, corpus):
        hist = summarize(corpus).session_length_hist
        for peak in (5, 10, 15, 20):
            assert hist[peak] > hist[peak - 1]
            assert hist[peak] > hist[peak + 1]

    def test_profile_induces_cross_session_length_correlation(self, corpus):
        multipliers = profile_multipliers(GenConfig(n_students=1500, seed=42))
        pairs = []
        for log in corpus:
            m = multipliers[log.student_id]
            for length in segment(log):
                pairs.append((m, length))
        values = np.array(pairs)
        # Spearman rank correlation, computed directly
        def ranks(x):
            order = np.argsort(x, kind="mergesort")
            r = np.empty(len(x))
            r[order] = np.arange(len(x))
            return r
        rx, ry = ranks(values[:, 0]), ranks(values[:, 1])
        rho = np.corrcoef(rx, ry)[0, 1]
        assert rho > 0.3

    def test_scale_near_desk_target(self, corpus):
        # default config is tuned to ~50 actions per student
        summary = summarize(corpus)
        mean_actions = summary.n_actions / summary.n_students
        assert 35 <= mean_actions <= 70


class TestConfigText:
    def test_one_line_per_field(self, tmp_path):
        """The generate manifest holds every GenConfig field as ``repr``."""
        assert main(["generate", "--out", str(tmp_path), "--n-students", "5",
                     "--quiet"]) == EXIT_OK
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        cfg = GenConfig(n_students=5)
        for f in dataclasses.fields(GenConfig):
            assert config[f.name] == repr(getattr(cfg, f.name))
        assert config["n_students"] == "5"
        assert config["sessions_log_sigma"] == "0.45"
        assert config["homework_length_choices"] == "(5, 10, 15, 20, 25)"
        assert config["accuracy_range"] == "(0.55, 0.95)"


class TestSummarize:
    def test_empty(self):
        summary = summarize([])
        assert summary.n_students == 0
        assert summary.n_sessions == 0
        assert summary.n_actions == 0
        assert summary.lines() == [
            "n_students,0", "n_sessions,0", "n_actions,0", "fraction_homework_only,0.0",
            "fraction_homework_partly,0.0", "fraction_homework_none,0.0"]

    def test_lines_schema(self):
        summary = summarize(generate(small_config(n_students=5)))
        lines = summary.lines()
        assert lines[0].startswith("n_students,")
        assert any(line.startswith("hist_session_length,") for line in lines)
        fractions = [line.split(",")[1] for line in lines
                     if line.startswith("fraction_homework_")]
        assert len(fractions) == 3
        assert all(repr(float(cell)) == cell for cell in fractions)
