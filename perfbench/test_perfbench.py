"""Tests of the benchmark itself, on a tiny corpus.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, run.SRC)

TINY = run.Sizes(n_students=40, stream_actions=300, stream_calls=3,
                 sample_students=3, setup_repeats=1)
SEED = 3

REPEATED_COUNTS = (
    "ingest.records", "sessions.sessions", "net.forward_calls",
    "net.lane_steps_padded", "net.infer_step_calls", "features.push_calls",
    "fileio.bytes_written", "score.state_bytes",
)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path / "work"))
    return tmp_path / "work"


@pytest.mark.parametrize("workload", sorted(run.REPS))
def test_counts_repeat_exactly(workload, workdir):
    first = run.run_workload(workload, SEED, 0.0, True, TINY)
    second = run.run_workload(workload, SEED, 0.0, True, TINY)
    assert first.correct and second.correct, first.lines + second.lines
    assert set(first.metrics) == set(run.PER_LAYER)
    for name in REPEATED_COUNTS:
        assert first.metrics[name] == second.metrics[name], name
    counts = {name: first.metrics[name]["value"] for name in REPEATED_COUNTS}
    if workload in ("train", "evaluate"):
        assert counts["net.forward_calls"] > 0 and counts["ingest.records"] > 0
    if workload == "stream":
        assert counts["net.infer_step_calls"] == 300
        assert counts["score.state_bytes"] > 0
    if workload == "prepare":
        assert counts["net.forward_calls"] == 0 and counts["sessions.sessions"] > 0


def test_untraced_run_reports_every_end_to_end_metric(workdir):
    outcome = run.run_workload("prepare", SEED, 0.0, False, TINY)
    assert outcome.correct and outcome.failed == 0
    assert set(outcome.metrics) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in outcome.metrics.values())


def test_benchmark_json_lists_what_the_runner_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.REPS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_set_up_caps_each_history(workdir):
    sizes = dataclasses.replace(TINY, max_history=20)
    inputs = run.set_up("prepare", SEED, sizes, str(workdir))
    run.build_reference(inputs, SEED, sizes)
    lengths = [len(actions) for actions in inputs.by_student.values()]
    assert len(lengths) == sizes.n_students
    assert max(lengths) == 20 and min(lengths) < 20


def test_perturbed_probability_fails_check(workdir):
    inputs = run.set_up("evaluate", SEED, TINY, str(workdir))
    run.build_reference(inputs, SEED, TINY)
    rep = run.rep_evaluate(inputs, traced=False)
    assert rep.failed == 0, rep.errors
    rows = run.read_lines(os.path.join(inputs.workdir, "scores.csv"))[1:]
    target = inputs.sample[0]
    index = next(i for i, row in enumerate(rows) if row.startswith(target + ","))
    sid, ts, prob, label = rows[index].split(",")
    value = float(prob.removeprefix(run.NUMPY_SCALAR).removesuffix(")"))
    rows[index] = f"{sid},{ts},{value + 1e-6!r},{label}"
    errors = run.check_scores(inputs, rows, len(rows), False, rep)
    assert errors and target in errors[0]


def test_tracer_removes_every_wrapper(workdir):
    sys.path.insert(0, run.SRC)
    import eosnet.net
    import eosnet.training
    from eosnet.features import StreamFeaturizer
    from tracer import Tracer

    original = eosnet.net.forward_batch
    push = StreamFeaturizer.push
    with pytest.raises(RuntimeError):
        with Tracer():
            assert eosnet.training.forward_batch is not original
            assert StreamFeaturizer.push is not push
            raise RuntimeError("stop")
    assert eosnet.net.forward_batch is original
    assert eosnet.training.forward_batch is original
    assert StreamFeaturizer.push is push


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prepare",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
