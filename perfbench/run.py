"""Benchmark of the eosnet pipeline: four workloads run through its CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload prepare|train|evaluate|stream|all \\
        --seed 1 --seconds 25 --trace 0|1

Every workload builds one corpus, ``eosnet generate --seed <seed>
--n-students 1024`` with each student's history cut to its first 200
actions, and then repeats its CLI calls until another repetition would
end more than half its own length past ``--seconds``.  Each CLI call runs ``eosnet.cli.main``
in a fresh child process (``child.py``) with the BLAS thread count pinned
in its environment, so its peak RSS is its own.  Every call's output is
checked; see ``check_*`` below and ``reference.py``.

``--trace 0`` reports the end-to-end metrics (medians over the run's
repetitions).  ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics of the traced ones (self seconds and
counts per repetition, see ``tracer.py``) together with the tracing
overhead against the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (CLI calls made), ``failed`` (calls that
exited non-zero, plus one for each repetition whose output check failed
although every call exited 0) and ``metrics``.  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")

BLAS_THREADS = 1       # steadier than 2 on a 2-vCPU machine
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
TRAIN_SEED = 0         # eosnet train --seed: the student split and the weights
CALL_TIMEOUT_S = 150
TOLERANCE = 1e-9       # absolute, on probabilities and feature values

END_TO_END = {
    "actions_per_s": "1/s",
    "chunk_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "net.forward_s": "s",
    "net.sigmoid_s": "s",
    "net.forward_calls": "count",
    "net.lane_steps_padded": "count",
    "net.backward_s": "s",
    "net.rmsprop_s": "s",
    "net.infer_step_s": "s",
    "net.lstm_step_s": "s",
    "net.infer_step_calls": "count",
    "net.checkpoint_load_s": "s",
    "training.batch_build_s": "s",
    "training.score_sequences_s": "s",
    "training.padding_efficiency": "ratio",
    "training.val_auc": "auc",
    "ingest.parse_s": "s",
    "ingest.records": "count",
    "ingest.parse_line_s": "s",
    "ingest.parse_line_calls": "count",
    "ingest.group_s": "s",
    "sessions.segment_s": "s",
    "sessions.sessions": "count",
    "features.featurize_s": "s",
    "features.push_s": "s",
    "features.push_calls": "count",
    "evaluation.report_s": "s",
    "evaluation.auc_calls": "count",
    "fileio.write_s": "s",
    "fileio.bytes_written": "bytes",
    "fileio.manifest_s": "s",
    "cli.self_s": "s",
    "score.state_bytes": "bytes",
    "process.startup_s": "s",
    "trace.overhead_pct": "%",
}


@dataclass
class Sizes:
    """Corpus and workload sizes; the tests shrink them."""

    n_students: int = 1024      # 16 full batches of score_sequences' 64
    max_history: int = 200      # actions kept per student, see cap_histories
    stream_actions: int = 8_000
    stream_calls: int = 16
    sample_students: int = 12
    setup_repeats: int = 3


@dataclass
class Call:
    """One finished child process."""

    wall_s: float
    rss_mb: float
    code: int
    trace: dict | None = None


@dataclass
class Rep:
    """One repetition of a workload's CLI calls, and what its check found."""

    calls: list[Call]
    actions: int
    traced: bool
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    val_auc: float | None = None
    state_bytes: int = 0

    @property
    def wall_s(self) -> float:
        return sum(call.wall_s for call in self.calls)

    @property
    def failed(self) -> int:
        bad_exits = sum(call.code != 0 for call in self.calls)
        return bad_exits or int(bool(self.errors))


def blas_threads() -> int:
    return min(BLAS_THREADS, os.cpu_count() or 1)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: str(blas_threads()) for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_cli(args: list[str], trace_path: str | None = None) -> Call:
    """Run ``eosnet <args>`` in a fresh process; time it from spawn to exit."""
    cmd = [sys.executable, CHILD]
    if trace_path is not None:
        cmd += ["--trace", trace_path]
    cmd += ["--", *args, "--quiet"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL)
    killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    trace = None
    if trace_path is not None and proc.returncode == 0:
        from tracer import layer_totals

        trace = layer_totals(trace_path)
    return Call(wall_s=wall, rss_mb=usage.ru_maxrss / 1024.0,
                code=proc.returncode, trace=trace)


def read_lines(path) -> list[str]:
    with open(path, encoding="utf-8") as handle:
        return handle.read().splitlines()


# ---------------------------------------------------------------------------
# set-up: corpus, checkpoint, stream chunks
# ---------------------------------------------------------------------------

class SetupError(Exception):
    pass


@dataclass
class Inputs:
    workdir: str
    actions_path: str
    checkpoint: str
    chunks: list[str]
    n_actions: int = 0
    by_student: dict = field(default_factory=dict)
    stream_counts: dict = field(default_factory=dict)
    sample: list[str] = field(default_factory=list)
    reference: dict = field(default_factory=dict)
    train_actions: int = 0


def stream_prefix(lines: list[str], sizes: Sizes) -> list[str]:
    """The first log lines in time order, cut to a whole number of calls.

    ``sorted`` is stable, so actions with equal timestamps keep their file
    order, which is each student's own order.
    """
    rows = sorted(lines, key=lambda line: int(line.split(",")[1]))
    per_call = min(sizes.stream_actions, len(rows)) // sizes.stream_calls
    return rows[:per_call * sizes.stream_calls]


def cap_histories(source: str, target: str, limit: int) -> None:
    """Copy a student-ordered log, keeping each student's first ``limit`` rows.

    ``generate`` lists each student's actions in time order, so these are
    the first ``limit`` actions of every history.  ``score_sequences``
    pads its last batch, the 64 longest students, to the longest history,
    which sets the size of the largest ``forward_batch`` buffers.  Uncapped,
    that length ranged from 220 to 540 actions over 35 seeds and moved
    ``evaluate``'s peak RSS by a third; each of those corpora had a history
    of at least 200 actions, so with the cap the buffer is 64 lanes by 200
    steps for each of them.
    """
    lines = read_lines(source)
    kept = [lines[0]]
    seen: dict[str, int] = {}
    for line in lines[1:]:
        sid = line.split(",", 1)[0]
        seen[sid] = seen.get(sid, 0) + 1
        if seen[sid] <= limit:
            kept.append(line)
    with open(target, "w", encoding="utf-8") as handle:
        handle.write("\n".join(kept) + "\n")


def set_up(workload: str, seed: int, sizes: Sizes, workdir: str) -> Inputs:
    """Build the inputs in an empty directory: the timed part of ``setup_s``."""
    from eosnet.net import init_params, save_checkpoint

    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    corpus = os.path.join(workdir, "corpus")
    inputs = Inputs(workdir=workdir,
                    actions_path=os.path.join(workdir, "actions.csv"),
                    checkpoint=os.path.join(workdir, "model.ckpt"), chunks=[])
    call = run_cli(["generate", "--seed", str(seed), "--n-students",
                    str(sizes.n_students), "--out", corpus])
    if call.code != 0:
        raise SetupError(f"set-up failed: generate exited {call.code}")
    cap_histories(os.path.join(corpus, "actions.csv"), inputs.actions_path,
                  sizes.max_history)
    if workload in ("evaluate", "stream"):
        save_checkpoint(init_params(seed), inputs.checkpoint)
    if workload == "stream":
        lines = read_lines(inputs.actions_path)
        rows = stream_prefix(lines[1:], sizes)
        per_call = len(rows) // sizes.stream_calls
        os.makedirs(os.path.join(workdir, "stream"))
        for k in range(sizes.stream_calls):
            path = os.path.join(workdir, "stream", f"chunk{k:03d}.csv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join([lines[0], *rows[k * per_call:(k + 1) * per_call]]) + "\n")
            inputs.chunks.append(path)
    return inputs


def corpus_digest(inputs: Inputs) -> str:
    digest = hashlib.sha256()
    for path in (inputs.actions_path, inputs.checkpoint, *inputs.chunks):
        if os.path.exists(path):
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def build_reference(inputs: Inputs, seed: int, sizes: Sizes) -> None:
    """Untimed: parse the corpus, pick the sample, compute the reference."""
    import reference
    from eosnet.net import init_params
    from eosnet.training import split_students

    lines, inputs.by_student = reference.read_log(inputs.actions_path)
    inputs.n_actions = len(lines)
    for line in stream_prefix(lines, sizes):
        sid = line.split(",", 1)[0]
        inputs.stream_counts[sid] = inputs.stream_counts.get(sid, 0) + 1
    live = sorted(inputs.stream_counts)
    step = max(1, len(live) // sizes.sample_students)
    inputs.sample = live[::step][:sizes.sample_students]
    weights = init_params(seed).arrays()
    for sid in inputs.sample:
        frames = reference.features(inputs.by_student[sid])
        inputs.reference[sid] = (frames, reference.probabilities(weights, frames))
    split = split_students(inputs.by_student, TRAIN_SEED)
    inputs.train_actions = sum(len(inputs.by_student[sid]) for sid in split.train)


# ---------------------------------------------------------------------------
# workloads: one repetition each, then its output check
# ---------------------------------------------------------------------------

def guarded(check, *args) -> list[str]:
    """Run an output check; output it cannot read is a failed check."""
    try:
        return check(*args)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"{check.__name__}: unreadable output ({exc!r})"]


def _trace_path(inputs: Inputs, name: str, traced: bool) -> str | None:
    return os.path.join(inputs.workdir, f"spans-{name}.npz") if traced else None


# One function per workload runs one repetition; its docstring says why
# the workload is in the benchmark.

def rep_prepare(inputs: Inputs, traced: bool) -> Rep:
    """sessionize, featurize and report on the student-ordered log: the only
    workload where ingest, sessions and features do most of the work and
    net none, so a change to net must leave it unchanged."""
    data = inputs.actions_path
    out = {name: os.path.join(inputs.workdir, name)
           for name in ("sessions.csv", "features.csv", "report.txt")}
    calls = [
        run_cli(["sessionize", "--data", data, "--out", out["sessions.csv"]],
                _trace_path(inputs, "sessionize", traced)),
        run_cli(["featurize", "--data", data, "--out", out["features.csv"]],
                _trace_path(inputs, "featurize", traced)),
        run_cli(["report", "--data", data, "--out", out["report.txt"]],
                _trace_path(inputs, "report", traced)),
    ]
    rep = Rep(calls=calls, actions=3 * inputs.n_actions, traced=traced)
    if not rep.failed:
        rep.errors = guarded(check_prepare, inputs, out)
    return rep


def check_prepare(inputs: Inputs, out: dict[str, str]) -> list[str]:
    import reference

    errors = []
    for name in ("sessions.csv", "features.csv"):
        count = len(read_lines(out[name]))
        if count != inputs.n_actions + 1:
            errors.append(f"{name}: {count} lines, expected {inputs.n_actions + 1}")
    report = dict(line.split(",", 1) for line in read_lines(out["report.txt"]))
    if report.get("n_actions") != str(inputs.n_actions):
        errors.append(f"report n_actions {report.get('n_actions')}, "
                      f"generated {inputs.n_actions}")
    if errors:
        return errors
    rows = read_lines(out["features.csv"])[1:]
    start = {}
    offset = 0
    for sid in sorted(inputs.by_student):
        start[sid] = offset
        offset += len(inputs.by_student[sid])
    for sid in inputs.sample:
        frames, _ = inputs.reference[sid]
        got = [[float(v) for v in row.split(",")[:-1]]
               for row in rows[start[sid]:start[sid] + len(frames)]]
        errors += reference.mismatches(f"features of {sid}", got, frames, TOLERANCE)
    return errors


def rep_train(inputs: Inputs, traced: bool) -> Rep:
    """One student-level epoch at H=400 with validation scoring: the only
    workload that runs backward_batch, rmsprop_update and make_batches.
    Session level runs the same kernels, so it is left out."""
    out = os.path.join(inputs.workdir, "train")
    call = run_cli(["train", "--data", inputs.actions_path, "--out", out,
                    "--level", "student", "--max-epochs", "1",
                    "--patience", "none", "--seed", str(TRAIN_SEED)],
                   _trace_path(inputs, "train", traced))
    rep = Rep(calls=[call], actions=inputs.train_actions, traced=traced)
    if not rep.failed:
        rep.errors = guarded(check_train, out, rep)
    return rep


def check_train(out: str, rep: Rep) -> list[str]:
    from eosnet.errors import CheckpointError
    from eosnet.net import load_checkpoint

    epoch, loss, val_auc = read_lines(os.path.join(out, "history.csv"))[1].split(",")
    loss, val_auc = float(loss), float(val_auc)
    rep.val_auc = val_auc
    errors = []
    if not math.isfinite(loss):
        errors.append(f"train loss {loss!r} is not finite")
    if not (math.isfinite(val_auc) and val_auc > 0.5):
        errors.append(f"val_auc {val_auc!r} is not a finite value above 0.5")
    try:
        load_checkpoint(os.path.join(out, "model.ckpt"))
    except (CheckpointError, OSError) as exc:
        errors.append(f"trained checkpoint does not load: {exc}")
    return errors


def rep_evaluate(inputs: Inputs, traced: bool) -> Rep:
    """Batched inference over every action (score_sequences -> forward_batch,
    no backward pass), padding and the stratified AUC report.  The weights
    are an untrained checkpoint: the cost does not depend on their values."""
    scores = os.path.join(inputs.workdir, "scores.csv")
    call = run_cli(["evaluate", "--checkpoint", inputs.checkpoint,
                    "--data", inputs.actions_path,
                    "--out", os.path.join(inputs.workdir, "evaluate"),
                    "--split-part", "all", "--dump-scores", scores],
                   _trace_path(inputs, "evaluate", traced))
    rep = Rep(calls=[call], actions=inputs.n_actions, traced=traced)
    if not rep.failed:
        rep.errors = guarded(check_scores, inputs, read_lines(scores)[1:],
                             inputs.n_actions, False, rep)
    return rep


# Under numpy >= 2, ``evaluate --dump-scores`` writes ``repr`` of a numpy
# scalar, ``np.float64(0.25)``, where the row format has a float literal.
# The value inside is still compared with the reference; the wrapper is
# reported as a known defect on every run rather than failing it.
NUMPY_SCALAR = "np.float64("


def check_scores(inputs: Inputs, rows: list[str], expected_rows: int,
                 prefix: bool, rep: Rep) -> list[str]:
    """Rows ``student_id,timestamp,prob[,label]`` against the reference.

    With ``prefix`` the rows are streamed scores, which cover only the
    part of each student's history that the stream replays.
    """
    import reference

    if len(rows) != expected_rows:
        return [f"{len(rows)} score rows, expected {expected_rows}"]
    probs: dict[str, list[float]] = {sid: [] for sid in inputs.sample}
    stamps: dict[str, list[int]] = {sid: [] for sid in inputs.sample}
    wrapped = 0
    for row in rows:
        sid, ts, prob = row.split(",")[:3]
        if prob.startswith(NUMPY_SCALAR) and prob.endswith(")"):
            prob = prob[len(NUMPY_SCALAR):-1]
            wrapped += 1
        if sid in probs:
            probs[sid].append(float(prob))
            stamps[sid].append(int(ts))
    if wrapped:
        rep.notes.append(f"known defect: {wrapped} of {len(rows)} score rows write "
                         f"the probability as {NUMPY_SCALAR}...), not a float literal")
    errors = []
    for sid in inputs.sample:
        want = inputs.reference[sid][1]
        n = inputs.stream_counts[sid] if prefix else len(want)
        history = [action[0] for action in inputs.by_student[sid][:n]]
        if stamps[sid] != history:
            errors.append(f"score rows of {sid} are not its actions in time order")
        errors += reference.mismatches(f"probabilities of {sid}", probs[sid],
                                       want[:n], TOLERANCE)
    return errors


def rep_stream(inputs: Inputs, traced: bool) -> Rep:
    """The log's first actions in time order, replayed as chained score
    calls of equal size.  Time order keeps hundreds of students live at
    once, as a batched stream engine would need to show a gain, and every
    call reads and writes the JSON state of all of them."""
    calls = []
    outputs = []
    state_in = None
    for k, chunk in enumerate(inputs.chunks):
        out = os.path.join(inputs.workdir, "stream", f"scores{k:03d}.csv")
        state_out = os.path.join(inputs.workdir, "stream", f"state{k:03d}.json")
        args = ["score", "--checkpoint", inputs.checkpoint, "--data", chunk,
                "--out", out, "--state-out", state_out]
        if state_in is not None:
            args += ["--state-in", state_in]
        calls.append(run_cli(args, _trace_path(inputs, f"score{k:03d}", traced)))
        if calls[-1].code != 0:
            break
        outputs.append(out)
        state_in = state_out
    n_rows = sum(inputs.stream_counts.values())
    rep = Rep(calls=calls, actions=n_rows, traced=traced)
    if not rep.failed:
        rows = [row for out in outputs for row in read_lines(out)]
        rep.errors = guarded(check_scores, inputs, rows, n_rows, True, rep)
        rep.state_bytes = os.path.getsize(state_in)
    return rep


REPS = {
    "prepare": rep_prepare,
    "train": rep_train,
    "evaluate": rep_evaluate,
    "stream": rep_stream,
}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(workload: str, reps: list[Rep], setup_times: list[float]) -> dict:
    if workload == "stream":
        chunks = [call.wall_s for rep in reps for call in rep.calls]
    else:
        chunks = [rep.wall_s for rep in reps]
    return {
        "actions_per_s": statistics.median(rep.actions / rep.wall_s for rep in reps),
        "chunk_p50_ms": 1000.0 * statistics.median(chunks),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in rep.calls) for rep in reps),
        "setup_s": statistics.median(setup_times),
    }


def per_layer(traced: list[Rep], untraced: list[Rep]) -> dict:
    """Per-layer metrics per traced repetition (sums over its calls)."""
    totals: dict[str, float] = {}
    for rep in traced:
        for call in rep.calls:
            for key, value in call.trace.items():
                totals[key] = totals.get(key, 0) + value
    n = len(traced)
    walls = sum(rep.wall_s for rep in traced)

    def total(key):
        return totals.get(key, 0) / n

    metrics = {name: total(name) for name in PER_LAYER}
    metrics["cli.self_s"] = total("cli_s")
    padded = totals.get("net.lane_steps_padded", 0)
    metrics["training.padding_efficiency"] = (
        totals.get("training.lane_steps_real", 0) / padded if padded else 0.0)
    aucs = [rep.val_auc for rep in traced if rep.val_auc is not None]
    metrics["training.val_auc"] = statistics.median(aucs) if aucs else 0.0
    metrics["score.state_bytes"] = traced[-1].state_bytes
    metrics["process.startup_s"] = (walls - totals.get("root_s", 0)) / n
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(rep.wall_s for rep in traced)
        / statistics.median(rep.wall_s for rep in untraced) - 1.0)
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def environment(seed: int, sizes: Sizes) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "seed": seed,
        "n_students": sizes.n_students,
        "max_history": sizes.max_history,
    }


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    correct: bool
    lines: list[str]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes | None = None) -> Outcome:
    sizes = sizes or Sizes()
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    setup_times = []
    digests = set()
    for repeat in range(sizes.setup_repeats):
        start = time.perf_counter()
        try:
            inputs = set_up(workload, seed, sizes, workdir)
        except SetupError as exc:
            return Outcome({}, repeat + 1, 1, False, [str(exc)])
        setup_times.append(time.perf_counter() - start)
        digests.add(corpus_digest(inputs))
    if len(digests) != 1:
        return Outcome({}, sizes.setup_repeats, 1, False,
                       ["set-up is not deterministic: the inputs differ between repeats"])
    build_reference(inputs, seed, sizes)
    lines = []

    rep_fn = REPS[workload]
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        reps.append(rep_fn(inputs, traced=False))
        if trace:
            reps.append(rep_fn(inputs, traced=True))
        # Stop when the next round would overshoot by more than half of
        # itself, so a run lasts about ``seconds`` and a workload whose
        # round takes half of that still gets two.
        now = time.perf_counter()
        if (now - start) + (now - round_start) / 2 > seconds:
            break

    attempted = sum(len(rep.calls) for rep in reps)
    failed = sum(rep.failed for rep in reps)
    lines += sorted({note for rep in reps for note in rep.notes})
    for rep in reps:
        lines += [f"check failed: {error}" for error in rep.errors]
        lines += [f"check failed: exit code {call.code}" for call in rep.calls
                  if call.code != 0]
    if failed:
        return Outcome({}, attempted, failed, False, lines)
    if trace:
        metrics = per_layer([r for r in reps if r.traced], [r for r in reps if not r.traced])
        units = PER_LAYER
    else:
        metrics = end_to_end(workload, reps, setup_times)
        units = END_TO_END
    val_aucs = [rep.val_auc for rep in reps if rep.val_auc is not None]
    if val_aucs:
        lines.append(f"{workload} val_auc {statistics.median(val_aucs)!r} auc")
    lines += [f"{workload} {name} {metrics[name]!r} {unit}" for name, unit in units.items()]
    lines.append(f"{workload} repetitions {len(reps)}, CLI calls {attempted}, failed {failed}")
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    return Outcome(metrics, attempted, failed, True, lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*REPS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "eosnet", "cli.py")):
        print(f"error: no eosnet sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({var: str(blas_threads()) for var in THREAD_VARS})
    sys.path.insert(0, SRC)

    sizes = Sizes()
    print("environment " + json.dumps(environment(args.seed, sizes)))
    workloads = list(REPS) if args.workload == "all" else [args.workload]
    metrics = {}
    attempted = failed = 0
    correct = True
    for workload in workloads:
        outcome = run_workload(workload, args.seed, args.seconds, bool(args.trace), sizes)
        print("\n".join(outcome.lines), flush=True)
        attempted += outcome.attempted
        failed += outcome.failed
        correct = correct and outcome.correct
        if args.workload == "all":
            metrics.update({f"{workload}.{k}": v for k, v in outcome.metrics.items()})
        else:
            metrics = outcome.metrics
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
