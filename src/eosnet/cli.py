"""Command-line entry point.

Subcommands: ``generate``, ``sessionize``, ``featurize``, ``train``,
``evaluate``, ``score``, ``report``.  Flags are the only configuration:
``--quiet`` attaches to every subcommand, and every other flag only to the
subcommands that read it (``--seed`` to ``generate`` and ``train``,
``--threads`` to ``train`` and ``evaluate``).  There is no config file.
``generate`` and ``train`` build their ``GenConfig``/``TrainConfig`` from
the flags given; fields without a flag keep their defaults.
Exit codes: 0 success, 1 usage, 2 data validation, 3 numerical fault.

``generate``, ``train`` and ``evaluate`` write ``manifest.json`` to
``--out``; its ``config`` holds the ``repr`` of every parsed flag, given or
not, and of every field of the ``GenConfig``/``TrainConfig`` built (the
level as its string), so every entry is a Python literal.
The ``train`` and ``evaluate`` manifests also record ``workers``, the size
of the command's thread pool (see ``--threads``).
``generate`` writes only ``actions.csv`` and ``manifest.json``.

Sessions follow the one 15-minute rule of ``sessions.session_starts``,
which no flag changes; ``sessionize --data --out [--lenient]`` appends
``session_index,label`` to each record (``--lenient`` skips malformed ones):
the 0-based ordinal of its session within its student, and 1 on the last
record of each session, else 0.

``featurize`` cells and ``evaluate --dump-scores`` probabilities are the
shortest round-trip ``repr`` of each float64, so they parse back to the
same bits.

``evaluate`` writes ``report.csv``, rows ``metric,stratum,value``: the AUC
of each stratum that holds both classes (a stratum without both is
omitted), then ``mean_prob,eos``; and ``trajectory.csv``, rows
``chunk,mean_prob`` for the 5% chunks 1..20.  Those last two average over
the sessions of length >= 20 and are omitted when there is none; a file
without rows is its header line alone.

Outputs are checked before any work: ``--out`` directories are made, each
file output must name a regular file or nothing (not a directory, FIFO or
device) in an existing directory, and no two outputs of a run may be one
file, ``evaluate``'s files in ``--out`` included (else exit 2).  ``score --state-in`` may name its ``--state-out``.

``train`` and ``evaluate`` own their CPUs.  Before the numerics load,
``main`` sets ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 for them, whatever the
caller set, so BLAS runs on one thread and all their parallel work runs on
one thread pool.  ``--threads N`` takes an integer >= 1 (anything else is a
usage error) and sizes that pool at min(N, usable CPUs); without it the
pool has one thread per usable CPU.  Batch scoring (``evaluate`` and the
validation pass of ``train``) runs that many batches at once.  Training
cuts each TBPTT window into lane groups of at most 32 lanes and runs that
many groups at once, so at most ceil(batch_size / 32) CPUs work on one
window.  The outputs depend neither on the pool size nor on the caller's
BLAS settings.  Every other command leaves BLAS as the caller set it:
``score`` steps one lane at a time, so BLAS threads are its only
parallelism.

``--utc-offset-minutes`` (``featurize``, ``train``) takes an integer in
[-720, 840] (``ingest.UTC_OFFSET_RANGE``); anything else is a usage error.
``train`` records the model's level, UTC offset and student split in
``model.ckpt``; ``evaluate`` and ``score`` read level and offset from it,
and ``evaluate``'s manifest config records them.  For an AUC on unseen
students, ``evaluate --split-part test`` scores the record's test ids; a
listed student missing from the log, or no split, is a data error.

``score`` reads its input in one pass, encodes its records as one block
of the feature encoder, and then scores them in input order, with the
resets of ``net.level_resets``.  It keeps the LSTM state of its k-th
student (those of ``--state-in`` first) in row k of two (N, H) matrices,
and writes nothing when a record is at fault: it reports the first fault
in line order, whether malformed, numerical or out-of-order (earlier than
its student's previous record or ``--state-in`` ``last_timestamp``).

``score --state-out`` writes the JSON state that ``--state-in`` resumes:
``version`` (3), ``level`` and ``utc_offset_minutes``; ``students``, a
mapping of student id to featurizer history (``last_timestamp``,
``last_lesson``, ``last_topic``, ``session_gap_value``) in sorted id order;
and ``h`` and ``c``, each the base64 of one (N, H) little-endian float64
matrix whose row k is the LSTM state of the k-th student of ``students``.
The matrices round-trip bit for bit.  A state of another version, of a level
or offset not the checkpoint's, or with any malformed field, is a data error.

Heavy imports happen inside the handlers, so the BLAS pin of ``train``
and ``evaluate`` is set before numpy loads BLAS.  A caller that runs
``main`` in a process where numpy is already loaded gets no pin from it
and must set those variables before numpy loads.
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import json
import logging
import os
import sys
import time
from typing import Optional

from eosnet.errors import (
    CheckpointError,
    DataValidationError,
    LogParseError,
    NumericalFault,
)
from eosnet.ingest import DEFAULT_UTC_OFFSET_MINUTES, UTC_OFFSET_RANGE  # no numpy before the pin

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

log = logging.getLogger("eosnet")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _seed(text):
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _threads(text):
    if not (text.isascii() and text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _utc_offset(text):
    """Minutes east of UTC, within ``ingest.UTC_OFFSET_RANGE``."""
    lo, hi = UTC_OFFSET_RANGE
    try:
        minutes = int(text)
    except ValueError:
        minutes = None
    if minutes is None or not lo <= minutes <= hi:
        raise argparse.ArgumentTypeError(f"expected an integer in [{lo}, {hi}], got {text!r}")
    return minutes


def _patience(text):
    if text.lower() == "none":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'none', got {text!r}") from None


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    pooled = _Parser(add_help=False)
    pooled.add_argument("--threads", type=_threads, default=None,
                        help="threads of the pool that runs batch scoring and "
                             "training's lane groups (default and most: the "
                             "usable CPUs)")
    # Config-field flags default to SUPPRESS: an absent flag leaves no
    # attribute, so the dataclass default applies (see _config_from_flags).
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=_seed, default=argparse.SUPPRESS,
                        help="seed for generation / split and training")
    offset = _Parser(add_help=False)
    offset.add_argument("--utc-offset-minutes", type=_utc_offset, default=DEFAULT_UTC_OFFSET_MINUTES)

    parser = _Parser(prog="eosnet",
                     description="End-of-session probability modelling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common, seeded],
                       help="write a synthetic action log")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-students", type=int, default=argparse.SUPPRESS)

    p = sub.add_parser("sessionize", parents=[common],
                       help="append session_index and label columns to a log")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lenient", action="store_true",
                   help="skip malformed records instead of aborting")

    p = sub.add_parser("featurize", parents=[common, offset],
                       help="emit the 13 feature columns plus label")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--with-keys", action="store_true",
                   help="prepend student_id and timestamp columns")

    p = sub.add_parser("train", parents=[common, pooled, seeded, offset],
                       help="train a model; writes checkpoint and history")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--level", default=argparse.SUPPRESS,
                   help="student (the default: one sequence per student) or session "
                        "(the state resets at each session start)")
    p.add_argument("--learning-rate", type=float, default=argparse.SUPPRESS)
    p.add_argument("--dropout-p", type=float, default=argparse.SUPPRESS)
    p.add_argument("--batch-size", type=int, default=argparse.SUPPRESS)
    p.add_argument("--patience", type=_patience, default=argparse.SUPPRESS,
                   help="epochs without improvement before stopping, or 'none'")
    p.add_argument("--tbptt-window", type=int, default=argparse.SUPPRESS)
    p.add_argument("--max-epochs", type=int, default=argparse.SUPPRESS)

    p = sub.add_parser("evaluate", parents=[common, pooled],
                       help="write the stratified AUC report for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--split-part", choices=["train", "validation", "test", "all"],
                   default="all", help="a part of the checkpoint's split (default: all)")
    p.add_argument("--dump-scores", default=None,
                   help="also write per-action student_id,timestamp,prob,label rows")

    p = sub.add_parser("score", parents=[common],
                       help="stream per-action probabilities for a log")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="log file, or '-' for stdin")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--state-in", default=None,
                   help="resume from a saved scoring state")
    p.add_argument("--state-out", default=None,
                   help="persist the scoring state for later invocations")

    p = sub.add_parser("report", parents=[common],
                       help="corpus statistics for a log file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="output file (default stdout)")

    return parser


# The variables that OpenBLAS, MKL and OpenMP read for their thread count.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


def _configure(args) -> None:
    logging.basicConfig(stream=sys.stderr, format="%(message)s",
                        level=logging.WARNING if args.quiet else logging.INFO)
    if hasattr(args, "threads"):  # train and evaluate: their pool is the parallelism
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # platforms without CPU affinity


def _pool_size(threads: Optional[int]) -> int:
    """The thread count of a command's one pool: ``--threads``, at most the
    usable CPUs, and all of them without the flag.  The cap keeps a pool
    from starting a thread per queued batch."""
    usable = usable_cpus()
    return min(threads or usable, usable)


def _config_from_flags(cls, args):
    """Build a config dataclass from the flags given whose names are its
    fields; an invalid value is a usage error."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
             if hasattr(args, f.name)}
    try:
        return cls(**given)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _write_manifest(args, config, inputs, outputs, t0, workers=None,
                    **timings) -> None:
    """Write ``args.out``/manifest.json; ``config`` is a ``GenConfig``,
    a ``TrainConfig`` or None, and ``timings`` gains the seconds since ``t0``.
    Each config entry is the ``repr`` of a flag's or a field's value, a
    Python literal.  ``workers`` is the size of the command's thread pool,
    if it has one."""
    from eosnet.fileio import write_manifest

    entries = {name: repr(value) for name, value in vars(args).items()
               if name != "command"}
    if config is not None:
        entries.update((f.name, repr(getattr(config, f.name)))
                       for f in dataclasses.fields(config))
    timings["seconds"] = time.perf_counter() - t0
    write_manifest(os.path.join(args.out, "manifest.json"), args.command,
                   entries, inputs, outputs, timings, workers=workers)


def _load_labeled(path, strict=True):
    """Parse a log file into per-student labelled sequences (sorted ids)."""
    from eosnet.ingest import group_by_student, parse_log_file
    from eosnet.sessions import label

    bad: list = []
    actions = parse_log_file(path, strict=strict, bad_records=bad)
    if bad:
        log.info("skipped %d malformed records", len(bad))
    return {student.student_id: label(student) for student in group_by_student(actions)}


def _load_model(args):
    """``args.checkpoint``'s parameters and split; its level and offset go to ``args``."""
    from eosnet.features import FEATURE_DIM
    from eosnet.net import load_checkpoint

    params, record = load_checkpoint(args.checkpoint)
    if params.input_dim != FEATURE_DIM:
        raise CheckpointError(
            f"checkpoint expects {params.input_dim} features, data has {FEATURE_DIM}")
    args.level, args.utc_offset_minutes = record["level"], record["utc_offset_minutes"]
    return params, record["split"]


def _cells(values) -> list[str]:
    """The ``repr`` of each 8-byte number of ``values``, a column of one output.

    A column holds few distinct values (two in a flag column, at most 901
    plus one per session in a gap column), so each distinct bit pattern is
    formatted once and its text picked per row by index.  Bit patterns,
    not values, are the keys, so 0.0 and -0.0 keep their own texts.
    """
    import numpy as np

    patterns, index = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([repr(v) for v in patterns.view(values.dtype).tolist()], dtype=object)
    return texts[index].tolist()


def _check_outputs(*paths) -> None:
    """Before any work, fail unless each file output given names a regular
    file or nothing (not a directory, FIFO or device, symlinks followed) in
    a directory that exists, and a file that no other output of the run
    names (after resolving symlinks)."""
    paths = list(filter(None, paths))
    for k, path in enumerate(paths):
        if ((os.path.exists(path) and not os.path.isfile(path))
                or not os.path.isdir(os.path.dirname(path) or os.curdir)):
            raise DataValidationError(
                f"cannot write {path}: not a regular file in an existing directory")
        if os.path.realpath(path) in map(os.path.realpath, paths[:k]):
            raise DataValidationError(f"cannot write {path}: another output of the run names it")


def _emit(path, lines) -> None:
    """Write each of ``lines`` plus a newline atomically to ``path``, or to
    stdout when ``path`` is None or empty."""
    from eosnet.fileio import atomic_write_text

    text = "\n".join([*lines, ""])
    if not path:
        sys.stdout.write(text)
    else:
        atomic_write_text(path, text)


# ---------------------------------------------------------------------------
# handlers
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    from eosnet.ingest import HEADER, format_action
    from eosnet.synthgen import GenConfig, generate, summarize

    t0 = time.perf_counter()
    cfg = _config_from_flags(GenConfig, args)
    os.makedirs(args.out, exist_ok=True)
    actions_path = os.path.join(args.out, "actions.csv")
    _check_outputs(actions_path, os.path.join(args.out, "manifest.json"))
    logs = generate(cfg)
    _emit(actions_path, [HEADER, *(format_action(a) for s in logs for a in s.actions)])

    summary = summarize(logs)
    log.info("generated %d students, %d sessions, %d actions",
             summary.n_students, summary.n_sessions, summary.n_actions)
    _write_manifest(args, cfg, [], [actions_path], t0)
    return EXIT_OK


def cmd_sessionize(args) -> int:
    import numpy as np

    from eosnet.ingest import HEADER, format_action

    _check_outputs(args.out)
    seqs = list(_load_labeled(args.data, strict=not args.lenient).values())
    empty = np.zeros(0, dtype=np.int64)  # makes the int8 labels int64, and a log may be empty
    # The rows are built column by column, as featurize builds them: each
    # record as format_action writes it, then the session index and the
    # label from tables of texts (_cells); each row joins its cells.
    columns = [[format_action(action) for seq in seqs for action in seq.actions],
               _cells(np.concatenate([empty, *(np.cumsum(seq.labels) - seq.labels
                                             for seq in seqs)])),
               _cells(np.concatenate([empty, *(seq.labels for seq in seqs)]))]
    _emit(args.out, [HEADER + ",session_index,label", *map(",".join, zip(*columns))])
    return EXIT_OK


def cmd_featurize(args) -> int:
    from eosnet.features import FEATURE_NAMES, featurize_logs

    _check_outputs(args.out)
    labeled = _load_labeled(args.data)
    seqs = [labeled[sid] for sid in sorted(labeled)]
    frames = featurize_logs(seqs, args.utc_offset_minutes)
    # The rows are built column by column: each column's cells come from
    # its own table of texts (_cells), and each row joins its cells.
    columns = [_cells(frames[:, j]) for j in range(len(FEATURE_NAMES))]
    columns.append([str(yval) for seq in seqs for yval in seq.labels.tolist()])
    header = ",".join(FEATURE_NAMES) + ",label"
    if args.with_keys:
        header = "student_id,timestamp," + header
        columns[:0] = ([seq.student_id for seq in seqs for _ in seq.actions],
                       [str(action.timestamp) for seq in seqs for action in seq.actions])
    _emit(args.out, [header, *map(",".join, zip(*columns))])
    return EXIT_OK


def cmd_train(args) -> int:
    from concurrent.futures import ThreadPoolExecutor

    from eosnet.net import save_checkpoint
    from eosnet.training import TrainConfig, prepare_sequences, split_students, train

    t0 = time.perf_counter()
    config = _config_from_flags(TrainConfig, args)
    os.makedirs(args.out, exist_ok=True)
    ckpt_path, history_path = (os.path.join(args.out, name)
                               for name in ("model.ckpt", "history.csv"))
    _check_outputs(ckpt_path, history_path, os.path.join(args.out, "manifest.json"))

    labeled = _load_labeled(args.data)
    split = split_students(labeled.keys(), config.seed)
    prepared = prepare_sequences([labeled[sid] for sid in (*split.train, *split.validation)],
                                 config.level, args.utc_offset_minutes)
    train_seqs, val_seqs = prepared[:len(split.train)], prepared[len(split.train):]
    log.info("training %s-level model on %d students (%d validation)",
             config.level, len(train_seqs), len(val_seqs))

    def progress(stats):
        log.info("epoch %d: train_loss %.5f val_auc %.5f (%.1fs)",
                 stats.epoch, stats.train_loss, stats.val_auc, stats.seconds)

    workers = _pool_size(args.threads)
    with ThreadPoolExecutor(workers) as pool:
        result = train(config, train_seqs, val_seqs, pool, progress=progress)

    record = dict(level=config.level, utc_offset_minutes=args.utc_offset_minutes)
    save_checkpoint(result.params, ckpt_path, {**record, "split": dataclasses.asdict(split)})
    _emit(history_path, ["epoch,train_loss,val_auc", *(
        f"{s.epoch},{s.train_loss!r},{s.val_auc!r}" for s in result.history)])
    log.info("best epoch %d (val_auc %.5f)", result.best_epoch, result.best_val_auc)

    _write_manifest(args, config, [args.data], [ckpt_path, history_path], t0,
                    workers, epoch_seconds=[s.seconds for s in result.history],
                    best_epoch=result.best_epoch)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from concurrent.futures import ThreadPoolExecutor

    from eosnet.evaluation import compute_report, scored_sessions
    from eosnet.training import prepare_sequences, score_sequences

    t0 = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)  # first: --dump-scores may name a file in it
    report_path, trajectory_path, manifest_path = (
        os.path.join(args.out, name) for name in ("report.csv", "trajectory.csv", "manifest.json"))
    _check_outputs(report_path, trajectory_path, manifest_path, args.dump_scores)
    params, split = _load_model(args)
    labeled = _load_labeled(args.data)
    if args.split_part == "all":
        ids = sorted(labeled)
    elif split is None:
        raise DataValidationError(f"{args.checkpoint}: the model records no student split")
    else:
        ids = split[args.split_part]
        if missing := sum(sid not in labeled for sid in ids):
            raise DataValidationError(
                f"{args.data} lacks {missing} of the {len(ids)} {args.split_part} ids of the model")
    seqs = [labeled[sid] for sid in ids]
    prepared = prepare_sequences(seqs, args.level, args.utc_offset_minutes)
    workers = _pool_size(args.threads)
    with ThreadPoolExecutor(workers) as pool:
        probs = score_sequences(params, prepared, pool)

    scored = scored_sessions(seqs, probs)
    rows, chunk_means = compute_report(scored)

    _emit(report_path, ["metric,stratum,value",
                        *(f"{metric},{stratum},{value!r}" for metric, stratum, value in rows)])
    means = [] if chunk_means is None else chunk_means.tolist()
    _emit(trajectory_path, ["chunk,mean_prob",
                            *(f"{chunk},{mean!r}" for chunk, mean in enumerate(means, 1))])
    outputs = [report_path, trajectory_path]

    if args.dump_scores:
        dump, stop = ["student_id,timestamp,prob,label"], 0
        for seq in seqs:  # a student at a time, so no list holds every action's float
            start, stop = stop, stop + seq.n_actions
            dump += (f"{seq.student_id},{action.timestamp},{prob!r},{yval}" for action, prob, yval
                     in zip(seq.actions, probs[start:stop].tolist(), seq.labels.tolist()))
        _emit(args.dump_scores, dump)
        outputs.append(args.dump_scores)

    if rows and rows[0][:2] == ("auc", "global"):
        log.info("global AUC %.5f over %d sessions", rows[0][2], int(scored.labels.sum()))
    _write_manifest(args, None, [args.checkpoint, args.data], outputs, t0, workers)
    return EXIT_OK


SCORE_STATE_VERSION = 3
_STATE_DTYPE = "<f8"


def _encode_matrix(matrix) -> str:
    raw = matrix.astype(_STATE_DTYPE, copy=False).tobytes()
    return base64.b64encode(raw).decode("ascii")


def _decode_matrix(path, saved, key, n_students, hidden_size):
    """A writable copy of the (n_students, hidden_size) float64 matrix
    stored under ``key``."""
    import numpy as np

    text = saved[key]
    try:
        if not isinstance(text, str):
            raise ValueError(f"not a string but {type(text).__name__}")
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error is one
        raise DataValidationError(
            f"{path}: {key} is not base64 of float64 values: {exc}") from None
    expected = n_students * hidden_size * 8
    if len(raw) != expected:
        raise DataValidationError(
            f"{path}: {key} has {len(raw)} bytes, not {n_students} rows x "
            f"{hidden_size} x 8 = {expected}; the checkpoint's hidden size is {hidden_size}")
    return np.frombuffer(raw, dtype=_STATE_DTYPE).reshape(n_students, hidden_size).copy()


def _load_score_state(path, level, utc_offset_minutes, hidden_size):
    """Read a ``score --state-out`` file into ``(histories, h, c)``, a
    featurizer history per student and the (N, H) state matrices in the
    file's order; any defect in it is a DataValidationError.

    ``h`` and ``c`` are checked as whole matrices: each must be a base64
    string (strict alphabet and padding) that decodes to exactly
    ``len(students) * hidden_size * 8`` bytes, read as little-endian
    float64 with row k for the k-th student of ``students``, and every
    value must be finite; the error names the first student with a
    non-finite row.  Each featurizer history is checked by
    ``features.check_history``.
    """
    import numpy as np

    from eosnet.features import check_history

    try:
        with open(path, encoding="utf-8") as handle:
            saved = json.load(handle)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataValidationError(f"{path}: not a scoring state: {exc}") from None
    try:
        if saved["version"] != SCORE_STATE_VERSION:
            raise DataValidationError(
                f"{path}: scoring state version {saved['version']!r} is not supported "
                f"(expected {SCORE_STATE_VERSION})")
        level_saved, offset = saved["level"], saved["utc_offset_minutes"]
        if isinstance(offset, bool) or not isinstance(offset, int):
            raise ValueError(f"utc_offset_minutes has the wrong type: {offset!r}")
        if (level_saved, offset) != (level, utc_offset_minutes):
            raise DataValidationError(f"{path}: state is for level {level_saved!r} at offset "
                                      f"{offset}, checkpoint for {level!r} at {utc_offset_minutes}")
        students = saved["students"]
        if not isinstance(students, dict):
            raise ValueError(f"students is not a mapping: {students!r}")
        ids = list(students)
        h = _decode_matrix(path, saved, "h", len(ids), hidden_size)
        c = _decode_matrix(path, saved, "c", len(ids), hidden_size)
        finite = np.isfinite(h).all(axis=1) & np.isfinite(c).all(axis=1)
        if not finite.all():
            sid = ids[int(np.argmin(finite))]
            raise DataValidationError(f"{path}: state of {sid} has non-finite h or c")
        histories = {sid: check_history(students[sid]) for sid in ids}
    except DataValidationError:
        raise
    except KeyError as exc:
        raise DataValidationError(f"{path}: scoring state lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataValidationError(f"{path}: malformed scoring state: {exc}") from None
    return histories, h, c


def cmd_score(args) -> int:
    import numpy as np

    from eosnet.features import FRESH_HISTORY, ActionColumns, encode_block
    from eosnet.ingest import read_actions
    from eosnet.net import infer_step, level_resets

    _check_outputs(args.out, args.state_out)
    params, _ = _load_model(args)

    # row k of h and c is the k-th student's state
    histories: dict[str, dict] = {}
    h = c = np.zeros((0, params.hidden_size))
    if args.state_in:
        histories, h, c = _load_score_state(args.state_in, args.level,
                                            args.utc_offset_minutes, params.hidden_size)
    rows = {sid: k for k, sid in enumerate(histories)}

    if args.data == "-":
        sys.stdin.reconfigure(encoding="utf-8", errors="strict")  # whatever the locale
        lines = sys.stdin
    else:
        lines = open(args.data, encoding="utf-8")
    # The first fault in line order is raised after the records before it
    # are scored, so a numerical fault among them comes first.
    line_nos, actions, fault = [], [], None
    try:
        for line_no, action in read_actions(lines):
            line_nos.append(line_no)
            actions.append(action)
    except (LogParseError, DataValidationError) as exc:
        fault = exc
    finally:
        if lines is not sys.stdin:
            lines.close()
    # the first record earlier than its student's previous one, --state-in's included
    last = {sid: history["last_timestamp"] for sid, history in histories.items()}
    for at, action in enumerate(actions):
        previous = last.get(action.student_id)
        if previous is not None and action.timestamp < previous:
            fault = DataValidationError(f"line {line_nos[at]}: {action.student_id}: out-of-order "
                                        f"timestamp {action.timestamp} after {previous}")
            del actions[at:]
            break
        last[action.student_id] = action.timestamp

    # the records as one encoder block, students in row order
    student_rows = [rows.setdefault(action.student_id, len(rows)) for action in actions]
    order = np.argsort(student_rows, kind="stable")
    ks = np.asarray(student_rows, dtype=np.intp)[order]
    first = np.ones(len(ks), dtype=bool)
    first[1:] = ks[1:] != ks[:-1]
    students = [actions[i].student_id for i in order[first].tolist()]
    frames, after = encode_block(
        ActionColumns.of([actions[i] for i in order.tolist()], first),
        [histories.get(sid, FRESH_HISTORY) for sid in students], args.utc_offset_minutes)
    histories.update(zip(students, after))

    h, c = (np.pad(m, ((0, len(rows) - len(m)), (0, 0))) for m in (h, c))
    frames = frames[np.argsort(order)]
    out_rows = []
    for action, k, frame, reset in zip(actions, student_rows, frames,
                                       level_resets(args.level, frames).tolist()):
        prob, h[k], c[k] = infer_step(params, frame, h[k], c[k], reset)
        out_rows.append(f"{action.student_id},{action.timestamp},{prob!r}")
    if fault is not None:
        raise fault

    _emit(args.out, out_rows)

    if args.state_out:
        ids = sorted(histories)
        order = [rows[sid] for sid in ids]
        payload = {
            "version": SCORE_STATE_VERSION,
            "level": args.level,
            "utc_offset_minutes": args.utc_offset_minutes,
            "students": {sid: histories[sid] for sid in ids},
            "h": _encode_matrix(h[order]),
            "c": _encode_matrix(c[order]),
        }
        _emit(args.state_out, [json.dumps(payload)])
    return EXIT_OK


def cmd_report(args) -> int:
    from eosnet.ingest import group_by_student, parse_log_file
    from eosnet.synthgen import summarize

    _check_outputs(args.out)
    actions = parse_log_file(args.data)
    _emit(args.out, summarize(group_by_student(actions)).lines())
    return EXIT_OK


_HANDLERS = {
    "generate": cmd_generate,
    "sessionize": cmd_sessionize,
    "featurize": cmd_featurize,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "score": cmd_score,
    "report": cmd_report,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _configure(args)
        return _HANDLERS[args.command](args)
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LogParseError, DataValidationError, CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalFault as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
