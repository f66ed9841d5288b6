"""Command-line entry point.

Subcommands: ``generate``, ``sessionize``, ``featurize``, ``train``,
``evaluate``, ``score``, ``report``.  Flags are the only configuration:
``--threads`` and ``--quiet`` attach to every subcommand, and every other
flag only to the subcommands that read it (``--seed`` to ``generate`` and
``train``).  There is no config file.  ``generate`` and ``train`` build
their ``GenConfig``/``TrainConfig`` from the flags given; fields without a
flag keep their defaults.
Exit codes: 0 success, 1 usage, 2 data validation, 3 numerical fault.

``generate``, ``train`` and ``evaluate`` write ``manifest.json`` to
``--out``; its ``config`` holds the ``repr`` of every parsed flag, given or
not, and of every field of the ``GenConfig``/``TrainConfig`` built (an enum
field as the ``repr`` of its value), so every entry is a Python literal.
The ``train`` and ``evaluate`` manifests also record the parallel setting
(see ``--threads``): ``workers``, the size of the command's thread pool,
and ``blas_threads``, the BLAS threads per GEMM it was sized from (null
when unpinned).
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
file output must name a file in an existing directory, and no two outputs
of a run may be one file, ``evaluate``'s files in ``--out`` included (else
exit 2).  ``score --state-in`` may name its ``--state-out``.

``--threads`` takes an integer >= 1; anything else is a usage error.  It
sets the BLAS threads per GEMM, and one rule (:func:`gemm_workers`) fills
the remaining usable CPUs: ``train`` and ``evaluate`` each work out that
count once and run all their parallel work on one thread pool of that
size.  Batch scoring (``evaluate`` and the validation pass of ``train``)
runs that many batches at once.  Training cuts each TBPTT window into
lane groups of at most 32 lanes and runs that many groups at once, so at
most ceil(batch_size / 32) CPUs work on one window.  Unpinned, BLAS takes
every CPU and batches and groups run in turn.  The outputs do not depend
on the worker count, but those of ``train`` and ``evaluate`` can depend
on the BLAS thread count itself.

``--utc-offset-minutes`` (``featurize``, ``train``, ``evaluate``,
``score``) takes an integer in [-720, 840], the offsets of real time
zones; anything else is a usage error.

``score`` reads its input in one pass, encodes its records as one block
of the feature encoder, and then scores them in input order.  It keeps the
LSTM state of its k-th student (those of ``--state-in`` first) in row k of
two (N, H) matrices, and writes nothing when a record is at fault: it
reports the first fault in line order, whether out-of-order, malformed or
numerical.

``score --state-out`` writes the JSON state that ``--state-in`` resumes:
``version`` (3), ``level`` and ``utc_offset_minutes``; ``students``, a
mapping of student id to featurizer history (``last_timestamp``,
``last_lesson``, ``last_topic``, ``session_gap_value``) in sorted id order;
and ``h`` and ``c``, each the base64 of one (N, H) little-endian float64
matrix whose row k is the LSTM state of the k-th student of ``students``.
The matrices round-trip bit for bit.  A state of another version, level or
offset, or with any malformed field, is a data error.

Heavy imports happen inside the handlers, so ``--threads`` can pin the
BLAS thread count before the numerics are loaded.
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
from enum import Enum
from typing import Mapping, Optional

from eosnet.errors import (
    CheckpointError,
    DataValidationError,
    LogParseError,
    NumericalFault,
)

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
    """Minutes east of UTC, within the offsets of real time zones
    (UTC-12:00 to UTC+14:00)."""
    try:
        minutes = int(text)
    except ValueError:
        minutes = None
    if minutes is None or not -720 <= minutes <= 840:
        raise argparse.ArgumentTypeError(
            f"expected an integer in [-720, 840], got {text!r}")
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
    common.add_argument("--threads", type=_threads, default=None,
                        help="BLAS threads per GEMM (set before numerics load); "
                             "train and evaluate fill the remaining usable CPUs "
                             "with one thread pool for batch scoring and "
                             "training's lane groups")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    # Config-field flags default to SUPPRESS: an absent flag leaves no
    # attribute, so the dataclass default applies (see _config_from_flags).
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=_seed, default=argparse.SUPPRESS,
                        help="seed for generation / split and training")
    leveled = _Parser(add_help=False)
    leveled.add_argument("--level", choices=["student", "session"], default="student")
    offset = _Parser(add_help=False)
    offset.add_argument("--utc-offset-minutes", type=_utc_offset, default=60)

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

    p = sub.add_parser("train", parents=[common, seeded, leveled, offset],
                       help="train a model; writes checkpoint and history")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--learning-rate", type=float, default=argparse.SUPPRESS)
    p.add_argument("--dropout-p", type=float, default=argparse.SUPPRESS)
    p.add_argument("--batch-size", type=int, default=argparse.SUPPRESS)
    p.add_argument("--patience", type=_patience, default=argparse.SUPPRESS,
                   help="epochs without improvement before stopping, or 'none'")
    p.add_argument("--tbptt-window", type=int, default=argparse.SUPPRESS)
    p.add_argument("--max-epochs", type=int, default=argparse.SUPPRESS)

    p = sub.add_parser("evaluate", parents=[common, leveled, offset],
                       help="write the stratified AUC report for a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--split-seed", type=_seed, default=None,
                   help="student split seed; --split-part train/validation/test need it")
    p.add_argument("--split-part", choices=["train", "validation", "test", "all"],
                   default="all", help="students to evaluate (default: all of them)")
    p.add_argument("--dump-scores", default=None,
                   help="also write per-action student_id,timestamp,prob,label rows")

    p = sub.add_parser("score", parents=[common, leveled, offset],
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


# The variables each BLAS reads for its thread count, in its own order.
_BLAS_THREAD_VARS = (("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
                     ("MKL_NUM_THREADS", "OMP_NUM_THREADS"))


def _configure(args) -> None:
    logging.basicConfig(stream=sys.stderr, format="%(message)s",
                        level=logging.WARNING if args.quiet else logging.INFO)
    if args.threads is not None:
        if "numpy" in sys.modules:
            log.debug("numpy already imported; --threads has no effect")
        else:
            for names in _BLAS_THREAD_VARS:
                os.environ.update(dict.fromkeys(names, str(args.threads)))


def blas_threads(environ: Mapping[str, str]) -> Optional[int]:
    """The BLAS threads per GEMM that ``environ`` pins, or None.

    Each of OpenBLAS and MKL takes its thread count from the first variable
    of its own list that ``environ`` sets; the result is the larger of the
    two counts, since the rule does not ask which BLAS numpy loaded.  Where
    a list sets none, or its first set value is not a positive integer,
    that BLAS uses every CPU, and the result is None.  ``--threads`` sets
    every variable of both lists.
    """
    counts = []
    for names in _BLAS_THREAD_VARS:
        value = next((environ[name] for name in names if name in environ), "")
        if not (value.isascii() and value.isdigit() and int(value) >= 1):
            return None
        counts.append(int(value))
    return max(counts)


def gemm_workers(usable_cpus: int, environ: Mapping[str, str]) -> int:
    """How many threads run GEMMs at once: ``usable_cpus //
    blas_threads(environ)``, at least 1, and 1 when BLAS is unpinned, so
    that no thread competes with a multi-threaded GEMM for the same cores.

    ``train`` and ``evaluate`` size their one thread pool by it; its
    threads run scoring batches and training's lane groups, each a whole
    ``forward_batch`` (and, in training, ``backward_batch``) call.
    """
    threads = blas_threads(environ)
    return 1 if threads is None else max(1, usable_cpus // threads)


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # platforms without CPU affinity


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
    Each config entry is a Python literal: an ``Enum`` is recorded by the
    ``repr`` of its value.  ``workers``, the size of the command's thread
    pool, is recorded with ``blas_threads``, the worker rule's input."""
    from eosnet.fileio import write_manifest

    def literal(value):
        return repr(value.value if isinstance(value, Enum) else value)

    entries = {name: literal(value) for name, value in vars(args).items()
               if name != "command"}
    if config is not None:
        entries.update((f.name, literal(getattr(config, f.name)))
                       for f in dataclasses.fields(config))
    timings["seconds"] = time.perf_counter() - t0
    fields = {}
    if workers is not None:
        fields = {"workers": workers, "blas_threads": blas_threads(os.environ)}
    write_manifest(os.path.join(args.out, "manifest.json"), args.command,
                   entries, inputs, outputs, timings, **fields)


def _load_labeled(path, strict=True):
    """Parse a log file into per-student labelled sequences (sorted ids)."""
    from eosnet.ingest import group_by_student, parse_log_file
    from eosnet.sessions import label

    bad: list = []
    actions = parse_log_file(path, strict=strict, bad_records=bad)
    if bad:
        log.info("skipped %d malformed records", len(bad))
    return {student.student_id: label(student) for student in group_by_student(actions)}


def _load_model(path):
    """Load a checkpoint whose input width matches the feature encoding."""
    from eosnet.features import FEATURE_DIM
    from eosnet.net import load_checkpoint

    params = load_checkpoint(path)
    if params.input_dim != FEATURE_DIM:
        raise CheckpointError(
            f"checkpoint expects {params.input_dim} features, data has {FEATURE_DIM}")
    return params


def _prepared(labeled, ids, level, utc_offset_minutes):
    """The ``TrainSequence`` of each student of ``ids``, in that order,
    from one call of the feature encoder."""
    from eosnet.training import prepare_sequences

    return prepare_sequences([labeled[sid] for sid in ids], level, utc_offset_minutes)


def _float_cells(values) -> list[str]:
    """The ``repr`` of each float64 of ``values``, a column of one output.

    A column holds few distinct values (two in a flag column, at most 901
    plus one per session in a gap column), so each distinct bit pattern is
    formatted once and its text picked per row by index.  Bit patterns,
    not values, are the keys, so 0.0 and -0.0 keep their own texts.
    """
    import numpy as np

    patterns, index = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([repr(v) for v in patterns.view(np.float64).tolist()], dtype=object)
    return texts[index].tolist()


def _check_outputs(*paths) -> None:
    """Before any work, fail unless each file output given names a file
    (not a directory) in a directory that exists, and a file that no other
    output of the run names (after resolving symlinks)."""
    paths = list(filter(None, paths))
    for k, path in enumerate(paths):
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or os.curdir):
            raise DataValidationError(f"cannot write {path}: not a file in an existing directory")
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
    logs = generate(cfg)
    actions_path = os.path.join(args.out, "actions.csv")
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
    labeled = _load_labeled(args.data, strict=not args.lenient)
    rows = [HEADER + ",session_index,label"]
    for seq in labeled.values():
        session_index = (np.cumsum(seq.labels) - seq.labels).tolist()
        for action, index, yval in zip(seq.actions, session_index, seq.labels.tolist()):
            rows.append(f"{format_action(action)},{index},{yval}")
    _emit(args.out, rows)
    return EXIT_OK


def cmd_featurize(args) -> int:
    from eosnet.features import FEATURE_NAMES, featurize_logs

    _check_outputs(args.out)
    labeled = _load_labeled(args.data)
    seqs = [labeled[sid] for sid in sorted(labeled)]
    frames = featurize_logs(seqs, args.utc_offset_minutes)
    # The rows are built column by column: each column's cells come from
    # its own table of texts (_float_cells), and each row joins its cells.
    columns = [_float_cells(frames[:, j]) for j in range(len(FEATURE_NAMES))]
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
    from eosnet.training import TrainConfig, split_students, train

    t0 = time.perf_counter()
    config = _config_from_flags(TrainConfig, args)
    os.makedirs(args.out, exist_ok=True)

    labeled = _load_labeled(args.data)
    split = split_students(labeled.keys(), config.seed)
    prepared = _prepared(labeled, [*split.train, *split.validation], config.level,
                         args.utc_offset_minutes)
    train_seqs, val_seqs = prepared[:len(split.train)], prepared[len(split.train):]
    log.info("training %s-level model on %d students (%d validation)",
             config.level.value, len(train_seqs), len(val_seqs))

    def progress(stats):
        log.info("epoch %d: train_loss %.5f val_auc %.5f (%.1fs)",
                 stats.epoch, stats.train_loss, stats.val_auc, stats.seconds)

    workers = gemm_workers(usable_cpus(), os.environ)
    with ThreadPoolExecutor(workers) as pool:
        result = train(config, train_seqs, val_seqs, pool, progress=progress)

    ckpt_path = os.path.join(args.out, "model.ckpt")
    save_checkpoint(result.params, ckpt_path)
    history_path = os.path.join(args.out, "history.csv")
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
    from eosnet.training import Level, score_sequences, split_students

    if args.split_part == "all" and args.split_seed is not None:
        raise UsageError("--split-seed selects nothing with --split-part all")
    if args.split_part != "all" and args.split_seed is None:
        raise UsageError(f"--split-part {args.split_part} needs --split-seed")

    t0 = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)  # first: --dump-scores may name a file in it
    report_path, trajectory_path, manifest_path = (
        os.path.join(args.out, name) for name in ("report.csv", "trajectory.csv", "manifest.json"))
    _check_outputs(report_path, trajectory_path, manifest_path, args.dump_scores)
    params = _load_model(args.checkpoint)
    labeled = _load_labeled(args.data)
    if args.split_part == "all":
        ids = sorted(labeled)
    else:
        ids = getattr(split_students(labeled.keys(), args.split_seed), args.split_part)
    prepared = _prepared(labeled, ids, Level(args.level), args.utc_offset_minutes)
    workers = gemm_workers(usable_cpus(), os.environ)
    with ThreadPoolExecutor(workers) as pool:
        probs = score_sequences(params, prepared, pool)

    scored = scored_sessions([labeled[sid] for sid in ids], probs)
    rows, chunk_means = compute_report(scored)

    _emit(report_path, ["metric,stratum,value",
                        *(f"{metric},{stratum},{value!r}" for metric, stratum, value in rows)])
    means = [] if chunk_means is None else chunk_means.tolist()
    _emit(trajectory_path, ["chunk,mean_prob",
                            *(f"{chunk},{mean!r}" for chunk, mean in enumerate(means, 1))])
    outputs = [report_path, trajectory_path]

    if args.dump_scores:
        dump = ["student_id,timestamp,prob,label"]
        for sid in ids:
            seq = labeled[sid]
            for action, prob, yval in zip(seq.actions, probs[sid].tolist(), seq.labels.tolist()):
                dump.append(f"{sid},{action.timestamp},{prob!r},{yval}")
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
    ``StreamFeaturizer.from_dict``.
    """
    import numpy as np

    from eosnet.features import StreamFeaturizer

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
        if saved["level"] != level:
            raise DataValidationError(
                f"{path}: state was saved for level {saved['level']!r}, not {level!r}")
        offset = saved["utc_offset_minutes"]
        if isinstance(offset, bool) or not isinstance(offset, int):
            raise ValueError(f"utc_offset_minutes has the wrong type: {offset!r}")
        if offset != utc_offset_minutes:
            raise DataValidationError(
                f"{path}: state was saved for --utc-offset-minutes {offset}, "
                f"not {utc_offset_minutes}")
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
        histories = {sid: StreamFeaturizer.from_dict(students[sid], offset).to_dict()
                     for sid in ids}
    except DataValidationError:
        raise
    except KeyError as exc:
        raise DataValidationError(f"{path}: scoring state lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataValidationError(f"{path}: malformed scoring state: {exc}") from None
    return histories, h, c


def cmd_score(args) -> int:
    import numpy as np

    from eosnet.features import (
        FRESH_HISTORY,
        SESSION_START,
        ActionColumns,
        encode_block,
        late_actions,
    )
    from eosnet.ingest import read_actions
    from eosnet.net import infer_step

    _check_outputs(args.out, args.state_out)
    params = _load_model(args.checkpoint)

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
    student_rows = [rows.setdefault(action.student_id, len(rows)) for action in actions]
    ids = list(rows)

    def block(n):
        """The first ``n`` records as one encoder block, students in row
        order: the records' indices in block order, the block's columns
        and its students' histories before it."""
        ks = np.array(student_rows[:n], dtype=np.intp)
        order = np.argsort(ks, kind="stable")
        ks = ks[order]
        first = np.ones(n, dtype=bool)
        first[1:] = ks[1:] != ks[:-1]
        students = [ids[k] for k in ks[first].tolist()]
        return (order, ActionColumns.of([actions[i] for i in order.tolist()], first),
                students, [histories.get(sid, FRESH_HISTORY) for sid in students])

    order, columns, students, before = block(len(actions))
    late, errors = late_actions(columns, before)
    if late.size:
        j = int(np.argmin(order[late]))
        at = int(order[late[j]])
        fault = DataValidationError(f"line {line_nos[at]}: {actions[at].student_id}: {errors[j]}")
        order, columns, students, before = block(at)
    frames, after = encode_block(columns, before, args.utc_offset_minutes)
    histories.update(zip(students, after))

    h, c = (np.pad(m, ((0, len(rows) - len(m)), (0, 0))) for m in (h, c))
    out_rows = []
    for action, k, frame in zip(actions, student_rows, frames[np.argsort(order)]):
        reset = args.level == "session" and frame[SESSION_START] == 1.0
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
