"""In-memory span tracer that wraps eosnet's public functions from outside.

Nothing under ``src/`` knows about it.  :class:`Tracer` replaces each
target function with a wrapper that records a span (name, start, end,
parent span) and, for some targets, a count taken from the call's
arguments or result.  A module that did ``from eosnet.net import
forward_batch`` holds its own reference, so the wrapper is installed in
every loaded ``eosnet`` module that binds the original object, not only in
the defining one.  Every wrapper is removed when the ``with`` block ends,
whatever happens inside it.

Spans stay in memory until :meth:`Tracer.save`; :func:`layer_totals`
turns a saved trace into self time per span name (a span's duration
minus the durations of its direct children) plus call counts.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import sys
import time
from array import array

import numpy as np


def _forward_lane_steps(counters, args, result):
    X = args[1]
    counters["net.lane_steps_padded"] += X.shape[0] * X.shape[1]


def _parsed_records(counters, args, result):
    counters["ingest.records"] += len(result)


def _segmented_sessions(counters, args, result):
    counters["sessions.sessions"] += len(result)


def _bytes_written(counters, args, result):
    # Run manifests record wall times, so their size differs between runs.
    if os.path.basename(args[0]) != "manifest.json":
        counters["fileio.bytes_written"] += len(args[1])


def _scored_lane_steps(counters, args, result):
    counters["training.lane_steps_real"] += sum(len(s) for s in args[1])


def _batched_lane_steps(counters, args, result):
    counters["training.lane_steps_real"] += sum(sum(b.lengths) for b in result)


# (module, attribute, span name, counter) -- the layer boundaries.
TARGETS = (
    ("eosnet.cli", "main", "cli", None),
    ("eosnet.net", "forward_batch", "net.forward", _forward_lane_steps),
    ("eosnet.net", "sigmoid", "net.sigmoid", None),
    ("eosnet.net", "backward_batch", "net.backward", None),
    ("eosnet.net", "rmsprop_update", "net.rmsprop", None),
    ("eosnet.net", "infer_step", "net.infer_step", None),
    ("eosnet.net", "lstm_step", "net.lstm_step", None),
    ("eosnet.net", "load_checkpoint", "net.checkpoint_load", None),
    ("eosnet.training", "make_batches", "training.batch_build", _batched_lane_steps),
    ("eosnet.training", "score_sequences", "training.score_sequences", _scored_lane_steps),
    ("eosnet.ingest", "parse_log_file", "ingest.parse", _parsed_records),
    ("eosnet.ingest", "parse_line", "ingest.parse_line", None),
    ("eosnet.ingest", "group_by_student", "ingest.group", None),
    ("eosnet.sessions", "segment", "sessions.segment", _segmented_sessions),
    ("eosnet.sessions", "label", "sessions.segment", None),
    ("eosnet.features", "featurize", "features.featurize", None),
    ("eosnet.features", "StreamFeaturizer.push", "features.push", None),
    ("eosnet.evaluation", "scored_sessions", "evaluation.report", None),
    ("eosnet.evaluation", "compute_report", "evaluation.report", None),
    ("eosnet.evaluation", "auc", "evaluation.auc", None),
    ("eosnet.fileio", "atomic_write_bytes", "fileio.write", _bytes_written),
    ("eosnet.fileio", "write_manifest", "fileio.manifest", None),
)

COUNTERS = ("net.lane_steps_padded", "ingest.records", "sessions.sessions",
            "fileio.bytes_written", "training.lane_steps_real")


def _resolve(module_name, attribute):
    """Return (owner object, attribute name) for a dotted attribute."""
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Context manager: wraps every target while active, then restores.

    Spans are four parallel arrays indexed by span id; ``parents`` holds
    -1 for a span opened outside any other traced call.
    """

    def __init__(self):
        self.span_names: list[str] = []
        self.names = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters = {name: 0 for name in COUNTERS}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, span_name):
        if span_name not in self.span_names:
            self.span_names.append(span_name)
        return self.span_names.index(span_name)

    def _wrap(self, fn, span_name, count):
        name_id = self._name_id(span_name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def _patch(self, owner, attribute, replacement):
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def __enter__(self):
        # A module imported while the wrappers are live would bind a
        # wrapper and keep it after they are removed, so import them all.
        import eosnet

        for info in pkgutil.iter_modules(eosnet.__path__):
            importlib.import_module(f"eosnet.{info.name}")
        try:
            for module_name, attribute, span_name, count in TARGETS:
                owner, leaf = _resolve(module_name, attribute)
                original = getattr(owner, leaf)
                wrapper = self._wrap(original, span_name, count)
                self._patch(owner, leaf, wrapper)
                if owner is not sys.modules[module_name]:
                    continue  # a method: patched once, on its class
                for name, module in list(sys.modules.items()):
                    if (name.startswith("eosnet.") and module is not owner
                            and module.__dict__.get(leaf) is original):
                        self._patch(module, leaf, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def save(self, path):
        """Write the spans and counters as one ``.npz`` file."""
        np.savez(
            path,
            span_names=np.array(self.span_names, dtype=str),
            names=np.frombuffer(self.names, dtype=np.uint16),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            counter_names=np.array(list(self.counters), dtype=str),
            counter_values=np.array(list(self.counters.values()), dtype=np.int64),
        )


def layer_totals(path) -> dict[str, float]:
    """Self seconds (``<span>_s``), call counts (``<span>_calls``), the
    root span's duration (``root_s``) and every counter of a saved trace."""
    with np.load(path) as data:
        names, parents = data["names"], data["parents"]
        duration = data["ends"] - data["starts"]
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=duration[nested],
                               minlength=duration.shape[0])
        self_time = duration - children
        n_names = len(data["span_names"])
        self_sum = np.bincount(names, weights=self_time, minlength=n_names)
        calls = np.bincount(names, minlength=n_names)
        totals = {"root_s": float(duration[~nested].sum())}
        for i, span_name in enumerate(data["span_names"]):
            totals[f"{span_name}_s"] = float(self_sum[i])
            totals[f"{span_name}_calls"] = int(calls[i])
        for name, value in zip(data["counter_names"], data["counter_values"]):
            totals[str(name)] = int(value)
    return totals
