"""Spans recorded from outside lftk, by swapping module attributes.

lftk's modules call each other through module-level names (``cli`` calls
``load_records``, ``admm.train`` calls ``train_epoch`` and ``mae``, and so
on), and methods are looked up on their class at call time. Replacing those
attributes with timing wrappers therefore records one span per call at every
layer boundary without touching a line of lftk. ``Tracer.installed()``
swaps the wrappers in and always restores the originals.

A span is ``(id, name, start, end, parent id, phase, counts)``; spans stay
in memory and are summarised (or written out) when the run ends.
"""

import contextlib
import os
import time

import lftk.admm
import lftk.cli
import lftk.dataio
import lftk.evaluation
from lftk.admm import AdmmState
from lftk.model import FactorModel
from lftk.tensor import SparseTensor

ID, NAME, START, END, PARENT, PHASE, COUNTS = range(7)


def _size(path):
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _records_read(a, kw, r):
    return {"records": r.n_entries, "bytes_read": _size(_arg(a, kw, 0, "source"))}


def _records_written(a, kw, r):
    return {"records": _arg(a, kw, 0, "entries").n_entries,
            "bytes_written": _size(_arg(a, kw, 1, "sink"))}


def _predictions_written(a, kw, r):
    return {"entries": _arg(a, kw, 1, "entries").n_entries,
            "bytes_written": _size(_arg(a, kw, 2, "sink"))}


def _trained(a, kw, r):
    report = r[1]
    return {"entries": _arg(a, kw, 0, "tensor_train").n_entries,
            "epochs": len(report.epochs), "best_epoch": report.best_epoch}


# (owner, attribute, span name, counter). Each binding an lftk module calls
# through is wrapped on its own, so one call never passes two wrappers.
TARGETS = (
    (lftk.cli, "load_records", "dataio.load_records", _records_read),
    (lftk.cli, "write_records", "dataio.write_records", _records_written),
    (lftk.cli, "write_predictions", "dataio.write_predictions", _predictions_written),
    (lftk.cli, "write_outlier_mask", "dataio.write_outlier_mask",
     lambda a, kw, r: {"bytes_written": _size(_arg(a, kw, 2, "sink"))}),
    (lftk.cli, "load_outlier_mask", "dataio.load_outlier_mask",
     lambda a, kw, r: {"records": len(r), "bytes_read": _size(_arg(a, kw, 0, "source"))}),
    (lftk.cli, "write_split_metadata", "dataio.write_split_metadata",
     lambda a, kw, r: {"bytes_written": _size(_arg(a, kw, 0, "sink"))}),
    (lftk.cli, "synthesize", "dataio.synthesize", None),
    (lftk.dataio, "synthesize", "dataio.synthesize", None),
    (lftk.cli, "split", "evaluation.split", None),
    (lftk.evaluation, "split", "evaluation.split", None),
    (lftk.cli, "mae", "evaluation.mae", None),
    (lftk.admm, "mae", "evaluation.mae", None),
    (lftk.evaluation, "mae", "evaluation.mae", None),
    (lftk.cli, "save_model", "model.save_model",
     lambda a, kw, r: {"bytes_written": _size(_arg(a, kw, 1, "path"))}),
    (lftk.cli, "load_model", "model.load_model",
     lambda a, kw, r: {"bytes_read": _size(_arg(a, kw, 0, "path"))}),
    (lftk.cli, "train", "admm.train", _trained),
    (lftk.admm, "train", "admm.train", _trained),
    (lftk.admm, "train_epoch", "admm.train_epoch", None),
    (lftk.admm, "project_nonnegative", "admm.project_nonnegative", None),
    (lftk.admm, "update_multipliers", "admm.update_multipliers", None),
    (lftk.admm, "objective", "admm.objective", None),
    (AdmmState, "max_primal_residual", "admm.max_primal_residual", None),
    (FactorModel, "predict_entries", "model.predict_entries",
     lambda a, kw, r: {"entries": r.size}),
    (FactorModel, "copy", "model.copy", None),
    (SparseTensor, "from_arrays", "tensor.from_arrays",
     lambda a, kw, r: {"entries": r.n_entries}),
    (SparseTensor, "take", "tensor.take", lambda a, kw, r: {"entries": r.n_entries}),
)


class Tracer:
    """In-memory span recorder for one benchmark process.

    Finished spans are tuples, which the garbage collector stops tracking,
    so a long run's spans do not slow collections down. Span ids are
    assigned when a span opens; spans are stored as they close.
    """

    def __init__(self):
        self.spans = []
        self._phase = -1
        self._next_id = 0
        self._stack = []  # (id, name, start) of the open spans

    def begin_phase(self):
        """Start a new phase (one set-up or one pass); returns its id."""
        self._phase += 1
        return self._phase

    def open(self, name):
        self._next_id += 1
        self._stack.append((self._next_id, name, time.perf_counter()))

    def close(self, counts=None):
        end = time.perf_counter()
        sid, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append((sid, name, start, end, parent, self._phase, counts))

    @contextlib.contextmanager
    def span(self, name):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close()
                raise
            self.close(counter(args, kwargs, result) if counter else None)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its timing wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, name, counter in TARGETS:
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapper = classmethod(self._wrap(original.__func__, name, counter))
                else:
                    wrapper = self._wrap(original, name, counter)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def durations(spans, phase):
    """Per-name totals for one phase: seconds, self seconds, calls, counts.

    Self time is a span's duration minus the durations of its direct
    children; calls are strictly nested, so children never overlap.
    """
    mine = [s for s in spans if s[PHASE] == phase]
    child = {}
    for s in mine:
        child[s[PARENT]] = child.get(s[PARENT], 0.0) + s[END] - s[START]
    out = {}
    for s in mine:
        d = s[END] - s[START]
        agg = out.setdefault(s[NAME], {"s": 0.0, "self_s": 0.0, "calls": 0, "counts": {}})
        agg["s"] += d
        agg["self_s"] += d - child.get(s[ID], 0.0)
        agg["calls"] += 1
        for key, val in (s[COUNTS] or {}).items():
            agg["counts"][key] = agg["counts"].get(key, 0) + val
    return out
