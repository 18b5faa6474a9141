"""Record-file ingestion, synthetic data generation, and result writers.

Record files carry one observation per line in the fixed column order
user, service, time, value. Lines starting with ``#`` are comments and
blank lines are ignored. The delimiter (whitespace or comma) and the
index base (0 or 1) are configurable so externally published QoS logs can
be ingested as-is.
"""

import contextlib
import io
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from ._util import _is_path, _open_sink, fmt_real, loadtxt_or_none, write_rows
from .errors import DataFormatError
from .evaluation import split_sizes
from .model import FactorModel
from .tensor import SparseTensor, entry_arrays


@dataclass(frozen=True)
class RecordFormat:
    """Line layout of a record file: delimiter and index base."""

    delimiter: str = "whitespace"
    index_base: int = 0

    def __post_init__(self):
        if self.delimiter not in ("whitespace", "comma"):
            raise ValueError(f"delimiter must be whitespace or comma, got {self.delimiter!r}")
        if self.index_base not in (0, 1):
            raise ValueError(f"index_base must be 0 or 1, got {self.index_base}")

    @property
    def sep(self):  # " " is read as any run of whitespace
        return "," if self.delimiter == "comma" else " "


_RECORD_DTYPE = np.dtype([("i", np.int64), ("j", np.int64), ("k", np.int64), ("y", np.float64)])


@contextlib.contextmanager
def _text_stream(source):
    if _is_path(source):
        with open(source, "r", encoding="utf-8") as fh:
            yield fh
    elif isinstance(source, io.TextIOBase):
        yield source
    else:  # binary stream: detached at the end, so collecting it leaves source open
        text = io.TextIOWrapper(source, encoding="utf-8")
        try:
            yield text
        finally:
            text.detach()


def _record_lines(lines, sep, n_fields):
    # (line number, fields) of every record line; blank and "#" lines are
    # skipped, and a line with the wrong field count is rejected.
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(None if sep == " " else sep)
        if len(fields) != n_fields:
            raise DataFormatError(
                f"line {lineno}: expected {n_fields} fields, got {len(fields)}"
            )
        yield lineno, fields


def _parse_records(lines, fmt):
    # The reference parser, one line at a time: every error names its line.
    base = fmt.index_base
    ii, jj, kk, yy = [], [], [], []
    for lineno, fields in _record_lines(lines, fmt.sep, 4):
        try:
            i, j, k = int(fields[0]), int(fields[1]), int(fields[2])
            y = float(fields[3])
        except ValueError:
            raise DataFormatError(f"line {lineno}: non-numeric field") from None
        if min(i, j, k) < base:
            raise DataFormatError(
                f"line {lineno}: index below base {base}: ({i}, {j}, {k})"
            )
        if not math.isfinite(y):
            raise DataFormatError(f"line {lineno}: value is not finite")
        if y < 0:
            raise DataFormatError(f"line {lineno}: negative value {fmt_real(y)}")
        ii.append(i - base)
        jj.append(j - base)
        kk.append(k - base)
        yy.append(y)
    return ii, jj, kk, yy


# records per np.loadtxt call of the bulk parse: a block's record array is 512 KiB
_PARSE_BLOCK = 1 << 14


def _bulk_records(lines, n_lines, fmt):
    # ((3, n) int64 coordinates, n float64 values) of the records among the
    # n_lines lines, parsed by np.loadtxt _PARSE_BLOCK lines at a time into arrays
    # allocated once; or None wherever _parse_records might disagree or would
    # raise: a "#" line, a parse error, a failed check, no records at all, or more
    # lines than counted. What it accepts, _parse_records builds bit for bit.
    idx, y = np.empty((3, n_lines), np.int64), np.empty(n_lines)
    lines, n = iter(lines), 0  # one iterator: loadtxt reads a list from its start
    sep = None if fmt.sep == " " else fmt.sep
    # A block starts at a non-blank line, so the end of input ends the loop, not
    # an empty block, on which loadtxt warns (a decline). islice, not max_rows,
    # which warns about blank lines, cuts a block to the rows still free: none
    # once more lines than counted have come, which declines.
    while (first := next((line for line in lines if line.strip()), None)) is not None:
        block = itertools.islice(itertools.chain((first,), lines), min(_PARSE_BLOCK, n_lines - n))
        rec = loadtxt_or_none(block, _RECORD_DTYPE, sep)
        if rec is None:
            return None
        for row, name in zip(idx, "ijk"):
            row[n : n + rec.size] = rec[name]
        y[n : n + rec.size] = rec["y"]
        n += rec.size
    if n < n_lines:  # blank lines left rows unused
        idx, y = idx[:, :n].copy(), y[:n].copy()
    base = fmt.index_base
    if not n or idx.min() < base or not np.isfinite(y).all() or y.min() < 0:
        return None
    if base:
        idx -= base
    return idx, y


def _rewindable(fh):
    # (lines, position to seek back to); a stream that cannot seek is read
    # into a list of its lines, so either parser can read it.
    try:
        if fh.seekable():
            return fh, fh.tell()
    except OSError:  # tell() after a caller's next()
        pass
    return fh.readlines(), None


def _count_lines(fh, start):
    # The lines from start on, as iterating fh splits them; fh is left at start. A
    # stream that does not decode gets a partial count: iterating it raises the
    # error again, at the byte position that the line parser's reads give.
    n, last = 0, "\n"
    try:
        for chunk in iter(lambda: fh.read(1 << 16), ""):
            # numpy counts the "\n" bytes of the UTF-8 in a quarter of str.count's time
            raw = np.frombuffer(chunk.encode("utf-8", "surrogatepass"), np.uint8)
            n, last = n + np.count_nonzero(raw == 10), chunk[-1]
    except UnicodeDecodeError:
        pass
    fh.seek(start)
    return n + (last != "\n")


def load_records(source, fmt=RecordFormat(), dims=None):
    """Parse a record stream into a :class:`SparseTensor`.

    ``source`` may be a file path or an open text/byte stream. When
    ``dims`` is omitted, each dimension is inferred as the largest index
    seen plus one (published dataset descriptions and actual index ranges
    do not always agree, so the data wins). Malformed lines, negative
    values, and out-of-base indices are rejected with their line number;
    duplicate coordinates are rejected when the tensor is built.

    The lines are counted first (a stream in one read pass, then a seek
    back), and numpy parses the records in blocks straight into the arrays
    the tensor keeps; a stream it does not accept (comment lines included)
    is parsed again line by line, which gives the same tensor or the
    line-numbered error.
    """
    with _text_stream(source) as fh:
        lines, start = _rewindable(fh)
        n_lines = len(lines) if start is None else _count_lines(lines, start)
        bulk = _bulk_records(lines, n_lines, fmt)
        if bulk is None:
            if start is not None:
                lines.seek(start)
            ii, jj, kk, yy = _parse_records(lines, fmt)
    if dims is None:
        if bulk is not None:
            dims = tuple(int(m) + 1 for m in bulk[0].max(axis=1))
        elif not yy:
            raise DataFormatError("no records found and no dims given")
        else:  # the line parser's lists hold Python ints of any size: max, not np.max
            dims = tuple(max(c) + 1 for c in (ii, jj, kk))
    try:
        if bulk is not None:
            idx, y = bulk
            return SparseTensor.from_arrays(dims, *idx, y, _adopt=idx)
        return SparseTensor.from_arrays(dims, ii, jj, kk, yy)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None


def write_records(entries, sink, fmt=RecordFormat()):
    """Inverse of :func:`load_records`: one record line per entry."""
    columns = entry_arrays(entries)
    with _open_sink(sink) as fh:
        write_rows(fh, columns, fmt.sep, fmt.index_base)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic low-rank tensor with controlled contamination."""

    dims: tuple
    rank: int
    density: float
    noise_std: float = 0.0
    outlier_rate: float = 0.0
    outlier_scale: float = 10.0
    seed: int = 0

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise ValueError(f"dims must be three positive integers, got {dims}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if not 0 < self.density <= 1:
            raise ValueError(f"density must be in (0, 1], got {self.density}")
        if self.n_observed < 1:
            raise ValueError("density too low: no cells would be observed")
        if not 0 <= self.noise_std < math.inf:
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if not 0 <= self.outlier_rate < 1:
            raise ValueError(f"outlier_rate must be in [0, 1), got {self.outlier_rate}")
        if not 1 < self.outlier_scale < math.inf:
            raise ValueError(f"outlier_scale must be finite and > 1, got {self.outlier_scale}")

    @property
    def n_cells(self):
        return self.dims[0] * self.dims[1] * self.dims[2]

    @property
    def n_observed(self):
        return int(math.floor(self.density * self.n_cells + 1e-9))


def synthesize(spec):
    """Generate (observed tensor, ground-truth model, outlier mask).

    Ground-truth factors are drawn uniformly from [0.5, 1.5) -- bounded
    away from zero so relative-error checks against the truth stay
    meaningful -- with zero biases. A ``density`` fraction of cells is
    sampled without replacement; observations are the true values plus
    Gaussian noise, clamped at zero. A ``floor(outlier_rate * n)``-sized
    random subset is multiplied by ``outlier_scale`` (QoS spikes are
    multiplicative: timeouts and congestion) and flagged in the returned
    boolean mask, aligned with entry order. Same seed, same bits.
    """
    ni, nj, nk = spec.dims
    rng = np.random.default_rng(spec.seed)
    truth = FactorModel(
        rng.uniform(0.5, 1.5, (ni, spec.rank)),
        rng.uniform(0.5, 1.5, (nj, spec.rank)),
        rng.uniform(0.5, 1.5, (nk, spec.rank)),
        np.zeros(ni),
        np.zeros(nj),
        np.zeros(nk),
    )
    n = spec.n_observed
    flat = rng.choice(spec.n_cells, size=n, replace=False)
    flat.sort()
    # unraveled into the rows of the block the tensor keeps: k, then j and i
    idx = np.empty((3, n), np.int64)
    np.divmod(flat, nk, out=(flat, idx[2]))
    np.divmod(flat, nj, out=(idx[0], idx[1]))
    del flat
    y = truth.predict_entries(*idx)
    y += rng.normal(0.0, spec.noise_std, n)
    np.maximum(y, 0.0, out=y)
    mask = np.zeros(n, dtype=bool)
    n_out = int(math.floor(spec.outlier_rate * n + 1e-9))
    if n_out:
        mask[rng.choice(n, size=n_out, replace=False)] = True
        y[mask] *= spec.outlier_scale
    observed = SparseTensor.from_arrays(spec.dims, *idx, y, _adopt=idx)
    return observed, truth, mask


def write_predictions(model, entries, sink, fmt=RecordFormat()):
    """Write each entry's record line in ``fmt``, then ``y_pred abs_err``."""
    *coords, y = entry_arrays(entries)
    pred = model.predict_entries(*coords)
    with _open_sink(sink) as fh:
        write_rows(fh, (*coords, y, pred, np.abs(y - pred)), fmt.sep, fmt.index_base)


def write_outlier_mask(tensor, mask, sink):
    """Persist the coordinates of the flagged entries, one ``i j k`` line each."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (tensor.n_entries,):
        raise ValueError("mask length does not match the tensor's entry count")
    with _open_sink(sink) as fh:
        fh.write("# flagged entries: i j k (0-based)\n")
        write_rows(fh, tensor.idx[:, mask])


def load_outlier_mask(source, dims):
    """The flagged triples that name a cell of ``dims``, as ``(n, 3)`` int64 rows in file order."""
    with _text_stream(source) as fh:
        lines = list(fh)
    # numpy parses all after the leading "#" lines; the line parser reruns on a rejection
    body = itertools.dropwhile(lambda line: line.lstrip().startswith("#"), lines)
    arr = loadtxt_or_none(list(body), np.int64, ndmin=2)
    if arr is not None and arr.shape[1:] == (3,):
        return arr[((arr >= 0) & (arr < np.array(dims))).all(axis=1)]
    rows = []
    for lineno, fields in _record_lines(lines, " ", 3):
        try:
            row = [int(f) for f in fields]
        except ValueError:
            raise DataFormatError(f"line {lineno}: non-integer field") from None
        if all(0 <= v < d for v, d in zip(row, dims)):
            rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


def write_split_metadata(sink, spec, n_entries):
    """JSON sidecar describing a split: ratios, seed, and subset counts.

    Keys are serialized in the fixed order m_ratio, n_ratio, o_ratio,
    seed, counts; UTF-8, compact separators.
    """
    n_train, n_val, n_test = split_sizes(n_entries, spec)
    obj = {
        "m_ratio": spec.m_ratio,
        "n_ratio": spec.n_ratio,
        "o_ratio": spec.o_ratio,
        "seed": spec.seed,
        "counts": {"train": n_train, "validation": n_val, "test": n_test},
    }
    with _open_sink(sink) as fh:
        fh.write(json.dumps(obj, allow_nan=False) + "\n")
