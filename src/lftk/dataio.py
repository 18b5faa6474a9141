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
from .tensor import SparseTensor, _index_dtype, check_dims, entry_arrays


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


def _record_lines(lines, sep, n_fields, start=1):
    # (line number, counting from start, and fields) of every record line; blank and
    # "#" lines are skipped, and a line with the wrong field count is rejected.
    for lineno, raw in enumerate(lines, start):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(None if sep == " " else sep)
        if len(fields) != n_fields:
            raise DataFormatError(
                f"line {lineno}: expected {n_fields} fields, got {len(fields)}"
            )
        yield lineno, fields


def _parse_records(lines, fmt, start=1):
    # The reference parser, one line at a time from line number start: the records as
    # a _RECORD_DTYPE array, index base not taken off. Every error names its line.
    base, rows = fmt.index_base, []
    for lineno, fields in _record_lines(lines, fmt.sep, 4, start):
        try:
            i, j, k = int(fields[0]), int(fields[1]), int(fields[2])
            y = float(fields[3])
        except ValueError:
            raise DataFormatError(f"line {lineno}: non-numeric field") from None
        if min(i, j, k) < base:
            raise DataFormatError(
                f"line {lineno}: index below base {base}: ({i}, {j}, {k})"
            )
        if max(i, j, k) >= 2**63:
            raise DataFormatError(f"line {lineno}: index not below 2**63: ({i}, {j}, {k})")
        if not math.isfinite(y):
            raise DataFormatError(f"line {lineno}: value is not finite")
        if y < 0:
            raise DataFormatError(f"line {lineno}: negative value {fmt_real(y)}")
        rows.append((i, j, k, y))
    return np.array(rows, _RECORD_DTYPE)


# lines per np.loadtxt call: a block's record array is 128 KiB, and a block that
# numpy declines is held as str lines for the line parser
_PARSE_BLOCK = 1 << 12


def _blocks(lines):
    # (number of its first line, block) for up to _PARSE_BLOCK lines at a time; a block
    # starts at a line that is neither blank nor "#" (which loadtxt would decline)
    lines, lineno = iter(lines), 1  # the number of the next line
    for line in lines:
        if not line.strip() or line.lstrip().startswith("#"):
            lineno += 1
            continue
        block = [line, *itertools.islice(lines, _PARSE_BLOCK - 1)]
        yield lineno, block
        lineno += len(block)


def _parse_block(first, block, fmt):
    # (coordinates, values) of one block's records, the coordinates less the index base
    # in the narrowest type that holds the block's own largest. numpy parses the block;
    # one that it declines (a "#" line, a spelling it does not take, a warning) or that
    # fails the base, finite or nonnegative check goes through the line parser alone,
    # which builds what numpy accepts bit for bit and names the first bad line.
    sep, base = None if fmt.sep == " " else fmt.sep, fmt.index_base
    rec = loadtxt_or_none(block, _RECORD_DTYPE, sep)
    if (rec is None or not rec.size or min(rec[c].min() for c in "ijk") < base
            or not (rec["y"].min() >= 0 and rec["y"].max() < np.inf)):  # NaN fails too
        rec = _parse_records(block, fmt, first)  # a record line first: never empty
    top = max(int(rec[c].max()) for c in "ijk") - base
    idx = np.empty((3, rec.size), _index_dtype((top + 1,)))
    for row, c in zip(idx, "ijk"):  # in range of the row's type: exact
        np.subtract(rec[c], base, out=row, casting="unsafe")
    return idx, rec["y"].copy()


# blocks joined into one part as they arrive: 32 MiB of values, an array glibc maps apart
# from its heap and unmaps when freed, so later blocks reuse the heap, not grow it
_PART_BLOCKS = (32 << 20) // (8 * _PARSE_BLOCK)


def load_records(source, fmt=RecordFormat(), dims=None):
    """Parse a record stream into a :class:`SparseTensor`.

    ``source`` may be a file path or an open text/byte stream. When
    ``dims`` is omitted, each dimension is inferred as the largest index
    seen plus one (published dataset descriptions and actual index ranges
    do not always agree, so the data wins). Malformed lines, negative
    values, out-of-base indices and indices of 2**63 or more are rejected
    with their line number; duplicate and out-of-range coordinates are
    rejected when the tensor is built, naming the cell as the file writes it.

    The source is read once, as iterating it splits lines (so a pipe
    splits them as any stream in its newline mode does), a block of lines
    at a time. numpy parses a block; a block it does not accept (a comment
    line included) is parsed alone line by line, which gives the same
    records or the line-numbered error. Each block keeps its coordinates
    in the narrowest type that holds them. Every 1,024 blocks (4M lines, up
    to 32 MiB of values) are joined into one part as they arrive, and the parts
    and the last blocks once at the end, values first, into the widest type.
    """
    parts = []
    with _text_stream(source) as fh:  # a helper per block: only its arrays outlive it
        for n, (first, block) in enumerate(_blocks(fh), 1):
            parts.append(_parse_block(first, block, fmt))
            if n % _PART_BLOCKS == 0:  # the last _PART_BLOCKS blocks become one part
                parts[-_PART_BLOCKS:] = [tuple(np.concatenate(a, axis=-1)
                                               for a in zip(*parts[-_PART_BLOCKS:]))]
    parts.append((np.empty((3, 0), np.int16), np.empty(0)))  # a source of no record joins too
    y = np.concatenate([y for _, y in parts])
    idx = [idx for idx, _ in parts]
    del parts  # the parts' values go here, their coordinates once joined
    idx = np.concatenate(idx, axis=1)
    if dims is None:
        if not y.size:
            raise DataFormatError("no records found and no dims given")
        dims = tuple(int(m) + 1 for m in idx.max(axis=1))
    try:
        return SparseTensor.from_arrays(dims, *idx, y, _adopt=idx, _base=fmt.index_base)
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
        object.__setattr__(self, "dims", check_dims(self.dims))
        if self.n_cells >= 2**63:  # synthesize samples a flat int64 cell index
            raise ValueError(f"dims must have fewer than 2**63 cells, got {self.dims}")
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


# swap targets per rng.integers call when _sample_cells replays choice's shuffle
_DRAW_BLOCK = 1 << 16


def _sample_cells(rng, n_cells, n):
    # np.sort(rng.choice(n_cells, size=n, replace=False)), leaving rng where that
    # call leaves it, but without the arange(n_cells) that choice fills.
    floyd = n_cells <= 10000 or n <= n_cells // 50  # choice's memory is O(n) here already
    # the replay's searches slow with density: the two tie on time from 11% to 14%
    # (choice wins from 15%), where the replay holds ~18 B per drawn cell against
    # choice's 72-137 B, so the cut sits in the tie
    dense = 8 * n > n_cells
    b = (n - 1).bit_length()  # a key is target << b | step, which must fit in int64
    if floyd or dense or (n_cells - 1).bit_length() + b > 63:
        flat = rng.choice(n_cells, size=n, replace=False)
        flat.sort()
        return flat
    # choice fills arange(n_cells), then step s = 0, ..., n-1 swaps slot top - s with a
    # target drawn from [0, top - s] and keeps slots top - n + 1 to top: a step outputs
    # what its target holds and moves in what slot top - s holds. The targets are drawn
    # a block at a time, and their sorted keys put each slot's takers in step order.
    top, low = n_cells - 1, (1 << b) - 1
    key = np.empty(n, np.int64)
    for s in range(0, n, _DRAW_BLOCK):
        e = min(s + _DRAW_BLOCK, n)
        key[s:e] = rng.integers(0, np.arange(top - s, top - e, -1), endpoint=True) << b
        key[s:e] |= np.arange(s, e)
    key.sort()
    # A slot's first taker outputs the slot; a later one, what the taker p before it
    # moved in: slot top - p, or, if a step took that slot before p, what the last such
    # step moved in, followed the same way. Its key is the last below (top - p) << b | p.
    later = np.flatnonzero((key[1:] ^ key[:-1]) <= low) + 1
    out, todo, p = np.empty(later.size, np.int64), np.arange(later.size), key[later - 1] & low
    while todo.size:
        slot = top - p
        q = slot << b | p
        link = key[np.searchsorted(key, q) - 1]
        taken = (link >= q - p) & (link < q)  # link's target is slot top - p
        out[todo[~taken]] = slot[~taken]
        todo, p = todo[taken], link[taken] & low
    key >>= b
    key[later] = out
    key.sort()
    return key


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
    flat = _sample_cells(rng, spec.n_cells, n)
    # unraveled into the rows of the block the tensor keeps, in the type it keeps
    # them in: k, then j and i
    idx = np.empty((3, n), _index_dtype(spec.dims))
    np.divmod(flat, nk, out=(flat, idx[2]))
    np.divmod(flat, nj, out=(idx[0], idx[1]))
    del flat
    y = truth.predict_entries(*idx)
    y += rng.normal(0.0, spec.noise_std, n)
    np.maximum(y, 0.0, out=y)
    mask = np.zeros(n, dtype=bool)
    n_out = int(math.floor(spec.outlier_rate * n + 1e-9))
    if n_out:
        mask[_sample_cells(rng, n, n_out)] = True
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
    """The flagged triples that name a cell of ``dims``, as ``(n, 3)`` int64 rows in file order.

    Read a block of lines at a time, as :func:`load_records` reads: numpy
    parses a block in one call, and a block it does not accept is parsed
    alone line by line, which gives the same rows or the line-numbered error.
    """
    parts = [np.empty((0, 3), np.int64)]
    with _text_stream(source) as fh:
        for first, block in _blocks(fh):
            arr = loadtxt_or_none(block, np.int64, ndmin=2)
            if arr is None or arr.shape[1:] != (3,):  # the line parser, this block alone
                rows = []
                for lineno, fields in _record_lines(block, " ", 3, first):
                    try:
                        row = [int(f) for f in fields]
                    except ValueError:
                        raise DataFormatError(f"line {lineno}: non-integer field") from None
                    if all(0 <= v < d for v, d in zip(row, dims)):
                        rows.append(row)
                arr = np.array(rows, np.int64).reshape(-1, 3)
            parts.append(arr[((arr >= 0) & (arr < np.array(dims))).all(axis=1)])
    return np.concatenate(parts)


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
