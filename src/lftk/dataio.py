"""Record-file ingestion, synthetic data generation, and result writers.

Record files carry one observation per line in the fixed column order
user, service, time, value. Lines starting with ``#`` are comments and
blank lines are ignored. The delimiter (whitespace or comma) and the
index base (0 or 1) are configurable so externally published QoS logs can
be ingested as-is.
"""

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from ._util import _is_path, _open_sink, fmt_real
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

    def split_line(self, line):
        if self.delimiter == "comma":
            return [f.strip() for f in line.split(",")]
        return line.split()

    def join_fields(self, fields):
        return (",".join(fields)) if self.delimiter == "comma" else " ".join(fields)


def _text_lines(source):
    if _is_path(source):
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
        return
    if isinstance(source, io.TextIOBase):
        yield from source
        return
    # binary stream
    yield from io.TextIOWrapper(source, encoding="utf-8")


def _record_lines(source, split_line, n_fields):
    # (line number, fields) of every record line; blank and "#" lines are
    # skipped, and a line with the wrong field count is rejected.
    for lineno, raw in enumerate(_text_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = split_line(line)
        if len(fields) != n_fields:
            raise DataFormatError(
                f"line {lineno}: expected {n_fields} fields, got {len(fields)}"
            )
        yield lineno, fields


def load_records(source, fmt=RecordFormat(), dims=None):
    """Parse a record stream into a :class:`SparseTensor`.

    ``source`` may be a file path or an open text/byte stream. When
    ``dims`` is omitted, each dimension is inferred as the largest index
    seen plus one (published dataset descriptions and actual index ranges
    do not always agree, so the data wins). Malformed lines, negative
    values, and out-of-base indices are rejected with their line number;
    duplicate coordinates are rejected when the tensor is built.
    """
    base = fmt.index_base
    ii, jj, kk, yy = [], [], [], []
    for lineno, fields in _record_lines(source, fmt.split_line, 4):
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
    if dims is None:
        if not ii:
            raise DataFormatError("no records found and no dims given")
        dims = (max(ii) + 1, max(jj) + 1, max(kk) + 1)
    try:
        return SparseTensor.from_arrays(dims, ii, jj, kk, yy)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None


def write_records(entries, sink, fmt=RecordFormat()):
    """Inverse of :func:`load_records`: one record line per entry."""
    ii, jj, kk, yy = entry_arrays(entries)
    base = fmt.index_base
    with _open_sink(sink) as fh:
        for i, j, k, y in zip(ii, jj, kk, yy):
            fields = (str(i + base), str(j + base), str(k + base), fmt_real(y))
            fh.write(fmt.join_fields(fields) + "\n")


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
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        if not 0 <= self.outlier_rate < 1:
            raise ValueError(f"outlier_rate must be in [0, 1), got {self.outlier_rate}")
        if not self.outlier_scale > 1:
            raise ValueError(f"outlier_scale must be > 1, got {self.outlier_scale}")

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
    flat = np.sort(rng.choice(spec.n_cells, size=n, replace=False))
    ii, jj, kk = np.unravel_index(flat, spec.dims)
    y = truth.predict_entries(ii, jj, kk)
    y = np.maximum(y + rng.normal(0.0, spec.noise_std, n), 0.0)
    mask = np.zeros(n, dtype=bool)
    n_out = int(math.floor(spec.outlier_rate * n + 1e-9))
    if n_out:
        mask[rng.choice(n, size=n_out, replace=False)] = True
        y[mask] *= spec.outlier_scale
    observed = SparseTensor.from_arrays(spec.dims, ii, jj, kk, y)
    return observed, truth, mask


def write_predictions(model, entries, sink):
    """Write ``i j k y_true y_pred abs_err`` lines for the given entries."""
    ii, jj, kk, yy = entry_arrays(entries)
    pred = model.predict_entries(ii, jj, kk) if yy.size else np.empty(0)
    with _open_sink(sink) as fh:
        for i, j, k, y, p in zip(ii, jj, kk, yy, pred):
            fh.write(
                f"{i} {j} {k} {fmt_real(y)} {fmt_real(p)} {fmt_real(abs(y - p))}\n"
            )


def write_outlier_mask(tensor, mask, sink):
    """Persist the coordinates of the flagged entries, one ``i j k`` line each."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (tensor.n_entries,):
        raise ValueError("mask length does not match the tensor's entry count")
    with _open_sink(sink) as fh:
        fh.write("# flagged entries: i j k (0-based)\n")
        fh.writelines(f"{i} {j} {k}\n" for i, j, k in tensor.idx[:, mask].T.tolist())


def load_outlier_mask(source):
    """Read flagged coordinates back as a set of (i, j, k) triples."""
    triples = set()
    for lineno, fields in _record_lines(source, str.split, 3):
        try:
            triples.add(tuple(int(f) for f in fields))
        except ValueError:
            raise DataFormatError(f"line {lineno}: non-integer field") from None
    return triples


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
