"""Small shared helpers: number formatting, table rows, output files, digests, dims."""

import contextlib
import hashlib
import os
import stat
import warnings

import numpy as np

_ROW_BLOCK = 1024
_TABLE_MAX = 1 << 16  # strings in one integer column's table, about 4 MB


def _repr_is_positional(mag):  # where repr is fmt_real's string, an integral ".0" dropped
    return (mag < 1e16) & ((mag >= 1e-4) | (mag == 0))


def fmt_real(x):
    """Shortest decimal string that parses back to the same float64.

    Integral values drop the trailing point (1.0 -> "1") so record files
    stay compact; parsers accept both plain decimal and scientific forms.
    """
    x = float(x)
    if _repr_is_positional(abs(x)):
        return repr(x).removesuffix(".0")
    return np.format_float_positional(x, unique=True, trim="-")


def _float_strs(block):
    # fmt_real over a block, its repr fast path taken for the whole block at once;
    # the rest (exponent forms, inf, nan) goes through fmt_real itself.
    block = block.astype(np.float64, copy=False)  # fmt_real formats float(x)
    strs = list(map(repr, block.tolist()))
    positional = _repr_is_positional(np.abs(block))
    for p in np.flatnonzero(~positional).tolist():
        strs[p] = fmt_real(block[p])
    for p in np.flatnonzero(positional & (block == np.trunc(block))).tolist():
        strs[p] = strs[p][:-2]
    return strs


def _block_formatter(col, base):
    # The function that turns a block of ``col`` into its strings, ``base`` added.
    # A signed integer column gets a table, str(v + base) at [v - lo], built once,
    # when it spans fewer values than it has rows and than _TABLE_MAX. The bounds
    # are Python ints and v - lo is made in int64, so neither wraps. Otherwise a
    # signed integer column, the tensor's int16 or int32 ones too, takes its base
    # in int64, which wraps only where v + base leaves int64.
    signed = col.dtype.kind == "i"
    if signed and col.size:
        lo, hi = int(col.min()), int(col.max())
        if hi - lo < min(col.size, _TABLE_MAX) and -(2**63) <= lo + base and hi + base < 2**63:
            table = np.array(list(map(str, range(lo + base, hi + base + 1))), dtype=object)
            return lambda b: table.take(np.subtract(b, lo, dtype=np.int64)).tolist()
    fmt = _float_strs if col.dtype.kind == "f" else lambda b: map(str, b.tolist())
    wide = np.int64 if signed else None
    return (lambda b: fmt(np.add(b, base, dtype=wide))) if base else fmt


def write_rows(fh, columns, sep=" ", base=0):
    """One line per row of equal-length columns: ints via ``str``, floats as fmt_real.

    ``base`` is added to the first three columns, a record's coordinates, in
    int64 for a signed integer column of any width. A signed integer column
    that spans fewer values than it has rows (a coordinate column spans at most
    its dim) is formatted through a table of its strings, built once per call
    and capped at ``_TABLE_MAX`` strings; other integer columns go through
    ``str`` per value. Rows become Python objects a block at a time, never a
    whole column at once, and the shift is made block by block too.
    """
    columns = [np.asarray(c) for c in columns]
    formats = [_block_formatter(c, base if m < 3 else 0) for m, c in enumerate(columns)]
    for lo in range(0, len(columns[0]), _ROW_BLOCK):
        cells = [fmt(c[lo : lo + _ROW_BLOCK]) for fmt, c in zip(formats, columns)]
        fh.write("\n".join(map(sep.join, zip(*cells))) + "\n")


def loadtxt_or_none(lines, dtype, delimiter=None, ndmin=1):
    """``np.loadtxt`` over text lines, or None where it rejects them.

    No comment handling: a ``#`` anywhere is a parse error, so callers fall
    back to their per-line reader, which owns comments and error messages.
    Any warning counts as a rejection (numpy 1.x only warns when it reads
    ``1.0`` into an int column; empty input warns), so none reaches stderr.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, dtype=dtype, delimiter=delimiter, comments=None,
                              ndmin=ndmin)
    except (ValueError, OverflowError, Warning):
        return None


def _is_path(obj):
    return isinstance(obj, (str, bytes, os.PathLike)) and not hasattr(obj, "read")


@contextlib.contextmanager
def _open_sink(sink):
    # The one place output files are opened. A path is written to a new
    # file beside its target, which replaces the target (keeping its mode)
    # only once writing has finished: an error leaves the old file as it
    # was and removes the new one. A path to something other than a regular
    # file (a device, a pipe) is written directly. A stream is written as
    # given and left open for its owner.
    if not _is_path(sink):
        yield sink
        return
    target = os.fsdecode(os.path.realpath(sink) if os.path.islink(sink) else sink)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(sink, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    folder, name = os.path.split(target)
    tmp = os.path.join(folder, f".{name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, os.fspath(sink)) from None
    try:
        with fh:
            yield fh
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def parse_dims(text):
    """Parse an "IxJxK" dimension triple, e.g. "20x20x8"."""
    parts = str(text).lower().split("x")
    if len(parts) != 3:
        raise ValueError(f"expected dims as IxJxK, got {text!r}")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"expected dims as IxJxK, got {text!r}") from None
    if not all(0 < d < 2**63 for d in dims):
        raise ValueError(f"dimensions must be positive and below 2**63, got {text!r}")
    return dims
