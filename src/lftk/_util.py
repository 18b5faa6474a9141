"""Small shared helpers: number formatting, table rows, output files, digests, dims."""

import contextlib
import hashlib
import os
import stat

import numpy as np

_ROW_BLOCK = 4096


def fmt_real(x):
    """Shortest decimal string that parses back to the same float64.

    Integral values drop the trailing point (1.0 -> "1") so record files
    stay compact; parsers accept both plain decimal and scientific forms.
    """
    return np.format_float_positional(float(x), unique=True, trim="-")


def write_rows(fh, columns, sep=" ", base=0):
    """One line per row of equal-length columns: ints via ``str``, floats via fmt_real.

    ``base`` is added to the first three columns, a record's coordinates.
    Rows become Python objects a block at a time, never a whole column at once,
    and the shift is made block by block too.
    """
    columns = [np.asarray(c) for c in columns]
    fmts = [fmt_real if c.dtype.kind == "f" else str for c in columns]
    for lo in range(0, len(columns[0]), _ROW_BLOCK):
        blocks = [c[lo : lo + _ROW_BLOCK] for c in columns]
        if base:
            blocks[:3] = (b + base for b in blocks[:3])
        cells = [map(f, b.tolist()) for f, b in zip(fmts, blocks)]
        fh.writelines(sep.join(row) + "\n" for row in zip(*cells))


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
    if any(d <= 0 for d in dims):
        raise ValueError(f"dimensions must be positive, got {text!r}")
    return dims
