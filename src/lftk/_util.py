"""Small shared helpers: number formatting, output files, digests, dims."""

import contextlib
import hashlib
import os

import numpy as np


def fmt_real(x):
    """Shortest decimal string that parses back to the same float64.

    Integral values drop the trailing point (1.0 -> "1") so record files
    stay compact; parsers accept both plain decimal and scientific forms.
    """
    return np.format_float_positional(float(x), unique=True, trim="-")


def _is_path(obj):
    return isinstance(obj, (str, bytes, os.PathLike)) and not hasattr(obj, "read")


@contextlib.contextmanager
def _open_sink(sink):
    # The one place output files are opened: a path is opened and closed
    # here; a stream is written as given and left open for its owner.
    if not _is_path(sink):
        yield sink
        return
    with open(sink, "w", encoding="utf-8", newline="\n") as fh:
        yield fh


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
