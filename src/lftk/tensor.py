"""Sparse third-order tensor storage in coordinate form.

The observed entries of a user x service x time tensor are kept as one
(3, n) index block (rows user, service, time) next to the n values, and
nothing else. The block has the narrowest of int16, int32 and int64 that
holds every index the dims allow: int16 at the WS-Dream shape, so 14 B per
entry with the values. Arithmetic that could leave that type (cell keys,
an added index base) is done in int64. Per-mode entry counts (how many
entries each user, service or time index has) are made on each call, once
per training run. The positions of one entity's entries (its slice) are
found on demand by a scan, which only the scalar reference updates use.
"""

import math
from typing import NamedTuple

import numpy as np

MODES = ("user", "service", "time")


class Entry(NamedTuple):
    """One observed cell: coordinates and the nonnegative measured value."""

    i: int
    j: int
    k: int
    y: float


def _mode_axis(mode):
    try:
        return MODES.index(mode)
    except ValueError:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}") from None


class SparseTensor:
    """Observed entries of an |I| x |J| x |K| nonnegative tensor.

    Holds only dims, coordinates and values, all read-only, so a tensor
    can be shared freely across threads and model runs; per-mode entry
    counts are made on each call to :meth:`slice_counts`. The coordinates
    are one (3, n) block of the narrowest integer type that the dims allow
    (see :attr:`idx`), so an entry takes 14 B while every dim is at most
    2**15, 20 B up to 2**31 and 32 B beyond.

    Use :func:`build_tensor` or :meth:`from_arrays` to construct one.
    """

    def __init__(self, dims, idx, y, _validated=False):
        if not _validated:
            raise TypeError("use build_tensor() or SparseTensor.from_arrays()")
        self._dims = dims
        self._idx, self._y = idx, y
        idx.flags.writeable = y.flags.writeable = False

    @classmethod
    def from_arrays(cls, dims, i, j, k, y, *, _adopt=None):
        """Validate coordinate arrays and build the tensor.

        Rejects out-of-range indices, negative or non-finite values, and
        duplicate (i, j, k) triples (silent aggregation would change the
        per-entity entry counts that the optimizer's constants are built
        from). The tensor keeps private copies of the arrays, its
        coordinates in the narrowest integer type that the dims allow.
        """
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3 or not all(0 < d < 2**63 for d in dims):
            raise ValueError(f"dims must be three positive integers below 2**63, got {dims}")
        if _adopt is None:
            # Private copies: the tensor freezes its arrays and must not alias
            # caller-owned storage. One call, so list input is held only once.
            idx = np.array((i, j, k))
            y = np.array(y, dtype=np.float64)
        else:
            # load_records and synthesize pass the (3, n) integer block whose rows
            # are i, j, k, and float64 values, both made for this tensor: kept as is
            idx = _adopt
        if idx.ndim != 2 or y.shape != idx.shape[1:]:
            raise ValueError("coordinate arrays must be equal-length 1-D")
        for mode, row, dim in zip(MODES, idx, dims):
            check_coords(mode, row, dim)
        idx = idx.astype(_index_dtype(dims), copy=False)
        if y.size:
            if not np.isfinite(y).all():
                raise ValueError("entry values must be finite")
            if y.min() < 0:
                raise ValueError(f"entry values must be nonnegative, got {y.min()}")
        _check_duplicates(dims, idx)
        return cls(dims, idx, y, _validated=True)

    @property
    def dims(self):
        return self._dims

    @property
    def n_entries(self):
        return self._y.size

    @property
    def density(self):
        total = self._dims[0] * self._dims[1] * self._dims[2]
        return self._y.size / total

    @property
    def idx(self):
        """Read-only (3, n) coordinates; rows user, service, time are i, j, k.

        Of the narrowest of int16, int32 and int64 that holds
        ``max(dims) - 1``; a tensor whose dims were widened after it was
        built keeps its narrower block. Arithmetic that could leave that
        type belongs in int64.
        """
        return self._idx

    i = property(lambda self: self._idx[0])
    j = property(lambda self: self._idx[1])
    k = property(lambda self: self._idx[2])

    @property
    def y(self):
        return self._y

    def mode_indices(self, mode):
        """Coordinate array of every entry along the given mode."""
        return self._idx[_mode_axis(mode)]

    def slice_counts(self, mode):
        """Number of observed entries per index of the given mode, counted anew."""
        axis = _mode_axis(mode)
        return np.bincount(self._idx[axis], minlength=self._dims[axis])

    def slice(self, mode, index):
        """Positions of the entries whose coordinate in `mode` equals `index`.

        Ascending and read-only; found by one scan over the mode's
        coordinates, so concatenating every slice of a mode gives a
        permutation of the entry positions.
        """
        axis = _mode_axis(mode)
        check_coords(mode, np.asarray([index]), self._dims[axis], IndexError)
        pos = np.flatnonzero(self._idx[axis] == index)
        pos.flags.writeable = False
        return pos

    def entry(self, pos):
        return Entry(*self._idx[:, pos].tolist(), float(self._y[pos]))

    def entries(self):
        """All entries, in construction order."""
        return list(map(Entry, *self._idx.tolist(), self._y.tolist()))

    def take(self, positions):
        """New tensor with the same dims holding the entries at `positions`.

        Positions come from a valid tensor, so duplicate checking is skipped.
        """
        pos = np.asarray(positions, dtype=np.int64)
        # np.take keeps the block C-contiguous; idx[:, pos] would not
        return SparseTensor(self._dims, self._idx.take(pos, axis=1), self._y[pos],
                            _validated=True)

    def __repr__(self):
        return f"SparseTensor(dims={self._dims}, n_entries={self.n_entries})"


def check_coords(mode, row, dim, error=ValueError):
    """Reject a ``mode`` coordinate that is not a whole number in ``[0, dim)``.

    A float that is not integral (0.7, NaN, inf) raises ``ValueError`` rather
    than being truncated; an index out of range raises ``error``.
    """
    if row.dtype.kind == "f":
        whole = np.isfinite(row) & (row == np.trunc(row))
        if not whole.all():
            raise ValueError(f"{mode} index {row[~whole][0]} is not an integer")
    if row.size and (row.min() < 0 or row.max() >= dim):
        bad = row[(row < 0) | (row >= dim)][0]
        raise error(f"{mode} index {int(bad)} out of range for dimension {dim}")


def _index_dtype(dims):
    # the narrowest of int16, int32 and int64 that holds every index below dims
    top = max(dims) - 1
    return np.dtype(np.int16 if top < 2**15 else np.int32 if top < 2**31 else np.int64)


def _cell_keys(dims, idx):
    # one fresh key per in-range (i, j, k) column of any integer type, equal and sorted
    # as the cells are: the raveled index, made in int64, while I*J*K fits in int64,
    # else the three as 24 big-endian bytes
    if math.prod(dims) < 2**63:
        keys = idx[0].astype(np.int64)
        keys *= dims[1]
        keys += idx[1]
        keys *= dims[2]
        keys += idx[2]
        return keys
    return np.ascontiguousarray(idx.T, dtype=">i8").view("V24")[:, 0]


def _check_duplicates(dims, idx):
    # Sorted in place: stable sorting is linear on the ordered files lftk writes. Only
    # a duplicate makes the keys anew, to name the smallest duplicated cell.
    keys = _cell_keys(dims, idx)
    keys.sort(kind="stable")
    dup = np.flatnonzero(keys[1:] == keys[:-1])
    if dup.size:
        pos = np.flatnonzero(_cell_keys(dims, idx) == keys[dup[0]])[0]
        raise ValueError(f"duplicate entry at {tuple(idx[:, pos].tolist())}")


def build_tensor(dims, entries):
    """Build a :class:`SparseTensor` from (i, j, k, y) tuples or Entry records."""
    return SparseTensor.from_arrays(dims, *entry_arrays(entries))


def entry_arrays(entries):
    """(i, j, k, y) arrays from a SparseTensor or an iterable of entries."""
    if isinstance(entries, SparseTensor):
        return (*entries.idx, entries.y)
    # coordinates keep their own dtype: a cast to int would truncate 0.7 to 0
    rows = list(entries)
    i, j, k = (np.array([r[m] for r in rows]) for m in range(3))
    return i, j, k, np.array([r[3] for r in rows], dtype=np.float64)
