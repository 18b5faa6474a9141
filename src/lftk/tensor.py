"""Sparse third-order tensor storage with per-mode entry counts.

The observed entries of a user x service x time tensor are kept in
coordinate form, as one (3, n) int64 index block (rows user, service,
time) next to the n values, with one entry-count vector per mode: for
every user (service, time) index, how many entries are observed for
that entity. The vectorized training sweeps need only these counts; the
positions of one entity's entries (its slice) are found on demand by a
scan, which only the scalar reference updates use.
"""

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

    Immutable after construction; every exposed array is read-only, so a
    tensor can be shared freely across threads and model runs.

    Use :func:`build_tensor` or :meth:`from_arrays` to construct one.
    """

    def __init__(self, dims, idx, y, _validated=False):
        if not _validated:
            raise TypeError("use build_tensor() or SparseTensor.from_arrays()")
        self._dims = dims
        self._idx, self._y = idx, y
        self._counts = [np.bincount(row, minlength=d) for row, d in zip(idx, dims)]
        for arr in (idx, y, *self._counts):
            arr.flags.writeable = False

    @classmethod
    def from_arrays(cls, dims, i, j, k, y):
        """Validate coordinate arrays and build the tensor.

        Rejects out-of-range indices, negative or non-finite values, and
        duplicate (i, j, k) triples (silent aggregation would change the
        per-entity entry counts that the optimizer's constants are built
        from).
        """
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise ValueError(f"dims must be three positive integers, got {dims}")
        # Private copies: the tensor freezes its arrays and must not alias
        # caller-owned storage. One call, so list input is held only once.
        idx = np.array((i, j, k), dtype=np.int64)
        y = np.array(y, dtype=np.float64)
        if idx.ndim != 2 or y.shape != idx.shape[1:]:
            raise ValueError("coordinate arrays must be equal-length 1-D")
        for mode, row, dim in zip(MODES, idx, dims):
            if row.size and (row.min() < 0 or row.max() >= dim):
                bad = row[(row < 0) | (row >= dim)][0]
                raise ValueError(f"{mode} index {bad} out of range for dimension {dim}")
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
        """Read-only (3, n) int64 coordinates; rows user, service, time are i, j, k."""
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
        """Number of observed entries per index of the given mode."""
        return self._counts[_mode_axis(mode)]

    def slice(self, mode, index):
        """Positions of the entries whose coordinate in `mode` equals `index`.

        Ascending and read-only; found by one scan over the mode's
        coordinates, so concatenating every slice of a mode gives a
        permutation of the entry positions.
        """
        axis = _mode_axis(mode)
        index = int(index)
        if not 0 <= index < self._dims[axis]:
            raise IndexError(
                f"{mode} index {index} out of range for dimension {self._dims[axis]}"
            )
        pos = np.flatnonzero(self.mode_indices(mode) == index)
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


def _check_duplicates(dims, idx):
    if idx.shape[1] < 2:
        return
    ravel = (idx[0] * dims[1] + idx[1]) * dims[2] + idx[2]
    order = np.argsort(ravel, kind="stable")
    srt = ravel[order]
    dup = np.nonzero(srt[1:] == srt[:-1])[0]
    if dup.size:
        p = order[dup[0]]
        raise ValueError(f"duplicate entry at {tuple(idx[:, p].tolist())}")


def build_tensor(dims, entries):
    """Build a :class:`SparseTensor` from (i, j, k, y) tuples or Entry records."""
    return SparseTensor.from_arrays(dims, *entry_arrays(entries))


def entry_arrays(entries):
    """(i, j, k, y) arrays from a SparseTensor or an iterable of entries."""
    if isinstance(entries, SparseTensor):
        return (*entries.idx, entries.y)
    rows = list(entries)
    i = np.array([r[0] for r in rows], dtype=np.int64)
    j = np.array([r[1] for r in rows], dtype=np.int64)
    k = np.array([r[2] for r in rows], dtype=np.int64)
    y = np.array([r[3] for r in rows], dtype=np.float64)
    return i, j, k, y
