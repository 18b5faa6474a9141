"""Sparse third-order tensor storage with per-mode entry counts.

The observed entries of a user x service x time tensor are kept in
coordinate form, together with one entry-count vector per mode: for every
user (service, time) index, how many entries are observed for that
entity. The vectorized training sweeps need only these counts; the
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

    def __init__(self, dims, i, j, k, y, _validated=False):
        if not _validated:
            raise TypeError("use build_tensor() or SparseTensor.from_arrays()")
        self._dims = dims
        self._i, self._j, self._k, self._y = i, j, k, y
        self._counts = [np.bincount(idx, minlength=d) for idx, d in zip((i, j, k), dims)]
        for arr in (i, j, k, y, *self._counts):
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
        # caller-owned storage.
        i = np.array(i, dtype=np.int64, copy=True)
        j = np.array(j, dtype=np.int64, copy=True)
        k = np.array(k, dtype=np.int64, copy=True)
        y = np.array(y, dtype=np.float64, copy=True)
        if not (i.shape == j.shape == k.shape == y.shape) or i.ndim != 1:
            raise ValueError("coordinate arrays must be equal-length 1-D")
        for mode, idx, dim in zip(MODES, (i, j, k), dims):
            if idx.size and (idx.min() < 0 or idx.max() >= dim):
                bad = idx[(idx < 0) | (idx >= dim)][0]
                raise ValueError(f"{mode} index {bad} out of range for dimension {dim}")
        if y.size:
            if not np.isfinite(y).all():
                raise ValueError("entry values must be finite")
            if y.min() < 0:
                raise ValueError(f"entry values must be nonnegative, got {y.min()}")
        _check_duplicates(dims, i, j, k)
        return cls(dims, i, j, k, y, _validated=True)

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
    def i(self):
        return self._i

    @property
    def j(self):
        return self._j

    @property
    def k(self):
        return self._k

    @property
    def y(self):
        return self._y

    def mode_indices(self, mode):
        """Coordinate array of every entry along the given mode."""
        return (self._i, self._j, self._k)[_mode_axis(mode)]

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
        return Entry(
            int(self._i[pos]), int(self._j[pos]), int(self._k[pos]), float(self._y[pos])
        )

    def entries(self):
        """All entries, in construction order."""
        return [self.entry(p) for p in range(self.n_entries)]

    def take(self, positions):
        """New tensor with the same dims holding the entries at `positions`.

        Positions come from a valid tensor, so duplicate checking is skipped.
        """
        pos = np.asarray(positions, dtype=np.int64)
        return SparseTensor(
            self._dims,
            self._i[pos].copy(),
            self._j[pos].copy(),
            self._k[pos].copy(),
            self._y[pos].copy(),
            _validated=True,
        )

    def __repr__(self):
        return f"SparseTensor(dims={self._dims}, n_entries={self.n_entries})"


def _check_duplicates(dims, i, j, k):
    if i.size < 2:
        return
    ravel = (i * dims[1] + j) * dims[2] + k
    order = np.argsort(ravel, kind="stable")
    srt = ravel[order]
    dup = np.nonzero(srt[1:] == srt[:-1])[0]
    if dup.size:
        p = order[dup[0]]
        raise ValueError(f"duplicate entry at ({i[p]}, {j[p]}, {k[p]})")


def build_tensor(dims, entries):
    """Build a :class:`SparseTensor` from (i, j, k, y) tuples or Entry records."""
    rows = list(entries)
    i = np.array([r[0] for r in rows], dtype=np.int64)
    j = np.array([r[1] for r in rows], dtype=np.int64)
    k = np.array([r[2] for r in rows], dtype=np.int64)
    y = np.array([r[3] for r in rows], dtype=np.float64)
    return SparseTensor.from_arrays(dims, i, j, k, y)


def entry_arrays(entries):
    """(i, j, k, y) arrays from a SparseTensor or an iterable of entries."""
    if isinstance(entries, SparseTensor):
        return entries.i, entries.j, entries.k, entries.y
    rows = list(entries)
    i = np.array([r[0] for r in rows], dtype=np.int64)
    j = np.array([r[1] for r in rows], dtype=np.int64)
    k = np.array([r[2] for r in rows], dtype=np.int64)
    y = np.array([r[3] for r in rows], dtype=np.float64)
    return i, j, k, y
