"""Rank-R CP factor model with per-entity biases.

A prediction for cell (i, j, k) is

    yhat = sum_r U[i,r] * S[j,r] * T[k,r] + a[i] + b[j] + c[k]

with every element of U, S, T, a, b, c nonnegative, which keeps
predictions nonnegative. The module also evaluates the squared-error and
Cauchy objectives over an observed entry set, and reads/writes the
versioned ``lft-model v1`` text format.
"""

import numpy as np

from ._util import _open_sink, loadtxt_or_none, write_rows
from .errors import DataFormatError
from .tensor import MODES, SparseTensor, check_coords, entry_arrays

MODEL_HEADER = "lft-model v1"

# entries per chunk of the prediction kernel: its row copies stay in cache
_CHUNK = 1 << 12

LOSS_MODES = ("cauchy", "l2")


def block_views(blocks):
    """The three factor views, then the three bias views, of (dim, R+1) blocks."""
    return tuple(b[:, :-1] for b in blocks) + tuple(b[:, -1] for b in blocks)


def mode_rows(arr, dims):
    """The user, service and time row ranges (views) of an array stacked in that order."""
    return arr[: dims[0]], arr[dims[0] : dims[0] + dims[1]], arr[dims[0] + dims[1] :]


def _check_shapes(factors, biases):
    for name, m in zip("UST", factors):
        if m.ndim != 2:
            raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if len({m.shape[1] for m in factors}) != 1:
        raise ValueError("factor matrices must share the same rank")
    if factors[0].shape[1] < 1:
        raise ValueError("rank must be at least 1")
    for name, v, m in zip("abc", biases, factors):
        if v.shape != (m.shape[0],):
            raise ValueError(f"bias {name} must have length {m.shape[0]}")


class FactorModel:
    """Nonnegative latent factor matrices U, S, T and bias vectors a, b, c.

    All parameters live in one C-contiguous ``(I+J+K, R+1)`` array, ``params``:
    users', services', then times' rows of factors and a bias (column ``R``),
    each mode's ``(dim, R+1)`` block in ``blocks``; ``U``..``c`` are views.
    """

    def __init__(self, U, S, T, a, b, c):
        factors = [np.asarray(m, dtype=np.float64) for m in (U, S, T)]
        biases = [np.asarray(v, dtype=np.float64) for v in (a, b, c)]
        _check_shapes(factors, biases)
        self.params = np.column_stack((np.concatenate(factors), np.concatenate(biases)))
        self.blocks = mode_rows(self.params, [len(m) for m in factors])
        self.U, self.S, self.T, self.a, self.b, self.c = block_views(self.blocks)
        # one pass over params; only a failing model has its arrays named, in order
        if self.params.size and not (self.params.min() >= 0 and self.params.max() < np.inf):
            for name, arr in self.arrays():
                if not np.isfinite(arr).all():
                    raise ValueError(f"{name} contains non-finite values")
                if arr.size and arr.min() < 0:
                    raise ValueError(f"{name} contains negative values")

    @classmethod
    def initialize(cls, dims, rank, seed):
        """Fresh model: factors uniform on [0, 0.1), biases zero.

        Small positive factors keep early predictions in range while
        respecting the nonnegativity constraints.
        """
        if rank < 1:
            raise ValueError("rank must be at least 1")
        ni, nj, nk = dims
        rng = np.random.default_rng(seed)
        return cls(
            rng.uniform(0.0, 0.1, (ni, rank)),
            rng.uniform(0.0, 0.1, (nj, rank)),
            rng.uniform(0.0, 0.1, (nk, rank)),
            np.zeros(ni),
            np.zeros(nj),
            np.zeros(nk),
        )

    @property
    def rank(self):
        return self.U.shape[1]

    @property
    def dims(self):
        return (self.U.shape[0], self.S.shape[0], self.T.shape[0])

    def arrays(self):
        return tuple(zip("USTabc", (self.U, self.S, self.T, self.a, self.b, self.c)))

    def copy(self):
        """Independent copy, built and checked by the constructor."""
        return FactorModel(*block_views(self.blocks))

    def predict(self, i, j, k):
        """Point prediction for cell (i, j, k); equals :meth:`predict_entries`."""
        return float(self.predict_entries([i], [j], [k])[0])

    def predict_entries(self, ii, jj, kk):
        """Vectorized prediction over coordinate arrays (chunked for memory)."""
        coords = [np.asarray(c) for c in (ii, jj, kk)]
        for mode, c, dim in zip(MODES, coords, self.dims):
            check_coords(mode, c, dim, IndexError)
        # signed integers of any width, a tensor's int16 block too, are gathered as
        # they are; checked whole floats and unsigned integers are made int64
        return _predict(self.blocks, *(c if c.dtype.kind == "i" else c.astype(np.int64)
                                       for c in coords))

    def residual(self, entry):
        """Observed minus predicted value; sign preserved."""
        return float(entry[3]) - self.predict(entry[0], entry[1], entry[2])

    def __repr__(self):
        return f"FactorModel(dims={self.dims}, rank={self.rank})"


def _predict(blocks, ii, jj, kk):
    # The one prediction kernel, over (dim, R+1) blocks: chunk by chunk, it
    # copies each entry's three rows (take along axis 0, far faster than 2-D
    # fancy indexing), multiplies whole rows, and sums U0*S0*T0, then each later
    # column's product in turn, then a, b and c: ((cp + a) + b) + c, whatever
    # the chunk. The biases' product is unused, so its overflow is ignored.
    out, rank = np.empty(ii.size), blocks[0].shape[1] - 1
    with np.errstate(over="ignore"):
        for lo in range(0, ii.size, _CHUNK):
            c = slice(lo, lo + _CHUNK)
            u, s = blocks[0].take(ii[c], axis=0), blocks[1].take(jj[c], axis=0)
            t = blocks[2].take(kk[c], axis=0)
            prod = u * s
            prod *= t
            terms = [prod[:, r] for r in range(rank)] + [u[:, rank], s[:, rank], t[:, rank]]
            acc = np.add(terms[0], terms[1], out=out[c])
            for term in terms[2:]:
                acc += term
    return out


def check_loss(loss, gamma):
    """Reject an unknown loss mode, or a gamma that is not finite or is too small."""
    # below ~1.5e-154, gamma^2 underflows and 1/(gamma^2 + e^2) divides by 0
    if loss not in LOSS_MODES:
        raise ValueError(f"loss must be one of {LOSS_MODES}, got {loss!r}")
    if not (0 < gamma < np.inf and gamma * gamma >= np.finfo(np.float64).tiny):
        raise ValueError(f"gamma must be finite and at least ~1.5e-154, got {gamma}")


def loss_sum(e, loss, gamma):
    """Data term summed over residuals e.

    ``cauchy``: sum of ln(1 + e^2 / gamma^2), finite for any finite e;
    grows only logarithmically in a residual, which is what bounds the
    influence of outlying entries. ``l2``: plain sum of squared residuals.
    """
    check_loss(loss, gamma)
    e = np.asarray(e, dtype=np.float64)
    if loss == "cauchy":
        # r = e/gamma: r^2 overflows past 1.3e154, and past 1e150 ln(1 + r^2) is 2 ln r.
        # Such residuals are rare: e's max and min (which a NaN fails too) say whether
        # any can be there before a mask over every entry is built
        lim = 1e150 * gamma
        big = None if not e.size or e.max() <= lim and e.min() >= -lim else np.abs(e) > lim
        t = np.divide(e if big is None else np.where(big, 0.0, e), gamma)
        np.log1p(np.square(t, out=t), out=t)
        if big is not None:  # masked out above, set here
            t[big] = 2 * (np.log(np.abs(e[big])) - np.log(gamma))
        return float(t.sum())
    return float((e * e).sum())


def _observed_and_predicted(model, entries):
    # (y, predictions); a tensor of the model's dims already checked its coordinates
    if isinstance(entries, SparseTensor) and entries.dims == model.dims:
        return entries.y, _predict(model.blocks, *entries.idx)
    *coords, yy = entry_arrays(entries)
    return yy, model.predict_entries(*coords)


def objective(model, tensor, loss="cauchy", gamma=1.0):
    """Total loss (:func:`loss_sum`) of the model over the observed entries."""
    yy, e = _observed_and_predicted(model, tensor)
    return loss_sum(np.subtract(yy, e, out=e), loss, gamma)


def save_model(model, path):
    """Write the ``lft-model v1`` text format.

    Layout: header ``lft-model v1 R |I| |J| |K|``, then six labeled blocks
    U, S, T, a, b, c with one row per entity (R space-separated fields for
    factor matrices, a single field for bias vectors). Values use the
    shortest decimal form that round-trips exactly.
    """
    ni, nj, nk = model.dims
    with _open_sink(path) as fh:
        fh.write(f"{MODEL_HEADER} {model.rank} {ni} {nj} {nk}\n")
        for name, arr in model.arrays():
            fh.write(name + "\n")
            write_rows(fh, arr.reshape(len(arr), -1).T)


def _parse_block(lines, pos, n_rows, n_cols, name):
    # The reference parser of one block, row by row: every error names its line.
    rows = []
    for off in range(n_rows):
        fields = lines[pos + off].split()
        if len(fields) != n_cols:
            raise DataFormatError(
                f"line {pos + off + 1}: expected {n_cols} fields in block {name!r},"
                f" got {len(fields)}"
            )
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise DataFormatError(
                f"line {pos + off + 1}: non-numeric field in block {name!r}"
            ) from None
    return np.asarray(rows, dtype=np.float64)


def load_model(path):
    """Read a model written by :func:`save_model`.

    Each block is parsed by numpy in one call; a block it does not accept is
    parsed again row by row, which gives the same values or the line-numbered
    error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataFormatError("empty model file")
    head = lines[0].split()
    if len(head) != 6 or " ".join(head[:2]) != MODEL_HEADER:
        raise DataFormatError(f"bad model header: {lines[0]!r}")
    try:
        rank, ni, nj, nk = (int(t) for t in head[2:])
    except ValueError:
        raise DataFormatError(f"bad model header: {lines[0]!r}") from None
    blocks = {}
    pos = 1
    for name, n_rows, n_cols in (
        ("U", ni, rank),
        ("S", nj, rank),
        ("T", nk, rank),
        ("a", ni, 1),
        ("b", nj, 1),
        ("c", nk, 1),
    ):
        if pos >= len(lines) or lines[pos].strip() != name:
            raise DataFormatError(f"expected block label {name!r} at line {pos + 1}")
        pos += 1
        if pos + n_rows > len(lines):
            raise DataFormatError(f"block {name!r} is truncated")
        arr = loadtxt_or_none(lines[pos : pos + n_rows], np.float64, ndmin=2)
        if arr is None or arr.shape != (n_rows, n_cols):
            arr = _parse_block(lines, pos, n_rows, n_cols, name)
        pos += n_rows
        blocks[name] = arr if name in ("U", "S", "T") else arr[:, 0]
    if pos != len(lines) and any(line.strip() for line in lines[pos:]):
        raise DataFormatError(f"unexpected trailing content at line {pos + 1}")
    try:
        return FactorModel(**blocks)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None
