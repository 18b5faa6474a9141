"""Rank-R CP factor model with per-entity biases.

A prediction for cell (i, j, k) is

    yhat = sum_r U[i,r] * S[j,r] * T[k,r] + a[i] + b[j] + c[k]

with every element of U, S, T, a, b, c nonnegative, which keeps
predictions nonnegative. The module also evaluates the squared-error and
Cauchy objectives over an observed entry set, and reads/writes the
versioned ``lft-model v1`` text format.
"""

import numpy as np

from ._util import _open_sink, fmt_real
from .errors import DataFormatError
from .tensor import entry_arrays

MODEL_HEADER = "lft-model v1"

_CHUNK = 1 << 18

LOSS_MODES = ("cauchy", "l2")


def block_views(blocks):
    """The three factor views, then the three bias views, of (dim, R+1) blocks."""
    return tuple(b[:, :-1] for b in blocks) + tuple(b[:, -1] for b in blocks)


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

    Each mode's parameters live in one row-major ``(dim, R+1)`` block in
    ``blocks``: factor columns ``0..R-1`` and the bias in column ``R``.
    ``U``/``a``, ``S``/``b`` and ``T``/``c`` are writable views into them.
    """

    def __init__(self, U, S, T, a, b, c):
        factors = [np.asarray(m, dtype=np.float64) for m in (U, S, T)]
        biases = [np.asarray(v, dtype=np.float64) for v in (a, b, c)]
        _check_shapes(factors, biases)
        self.blocks = tuple(np.column_stack(fv) for fv in zip(factors, biases))
        self.U, self.S, self.T, self.a, self.b, self.c = block_views(self.blocks)
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
        return (
            ("U", self.U),
            ("S", self.S),
            ("T", self.T),
            ("a", self.a),
            ("b", self.b),
            ("c", self.c),
        )

    def copy(self):
        return FactorModel(self.U, self.S, self.T, self.a, self.b, self.c)

    def predict(self, i, j, k):
        """Point prediction for cell (i, j, k); equals :meth:`predict_entries`."""
        return float(self.predict_entries([int(i)], [int(j)], [int(k)])[0])

    def predict_entries(self, ii, jj, kk):
        """Vectorized prediction over coordinate arrays (chunked for memory)."""
        ii = np.asarray(ii, dtype=np.int64)
        jj = np.asarray(jj, dtype=np.int64)
        kk = np.asarray(kk, dtype=np.int64)
        ni, nj, nk = self.dims
        for mode, idx, dim in (("user", ii, ni), ("service", jj, nj), ("time", kk, nk)):
            if idx.size and (idx.min() < 0 or idx.max() >= dim):
                bad = idx[(idx < 0) | (idx >= dim)][0]
                raise IndexError(f"{mode} index {bad} out of range for dimension {dim}")
        out = np.empty(ii.size, dtype=np.float64)
        for lo in range(0, ii.size, _CHUNK):
            hi = min(lo + _CHUNK, ii.size)
            ic, jc, kc = ii[lo:hi], jj[lo:hi], kk[lo:hi]
            out[lo:hi] = (self.U[ic] * self.S[jc] * self.T[kc]).sum(axis=1)
            out[lo:hi] += self.a[ic] + self.b[jc] + self.c[kc]
        return out

    def residual(self, entry):
        """Observed minus predicted value; sign preserved."""
        return float(entry[3]) - self.predict(entry[0], entry[1], entry[2])

    def __repr__(self):
        return f"FactorModel(dims={self.dims}, rank={self.rank})"


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
        # r = e/gamma: r^2 overflows past 1.3e154, and past 1e150 ln(1 + r^2) is 2 ln r
        big = np.abs(e) > 1e150 * gamma
        with np.errstate(over="ignore"):
            t = np.log1p((e / gamma) ** 2)
        t[big] = 2 * (np.log(np.abs(e[big])) - np.log(gamma))
        return float(t.sum())
    return float((e * e).sum())


def objective(model, tensor, loss="cauchy", gamma=1.0):
    """Total loss (:func:`loss_sum`) of the model over the observed entries."""
    ii, jj, kk, yy = entry_arrays(tensor)
    return loss_sum(yy - model.predict_entries(ii, jj, kk), loss, gamma)


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
            rows = arr if arr.ndim == 2 else arr[:, None]
            for row in rows:
                fh.write(" ".join(fmt_real(v) for v in row) + "\n")


def load_model(path):
    """Read a model written by :func:`save_model`."""
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
        pos += n_rows
        arr = np.asarray(rows, dtype=np.float64)
        blocks[name] = arr if name in ("U", "S", "T") else arr[:, 0]
    if pos != len(lines) and any(line.strip() for line in lines[pos:]):
        raise DataFormatError(f"unexpected trailing content at line {pos + 1}")
    try:
        return FactorModel(**blocks)
    except ValueError as exc:
        raise DataFormatError(str(exc)) from None
