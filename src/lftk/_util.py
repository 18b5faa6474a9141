"""Small shared helpers: number formatting, table rows, output files, digests, dims."""

import contextlib
import hashlib
import os
import stat
import warnings

import numpy as np

_ROW_BLOCK = 1024  # rows per written block: about 1 MB at three float columns
_TABLE_MAX = 1 << 16  # strings in one integer column's table, at most 1.3 MB of bytes


def fmt_real(x):
    """Shortest decimal string that parses back to the same float64.

    Integral values drop the trailing point (1.0 -> "1") so record files
    stay compact; parsers accept both plain decimal and scientific forms.
    """
    x = float(x)
    if abs(x) < 1e16 and (abs(x) >= 1e-4 or x == 0):  # repr is positional
        return repr(x).removesuffix(".0")
    return np.format_float_positional(x, unique=True, trim="-")


# Tables of the float kernel. A cell's 17 digits are scaled so that |x| * 10**p
# lies in [1e16, 1e17): p = 16 - floor(log10|x|), found exactly from the binary
# exponent (_E0) and one comparison with the next power of ten (_THR, the
# smallest double at or above it). 10**p is exact for p <= 22 and is split into
# 26-bit halves for Dekker's exact product.
_POW10 = np.array([float(10**k) for k in range(21)])
_POW10_HI = 134217729.0 * _POW10 - (134217729.0 * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _ceil_pow10(k):  # the smallest double >= 10**k
    t = float(f"1e{k}")
    num, den = t.as_integer_ratio()
    return t if num * 10 ** max(-k, 0) >= den * 10 ** max(k, 0) else float(np.nextafter(t, np.inf))


_E0 = np.zeros(2048, dtype=np.int64)  # floor(log10(2**(biased exponent - 1023)))
_THR = np.full(2048, np.inf)
for _eb in range(1023 - 14, 1023 + 54):  # the binary exponents of 1e-4 <= |x| < 1e16
    _e2 = _eb - 1023
    _E0[_eb] = len(str(2**_e2)) - 1 if _e2 >= 0 else len(str(5**-_e2)) - 1 + _e2
    _THR[_eb] = _ceil_pow10(int(_E0[_eb]) + 1)
_QUADS = np.arange(10000, dtype=np.uint16)
_QUADS = (np.stack([_QUADS // 1000, _QUADS // 100 % 10, _QUADS // 10 % 10, _QUADS % 10], axis=1)
          + ord("0")).astype(np.uint8).view("<u4").ravel()  # k as four ASCII digits
_QUAD_ZEROS = np.zeros(10000, dtype=np.uint8)  # trailing zeros of k as four digits
for _z in (1, 2, 3, 4):
    _QUAD_ZEROS[:: 10**_z] = _z
# A cell's source row: "0", ".", "-", the leading digit, 16 more digits, 4 NULs.
# _CELLS[(sign, point, digits)] lists the source bytes of its string, NUL-padded;
# point is the decimal point's place, -3 to 16, and digits 0 writes a zero.
_CELL_WIDTH = 23  # "-0.000" and 17 digits
_ZERO, _POINT, _MINUS, _DIGITS, _NUL = 0, 1, 2, [3, *range(4, 20)], 20
_CELLS = np.full((2, 20, 18, _CELL_WIDTH), _NUL, dtype=np.uint8)
for _sign in (0, 1):
    for _point in range(-3, 17):
        for _n in range(18):
            _src = [_MINUS] * _sign
            if _n == 0:
                _src += [_ZERO]
            elif _point <= 0:
                _src += [_ZERO, _POINT] + [_ZERO] * -_point + _DIGITS[:_n]
            elif _point < _n:
                _src += _DIGITS[:_point] + [_POINT] + _DIGITS[_point:_n]
            else:
                _src += _DIGITS[:_n] + [_ZERO] * (_point - _n)
            _CELLS[_sign, _point + 3, _n, : len(_src)] = _src
_CELLS = _CELLS.reshape(-1, _CELL_WIDTH)
_CELL_LEN = (_CELLS != _NUL).sum(axis=1)
_SOURCE_HEAD = ord("0") | ord(".") << 8 | ord("-") << 16 | ord("0") << 24


def _pack(strs):
    # ASCII strings as the rows of a NUL-padded uint8 matrix
    block = np.array(list(strs), dtype=bytes)
    return block.view(np.uint8).reshape(len(block), -1)


def _shortest_digits(a):
    """repr's shortest round-trip digits of each 1e-4 <= a < 1e16, as (c, e).

    c is a 17-digit integer, the digits and their trailing zeros, and e is
    floor(log10 a): a is c * 10**(e - 16) to repr's digits. Dekker's exact
    product gives a * 10**p = c17 + r, p = 16 - e, c17 a 17-digit integer and
    0 <= r < 1. The reals that round to a lie less than h = ulp(a)/2 * 10**p
    above that, exactly, h in (0.55, 11.1), and less than h below it (h/2 at a
    power of two, whose lower neighbour is nearer). The nearest 15-digit
    candidate is taken if it lies inside, else the nearest 16-digit one, else
    the nearest 17-digit one, which always does: the shortest that round-trips,
    the nearest of its length and half-even at a tie, as repr writes. c is
    10**17 where the shortest form is the next power of ten.
    """
    exp = a.view(np.int64) >> 52
    e = _E0.take(exp) + (a >= _THR.take(exp))
    p = 16 - e
    scale, s_hi, s_lo = _POW10.take(p), _POW10_HI.take(p), _POW10_LO.take(p)
    h = ((exp - 53) << 52).view(np.float64) * scale
    h_lo = np.where(a.view(np.int64) & ((1 << 52) - 1), h, 0.5 * h)
    a_hi = 134217729.0 * a
    a_hi -= a_hi - a
    a_lo = a - a_hi
    hi = a * scale
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    lo_int = np.floor(lo)
    r = lo - lo_int  # exact
    c17 = hi.astype(np.int64) + lo_int.astype(np.int64)  # hi > 2**53 is an integer
    d2 = c17 - c17 // 100 * 100  # c17's last two digits, its tens and its last
    tens = d2 // 10
    d1 = d2 - tens * 10
    # Each comparison is exact where it could go either way: its two sides are
    # then below 2 and multiples of 2**-49. No candidate lies at a bound, as no
    # midpoint between positional doubles has 16 digits or fewer but the odd
    # integers above 2**53, where the nearest 16-digit candidate is a itself.
    up15 = r > 100 - d2 - h
    ok15 = up15 | (r < h_lo - d2)  # h < 50: at most one candidate is near enough
    down16, up16 = r < h_lo - d1, r > 10 - d1 - h
    # the nearer where both are near enough, half-even at a tie as repr rounds
    up16 &= ~down16 | (r > 5 - d1) | ((r == 5 - d1) & (tens & 1 == 1))
    ok16 = down16 | up16
    up17 = (r > 0.5) | ((r == 0.5) & (d1 & 1 == 1))  # h_lo > 0.5: always near enough
    return c17 + np.where(ok15, 100 * up15 - d2, np.where(ok16, 10 * up16 - d1, up17)), e


def _float_cells(x):
    """fmt_real of each float64 of ``x``, as the NUL-padded rows of a uint8 matrix.

    A cell with 1e-4 <= |x| < 1e16 gets its digits from :func:`_shortest_digits`,
    in fixed-width integer arithmetic over the whole block, and so does zero.
    Every other cell (exponent forms, inf, nan, and a shortest form that is the
    next power of ten) goes to fmt_real; its arithmetic runs on a stand-in
    value so that no warning fires.
    """
    bits = x.view(np.int64)
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-4) & (a < 1e16)
    c, e = _shortest_digits(np.where(fast, a, 1.5))
    fast &= c < 10**17  # a power of ten: its digits would shift
    # c's digits: the lead, then two halves of 8, each written as two quads
    lead = c // 10**16
    c -= lead * 10**16
    halves = np.empty((len(x), 2), dtype=np.int64)
    np.floor_divide(c, 10**8, out=halves[:, 0])
    np.subtract(c, halves[:, 0] * 10**8, out=halves[:, 1])
    tops = halves // 10**4
    bottoms = halves - tops * 10**4
    source = np.empty((len(x), 6), dtype="<u4")
    np.left_shift(lead, 24, out=source[:, 0], casting="unsafe")
    source[:, 0] += _SOURCE_HEAD
    source[:, 1:5:2] = _QUADS.take(tops)
    source[:, 2:5:2] = _QUADS.take(bottoms)
    source[:, 5] = 0
    # significant digits: 17 less the trailing zeros, found by half, quad, digit
    low_zero = halves[:, 1] == 0
    quad = np.where(low_zero, bottoms[:, 0], bottoms[:, 1])
    quad_zero = quad == 0
    quad = np.where(quad_zero, np.where(low_zero, tops[:, 0], tops[:, 1]), quad)
    digits = 17 - 8 * low_zero - 4 * quad_zero - _QUAD_ZEROS.take(quad)
    digits[zero] = 0
    key = ((bits < 0) * 20 + (e + 4)) * 18 + digits
    # the block's widest cell sets the width: fewer index and NUL bytes
    width = _CELL_LEN.take(key).max()
    where = _CELLS[:, :width].take(key, axis=0) + np.arange(0, 24 * len(x), 24)[:, None]
    cells = source.view(np.uint8).ravel().take(where)
    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        strs = _pack(map(fmt_real, x[slow].tolist()))
        if strs.shape[1] > width:
            cells = np.pad(cells, ((0, 0), (0, strs.shape[1] - width)))
        cells[slow] = 0
        cells[slow, : strs.shape[1]] = strs
    return cells


def _cell_formatter(col, base):
    # The function that turns a block of a column other than a float one into
    # its cells, ``base`` added. A signed integer column gets a table, the bytes
    # of str(v + base) at [v - lo], built once, when it spans fewer values than
    # it has rows and than _TABLE_MAX. The bounds are Python ints and v - lo is
    # made in int64, so neither wraps. Otherwise each value goes through str; a
    # signed integer column, the tensor's int16 or int32 ones too, takes its
    # base in int64, which wraps only where v + base leaves int64.
    signed = col.dtype.kind == "i"
    if signed and col.size:
        lo, hi = int(col.min()), int(col.max())
        if hi - lo < min(col.size, _TABLE_MAX) and -(2**63) <= lo + base and hi + base < 2**63:
            table = _pack(map(str, range(lo + base, hi + base + 1)))
            return lambda b: table.take(np.subtract(b, lo, dtype=np.int64), axis=0)
    wide = np.int64 if signed else None
    shifted = (lambda b: np.add(b, base, dtype=wide)) if base else (lambda b: b)
    return lambda b: _pack(map(str, shifted(b).tolist()))


def write_rows(fh, columns, sep=" ", base=0):
    """One line per row of equal-length columns: ints via ``str``, floats as fmt_real.

    ``base`` is added to the first three columns, a record's coordinates, in
    int64 for a signed integer column of any width. Each block of
    ``_ROW_BLOCK`` rows becomes one uint8 matrix, one NUL-padded group of
    columns per field and one per separator, whose bytes less the NULs are
    written at once. Floats come from :func:`_float_cells`, a block's float
    columns together. A signed integer column that spans fewer values than it
    has rows (a coordinate column spans at most its dim) is looked up in a
    table of its strings, built once per call and capped at ``_TABLE_MAX``
    strings; other columns go through ``str`` per value. The shift is made
    block by block too.
    """
    columns = [np.asarray(c) for c in columns]
    bases = [base if m < 3 else 0 for m in range(len(columns))]
    floats = [m for m, c in enumerate(columns) if c.dtype.kind == "f"]
    formats = {m: _cell_formatter(c, bases[m])
               for m, c in enumerate(columns) if m not in floats}
    ends = [np.frombuffer(s.encode(), np.uint8) for s in [sep] * (len(columns) - 1) + ["\n"]]
    for lo in range(0, len(columns[0]), _ROW_BLOCK):
        block = [c[lo : lo + _ROW_BLOCK] for c in columns]
        cells = {m: fmt(block[m]) for m, fmt in formats.items()}
        if floats:
            values = np.stack([np.add(block[m], bases[m]) if bases[m] else block[m]
                               for m in floats], axis=1, dtype=np.float64)
            grid = _float_cells(values.ravel()).reshape(len(values), len(floats), -1)
            cells.update(zip(floats, grid.transpose(1, 0, 2)))
        groups = [g for m in range(len(columns)) for g in (cells[m], ends[m])]
        matrix = np.empty((len(block[0]), sum(g.shape[-1] for g in groups)), dtype=np.uint8)
        at = 0
        for g in groups:
            matrix[:, at : at + g.shape[-1]] = g
            at += g.shape[-1]
        flat = matrix.ravel()
        fh.write(flat[flat != 0].tobytes().decode())


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
def _open_sink(sink, binary=False):
    # The one place output files are opened, as UTF-8 text or, with binary, as
    # bytes. A path is written to a new file beside its target, which replaces
    # the target (keeping its mode) only once writing has finished: an error
    # leaves the old file as it was and removes the new one. A path to
    # something other than a regular file (a device, a pipe) is written
    # directly. A stream is written as given and left open for its owner.
    if not _is_path(sink):
        yield sink
        return
    b, kw = ("b", {}) if binary else ("", {"encoding": "utf-8", "newline": "\n"})
    target = os.fsdecode(os.path.realpath(sink) if os.path.islink(sink) else sink)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(sink, "w" + b, **kw) as fh:
            yield fh
        return
    folder, name = os.path.split(target)
    tmp = os.path.join(folder, f".{name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        fh = open(tmp, "x" + b, **kw)
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
    """The three ints of an "IxJxK" text, e.g. "20x20x8"; ``tensor.check_dims`` owns their range."""
    try:
        i, j, k = map(int, str(text).lower().split("x"))
    except ValueError:  # not three fields, or a field that is not an integer
        raise ValueError(f"expected dims as IxJxK, got {text!r}") from None
    return i, j, k
