"""Coordinates at the edges of the int16 and int32 index types.

A tensor keeps its (3, n) coordinate block in the narrowest of int16, int32
and int64 that holds every index its dims allow. Each case puts indices on
one side or the other of an edge, at index base 0 and 1, and checks that
everything built on the block agrees with the same work done in int64.
"""

import io
import math
import types
from unittest import mock

import numpy as np
import pytest

from lftk import (DataFormatError, RecordFormat, SparseTensor, SplitSpec, dataio, load_records,
                  split)
from lftk._util import fmt_real, write_rows
from lftk.cli import main
from lftk.dataio import write_records
from lftk.tensor import _cell_keys

# the largest index of the widest mode, and the type that holds it
TOPS = [(32766, np.int16), (32767, np.int16), (32768, np.int32),
        (2**31 - 1, np.int32), (2**31, np.int64)]


def _cells(top):
    # dims (top+1, 3, top+1): I*J*K fits int64 up to the int32 edge, not past it
    return [(top, 2, top), (0, 0, 0), (top, 0, 1), (1, 1, top), (top - 1, 2, top - 1),
            (top, 1, 0)]


def _record_text(cells, base, values=None):
    values = values or [2.0**p for p in range(len(cells))]
    return "".join(f"{i + base} {j + base} {k + base} {fmt_real(y)}\n"
                   for (i, j, k), y in zip(cells, values))


def _keys64(dims, idx):
    # the cell keys computed in int64 throughout
    idx = np.asarray(idx).astype(np.int64)
    if math.prod(dims) < 2**63:
        return (idx[0] * dims[1] + idx[1]) * dims[2] + idx[2]
    return np.ascontiguousarray(idx.T, dtype=">i8").view("V24")[:, 0]


@pytest.fixture(params=[0, 1], ids=["base0", "base1"])
def base(request):
    return request.param


@pytest.fixture(params=TOPS, ids=[str(t) for t, _ in TOPS])
def top(request):
    return request.param


def test_records_round_trip_byte_for_byte(tmp_path, top, base):
    top, dtype = top
    cells, fmt = _cells(top), RecordFormat(index_base=base)
    text = _record_text(cells, base)
    src, out = tmp_path / "r.txt", tmp_path / "w.txt"
    for header in ("", "# a comment line sends the file through the line parser\n"):
        src.write_text(header + text)
        t = load_records(src, fmt)
        assert t.dims == (top + 1, 3, top + 1)
        assert t.idx.dtype == dtype
        assert t.idx.T.tolist() == [list(c) for c in cells]
        write_records(t, out, fmt)
        assert out.read_text() == text


def test_a_duplicate_is_named_in_ijk_order(tmp_path, top, base):
    top, _ = top
    cells = _cells(top)
    # (1, 1, top) is the (i, j, k)-smallest of the two duplicated cells, named as
    # the file writes it: its base added past int16 and int32
    src = tmp_path / "r.txt"
    src.write_text(_record_text(cells + [(top, 0, 1), (1, 1, top)], base))
    named = rf"\({1 + base}, {1 + base}, {top + base}\)"
    with pytest.raises(DataFormatError, match=rf"^duplicate entry at {named}$"):
        load_records(src, RecordFormat(index_base=base))


def test_cell_keys_equal_the_int64_keys(top):
    top, dtype = top
    dims, idx = (top + 1, 3, top + 1), np.array(_cells(top), dtype=dtype).T
    keys = _cell_keys(dims, idx)
    assert np.array_equal(keys, _keys64(dims, idx))
    # a tensor widened after it was built keeps its narrow block: still int64 keys
    wide = (2**40, 3, 2**40)
    assert np.array_equal(_cell_keys(wide, idx), _keys64(wide, idx))


def test_eval_mask_flags_the_cells_int64_keys_flag(tmp_path, capsys, monkeypatch, top, base):
    # the model and its MAE are stood in for, so that dims past 2**31 need no factor
    # blocks: the stand-in MAE sums the values, powers of two, of the entries it is given
    top, _ = top
    cells, dims = _cells(top), (top + 1, 3, top + 1)
    monkeypatch.setattr("lftk.cli.load_model", lambda path: types.SimpleNamespace(dims=dims))
    monkeypatch.setattr("lftk.cli.mae", lambda model, t: float(t.y.sum()))
    test_file, mask_file = tmp_path / "t.txt", tmp_path / "mask.txt"
    test_file.write_text(_record_text(cells, base))
    flagged = [(top, 0, 1), (top - 1, 2, top - 1), (0, 0, top + 1), (top, 3, top)]
    mask_file.write_text("".join(f"{i} {j} {k}\n" for i, j, k in flagged))  # 0-based
    argv = ["eval", "--model", "m", "--test", str(test_file), "--mask", str(mask_file),
            "--index-base", str(base)]
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    y = np.array([2.0**p for p in range(len(cells))])
    inside = [c for c in flagged if all(v < d for v, d in zip(c, dims))]
    keep = ~np.isin(_keys64(dims, np.array(cells).T), _keys64(dims, np.array(inside).T))
    assert keep.tolist() == [True, True, False, True, False, True]
    assert out == [f"mae {fmt_real(y.sum())}", f"clean_mae {fmt_real(y[keep].sum())}"]


def test_split_gives_the_parts_of_an_int64_tensor(tmp_path, capsys, top, base):
    top, dtype = top
    cells, dims = _cells(top), (top + 1, 3, top + 1)
    values = [2.0**p for p in range(len(cells))]
    t = SparseTensor.from_arrays(dims, *np.array(cells).T, values)
    assert t.idx.dtype == dtype
    ref = SparseTensor(dims, t.idx.astype(np.int64), t.y, _validated=True)
    spec = SplitSpec(0.5, 0.25, 0.25, seed=3)
    parts, ref_parts = split(t, spec), split(ref, spec)
    for part, want in zip(parts, ref_parts):
        assert part.idx.dtype == dtype
        assert part.idx.tolist() == want.idx.tolist() and part.y.tolist() == want.y.tolist()
    # the command writes those parts, each index with its base
    src = tmp_path / "r.txt"
    src.write_text(_record_text(cells, base, values))
    argv = ["split", "--input", str(src), "--ratios", "2:1:1", "--seed", "3",
            "--out", str(tmp_path / "s"), "--index-base", str(base)]
    assert main(argv) == 0
    capsys.readouterr()
    for name, want in zip(("train", "validation", "test"), ref_parts):
        rows = [tuple(c) for c in want.idx.T.tolist()]
        assert (tmp_path / "s" / f"{name}.txt").read_text() == _record_text(
            rows, base, want.y.tolist())


def test_blocks_widen_to_the_one_block_parse(tmp_path, base):
    # in blocks of 2 lines the first block holds int16 indices only, and later
    # blocks need int32 and then int64: joined, they build the tensor that one
    # block of the whole file builds
    cells = [(0, 0, 0), (7, 2, 5), (40_000, 1, 3), (2, 0, 2**31 - 1),
             (2**31, 2, 1), (4, 1, 2**40)]
    src = tmp_path / "r.txt"
    src.write_text(_record_text(cells, base))
    fmt = RecordFormat(index_base=base)
    want = load_records(src, fmt)
    with mock.patch.object(dataio, "_PARSE_BLOCK", 2):
        got = load_records(src, fmt)
    assert want.dims == got.dims == (2**31 + 1, 3, 2**40 + 1)
    assert want.idx.dtype == got.idx.dtype == np.int64 and got.idx.flags.c_contiguous
    assert got.idx.T.tolist() == [list(c) for c in cells]
    assert got.idx.tobytes() == want.idx.tobytes() and got.y.tobytes() == want.y.tobytes()


@pytest.mark.parametrize("dtype, top", [(np.int16, 32767), (np.int32, 2**31 - 1)])
def test_a_base_one_column_at_its_type_s_largest_value(dtype, top):
    # through the table (a column of one value) and per value (a wide column)
    for col in ([top] * 3, [0, top]):
        buf = io.StringIO()
        write_rows(buf, [np.array(col, dtype=dtype)], base=1)
        assert buf.getvalue().split() == [str(v + 1) for v in col]
