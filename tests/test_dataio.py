import gc
import hashlib
import io
import math
import os
import tempfile
import threading
import time
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lftk._util
from lftk import (
    DataFormatError,
    dataio,
    FactorModel,
    RecordFormat,
    SparseTensor,
    SynthSpec,
    load_records,
    mae,
    synthesize,
    write_predictions,
    write_records,
)
from lftk._util import _ROW_BLOCK, fmt_real, sha256_file, write_rows
from lftk.dataio import (
    load_outlier_mask,
    write_outlier_mask,
    write_split_metadata,
)
from lftk.evaluation import SplitSpec


def test_load_whitespace_base0():
    t = load_records(io.StringIO("0 0 0 1.5\n0 1 0 2.0\n"))
    assert t.n_entries == 2
    assert t.dims == (1, 2, 1)
    assert t.y.tolist() == [1.5, 2.0]


def test_load_comma_base1_with_comments():
    fmt = RecordFormat(delimiter="comma", index_base=1)
    t = load_records(io.StringIO("# comment\n1,1,1,3.0\n"), fmt)
    assert t.n_entries == 1
    assert t.entry(0) == (0, 0, 0, 3.0)


def test_load_rejects_negative_value():
    with pytest.raises(DataFormatError, match="line 1"):
        load_records(io.StringIO("0 0 0 -1\n"))


def test_load_rejects_malformed_with_line_number():
    with pytest.raises(DataFormatError, match="line 3"):
        load_records(io.StringIO("0 0 0 1\n\n0 0 oops 2\n"))
    with pytest.raises(DataFormatError, match="line 2.*4 fields"):
        load_records(io.StringIO("0 0 0 1\n0 0 1\n"))
    with pytest.raises(DataFormatError, match="duplicate"):
        load_records(io.StringIO("0 0 0 1\n0 0 0 2\n"))
    with pytest.raises(DataFormatError, match="below base"):
        load_records(io.StringIO("0,0,0,1\n"), RecordFormat("comma", 1))


def test_load_accepts_byte_stream_and_scientific_notation():
    t = load_records(io.BytesIO(b"0 0 0 1.5e-3\n"))
    assert t.y[0] == 1.5e-3


def test_load_with_dims_checks_range():
    with pytest.raises(DataFormatError, match="service"):
        load_records(io.StringIO("0 5 0 1.0\n"), dims=(1, 2, 1))


def test_load_empty_without_dims_rejected():
    with pytest.raises(DataFormatError, match="no records"):
        load_records(io.StringIO("# nothing\n"))


@given(
    seed=st.integers(0, 1000),
    delimiter=st.sampled_from(["whitespace", "comma"]),
    base=st.sampled_from([0, 1]),
    width=st.sampled_from([np.int16, np.int32, np.int64]),
    dims_given=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_write_load_roundtrip_identity(seed, delimiter, base, width, dims_given):
    obs, _, _ = synthesize(
        SynthSpec(dims=(5, 4, 3), rank=2, density=0.5, noise_std=0.1, seed=seed)
    )
    fmt = RecordFormat(delimiter, base)
    buf = io.StringIO()
    write_records(obs, buf, fmt)
    back = load_records(io.StringIO(buf.getvalue()), fmt, dims=obs.dims)
    assert back.entries() == obs.entries()
    # with the parsed copy that lftk split writes beside a part, the part's path loads
    # the tensor its text parses to; users spread out so coordinates need the width
    top = {np.int16: 5, np.int32: 2**15 + 1, np.int64: 2**31 + 1}[width]
    part = SparseTensor.from_arrays((top, 4, 3), obs.i.astype(np.int64) * (top - 1) // 4,
                                    obs.j, obs.k, obs.y)
    assert part.idx.dtype == width
    dims = part.dims if dims_given else None
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "train.txt")
        write_records(part, path, fmt)
        dataio._save_parsed(part, path, fmt)
        with mock.patch.object(dataio, "_parse_text", side_effect=AssertionError):
            cached = _outcome(load_records, path, fmt, dims)
        os.remove(path + ".npz")
        assert cached == _outcome(load_records, path, fmt, dims)


def _part_with_copy(folder, fmt=RecordFormat()):
    # a part as lftk split leaves it: its record file, and its parsed copy beside it
    part, _, _ = synthesize(SynthSpec(dims=(5, 4, 3), rank=2, density=0.5, seed=2))
    path = folder / "train.txt"
    write_records(part, path, fmt)
    dataio._save_parsed(part, path, fmt)
    return part, path


def _write_copy(path, idx, y, head=(dataio._PARSED_TAG, "whitespace", "0"), digest=None):
    # a parsed copy beside path of these arrays, made by hand
    meta = np.array([*head, digest or sha256_file(path)])
    np.savez(str(path) + ".npz", meta=meta, idx=idx, y=y)


class _Trap:
    # an object whose unpickling removes the file at path
    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return os.remove, (self.path,)


@pytest.mark.parametrize("case", [
    "edited", "edited to a bad line", "read as comma", "read in base 1", "read in base 0",
    "truncated", "garbage", "npy", "object array", "other tag", "two rows", "uint16",
    "fortran order", "float32 values", "big-endian values", "values of another length"])
def test_a_copy_that_is_not_the_texts_parse_is_ignored(tmp_path, case):
    # the copy is passed over and the file parsed: the outcome is that of the file with
    # no copy beside it. A copy made by hand holds values the text does not, so taking
    # it would show.
    written = RecordFormat(index_base=1) if case == "read in base 0" else RecordFormat()
    part, path = _part_with_copy(tmp_path, written)
    copy, fmt = tmp_path / "train.txt.npz", RecordFormat()
    lies = part.y + 1
    if case.startswith("edited"):
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].rsplit(" ", 1)[0] + (" 7.5\n" if case == "edited" else " oops\n")
        path.write_text("".join(lines))
    elif case.startswith("read"):
        fmt = {"read as comma": RecordFormat("comma"),
               "read in base 1": RecordFormat(index_base=1)}.get(case, fmt)
    elif case == "truncated":
        copy.write_bytes(copy.read_bytes()[:copy.stat().st_size // 2])
    elif case == "garbage":
        copy.write_bytes(bytes(range(256)) * 8)
    elif case == "npy":
        with copy.open("wb") as fh:
            np.save(fh, part.idx)
    elif case == "object array":
        trap = tmp_path / "trap"
        trap.touch()
        _write_copy(path, np.array([_Trap(trap)]), lies)
    elif case == "other tag":
        _write_copy(path, part.idx, lies, head=("lftk parsed records 0", "whitespace", "0"))
    else:
        idx, y = {"two rows": (part.idx[:2], lies),
                  "uint16": (part.idx.astype(np.uint16), lies),
                  "fortran order": (np.asfortranarray(part.idx), lies),
                  "float32 values": (part.idx, lies.astype(np.float32)),
                  "big-endian values": (part.idx, lies.astype(">f8")),
                  "values of another length": (part.idx, lies[1:])}[case]
        _write_copy(path, idx, y)
    with mock.patch.object(dataio, "_parse_text", wraps=dataio._parse_text) as parse:
        got = _outcome(load_records, path, fmt)
    assert parse.call_count == 1
    if case == "object array":
        assert (tmp_path / "trap").exists()  # never unpickled
    copy.unlink()
    assert got == _outcome(load_records, path, fmt)
    if case == "edited to a bad line":
        assert got == ("error", "line 2: non-numeric field")


def test_a_copy_is_read_only_beside_a_path_to_a_regular_file(tmp_path):
    # a copy of the text's hash and format that holds other values is taken for a path
    # to the file, and for no stream or other kind of path, such as a pipe's
    part, path = _part_with_copy(tmp_path)
    _write_copy(path, part.idx, part.y + 1)
    assert load_records(path).y.tolist() == (part.y + 1).tolist()
    text = path.read_text()
    r, w = os.pipe()
    os.write(w, text.encode())
    os.close(w)
    pipe_path = tmp_path / "pipe.txt"  # a path that names the pipe's read end
    pipe_path.symlink_to(f"/dev/fd/{r}")
    _write_copy(pipe_path, part.idx, part.y + 1, digest=hashlib.sha256(text.encode()).hexdigest())
    try:
        from_pipe = load_records(pipe_path)
    finally:
        os.close(r)
    with path.open() as fh:
        from_stream = load_records(fh)
    for t in (from_stream, load_records(io.BytesIO(text.encode())), from_pipe):
        assert t.entries() == part.entries()


def test_synthesize_noiseless_full_observation_is_exact():
    spec = SynthSpec(dims=(4, 4, 4), rank=1, density=1.0)
    obs, truth, mask = synthesize(spec)
    assert obs.n_entries == 64
    assert not mask.any()
    assert mae(truth, obs) == pytest.approx(0.0, abs=1e-15)


def test_synthesize_outlier_count_exact():
    spec = SynthSpec(dims=(10, 10, 10), rank=1, density=1.0, outlier_rate=0.05, seed=4)
    obs, truth, mask = synthesize(spec)
    assert obs.n_entries == 1000
    assert int(mask.sum()) == 50
    clean = truth.predict_entries(obs.i, obs.j, obs.k)
    np.testing.assert_allclose(obs.y[mask], 10.0 * clean[mask], rtol=1e-12)
    np.testing.assert_allclose(obs.y[~mask], clean[~mask], rtol=1e-12)


def test_synthesize_deterministic_bitwise():
    spec = SynthSpec(dims=(6, 5, 4), rank=2, density=0.4, noise_std=0.2,
                     outlier_rate=0.1, seed=11)
    a_obs, a_truth, a_mask = synthesize(spec)
    b_obs, b_truth, b_mask = synthesize(spec)
    assert (a_obs.y == b_obs.y).all()
    assert (a_obs.i == b_obs.i).all()
    assert (a_mask == b_mask).all()
    for (_, x), (_, y) in zip(a_truth.arrays(), b_truth.arrays()):
        assert (x == y).all()


def test_synthesize_validation():
    with pytest.raises(ValueError, match="density"):
        SynthSpec(dims=(4, 4, 4), rank=1, density=0.0)
    with pytest.raises(ValueError, match="observed"):
        SynthSpec(dims=(4, 4, 4), rank=1, density=0.001)
    with pytest.raises(ValueError, match="outlier_rate"):
        SynthSpec(dims=(4, 4, 4), rank=1, density=1.0, outlier_rate=1.0)
    with pytest.raises(ValueError, match="outlier_scale"):
        SynthSpec(dims=(4, 4, 4), rank=1, density=1.0, outlier_scale=1.0)
    for field in ("noise_std", "outlier_scale"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"^{field} must be finite"):
                SynthSpec(dims=(4, 4, 4), rank=1, density=0.5, outlier_rate=0.1,
                          **{field: value})


def test_synth_dims_follow_the_tensor_rule():
    # whole numbers only, as SparseTensor.from_arrays takes them: 3.7 is not truncated
    for dims in ((3.7, 3, 3), (np.inf, 3, 3), (2**63, 1, 1), (3, 3)):
        with pytest.raises(ValueError, match=r"^dims must be three positive integers below 2"):
            SynthSpec(dims=dims, rank=1, density=1.0)
    assert SynthSpec(dims=(3.0, np.int64(3), 3), rank=1, density=1.0).dims == (3, 3, 3)
    # synthesize samples a flat int64 cell index, so I*J*K must stay below 2**63
    with pytest.raises(ValueError, match=r"^dims must have fewer than 2\*\*63 cells"):
        SynthSpec(dims=(2**21, 2**21, 2**21), rank=1, density=1e-18)
    assert SynthSpec(dims=(2**21, 2**21, 2**21 - 1), rank=1, density=1e-18).n_observed == 9


def test_synthesize_clamps_noise_at_zero():
    spec = SynthSpec(dims=(8, 8, 4), rank=1, density=1.0, noise_std=5.0, seed=1)
    obs, _, _ = synthesize(spec)
    assert obs.y.min() >= 0.0


def test_write_predictions_exact_fit_line():
    m = FactorModel(U=[[1.0]], S=[[1.0]], T=[[1.0]], a=[0.0], b=[0.0], c=[0.0])
    buf = io.StringIO()
    write_predictions(m, [(0, 0, 0, 1.0)], buf)
    assert buf.getvalue() == "0 0 0 1 1 0\n"


def test_write_predictions_empty_stream():
    m = FactorModel(U=[[1.0]], S=[[1.0]], T=[[1.0]], a=[0.0], b=[0.0], c=[0.0])
    buf = io.StringIO()
    write_predictions(m, [], buf)
    assert buf.getvalue() == ""


def test_write_predictions_abs_err_field():
    m = FactorModel(
        U=[[1.0, 2.0]], S=[[1.0, 1.0]], T=[[1.0, 0.5]], a=[0.1], b=[0.2], c=[0.3]
    )  # prediction 2.6
    buf = io.StringIO()
    write_predictions(m, [(0, 0, 0, 3.6)], buf)
    fields = buf.getvalue().split()
    assert fields[3] == "3.6"
    assert fields[4] == "2.6"
    assert fields[5] == "1"


def test_outlier_mask_roundtrip(tmp_path):
    spec = SynthSpec(dims=(6, 5, 4), rank=1, density=0.5, outlier_rate=0.2, seed=3)
    obs, _, mask = synthesize(spec)
    path = tmp_path / "outliers.txt"
    write_outlier_mask(obs, mask, path)
    flagged = load_outlier_mask(path, obs.dims)
    expected = [[int(obs.i[p]), int(obs.j[p]), int(obs.k[p])] for p in np.nonzero(mask)[0]]
    assert flagged.dtype == np.int64
    assert flagged.tolist() == expected
    # a "#" line sends its block to the line parser, which keeps the same triples: none
    # outside the dims, one past int64 included
    with path.open("a") as fh:
        fh.write("# appended\n6 0 0\n0 0 -1\n0 0 99999999999999999999\n")
    flagged = load_outlier_mask(path, obs.dims)
    assert flagged.dtype == np.int64
    assert flagged.tolist() == expected


def test_split_metadata_byte_layout(tmp_path):
    path = tmp_path / "split.json"
    write_split_metadata(path, SplitSpec(0.16, 0.04, 0.8, seed=5), 100)
    text = path.read_text()
    assert text == (
        '{"m_ratio": 0.16, "n_ratio": 0.04, "o_ratio": 0.8, "seed": 5,'
        ' "counts": {"train": 16, "validation": 4, "test": 80}}\n'
    )


def test_comma_fields_may_carry_blanks():
    fmt = RecordFormat("comma", 1)
    t = load_records(io.StringIO("1, 2 ,1,\t3.5\n"), fmt)
    assert t.entries() == [(0, 1, 0, 3.5)]


def test_write_predictions_uses_the_record_format():
    m = FactorModel(U=[[1.0]], S=[[1.0]], T=[[1.0]], a=[0.0], b=[0.0], c=[0.0])
    buf = io.StringIO()
    write_predictions(m, load_records(io.StringIO("1,1,1,2.0\n"), RecordFormat("comma", 1)),
                      buf, RecordFormat("comma", 1))
    assert buf.getvalue() == "1,1,1,2,1,1\n"


def _reference_rows(columns, sep, base=0):
    # one row at a time, straight from the rule: ints via str, floats via fmt_real,
    # base added to the first three columns in their dtype (int64 wraps)
    lines = []
    for r in range(len(columns[0])):
        cells = []
        for m, c in enumerate(columns):
            shift = base if m < 3 else 0
            if c.dtype.kind == "i":
                cells.append(str((int(c[r]) + shift + 2**63) % 2**64 - 2**63))
            else:
                cells.append(fmt_real(c[r] + shift if shift else c[r]))  # -0.0 + 0 is 0.0
        lines.append(sep.join(cells) + "\n")
    return "".join(lines)


_EDGE_FLOATS = [-0.0, 5e-324, 1e-7, 1e16, 1e300, 3.0, -42.0, 0.0]
_FLOAT_POOLS = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6).flatmap(
    lambda floats: st.permutations(floats + _EDGE_FLOATS))


@given(
    n_rows=st.sampled_from([0, 1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1]),
    sep=st.sampled_from([" ", ","]),
    base=st.sampled_from([0, 1]),
    # "c", a run of consecutive small ints, is always drawn: a column the table formats
    kinds=st.lists(st.sampled_from("icf"), max_size=3).flatmap(
        lambda kinds: st.permutations(kinds + ["c"])),
    ints=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=6),
    run=st.tuples(st.integers(-50, 50), st.integers(1, 64)),
    float_pool=_FLOAT_POOLS,
)
# hi - lo of this pool wraps to -1 in int64; it must take the per-value path
@example(n_rows=_ROW_BLOCK + 1, sep=" ", base=0, kinds=["i", "c"],
         ints=[-(2**63), 2**63 - 1], run=(0, 3), float_pool=_EDGE_FLOATS)
@example(n_rows=_ROW_BLOCK + 1, sep=",", base=1, kinds=["c", "i", "f", "i"],
         ints=[2**63 - 1, -(2**63)], run=(-2, 5), float_pool=_EDGE_FLOATS)
# a small span whose top wraps once the base is added
@example(n_rows=_ROW_BLOCK, sep=" ", base=1, kinds=["i", "c"],
         ints=[2**63 - 2, 2**63 - 1], run=(0, 2), float_pool=_EDGE_FLOATS)
@settings(max_examples=25, deadline=None)
def test_write_rows_matches_per_row_formatting(n_rows, sep, base, kinds, ints, run, float_pool):
    start, width = run
    pools = {"i": np.array(ints, dtype=np.int64),
             "c": np.arange(start, start + width, dtype=np.int64),
             "f": np.array(float_pool, dtype=np.float64)}
    columns = [np.resize(pools[kind], n_rows) for kind in kinds]
    buf = io.StringIO()
    write_rows(buf, columns, sep, base)
    got, want = buf.getvalue(), _reference_rows(columns, sep, base)
    # line by line: a diff of two 4097-line strings would take minutes to report
    for row, (g, w) in enumerate(zip(got.split("\n"), want.split("\n"))):
        assert g == w, f"row {row}"
    assert len(got) == len(want)


def test_integer_tables_stay_under_their_cap(tmp_path):
    # a table for a column of 200,000 distinct values would hold about 12 MB
    # of strings; past _TABLE_MAX values the column is formatted per value
    n = 200_000
    rows = np.arange(n)
    columns = [rows, rows % 4532, rows % 64, rows % 7]
    path = tmp_path / "rows.txt"
    with path.open("w") as fh:
        tracemalloc.start()
        try:
            write_rows(fh, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert path.read_text() == _reference_rows(columns, " ")
    assert peak <= 2 * 2**20


def test_base1_coordinates_are_shifted_block_by_block(tmp_path):
    # three shifted int64 copies of the coordinates would add 24 B per entry
    # (768 kB here); shifting one row block at a time costs 3 x 32 kB
    obs, _, _ = synthesize(SynthSpec(dims=(40, 40, 40), rank=2, density=0.5, seed=4))
    peaks, texts = {}, {}
    for base in (0, 1):
        path = tmp_path / f"base{base}.txt"
        tracemalloc.start()
        try:
            write_records(obs, path, RecordFormat(index_base=base))
            peaks[base] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        texts[base] = path.read_text()
    assert peaks[1] <= peaks[0] + 4 * 8 * _ROW_BLOCK
    shifted = "".join(
        " ".join([str(int(f) + 1) for f in fields[:3]] + fields[3:]) + "\n"
        for fields in (line.split() for line in texts[0].splitlines())
    )
    assert texts[1] == shifted


def _load_line_by_line(source, fmt=RecordFormat(), dims=None):
    # load_records with numpy's parse switched off: every block goes through the
    # line parser, the reference path
    with mock.patch.object(dataio, "loadtxt_or_none", lambda *args, **kwargs: None):
        return load_records(source, fmt, dims)


def _outcome(load, source, fmt=RecordFormat(), dims=None):
    try:
        t = load(source, fmt, dims)
    except DataFormatError as exc:
        return "error", str(exc)
    # bit patterns, so -0.0 and 0.0 differ
    return t.dims, t.idx.dtype, t.idx.tolist(), t.y.dtype, t.y.view(np.int64).tolist()


_VALUE_SPELLINGS = [repr, "{:e}".format, "{:.17E}".format, "{:.20f}".format]


@st.composite
def _record_files(draw):
    delimiter = draw(st.sampled_from(["whitespace", "comma"]))
    base = draw(st.sampled_from([0, 1]))
    cells = draw(st.lists(st.tuples(*[st.integers(0, 12)] * 3), max_size=30, unique=True))
    values = st.one_of(
        st.floats(min_value=0, allow_nan=False, allow_infinity=False),
        st.sampled_from([-0.0, 0.0, 5e-324, 1e-300, 1.0, 2.0**53, 1e16, 1e-4]),
    )
    pad = st.sampled_from(["", " ", "\t", "  "])
    lines = []
    for cell in cells:
        while draw(st.integers(0, 5)) == 0:  # blank and comment lines between records
            lines.append(draw(st.sampled_from(["", "  ", "\t", "# note", "  # 1 2 3 4"])))
        fields = [str(c + base) for c in cell]
        fields.append(draw(st.sampled_from(_VALUE_SPELLINGS))(draw(values)))
        if delimiter == "comma":
            line = ",".join(draw(pad) + f + draw(pad) for f in fields)
        else:
            line = draw(pad) + "".join(f + draw(st.sampled_from([" ", "\t", " \t "]))
                                       for f in fields).rstrip()
        lines.append(line)
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    return RecordFormat(delimiter, base), "".join(map(str.__add__, lines, ends))


def _bulk_only():
    # load_records in blocks of 2 rows, with the line parser switched off
    return (mock.patch.object(dataio, "_PARSE_BLOCK", 2),
            mock.patch.object(dataio, "_parse_records", side_effect=AssertionError))


@given(case=_record_files(), as_bytes=st.booleans())
@settings(max_examples=100, deadline=None, print_blob=True)
def test_bulk_parse_builds_the_line_parsers_tensor_bit_for_bit(case, as_bytes):
    fmt, text = case

    def source():
        return io.BytesIO(text.encode()) if as_bytes else io.StringIO(text)

    want = _outcome(_load_line_by_line, source(), fmt)
    lines = text.splitlines()
    if lines and not any(
        line.strip().startswith("#") or (fmt.delimiter == "comma" and line.isspace())
        for line in lines
    ):  # nothing here makes the bulk parse decline, so it must build the tensor
        assert want[0] != "error"
        small_blocks, no_line_parser = _bulk_only()
        with small_blocks, no_line_parser:
            assert _outcome(load_records, source(), fmt) == want
    with mock.patch.object(dataio, "_PARSE_BLOCK", 2):
        assert _outcome(load_records, source(), fmt) == want


_BLOCK_EDGES = "0 0 0 1.5\n1 0 2 2\n\n\n2 1 0 3\n0 1 1 0\n \n1 1 1 4.25\n"
_BLOCK_RECORDS = "".join(line + "\n" for line in _BLOCK_EDGES.splitlines() if line.strip())
_BLOCK_EDGE_ENTRIES = [(0, 0, 0, 1.5), (1, 0, 2, 2.0), (2, 1, 0, 3.0), (0, 1, 1, 0.0),
                       (1, 1, 1, 4.25)]


def _pipe(text, newline=None):
    r, w = os.pipe()
    os.write(w, text.encode())
    os.close(w)
    return os.fdopen(r, "r", encoding="utf-8", newline=newline)


def _mid_file(tmp_path, text):
    path = tmp_path / "r.txt"
    path.write_text("# header\n" + text)
    fh = path.open()
    fh.readline()
    assert fh.tell() != 0
    return fh


@pytest.mark.parametrize("make", [
    lambda tmp_path: io.StringIO(_BLOCK_EDGES),  # blank lines at block edges
    lambda tmp_path: io.StringIO(_BLOCK_EDGES + "\n\n  \n"),  # trailing blank lines
    lambda tmp_path: io.StringIO(_BLOCK_RECORDS.rstrip("\n")),  # no final newline
    lambda tmp_path: io.BytesIO(_BLOCK_EDGES.encode()),
    lambda tmp_path: _pipe(_BLOCK_EDGES),  # cannot seek: read once, as it comes
    lambda tmp_path: _mid_file(tmp_path, _BLOCK_EDGES),
], ids=["blank-at-block-edge", "trailing-blanks", "no-final-newline", "binary",
        "non-seekable", "opened-mid-file"])
def test_blocks_of_a_stream_build_its_tensor_without_the_line_parser(tmp_path, make):
    small_blocks, no_line_parser = _bulk_only()
    with make(tmp_path) as fh, small_blocks, no_line_parser:
        t = load_records(fh)
    assert t.entries() == _BLOCK_EDGE_ENTRIES
    assert t.idx.flags.c_contiguous and t.dims == (3, 2, 3)
    with make(tmp_path) as fh:
        want = _outcome(_load_line_by_line, fh)
    with make(tmp_path) as fh:
        assert _outcome(load_records, fh) == want


def test_blocks_are_joined_into_parts_as_they_arrive():
    # blocks of 2 records, joined three at a time as they arrive, so no more than
    # three blocks' values live at once; the tensor is the one a single join builds,
    # the int16 parts widened to the int32 coordinates of the last block
    text = "".join(f"{i % 7} {i % 5} {i} {i / 4}\n" for i in range(20)) + "1 40000 0 1\n"
    with mock.patch.object(dataio, "_PARSE_BLOCK", 2):
        want = load_records(io.StringIO(text))
    values, live, parse = [], [], dataio._parse_block

    def spy(*args):  # how many blocks' values live once each block is parsed
        idx, y = parse(*args)
        values.append(weakref.ref(y))
        live.append(sum(ref() is not None for ref in values))
        return idx, y

    with mock.patch.object(dataio, "_PARSE_BLOCK", 2), \
            mock.patch.object(dataio, "_PART_BLOCKS", 3), \
            mock.patch.object(dataio, "_parse_block", side_effect=spy):
        got = load_records(io.StringIO(text))
    assert live == [1, 2, 3] * 3 + [1, 2]
    assert got.dims == want.dims == (7, 40001, 20) and got.idx.dtype == np.int32
    np.testing.assert_array_equal(got.idx, want.idx)
    assert got.y.tobytes() == want.y.tobytes()


@pytest.mark.parametrize("newline", ["\r", "\n"])
def test_a_stream_that_keeps_its_line_endings_loads_every_record(newline):
    # newline="" ends a line at a lone "\r" as at "\n", and leaves the ending on the line
    text = newline.join(["0 0 0 1", "1 0 0 2", "2 0 0 3"]) + newline
    fh = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline="")
    assert load_records(fh).entries() == [(0, 0, 0, 1.0), (1, 0, 0, 2.0), (2, 0, 0, 3.0)]


_W, _C1 = RecordFormat(), RecordFormat("comma", 1)


_HOSTILE_LINES = [
    ("0 0 0 1\n\n1e3 0 0 1\n", _W, None, "line 3: non-numeric field"),
    ("0 0 0 1\n\n1.0 0 0 1\n", _W, None, "line 3: non-numeric field"),
    ("0 0 0 1\n\n0 0 1 2 # note\n", _W, None, "line 3: expected 4 fields, got 6"),
    ("0 0 0 1\n\n0 0 1 nan\n", _W, None, "line 3: value is not finite"),
    ("0 0 0 1\n\n0 0 1 inf\n", _W, None, "line 3: value is not finite"),
    ("0 0 0 1\n\n0 0 1 1e400\n", _W, None, "line 3: value is not finite"),
    ("0 0 0 1\n\n0 0 1 -2.5\n", _W, None, "line 3: negative value -2.5"),
    ("1,1,1,1\n\n1,0,1,2\n", _C1, None, "line 3: index below base 1: (1, 0, 1)"),
    ("0 0 0 1\n\n0 0 1\n", _W, None, "line 3: expected 4 fields, got 3"),
    ("0 0 0 1\n\n0 0 1 x\n", _W, None, "line 3: non-numeric field"),
    ("0 0 0 1\n\n0 0 0 2\n", _W, None, "duplicate entry at (0, 0, 0)"),
    ("0 0 0 1\n\n0 5 0 2\n", _W, (1, 2, 1), "service index 5 out of range for dimension 2"),
    ("", _W, None, "no records found and no dims given"),
    ("# only a comment\n\n", _W, None, "no records found and no dims given"),
    ("# a\n# b\n\n0 0 0 1\n0 0 1 x\n", _W, None, "line 5: non-numeric field"),
    ("0 0 0 1\n\n0 9223372036854775808 0 1\n", _W, None,
     "line 3: index not below 2**63: (0, 9223372036854775808, 0)"),
]


@pytest.mark.parametrize("text, fmt, dims, message", _HOSTILE_LINES)
def test_hostile_record_lines_keep_their_messages(text, fmt, dims, message, block=None):
    with mock.patch.object(dataio, "_PARSE_BLOCK", block or dataio._PARSE_BLOCK), \
            pytest.raises(DataFormatError) as exc:
        load_records(io.StringIO(text), fmt, dims)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, fmt, dims, message", _HOSTILE_LINES)
def test_hostile_record_lines_keep_their_messages_in_blocks_of_2(text, fmt, dims, message):
    # a bad line after blank lines and a declined "#" block is still named by its
    # own line number
    test_hostile_record_lines_keep_their_messages(text, fmt, dims, message, block=2)


def test_undecodable_input_raises_the_line_parsers_error(tmp_path):
    # the same byte position as reading the file line by line gives
    path = tmp_path / "r.txt"
    path.write_bytes(b"0 0 0 1\n" * 20000 + b"1 1 1 \xff\n")
    with pytest.raises(UnicodeDecodeError) as want, path.open(encoding="utf-8") as fh:
        dataio._parse_records(fh, RecordFormat())
    with pytest.raises(UnicodeDecodeError) as got:
        load_records(path)
    assert str(got.value) == str(want.value)


def test_undecodable_input_blocks_in_raises_the_line_parsers_error(tmp_path):
    # the bad byte lies in the sixth block of lines, and the error gives its position in
    # the chunk the text stream was decoding: the same only if the file is read as the
    # line parser reads it, by iterating lines from the start
    path = tmp_path / "r.txt"
    path.write_bytes(b"0 0 0 1\n" * 24384 + b"1 1 1 \xff\n")
    with pytest.raises(UnicodeDecodeError) as want, path.open(encoding="utf-8") as fh:
        dataio._parse_records(fh, RecordFormat())
    with pytest.raises(UnicodeDecodeError) as got:
        load_records(path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("newline", [None, "", "\n", "\r", "\r\n"])
def test_a_pipe_splits_lines_as_the_same_stream_does(newline):
    # a "\n" or a lone "\r" ends a line in one newline mode or another: a pipe gives
    # the outcome of a stream that can seek, and blocks that of the line parser. Under
    # "\n" and "\r\n", "0 0 0 1\r1 0 0 2" is one line of 8 fields.
    text = "0 0 0 1\r1 0 0 2\n2 0 0 3\r\n\r\r3 0 0 4\n\r4 0 0 5\r"

    def stream():
        return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline=newline)

    with mock.patch.object(dataio, "_PARSE_BLOCK", 2):
        want = _outcome(load_records, stream())
        assert want == _outcome(_load_line_by_line, stream())
    with _pipe(text, newline) as pipe:
        assert not pipe.seekable()
        assert _outcome(load_records, pipe) == want


def test_underscored_coordinate_is_read_as_python_reads_it():
    # int("1_0") == 10: numpy declines the spelling, the line parser keeps it
    t = load_records(io.StringIO("0 0 0 1\n\n1_0 0 0 1\n"))
    assert t.dims == (11, 1, 1)
    assert t.entries() == [(0, 0, 0, 1.0), (10, 0, 0, 1.0)]


def test_empty_input_with_dims_is_an_empty_tensor():
    t = load_records(io.StringIO(""), dims=(1, 2, 1))
    assert (t.dims, t.n_entries) == ((1, 2, 1), 0)


def test_a_warning_from_the_bulk_parse_falls_back_silently(monkeypatch):
    real = np.loadtxt

    def warns(*args, **kwargs):  # numpy 1.24-1.26 warn when "1.0" fills an int column
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated",
                      DeprecationWarning, stacklevel=2)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warns)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t = load_records(io.StringIO("0 0 0 1.5\n1 0 0 2\n"))
    assert caught == []
    assert t.entries() == [(0, 0, 0, 1.5), (1, 0, 0, 2.0)]


@pytest.mark.parametrize("text", ["", "\n\n", "# comment\n", "# a\n\n# b\n"])
def test_empty_and_comment_only_files_print_no_warning(tmp_path, capfd, text):
    path = tmp_path / "r.txt"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert load_records(path, dims=(1, 1, 1)).n_entries == 0
        with pytest.raises(DataFormatError, match="no records"):
            load_records(path)
    assert caught == []
    assert capfd.readouterr() == ("", "")


def _positional_neighbours():
    edges = [1e-4, 1e16]
    return [np.nextafter(e, d) for e in edges for d in (0.0, np.inf)] + edges


@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=20),
)
@settings(max_examples=30, deadline=None)
def test_write_rows_formats_floats_as_fmt_real(seed, extra):
    rng = np.random.default_rng(seed)
    n = 3000
    values = np.concatenate([
        _positional_neighbours(),
        [0.0, -0.0, 5e-324, 2.2250738585072014e-308, np.nan, np.inf, -np.inf],
        rng.uniform(0, 1, 50) * 5e-324 * 2**52,  # subnormals
        np.floor(rng.uniform(0, 2.0**53, 200)),  # integral, every one exact
        2.0 ** rng.integers(0, 54, 50),
        np.abs(rng.standard_normal(n)) * 10.0 ** rng.uniform(-20, 20, n),
        extra,
    ])
    values *= rng.choice([-1.0, 1.0], values.size)
    buf = io.StringIO()
    write_rows(buf, [values])
    assert buf.getvalue().splitlines() == [fmt_real(v) for v in values]


@given(x=st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
    st.integers(-(2**60), 2**60).map(float),
    st.sampled_from(_positional_neighbours() + [0.0, -0.0, 5e-324, -5e-324]),
))
@example(x=1e16)
@example(x=9999999999999998.0)
@example(x=np.float64(-0.0))
@settings(max_examples=500, deadline=None)
def test_fmt_real_takes_repr_only_where_it_is_positional(x):
    # repr is fmt_real's fast path at 0 and for 1e-4 <= |x| < 1e16, an integral
    # value dropping its ".0"; numpy formats the rest (exponent forms, inf, nan)
    assert fmt_real(x) == np.format_float_positional(float(x), unique=True, trim="-")


def _positional_bits(bits):
    # 1e-4 <= |x| < 1e16 from random bits: sign and mantissa as given, the binary
    # exponent folded into 2**-13 .. 2**52, the binades wholly inside that range
    bits = np.asarray(bits, dtype=np.uint64)
    exponent = np.uint64(1010) + (bits >> np.uint64(52) & np.uint64(0x7FF)) % np.uint64(66)
    keep = bits & np.uint64(0x800F_FFFF_FFFF_FFFF)
    return (keep | exponent << np.uint64(52)).view(np.float64)


@st.composite
def _ties(draw):
    # x = m / 2**s, m odd, with floor(log10 x) = 16 - p; x * 10**p is an odd
    # multiple of 5 for s = p, a 16-digit tie, and ends in .5 for s = p + 1, a
    # 17-digit one
    p = draw(st.integers(1, 20))
    s = p + draw(st.integers(0, 1))
    lo, hi = Fraction(10) ** (16 - p) * 2**s, Fraction(10) ** (17 - p) * 2**s
    m = draw(st.integers(math.ceil(lo), min(math.ceil(hi) - 1, 2**53 - 1))) | 1
    assume(m < hi)
    scaled = Fraction(m, 2**s) * 10**p
    assert scaled.denominator == 2 or scaled.denominator == 1 and scaled.numerator % 10 == 5
    return m / 2**s


_KERNEL_VALUES = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: float(_positional_bits(bits))),
    st.floats(1e-4, 1e16, exclude_max=True),
    st.integers(-20, 60).flatmap(lambda k: st.sampled_from(
        [2.0**k, np.nextafter(2.0**k, 0.0), np.nextafter(2.0**k, np.inf)])),
    st.integers(-4, 16).flatmap(lambda k: st.sampled_from(
        [float(f"1e{k}"), np.nextafter(float(f"1e{k}"), 0.0), np.nextafter(float(f"1e{k}"), np.inf)])),
    st.integers(-8, 8).map(lambda d: 2.0**53 + 2 * d),
    st.sampled_from([9999999999999998.0, np.nextafter(1e16, 0.0), 2.0**53 - 1, 0.0]),
    _ties(),
    st.integers(0, 2**53).map(float),
    st.tuples(st.integers(0, 10**9), st.integers(0, 9)).map(lambda t: t[0] / 10 ** t[1]),
)


@given(values=st.lists(st.tuples(_KERNEL_VALUES, st.booleans()), min_size=1, max_size=40))
@example(values=[(1e15 + 0.25, False), (123456789012345.125, True), (5e14 + 0.25, False),
                 (123456789012345.25, True), (0.0, True), (9999999999999998.0, False)])
@settings(max_examples=300, deadline=None)
def test_float_cells_match_fmt_real(values):
    # write_rows' float kernel against fmt_real, each value drawn with either sign
    values = np.array([-v if negative else v for v, negative in values])
    buf = io.StringIO()
    write_rows(buf, [values])
    assert buf.getvalue().splitlines() == [fmt_real(v) for v in values]


def test_float_cells_match_repr_on_random_bits():
    values = _positional_bits(np.random.default_rng(11).integers(0, 2**64, 100_000, dtype=np.uint64))
    buf = io.StringIO()
    write_rows(buf, [values])
    assert buf.getvalue().splitlines() == [repr(v).removesuffix(".0") for v in values.tolist()]


def test_positional_cells_never_reach_fmt_real(monkeypatch):
    # the kernel must write these itself: a fallback to fmt_real per value would
    # pass every equivalence test and lose the speed
    rng = np.random.default_rng(5)
    values = np.concatenate([
        _positional_bits(rng.integers(0, 2**64, 6000, dtype=np.uint64)),
        np.floor(rng.uniform(1, 2.0**53, 1000)),  # integral
        np.round(rng.uniform(0, 1000, 1000), 3),  # short decimals
        [1e15 + 0.25, -5e14 - 0.25, 123456789012345.125],  # ties at 17 and 16 digits
        2.0 ** np.arange(-13, 54),
        [0.0, -0.0, 0.1, -0.3, 123.456, 9999999999999998.0],
    ])
    want = [fmt_real(v) for v in values]
    calls = []
    monkeypatch.setattr(lftk._util, "fmt_real", lambda x: calls.append(x) or fmt_real(x))
    buf = io.StringIO()
    write_rows(buf, [values, values[::-1]])
    assert calls == []
    assert buf.getvalue().splitlines() == [f"{a} {b}" for a, b in zip(want, want[::-1])]
    write_rows(io.StringIO(), [np.array([0.5, np.inf, 9e-5, 1e16])])  # past the kernel
    assert calls == [np.inf, 9e-5, 1e16]


@pytest.mark.slow
def test_float_cells_match_repr_on_10m_random_positional_doubles():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    for _ in range(10):
        values = _positional_bits(rng.integers(0, 2**64, 1_000_000, dtype=np.uint64))
        buf = io.StringIO()
        write_rows(buf, [values])
        assert buf.getvalue().splitlines() == [repr(v).removesuffix(".0") for v in values.tolist()]
    print(f"[float-cells] 10M random positional doubles match repr in "
          f"{time.perf_counter() - t0:.1f}s")


def test_load_records_peak_memory_per_record(tmp_path, header="", j0=0, dtype=np.int16,
                                             bound=30):
    # Python objects per parsed record cost 146.7 B each at the peak; one
    # (i8, i8, i8, f8) record array plus the tensor's own copies, 89 B. Parsed in
    # blocks, then joined, the peak is the tensor's 14 B (int16 coordinates,
    # float64 values) plus the 8 B duplicate-check keys: 23.0 B here. The 7 B
    # margin covers the n/2-key merge buffer that a stable sort of unordered keys
    # needs. A "#" header starts no block (103.5 B when it sent the whole file
    # through the line parser again).
    dims = (100, 100, 20)
    ii, jj, kk = np.unravel_index(np.arange(dims[0] * dims[1] * dims[2]), dims)
    jj += j0
    y = np.random.default_rng(0).uniform(0, 5, ii.size)
    path = tmp_path / "r.txt"
    with path.open("w") as fh:
        fh.write(header)
        write_rows(fh, (ii, jj, kk, y))
    tracemalloc.start()
    try:
        t = load_records(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.n_entries == ii.size == 200_000
    assert peak / t.n_entries <= bound
    # the headerless file's tensor, bit for bit
    assert t.dims == (100, 100 + j0, 20) and t.idx.dtype == dtype
    assert t.idx.flags.c_contiguous
    np.testing.assert_array_equal(t.idx, np.stack([ii, jj, kk]))
    assert t.y.tobytes() == y.tobytes()


def test_a_headed_file_loads_within_the_plain_files_peak_memory(tmp_path):
    test_load_records_peak_memory_per_record(tmp_path, header="# user service time value\n")


def test_int32_coordinates_load_within_their_join_s_peak_memory(tmp_path):
    # a service index past int16 on every line: the blocks' int32 coordinates and
    # their join are held together, 32.0 B per record (29.0 B when the rows were
    # allocated once from a line count; with int64 coordinates 56.0 B against 41.0 B)
    test_load_records_peak_memory_per_record(tmp_path, j0=40_000, dtype=np.int32, bound=36)


def test_synthesize_peak_memory_per_entry():
    # At the WS-Dream shape: the tensor's own 14 B per entry (int16 coordinates),
    # plus the sampled cells or the noise draw or the duplicate-check keys (8 B
    # each) and the outlier mask, measured at 25.1 B per entry (43.1 B with int64
    # coordinates, 102.6 B when the cells were unraveled apart and copied into the
    # tensor)
    spec = SynthSpec(dims=(142, 4532, 64), rank=5, density=0.005, noise_std=0.05,
                     outlier_rate=0.05, seed=1)
    tracemalloc.start()
    try:
        observed, _, _ = synthesize(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert observed.n_entries == 205_934
    assert peak / observed.n_entries <= 34


def test_synthesize_peak_memory_per_entry_at_five_percent_density():
    # Above n_cells // 50 cells, rng.choice fills an arange of every cell (160 B per
    # entry here, 171.6 B at the peak); replaying its shuffle from the swap targets
    # alone leaves the tensor build to set the peak, measured at 24.9 B per entry
    # (42.9 B with int64 coordinates)
    spec = SynthSpec(dims=(142, 4532, 8), rank=5, density=0.05, noise_std=0.05,
                     outlier_rate=0.05, seed=1)
    tracemalloc.start()
    try:
        observed, _, _ = synthesize(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert observed.n_entries == 257_417
    assert peak / observed.n_entries <= 34


_WSDREAM_5 = SynthSpec(dims=(142, 4532, 64), rank=5, density=0.05)


@st.composite
def _sample_sizes(draw):
    # (n_cells, n) on both sides of choice's regimes: Floyd's sampler up to
    # n_cells // 50 cells or 10,000 in all, a tail shuffle above, which
    # _sample_cells replays up to n_cells // 8 cells
    n_cells = draw(st.sampled_from([10_000, 10_001]) | st.integers(1, 40_000))
    edges = [0, 1, n_cells // 50, n_cells // 50 + 1, n_cells // 8 - 1, n_cells // 8,
             n_cells // 8 + 1, n_cells]
    n = draw(st.sampled_from(edges) | st.integers(n_cells // 50, n_cells // 8 + 1))
    return n_cells, min(max(n, 0), n_cells)


@given(sizes=_sample_sizes(), seed=st.integers(0, 2**63), predraws=st.integers(0, 3))
@example(sizes=(_WSDREAM_5.n_cells, _WSDREAM_5.n_observed), seed=1, predraws=0)
@example(sizes=(_WSDREAM_5.n_cells, _WSDREAM_5.n_observed), seed=9001, predraws=0)
@example(sizes=(4_000_000, 250_000), seed=0, predraws=0)
@example(sizes=(1_000_000, 20_001), seed=0, predraws=1)
@settings(max_examples=300, deadline=None)
def test_sample_cells_draws_what_choice_draws(sizes, seed, predraws):
    # the same cells and the same generator state after, so synthesized data stay
    # bit for bit; a numpy whose choice draws differently fails here
    n_cells, n = sizes
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (want_rng, got_rng):  # 32-bit draws leave half a word buffered
        rng.integers(0, 5, size=predraws)
    want = np.sort(want_rng.choice(n_cells, size=n, replace=False))
    got = dataio._sample_cells(got_rng, n_cells, n)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_sample_cells_leaves_keys_past_int64_to_choice():
    # 2**62 cells, 2**57 drawn: past Floyd's range and below the dense one, but a key
    # target << 57 | step would take 119 bits, so choice draws them
    rng = mock.Mock()
    rng.choice.return_value = np.array([5, 3, 4])
    assert dataio._sample_cells(rng, 2**62, 2**57).tolist() == [3, 4, 5]
    rng.choice.assert_called_once_with(2**62, size=2**57, replace=False)


def test_a_stream_that_cannot_seek_is_read_once_by_either_parser():
    for text in ("0 0 0 1.5\n1 0 2 2\n", "# header\n0 0 0 1.5\n1 0 2 2\n"):
        r, w = os.pipe()
        os.write(w, text.encode())
        os.close(w)
        with os.fdopen(r, "r", encoding="utf-8") as pipe:
            assert not pipe.seekable()
            t = load_records(pipe)
        assert t.entries() == [(0, 0, 0, 1.5), (1, 0, 2, 2.0)]


class _CountingStream(io.StringIO):
    # the characters handed out through read and iteration, in all
    chars = 0

    def read(self, *args):
        text = super().read(*args)
        self.chars += len(text)
        return text

    def __next__(self):
        line = super().__next__()
        self.chars += len(line)
        return line


def test_a_headed_seekable_stream_is_read_once():
    # no count pass and no seek back: a "#" header starts no block, and nothing is
    # read twice
    text = "# user service time value\n0 0 0 1.5\n1 0 2 2\n\n2 1 0 3\n"
    fh = _CountingStream(text)
    t = load_records(fh)
    assert t.entries() == [(0, 0, 0, 1.5), (1, 0, 2, 2.0), (2, 1, 0, 3.0)]
    assert fh.chars == len(text)


def test_load_records_from_a_pipe_peak_memory_per_record(tmp_path):
    # a stream that cannot seek is read once, as a file is, within the file path's
    # bound: 23.1 B per record (56.1 B with int64 coordinates, 125.1 B when its lines
    # were read into a list)
    ii, jj, kk = np.unravel_index(np.arange(200_000), (100, 100, 20))
    y = np.random.default_rng(0).uniform(0, 5, ii.size)
    path = tmp_path / "r.txt"
    with path.open("w") as fh:
        write_rows(fh, (ii, jj, kk, y))
    data = memoryview(path.read_bytes())
    r, w = os.pipe()

    def feed():
        with os.fdopen(w, "wb") as sink:
            sink.write(data)

    tracemalloc.start()
    try:
        writer = threading.Thread(target=feed)
        writer.start()
        with os.fdopen(r, "r", encoding="utf-8") as pipe:
            t = load_records(pipe)
        writer.join()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.n_entries == 200_000
    assert peak / t.n_entries <= 30


# ------------------------------------------------------------- outlier masks


def test_binary_streams_stay_open_after_parsing():
    # the text wrapper around a caller's byte stream is detached, not dropped,
    # so collecting it does not close the caller's stream
    records, mask = io.BytesIO(b"0 0 0 1\n"), io.BytesIO(b"# flagged\n0 0 0\n")
    load_records(records)
    load_outlier_mask(mask, (1, 1, 1))
    gc.collect()
    assert not records.closed and not mask.closed
    bad = io.BytesIO(b"0 0 x 1\n")
    with pytest.raises(DataFormatError):
        load_records(bad)
    gc.collect()
    assert not bad.closed


@pytest.mark.parametrize("tail", ["", "# end\n"], ids=["plain", "trailing-comment"])
def test_load_outlier_mask_peak_memory_per_row(tmp_path, tail):
    # Parsed a block at a time, the peak is the rows' int64 parts and their
    # concatenation, 48 B per row: measured at 49.6 B, and 49.2 B with a "#"
    # line at the end, whose block alone goes to the line parser. Read whole as
    # str lines and parsed again line by line on a decline, they were 122.4 B and
    # 217.5 B per row.
    dims = (100, 100, 20)
    ii, jj, kk = np.unravel_index(np.arange(200_000), dims)
    t = SparseTensor.from_arrays(dims, ii, jj, kk, np.ones(ii.size))
    path = tmp_path / "outliers.txt"
    write_outlier_mask(t, np.ones(ii.size, bool), path)
    with path.open("a") as fh:
        fh.write(tail)
    tracemalloc.start()
    try:
        flagged = load_outlier_mask(path, dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert flagged.dtype == np.int64 and flagged.shape == (200_000, 3)
    assert (flagged == np.stack([ii, jj, kk], axis=1)).all()
    assert peak / len(flagged) <= 56


def _mask_line_by_line(source, dims):
    # load_outlier_mask with the bulk parse switched off: the reference path
    with mock.patch.object(dataio, "loadtxt_or_none", lambda *args, **kwargs: None):
        return load_outlier_mask(source, dims)


def _mask_outcome(load, source, dims):
    try:
        rows = load(source, dims)
    except DataFormatError as exc:
        return "error", str(exc)
    return rows.dtype, rows.shape, rows.tolist()


_MASK_FIELDS = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["1_0", "-3", "+4", "007", "1.0", "1e3", "x", ""]),
)


@st.composite
def _mask_files(draw):
    lines = [draw(st.sampled_from(["# flagged entries: i j k (0-based)", "  # x", "#"]))
             for _ in range(draw(st.integers(0, 2)))]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t", "# mid", " # 1 2 3"])))
        else:
            count = 3 if kind > 2 else draw(st.sampled_from([1, 2, 4]))
            fields = [draw(st.integers(-5, 40).map(str)) if kind > 3 else draw(_MASK_FIELDS)
                      for _ in range(count)]
            pad = st.sampled_from([" ", "\t", "  ", " \t"])
            lines.append(draw(st.sampled_from(["", " "]))
                         + "".join(f + draw(pad) for f in fields).rstrip())
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


def _edge_triples(*values):
    return "".join(f"{v} 0 1\n1 {v} 0\n0 1 {v}\n" for v in values)


_INT64_EDGES = (-(2**63), 2**63 - 1, 2**63 - 2, 7)  # the bulk parse takes these
_WIDEST = (2**63 - 1,) * 3


@given(text=_mask_files(), as_bytes=st.booleans(),
       dims=st.one_of(st.tuples(*[st.integers(1, 41)] * 3), st.just(_WIDEST)))
@example(text=_edge_triples(2**63, -(2**63) - 1, *_INT64_EDGES), as_bytes=False, dims=_WIDEST)
@example(text=_edge_triples(*_INT64_EDGES), as_bytes=True, dims=_WIDEST)
@example(text=_edge_triples(*_INT64_EDGES), as_bytes=False, dims=(2**63 - 1, 2, 8))
@settings(max_examples=150, deadline=None)
def test_bulk_mask_parse_agrees_with_the_line_parser(text, as_bytes, dims):
    def source():
        return io.BytesIO(text.encode()) if as_bytes else io.StringIO(text)

    assert _mask_outcome(load_outlier_mask, source(), dims) == _mask_outcome(
        _mask_line_by_line, source(), dims)


def test_mask_files_parse_in_one_call(tmp_path):
    obs, _, mask = synthesize(SynthSpec(dims=(9, 8, 7), rank=1, density=0.5,
                                        outlier_rate=0.2, seed=4))
    path = tmp_path / "outliers.txt"
    write_outlier_mask(obs, mask, path)
    with mock.patch.object(dataio, "_record_lines", side_effect=AssertionError):
        flagged = load_outlier_mask(path, obs.dims)
    assert flagged.dtype == np.int64
    assert flagged.tolist() == obs.idx[:, mask].T.tolist()
    assert len(flagged) == int(mask.sum())
