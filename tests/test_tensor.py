import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lftk import Entry, SparseTensor, SplitSpec, build_tensor, split
from lftk.tensor import MODES, _cell_keys, entry_arrays


def test_single_entry_build():
    t = build_tensor((2, 2, 2), [(0, 0, 0, 1.0)])
    assert t.n_entries == 1
    assert len(t.slice("user", 0)) == 1
    assert len(t.slice("user", 1)) == 0
    assert t.entry(0) == Entry(0, 0, 0, 1.0)


def test_duplicate_triple_rejected_naming_triple():
    with pytest.raises(ValueError, match=r"\(0, 0, 0\)"):
        build_tensor((2, 2, 2), [(0, 0, 0, 1.0), (0, 0, 0, 2.0)])
    # of several duplicated cells, the (i, j, k)-smallest is named
    with pytest.raises(ValueError, match=r"^duplicate entry at \(0, 2, 1\)$"):
        build_tensor((4, 4, 4), [(3, 1, 0, 1.0), (0, 2, 1, 1.0), (3, 1, 0, 2.0), (0, 2, 1, 2.0)])


def test_distinct_triples_are_not_duplicates_when_the_raveled_index_would_wrap():
    # I*J*K = 2**66: (2**20, 0, 0) ravels to 2**64, which int64 wraps to 0
    dims = (2**22,) * 3
    t = build_tensor(dims, [(0, 0, 0, 1.0), (2**20, 0, 0, 2.0)])
    assert t.n_entries == 2
    # a true duplicate is still named, with the first of its pair in (i, j, k) order
    entries = [(2**21, 5, 1, 1.0), (0, 2**20, 0, 1.0), (2**21, 5, 1, 2.0), (0, 2**20, 0, 3.0)]
    with pytest.raises(ValueError, match=r"^duplicate entry at \(0, 1048576, 0\)$"):
        build_tensor(dims, entries)


def test_a_duplicate_is_named_in_ijk_order_past_int64():
    # the byte keys are big-endian: little-endian bytes would put 256 before 1
    dims = (2**63 - 1,) * 3
    entries = [(256, 0, 7, 1.0), (1, 2**62, 0, 1.0), (256, 0, 7, 2.0), (1, 2**62, 0, 2.0)]
    with pytest.raises(ValueError, match=r"^duplicate entry at \(1, 4611686018427387904, 0\)$"):
        build_tensor(dims, entries)


_DIMS = st.one_of(st.integers(1, 8), st.integers(1, 2**21), st.integers(1, 2**63 - 1),
                  st.sampled_from([2**8, 2**21, 2**32, 2**62, 2**63 - 1]))


@st.composite
def _cell_columns(draw):
    # dims on both sides of I*J*K = 2**63; each mode draws from a few values,
    # byte edges among them, so that equal columns occur
    dims = draw(st.tuples(_DIMS, _DIMS, _DIMS))
    pools = [draw(st.lists(st.one_of(st.integers(0, d - 1),
                                     st.sampled_from([0, 1, 255, 256, 2**31, 2**62]).map(
                                         lambda v, d=d: min(v, d - 1))),
                           min_size=1, max_size=3))
             for d in dims]
    n = draw(st.integers(0, 12))
    idx = np.array([[draw(st.sampled_from(pool)) for _ in range(n)] for pool in pools],
                   dtype=np.int64).reshape(3, n)
    return dims, idx


@given(cells=_cell_columns())
@example(cells=((2**21,) * 3, np.array([[2**21 - 1, 0, 1], [5, 2**20, 0], [1, 0, 0]])))
@example(cells=((2**21, 2**21, 2**21 - 1), np.array([[2**21 - 1, 0, 2**21 - 1],
                                                      [5, 2**20, 5], [1, 0, 1]])))
@settings(max_examples=200, deadline=None)
def test_cell_keys_are_equal_for_equal_cells_and_sort_in_ijk_order(cells):
    dims, idx = cells
    keys = _cell_keys(dims, idx)
    assert keys.shape == (idx.shape[1],)
    same_cell = (idx[:, :, None] == idx[:, None, :]).all(axis=0)
    assert np.array_equal(keys[:, None] == keys[None, :], same_cell)
    assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort(idx[::-1]))


@pytest.mark.parametrize("dims", [(2**70, 1, 1), (1, 2**63, 1), (0, 1, 1), (1, 1, -2),
                                  (2.9, 2, 2), (1, math.inf, 1), (1, 1, math.nan)])
def test_dims_outside_positive_int64_are_a_value_error(dims):
    with pytest.raises(ValueError, match=r"^dims must be three positive integers below 2\*\*63"):
        build_tensor(dims, [(0, 0, 0, 1.0)])


def test_out_of_range_index_rejected():
    with pytest.raises(ValueError, match="service"):
        build_tensor((2, 2, 2), [(0, 2, 0, 1.0)])
    with pytest.raises(ValueError, match="user"):
        build_tensor((2, 2, 2), [(-1, 0, 0, 1.0)])


def test_bad_values_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        build_tensor((2, 2, 2), [(0, 0, 0, -1.0)])
    with pytest.raises(ValueError, match="finite"):
        build_tensor((2, 2, 2), [(0, 0, 0, float("nan"))])
    with pytest.raises(ValueError, match="finite"):
        build_tensor((2, 2, 2), [(0, 0, 0, float("inf"))])


def test_slice_examples():
    t = build_tensor((2, 2, 8), [(0, 0, 0, 1.0), (0, 1, 1, 1.0), (1, 0, 0, 1.0)])
    assert len(t.slice("user", 0)) == 2
    assert len(t.slice("service", 1)) == 1
    assert len(t.slice("time", 5)) == 0
    with pytest.raises(IndexError):
        t.slice("time", 8)
    with pytest.raises(ValueError):
        t.slice("column", 0)


def test_dataset_scale_density_arithmetic():
    # density of 30,287,611 known records in a 142 x 4532 x 64 tensor
    density = 30_287_611 / (142 * 4532 * 64)
    assert density == pytest.approx(0.735, abs=0.001)


def test_tensor_is_immutable():
    t = build_tensor((2, 2, 2), [(0, 0, 0, 1.0)])
    with pytest.raises(ValueError):
        t.y[0] = 2.0
    with pytest.raises(ValueError):
        t.slice("user", 0)[0] = 5


def test_building_a_tensor_allocates_nothing_per_dimension():
    # a tensor holds only its entries: no vector the length of a mode is built
    tracemalloc.start()
    try:
        build_tensor((10**6,) * 3, [(999_999, 0, 0, 1.0)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@st.composite
def sparse_tensors(draw):
    dims = (
        draw(st.integers(1, 5)),
        draw(st.integers(1, 5)),
        draw(st.integers(1, 5)),
    )
    cells = [(i, j, k) for i in range(dims[0]) for j in range(dims[1]) for k in range(dims[2])]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, min_size=0, max_size=len(cells)))
    values = draw(
        st.lists(
            st.floats(0, 100, allow_nan=False),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    return dims, [(i, j, k, y) for (i, j, k), y in zip(chosen, values)]


@given(sparse_tensors())
@settings(max_examples=60, deadline=None)
def test_slices_partition_entries(case):
    dims, rows = case
    t = build_tensor(dims, rows)
    for mode in MODES:
        seen = np.concatenate(
            [t.slice(mode, x) for x in range(dims[MODES.index(mode)])]
            or [np.empty(0, dtype=np.int64)]
        )
        # every entry appears exactly once across the mode's slices
        assert sorted(seen.tolist()) == list(range(t.n_entries))
        assert int(t.slice_counts(mode).sum()) == t.n_entries
        for x in range(dims[MODES.index(mode)]):
            pos = t.slice(mode, x)
            assert (t.mode_indices(mode)[pos] == x).all()


@given(sparse_tensors())
@settings(max_examples=30, deadline=None)
def test_user_slices_flatten_to_permutation(case):
    dims, rows = case
    t = build_tensor(dims, rows)
    flat = [t.entry(int(p)) for x in range(dims[0]) for p in t.slice("user", x)]
    assert sorted(flat) == sorted(Entry(*r) for r in rows)


def _dims_dtype(dims):
    # the narrowest of int16, int32 and int64 whose range holds every index below dims
    top = max(dims) - 1
    return next(np.dtype(t) for t in (np.int16, np.int32, np.int64) if top <= np.iinfo(t).max)


def _assert_one_block(t):
    assert t.idx.shape == (3, t.n_entries) and t.idx.dtype == _dims_dtype(t.dims)
    assert t.idx.flags.c_contiguous and not t.idx.flags.writeable
    for row in (t.i, t.j, t.k):
        assert np.shares_memory(row, t.idx) or t.n_entries == 0
        assert not row.flags.writeable


@given(sparse_tensors(), st.data())
@settings(max_examples=60, deadline=None)
def test_coordinates_are_one_read_only_block(case, data):
    # a C-contiguous block after take() keeps the training sweeps' row
    # gathers contiguous; idx[:, pos] would hand back a strided F-order one
    dims, rows = case
    t = SparseTensor.from_arrays(dims, *entry_arrays(rows))
    _assert_one_block(t)
    pos = data.draw(st.lists(st.sampled_from(range(t.n_entries)), unique=True)
                    if t.n_entries else st.just([]))
    sub = t.take(pos)
    _assert_one_block(sub)
    ref = SparseTensor.from_arrays(dims, t.i[pos], t.j[pos], t.k[pos], t.y[pos])
    assert np.array_equal(sub.idx, ref.idx) and np.array_equal(sub.y, ref.y)
    assert sub.entries() == ref.entries() == [Entry(*rows[p]) for p in pos]
    for part in split(t, SplitSpec(0.5, 0.25, 0.25, seed=1)):
        _assert_one_block(part)


def test_take_preserves_dims_and_values():
    t = build_tensor((3, 3, 3), [(0, 0, 0, 1.0), (1, 1, 1, 2.0), (2, 2, 2, 3.0)])
    sub = t.take([2, 0])
    assert sub.dims == t.dims
    assert sub.entries() == [Entry(2, 2, 2, 3.0), Entry(0, 0, 0, 1.0)]


def test_entry_arrays_accepts_tensor_and_iterables():
    rows = [(0, 0, 0, 1.5), (1, 1, 1, 2.5)]
    t = build_tensor((2, 2, 2), rows)
    for src in (t, rows, [Entry(*r) for r in rows]):
        ii, jj, kk, yy = entry_arrays(src)
        assert yy.tolist() == [1.5, 2.5]
        assert ii.tolist() == [0, 1]


@pytest.mark.parametrize("bad", [0.7, math.nan, math.inf])
def test_non_integral_coordinates_are_rejected_naming_the_mode(bad):
    with pytest.raises(ValueError, match="user index"):
        build_tensor((2, 2, 2), [(bad, 1, 0, 1.0)])
    with pytest.raises(ValueError, match="time index"):
        SparseTensor.from_arrays((2, 2, 2), [0], [1], np.array([bad]), [1.0])
    t = build_tensor((2, 2, 2), [(0, 1, 0, 1.0)])
    with pytest.raises(ValueError, match="service index"):
        t.slice("service", bad)


def test_integral_float_coordinates_are_accepted():
    t = build_tensor((4, 4, 4), [(3.0, 1.0, 2.0, 1.0)])
    assert t.idx.dtype == _dims_dtype(t.dims) == np.int16
    assert t.entries() == [Entry(3, 1, 2, 1.0)]
    assert t.slice("user", 3.0).tolist() == [0]


@pytest.mark.slow
def test_dataset_scale_build():
    # full-size construction: 30,287,611 entries in 142 x 4532 x 64
    dims = (142, 4532, 64)
    total = dims[0] * dims[1] * dims[2]
    n = 30_287_611
    rng = np.random.default_rng(0)
    flat = rng.permutation(total)[:n]
    i, rem = np.divmod(flat, dims[1] * dims[2])
    j, k = np.divmod(rem, dims[2])
    y = rng.random(n)
    t = SparseTensor.from_arrays(dims, i, j, k, y)
    assert t.n_entries == n
    assert t.density == pytest.approx(0.735, abs=0.001)
    assert int(t.slice_counts("service").sum()) == n
