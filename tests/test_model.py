import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lftk.model
from lftk import (
    AdmmState,
    FactorModel,
    TrainConfig,
    build_tensor,
    load_model,
    mae,
    objective,
    save_model,
)
from lftk.model import loss_sum
from oracles import brute_objective


def rank2_model():
    # U_i=[1,2], S_j=[1,1], T_k=[1,0.5], a_i=0.1, b_j=0.2, c_k=0.3 at (0,0,0)
    return FactorModel(
        U=[[1.0, 2.0]], S=[[1.0, 1.0]], T=[[1.0, 0.5]], a=[0.1], b=[0.2], c=[0.3]
    )


def test_predict_rank_one_identity():
    m = FactorModel(U=[[1.0]], S=[[1.0]], T=[[1.0]], a=[0.0], b=[0.0], c=[0.0])
    assert m.predict(0, 0, 0) == 1.0


def test_predict_rank_two_with_biases():
    assert rank2_model().predict(0, 0, 0) == pytest.approx(2.6, abs=1e-15)


def test_predict_all_zero():
    m = FactorModel(U=[[0.0]], S=[[0.0]], T=[[0.0]], a=[0.0], b=[0.0], c=[0.0])
    assert m.predict(0, 0, 0) == 0.0


def test_predict_rejects_out_of_range():
    m = rank2_model()
    with pytest.raises(IndexError, match="user"):
        m.predict(1, 0, 0)
    with pytest.raises(IndexError, match="time"):
        m.predict(0, 0, -1)


def test_residual_examples():
    m = rank2_model()
    assert m.residual((0, 0, 0, 2.6)) == pytest.approx(0.0, abs=1e-15)
    assert m.residual((0, 0, 0, 3.6)) == pytest.approx(1.0, abs=1e-15)
    assert m.residual((0, 0, 0, 0.0)) == pytest.approx(-2.6, abs=1e-15)


def test_nonnegativity_enforced():
    with pytest.raises(ValueError, match="negative"):
        FactorModel(U=[[-0.1]], S=[[1.0]], T=[[1.0]], a=[0.0], b=[0.0], c=[0.0])
    with pytest.raises(ValueError, match="non-finite"):
        FactorModel(U=[[np.nan]], S=[[1.0]], T=[[1.0]], a=[0.0], b=[0.0], c=[0.0])


def test_objective_perfect_fit_is_zero():
    m = rank2_model()
    t = build_tensor((1, 1, 1), [(0, 0, 0, 2.6)])
    assert objective(m, t, "cauchy", gamma=1.0) == pytest.approx(0.0, abs=1e-24)
    assert objective(m, t, "l2") == pytest.approx(0.0, abs=1e-24)


def test_predict_equals_predict_entries_bit_for_bit():
    rng = np.random.default_rng(7)
    dims = (13, 11, 9)
    m = FactorModel(
        *(rng.uniform(0.0, 2.0, (d, 5)) for d in dims),
        *(rng.uniform(0.0, 1.0, d) for d in dims),
    )
    ii, jj, kk = (c.ravel() for c in np.indices(dims))
    batch = m.predict_entries(ii, jj, kk)
    single = np.array([m.predict(i, j, k) for i, j, k in zip(ii, jj, kk)])
    assert (single == batch).all()


def _random_model(seed, dims, rank):
    rng = np.random.default_rng(seed)
    return FactorModel(
        *(rng.uniform(0.0, 2.0, (d, rank)) for d in dims),
        *(rng.uniform(0.0, 1.0, d) for d in dims),
    )


@pytest.mark.parametrize("chunk", [1, 3, 1 << 18, 1 << 14, 209, 210])
def test_predict_entries_does_not_depend_on_chunk_size(monkeypatch, chunk):
    # one kernel serves the model and the ADMM auxiliaries; 210 is all 210 cells
    dims = (7, 6, 5)
    m = _random_model(11, dims, 4)
    t = build_tensor(dims, [(i, j, k, 1.0) for i in range(7) for j in range(6) for k in range(5)])
    state = AdmmState.initialize(m, t, TrainConfig(rank=4))
    state.aux_u[:] = _random_model(12, dims, 4).U
    ii, jj, kk = (c.ravel() for c in np.indices(dims))
    whole, aux_whole = m.predict_entries(ii, jj, kk), state.aux_prediction(t)
    monkeypatch.setattr(lftk.model, "_CHUNK", chunk)
    assert m.predict_entries(ii, jj, kk).tobytes() == whole.tobytes()
    assert state.aux_prediction(t).tobytes() == aux_whole.tobytes()


@pytest.mark.parametrize("rank", [1, 5, 8, 13])
def test_prediction_sums_columns_in_order_then_biases(rank):
    # the documented order: U0*S0*T0, then + Ur*Sr*Tr for r = 1..R-1, then
    # + a, + b, + c; numpy's own row sum pairs terms differently from rank 8
    dims = (9, 8, 7)
    m = _random_model(rank, dims, rank)
    ii, jj, kk = (c.ravel() for c in np.indices(dims))
    cp = m.U[ii, 0] * m.S[jj, 0] * m.T[kk, 0]
    for r in range(1, rank):
        cp = cp + m.U[ii, r] * m.S[jj, r] * m.T[kk, r]
    expected = ((cp + m.a[ii]) + m.b[jj]) + m.c[kk]
    assert m.predict_entries(ii, jj, kk).tobytes() == expected.tobytes()


def test_cauchy_loss_stays_finite_for_huge_residuals():
    # (e/gamma)^2 overflows once |e/gamma| passes ~1.3e154
    assert loss_sum([1e200], "cauchy", 1.0) == pytest.approx(2 * math.log(1e200), rel=1e-15)
    assert loss_sum([1e300], "cauchy", 1e-150) == pytest.approx(
        2 * (math.log(1e300) - math.log(1e-150)), rel=1e-15
    )
    assert math.isfinite(loss_sum([1e308, -1e308], "cauchy", 1e-150))
    # the objective of two 1e200 spikes is finite too
    m = FactorModel(U=[[0.0]], S=[[0.0]], T=[[0.0], [0.0]], a=[0.0], b=[0.0], c=[0.0, 0.0])
    t = build_tensor((1, 1, 2), [(0, 0, 0, 1e200), (0, 0, 1, 1e200)])
    assert objective(m, t, "cauchy") == pytest.approx(4 * math.log(1e200), rel=1e-15)


def test_cauchy_loss_below_the_cutoff_is_the_plain_sum_bit_for_bit():
    rng = np.random.default_rng(5)
    e = rng.standard_normal(1000) * np.logspace(-3, 149, 1000)
    for gamma in (1e-3, 1.0, 7.5):
        below = e[np.abs(e) <= 1e150 * gamma]
        assert loss_sum(below, "cauchy", gamma) == float(np.log1p((below / gamma) ** 2).sum())


def test_cauchy_loss_mixing_both_sides_of_the_cutoff_is_the_per_entry_sum(recwarn):
    # residuals above 1e150*gamma take 2 ln|e/gamma|, the rest ln(1 + (e/gamma)^2),
    # and numpy sums the per-entry terms in entry order
    gamma = 0.5
    e = np.array([0.3, -1e200, 2.0, 1e151 * gamma, -4e-3, 1e150 * gamma, 1e308, 7.0])
    big = np.abs(e) > 1e150 * gamma
    terms = np.empty_like(e)
    terms[~big] = np.log1p((e[~big] / gamma) ** 2)
    terms[big] = 2 * (np.log(np.abs(e[big])) - np.log(gamma))
    assert big.sum() == 3
    assert loss_sum(e, "cauchy", gamma) == float(terms.sum())
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_objective_single_residual_values():
    m = FactorModel(U=[[0.0]], S=[[0.0]], T=[[0.0]], a=[0.0], b=[0.0], c=[0.0])
    t1 = build_tensor((1, 1, 1), [(0, 0, 0, 1.0)])
    assert objective(m, t1, "cauchy", gamma=1.0) == pytest.approx(math.log(2), rel=1e-12)
    t3 = build_tensor((1, 1, 1), [(0, 0, 0, 3.0)])
    assert objective(m, t3, "l2") == pytest.approx(9.0, rel=1e-12)


def test_objective_rejects_bad_gamma():
    m = rank2_model()
    t = build_tensor((1, 1, 1), [(0, 0, 0, 1.0)])
    with pytest.raises(ValueError, match="gamma"):
        objective(m, t, "cauchy", gamma=0.0)
    with pytest.raises(ValueError, match="loss"):
        objective(m, t, "huber")


@given(st.floats(1e-3, 1e3))
@settings(max_examples=80)
def test_cauchy_damps_outliers_relative_to_l2(e1):
    # growing a residual tenfold: log-loss ratio always below the squared ratio
    gamma = 1.0
    e2 = 10.0 * e1
    cauchy = lambda e: math.log(1.0 + e * e / gamma**2)
    ratio_cauchy = cauchy(e2) / cauchy(e1)
    ratio_l2 = (e2 * e2) / (e1 * e1)
    assert ratio_cauchy < ratio_l2
    if e1 >= gamma:
        assert cauchy(e2) - cauchy(e1) <= math.log(100) + math.log(2)


def test_predict_multilinear_in_factor_row():
    rng = np.random.default_rng(3)
    m = FactorModel(
        U=rng.uniform(0, 1, (4, 3)),
        S=rng.uniform(0, 1, (5, 3)),
        T=rng.uniform(0, 1, (6, 3)),
        a=np.zeros(4),
        b=np.zeros(5),
        c=np.zeros(6),
    )
    doubled = m.copy()
    doubled.U[2] *= 2.0
    for j in range(5):
        for k in range(6):
            assert doubled.predict(2, j, k) == pytest.approx(2.0 * m.predict(2, j, k), rel=1e-12)


def test_l2_objective_matches_bruteforce():
    rng = np.random.default_rng(9)
    dims, rank = (5, 6, 4), 3
    m = FactorModel(
        U=rng.uniform(0, 1, (5, rank)),
        S=rng.uniform(0, 1, (6, rank)),
        T=rng.uniform(0, 1, (4, rank)),
        a=rng.uniform(0, 1, 5),
        b=rng.uniform(0, 1, 6),
        c=rng.uniform(0, 1, 4),
    )
    cells = [(i, j, k) for i in range(5) for j in range(6) for k in range(4)]
    rng.shuffle(cells)
    rows = [(i, j, k, float(rng.uniform(0, 5))) for i, j, k in cells[:40]]
    t = build_tensor(dims, rows)
    expected = brute_objective(m.U, m.S, m.T, m.a, m.b, m.c, rows, "l2")
    got = objective(m, t, "l2")
    assert got == pytest.approx(expected, rel=1e-12)
    expected_c = brute_objective(m.U, m.S, m.T, m.a, m.b, m.c, rows, "cauchy", gamma=0.7)
    got_c = objective(m, t, "cauchy", gamma=0.7)
    assert got_c == pytest.approx(expected_c, rel=1e-12)


def test_initialize_ranges_and_determinism():
    m1 = FactorModel.initialize((7, 8, 9), 4, seed=123)
    m2 = FactorModel.initialize((7, 8, 9), 4, seed=123)
    assert (m1.U == m2.U).all() and (m1.T == m2.T).all()
    assert m1.U.min() >= 0 and m1.U.max() < 0.1
    assert (m1.a == 0).all() and (m1.c == 0).all()
    m3 = FactorModel.initialize((7, 8, 9), 4, seed=124)
    assert not (m3.U == m1.U).all()


def test_model_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(17)
    m = FactorModel(
        U=rng.uniform(0, 1, (3, 2)) * np.pi,
        S=rng.uniform(0, 1, (4, 2)) / 3.0,
        T=rng.uniform(0, 1, (5, 2)) * 1e-7,
        a=rng.uniform(0, 1, 3) * 1e6,
        b=rng.uniform(0, 1, 4),
        c=rng.uniform(0, 1, 5),
    )
    path = tmp_path / "m.model"
    save_model(m, path)
    back = load_model(path)
    for (_, x), (_, y) in zip(m.arrays(), back.arrays()):
        assert (x == y).all(), "round-trip must be bit-exact"
    header = path.read_text().splitlines()[0]
    assert header == "lft-model v1 2 3 4 5"


def test_load_model_rejects_malformed(tmp_path):
    from lftk import DataFormatError

    p = tmp_path / "bad.model"
    p.write_text("not a model\n")
    with pytest.raises(DataFormatError):
        load_model(p)
    p.write_text("lft-model v1 1 1 1 1\nU\n0.5\nS\n")
    with pytest.raises(DataFormatError):
        load_model(p)
    # value breaking the nonnegativity invariant
    p.write_text("lft-model v1 1 1 1 1\nU\n-0.5\nS\n0\nT\n0\na\n0\nb\n0\nc\n0\n")
    with pytest.raises(DataFormatError, match="negative"):
        load_model(p)


@pytest.mark.parametrize("bad", [0.7, math.nan, math.inf])
def test_predict_rejects_non_integral_coordinates(bad):
    m = FactorModel.initialize((2, 2, 2), 1, seed=0)
    with pytest.raises(ValueError, match="user index"):
        m.predict(bad, 0, 0)
    with pytest.raises(ValueError, match="service index"):
        m.predict_entries([0], [bad], [0])
    assert m.predict(1.0, 0.0, 1.0) == m.predict(1, 0, 1)


def test_failed_save_keeps_the_previous_model(tmp_path, monkeypatch):
    path = tmp_path / "m.model"
    save_model(rank2_model(), path)
    before = path.read_bytes()

    def fail_midway(fh, columns, *args):
        fh.write("0.5\n" * 5000)
        raise OSError("disk full")

    monkeypatch.setattr(lftk.model, "write_rows", fail_midway)
    with pytest.raises(OSError, match="disk full"):
        save_model(_random_model(1, (4, 3, 2), 2), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.model"]


_MODEL_TEXT = "lft-model v1 2 2 1 1\nU\n0.5 1\n2 0.25\nS\n1 1\nT\n1e-7 3\na\n0\n0.5\nb\n1\nc\n0\n"


def test_load_model_parses_each_block_in_one_call(tmp_path, monkeypatch):
    from lftk import model as model_module

    p = tmp_path / "m.model"
    p.write_text(_MODEL_TEXT)
    monkeypatch.setattr(model_module, "_parse_block", None)  # the row parser is not needed
    m = load_model(p)
    assert m.U.tolist() == [[0.5, 1.0], [2.0, 0.25]]
    assert m.T.tolist() == [[1e-7, 3.0]]
    assert m.a.tolist() == [0.0, 0.5]


@pytest.mark.parametrize("old, new, message", [
    ("2 0.25\n", "2 x\n", "line 4: non-numeric field in block 'U'"),
    ("2 0.25\n", "2\n", "line 4: expected 2 fields in block 'U', got 1"),
    ("2 0.25\n", "\n", "line 4: expected 2 fields in block 'U', got 0"),
    ("2 0.25\n", "2 0.25 # c\n", "line 4: expected 2 fields in block 'U', got 4"),
    ("1e-7 3\n", "1e-7 3 4\n", "line 8: expected 2 fields in block 'T', got 3"),
    ("a\n0\n0.5\n", "a\n0\nb\n", "line 11: non-numeric field in block 'a'"),
    ("1e-7 3\n", "nan 3\n", "T contains non-finite values"),
    ("1e-7 3\n", "-inf 3\n", "T contains non-finite values"),
    ("c\n0\n", "c\n", "block 'c' is truncated"),
])
def test_load_model_errors_keep_their_line_numbers(tmp_path, old, new, message):
    from lftk import DataFormatError

    p = tmp_path / "bad.model"
    p.write_text(_MODEL_TEXT.replace(old, new, 1))
    with pytest.raises(DataFormatError) as exc:
        load_model(p)
    assert str(exc.value) == message


def test_load_model_reads_what_float_reads(tmp_path):
    # numpy declines "1_0" and padded lines of a block; the row parser reads them
    p = tmp_path / "m.model"
    p.write_text(_MODEL_TEXT.replace("2 0.25\n", "  1_0\t0.25 \n", 1))
    assert load_model(p).U.tolist() == [[0.5, 1.0], [10.0, 0.25]]


# ------------------------------------------------- checks on the fast paths


@pytest.mark.parametrize("entries", [
    build_tensor((2, 1, 1), [(1, 0, 0, 1.0)]),  # dims differ from the model's
    build_tensor((1, 1, 3), [(0, 0, 2, 1.0)]),
    [(1, 0, 0, 1.0)],
    [(0, 0, -1, 1.0)],
])
def test_objective_and_mae_reject_coordinates_outside_the_model(entries):
    m = rank2_model()
    with pytest.raises(IndexError, match="out of range"):
        objective(m, entries)
    with pytest.raises(IndexError, match="out of range"):
        mae(m, entries)


def test_objective_and_mae_of_a_tensor_equal_the_checked_path():
    rng = np.random.default_rng(3)
    m = FactorModel.initialize((4, 5, 3), 2, seed=1)
    cells = rng.permutation(60)[:25]
    entries = [(*np.unravel_index(c, (4, 5, 3)), float(v))
               for c, v in zip(cells, rng.uniform(0, 2, 25))]
    # the first has the model's dims and skips the coordinate check; the second does not
    for t in (build_tensor((4, 5, 3), entries), build_tensor((1, 1, 1), [(0, 0, 0, 2.0)])):
        for loss in ("cauchy", "l2"):
            assert objective(m, t, loss) == objective(m, t.entries(), loss)
        assert mae(m, t) == mae(m, t.entries())


@pytest.mark.parametrize("name", ["U", "S", "T", "a", "b", "c"])
@pytest.mark.parametrize("bad, message", [
    (-0.5, "negative"), (-0.0 - 1e-300, "negative"),
    (np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"),
])
def test_copy_rejects_arrays_spoiled_in_place(name, bad, message):
    m = rank2_model()
    getattr(m, name)[0] = bad
    with pytest.raises(ValueError, match=f"^{name} contains {message} values$"):
        m.copy()


def test_copy_names_the_array_the_constructor_names():
    # U, S and T are checked before a, b and c, whatever block they share
    m = rank2_model()
    m.a[0], m.S[0, 1] = -1.0, np.nan
    with pytest.raises(ValueError, match="^S contains non-finite values$"):
        m.copy()


def test_two_failing_blocks_name_the_first_array_in_order():
    # a (in U's block) and S both fail: S comes first in U, S, T, a, b, c order
    m = FactorModel.initialize((2, 2, 2), 2, seed=4)
    arrays = [arr.copy() for _, arr in m.arrays()]
    arrays[3][1], arrays[1][0, 0] = -1.0, np.nan
    with pytest.raises(ValueError, match="^S contains non-finite values$"):
        FactorModel(*arrays)
    m.a[1], m.S[0, 0] = -1.0, np.nan
    with pytest.raises(ValueError, match="^S contains non-finite values$"):
        m.copy()


def test_copy_is_an_independent_bitwise_copy():
    m = FactorModel.initialize((3, 4, 2), 3, seed=2)
    c = m.copy()
    assert all(x.tobytes() == y.tobytes() and x is not y for x, y in zip(m.blocks, c.blocks))
    assert all(np.shares_memory(view, blk) for (_, view), blk in
               zip(c.arrays(), c.blocks + c.blocks))
    c.U[0, 0] = 5.0
    assert m.U[0, 0] != 5.0
    empty = FactorModel(np.zeros((0, 1)), [[1.0]], [[1.0]], [], [0.0], [0.0])
    assert empty.copy().dims == (0, 1, 1)
