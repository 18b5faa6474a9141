import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lftk.model
from lftk import FactorModel, build_tensor, load_model, objective, save_model
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


@pytest.mark.parametrize("chunk", [1, 3, 1 << 18])
def test_predict_entries_does_not_depend_on_chunk_size(monkeypatch, chunk):
    rng = np.random.default_rng(11)
    dims = (7, 6, 5)
    m = FactorModel(
        *(rng.uniform(0.0, 2.0, (d, 4)) for d in dims),
        *(rng.uniform(0.0, 1.0, d) for d in dims),
    )
    ii, jj, kk = (c.ravel() for c in np.indices(dims))
    whole = m.predict_entries(ii, jj, kk)
    monkeypatch.setattr(lftk.model, "_CHUNK", chunk)
    assert m.predict_entries(ii, jj, kk).tobytes() == whole.tobytes()


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
