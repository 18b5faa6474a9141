import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lftk import FactorModel, SplitSpec, SynthSpec, mae, split, synthesize
from lftk.evaluation import EvalReport, split_sizes


def exact_model():
    return FactorModel(
        U=[[1.0, 2.0]], S=[[1.0, 1.0]], T=[[1.0, 0.5]], a=[0.1], b=[0.2], c=[0.3]
    )


def test_mae_zero_on_exact_fit():
    m = exact_model()
    assert mae(m, [(0, 0, 0, 2.6)]) == pytest.approx(0.0, abs=1e-15)


def test_mae_single_entry():
    m = FactorModel(U=[[3.0]], S=[[1.0]], T=[[1.0]], a=[0.0], b=[0.0], c=[0.0])
    assert mae(m, [(0, 0, 0, 5.0)]) == pytest.approx(2.0, abs=1e-15)


def test_mae_mixed_signs_average():
    m = FactorModel(
        U=[[1.0], [1.0]], S=[[1.0]], T=[[1.0]], a=[0.0, 0.0], b=[0.0], c=[0.0]
    )
    # residuals +1 and -3 -> (1 + 3) / 2
    entries = [(0, 0, 0, 2.0), (1, 0, 0, 0.0)]
    m.U[1, 0] = 3.0
    assert mae(m, entries) == pytest.approx(2.0, abs=1e-15)


def test_mae_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        mae(exact_model(), [])


def test_mae_permutation_invariant_and_scales_linearly():
    rng = np.random.default_rng(2)
    obs, truth, _ = synthesize(SynthSpec(dims=(6, 5, 4), rank=2, density=0.5, seed=2))
    entries = obs.entries()
    shuffled = list(entries)
    rng.shuffle(shuffled)
    base = mae(truth, entries)
    assert mae(truth, shuffled) == pytest.approx(base, rel=1e-12)
    s = 3.5
    scaled_model = FactorModel(
        truth.U * s, truth.S, truth.T, truth.a, truth.b, truth.c
    )
    scaled_entries = [(i, j, k, s * y) for i, j, k, y in entries]
    assert mae(scaled_model, scaled_entries) == pytest.approx(s * base, rel=1e-12)


def test_split_spec_validation():
    with pytest.raises(ValueError, match="sum"):
        SplitSpec(0.5, 0.4, 0.2)
    with pytest.raises(ValueError, match="positive"):
        SplitSpec(0.0, 0.2, 0.8)
    with pytest.raises(ValueError, match="nonnegative"):
        SplitSpec(1.2, -0.1, -0.1)


@pytest.mark.parametrize("ratios", [
    (math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (0.5, 0.5, math.nan),
    (0.5, math.inf, -math.inf),
])
def test_split_spec_rejects_non_finite_ratios(ratios):
    with pytest.raises(ValueError, match="finite"):
        SplitSpec(*ratios)


def hundred_entry_tensor(seed=0):
    obs, _, _ = synthesize(SynthSpec(dims=(5, 5, 4), rank=1, density=1.0, seed=seed))
    assert obs.n_entries == 100
    return obs


def test_split_table_ratios_on_100_entries():
    t = hundred_entry_tensor()
    tr, va, te = split(t, SplitSpec(0.16, 0.04, 0.80, seed=3))
    assert (tr.n_entries, va.n_entries, te.n_entries) == (16, 4, 80)
    tr, va, te = split(t, SplitSpec(0.20, 0.05, 0.75, seed=3))
    assert (tr.n_entries, va.n_entries, te.n_entries) == (20, 5, 75)


def test_split_deterministic_given_seed():
    t = hundred_entry_tensor()
    a = split(t, SplitSpec(0.16, 0.04, 0.80, seed=7))
    b = split(t, SplitSpec(0.16, 0.04, 0.80, seed=7))
    for x, y in zip(a, b):
        assert x.entries() == y.entries()
    c = split(t, SplitSpec(0.16, 0.04, 0.80, seed=8))
    assert any(x.entries() != y.entries() for x, y in zip(a, c))


@given(
    n_i=st.integers(1, 6),
    n_j=st.integers(1, 6),
    n_k=st.integers(1, 4),
    density=st.floats(0.2, 1.0),
    m=st.floats(0.05, 0.9),
    n=st.floats(0.0, 0.05),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=50, deadline=None)
def test_split_partitions_entries(n_i, n_j, n_k, density, m, n, seed):
    if density * n_i * n_j * n_k < 1:
        density = 1.0
    obs, _, _ = synthesize(
        SynthSpec(dims=(n_i, n_j, n_k), rank=1, density=density, seed=seed % 1000)
    )
    spec = SplitSpec(m, n, 1.0 - m - n, seed=seed)
    parts = split(obs, spec)
    combined = [e for p in parts for e in p.entries()]
    assert len(combined) == obs.n_entries
    assert sorted(combined) == sorted(obs.entries())  # disjoint union == input
    sizes = split_sizes(obs.n_entries, spec)
    assert tuple(p.n_entries for p in parts) == sizes


def test_report_without_epochs_summarizes_best_mae_as_null():
    rep = EvalReport(epochs=[], best_epoch=0, best_val_mae=math.inf, diverged=True)
    assert rep.summary()["best_val_mae"] is None
    assert '"best_val_mae": null' in json.dumps(rep.summary(), allow_nan=False)


def test_report_invariants():
    rows = [(1, 5.0, 0.9, 0.5), (2, 4.0, 0.7, 0.4), (3, 3.9, 0.8, 0.3)]
    rep = EvalReport(epochs=rows, best_epoch=2, best_val_mae=0.7)
    assert rep.best_val_mae == min(r[2] for r in rep.epochs)
    assert rep.summary()["epochs_run"] == 3
    assert rep.summary()["partition"] == "single"
