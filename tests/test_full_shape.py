"""The full WS-Dream shape end to end, in one process (``pytest -m slow -s``)."""

import resource
import time

import numpy as np
import pytest

from lftk import (
    SplitSpec,
    SynthSpec,
    TrainConfig,
    load_records,
    mae,
    split,
    synthesize,
    train,
    write_predictions,
    write_records,
)


@pytest.mark.slow
def test_full_wsdream_shape_runs_end_to_end_within_5_gb(tmp_path):
    # 142 x 4532 x 64 at density 0.735 is 30,272,309 entries (WS-Dream has
    # 30,287,611). Each stage's input is dropped once it has been used, as a
    # pipeline of commands would.
    times = {}

    def timed(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        times[name] = time.perf_counter() - t0
        return out

    spec = SynthSpec(dims=(142, 4532, 64), rank=5, density=0.735, noise_std=0.05,
                     outlier_rate=0.05, seed=0)
    observed = timed("synthesize", synthesize, spec)[0]
    n = observed.n_entries
    records = tmp_path / "observed.txt"
    timed("write_records", write_records, observed, records)
    del observed
    loaded = timed("load_records", load_records, records)
    assert (loaded.dims, loaded.n_entries) == (spec.dims, n) == ((142, 4532, 64), 30_272_309)
    train_t, val_t, test_t = timed("split", split, loaded, SplitSpec(0.7, 0.1, 0.2, seed=0))
    del loaded
    config = TrainConfig(rank=5, max_epochs=2, patience=2, seed=0)
    model, report = timed("train", train, train_t, val_t, config)
    del train_t, val_t
    test_mae = timed("mae", mae, model, test_t)
    predictions = tmp_path / "pred.txt"
    timed("write_predictions", write_predictions, model, test_t, predictions)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux

    print("[full-shape] " + " ".join(f"{k} {v:.1f}s" for k, v in times.items())
          + f" peak_rss {peak / 1e9:.2f} GB test_mae {test_mae:.4f}")
    assert len(report.epochs) == 2 and not report.diverged
    assert np.isfinite(test_mae)
    with predictions.open("rb") as fh:
        assert sum(1 for _ in fh) == test_t.n_entries
    assert peak <= 5e9
