"""The benchmark's tracer still fits the code it wraps.

``perfbench/spans.py`` times lftk by swapping the module and class
attributes listed in ``TARGETS``, and its counters read some call arguments
by position. A rename or a reordered signature in ``src/`` would otherwise
only show up as a failing ``--trace 1`` run.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

import lftk.cli

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


class _Anything:
    # stands in for every argument and result a counter looks at
    n_entries = size = best_epoch = 0
    epochs = ()

    def __len__(self):
        return 0

    def __getitem__(self, key):
        return self


@pytest.mark.parametrize("target", spans.TARGETS, ids=lambda t: f"{t[0].__name__}.{t[1]}")
def test_target_exists_and_counter_reads_named_positions(target, monkeypatch):
    owner, attr, _, counter = target
    assert attr in owner.__dict__, f"{owner.__name__} has no attribute {attr}"
    if counter is None:
        return
    read = []

    def recording_arg(args, kwargs, pos, name):
        read.append((pos, name))
        return _Anything()

    monkeypatch.setattr(spans, "_arg", recording_arg)
    counter((), {}, _Anything())
    params = list(inspect.signature(getattr(owner, attr)).parameters)
    for pos, name in read:
        assert params[pos] == name, f"{attr} argument {pos} is {params[pos]!r}, not {name!r}"


def test_every_span_records_a_call_in_a_small_pipeline(tmp_path):
    # a traced perfbench run exits 1 when a span records nothing, e.g. once
    # `train` stops calling `FactorModel.copy`; this catches it in tier-1
    data, splits, model = tmp_path / "data", tmp_path / "splits", tmp_path / "m.model"
    commands = (
        ["synth", "--dims", "6x5x4", "--rank", "2", "--density", "0.5",
         "--outlier-rate", "0.1", "--outlier-scale", "10", "--seed", "1", "--out", data],
        ["split", "--input", data / "observed.txt", "--ratios", "60:20:20", "--seed", "1",
         "--out", splits],
        ["train", "--train", splits / "train.txt", "--val", splits / "validation.txt",
         "--dims", "6x5x4", "--rank", "2", "--max-epochs", "3", "--model-out", model],
        ["eval", "--model", model, "--test", splits / "test.txt", "--mask", data / "outliers.txt"],
        ["predict", "--model", model, "--entries", splits / "test.txt",
         "--out", tmp_path / "pred.txt"],
    )
    tracer = spans.Tracer()
    with tracer.installed():
        for argv in commands:
            assert lftk.cli.main([str(a) for a in argv]) == 0, argv[0]
    called = {s[spans.NAME] for s in tracer.spans}
    missing = sorted({name for _, _, name, _ in spans.TARGETS} - called)
    assert not missing, f"spans that recorded no call: {missing}"


def test_mask_counter_counts_one_record_per_flagged_triple(tmp_path):
    # _Anything has length 0, so only a real mask shows the count is rows, not columns
    path = tmp_path / "outliers.txt"
    path.write_text("# flagged entries: i j k (0-based)\n0 1 2\n3 0 1\n")
    counter = next(c for owner, attr, _, c in spans.TARGETS
                   if owner is lftk.cli and attr == "load_outlier_mask")
    flagged = lftk.cli.load_outlier_mask(path, (4, 4, 4))
    assert counter((path, (4, 4, 4)), {}, flagged) == {"records": 2,
                                                       "bytes_read": path.stat().st_size}
