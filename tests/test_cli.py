import hashlib
import json
import math
import os
import stat
import tracemalloc
import warnings
from dataclasses import MISSING, fields

import numpy as np
import pytest

from lftk import FactorModel, SynthSpec, TrainConfig, build_tensor, load_records, mae
from lftk._util import fmt_real, write_rows
from lftk.cli import _write_json, build_parser, main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_writes_dataset(tmp_path, capsys):
    out = tmp_path / "d"
    code, stdout, _ = run(
        ["synth", "--dims", "20x20x8", "--rank", "2", "--density", "0.1",
         "--seed", "7", "--out", str(out)],
        capsys,
    )
    assert code == 0
    for name in ("observed.txt", "truth.model", "outliers.txt", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 7
    assert manifest["parameters"]["dims"] == [20, 20, 8]


def test_synth_deterministic_outputs(tmp_path, capsys):
    flags = ["synth", "--dims", "10x10x4", "--rank", "2", "--density", "0.3",
             "--noise-std", "0.05", "--outlier-rate", "0.1", "--seed", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(flags + ["--out", str(a)], capsys)[0] == 0
    assert run(flags + ["--out", str(b)], capsys)[0] == 0
    for name in ("observed.txt", "truth.model", "outliers.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    ma.pop("created_utc"), mb.pop("created_utc")  # timestamps live only here
    assert ma == mb


def test_synth_usage_errors(tmp_path, capsys):
    code, _, err = run(
        ["synth", "--dims", "4x4x4", "--rank", "1", "--density", "0",
         "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 1
    assert "density" in err


def test_argparse_usage_exit_code_is_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--rank", "1"])  # missing required --dims/--density/--out
    assert exc.value.code == 1


def make_dataset(tmp_path, capsys, dims="12x10x6", density="0.4", outliers="0.0"):
    out = tmp_path / "data"
    code, _, _ = run(
        ["synth", "--dims", dims, "--rank", "2", "--density", density,
         "--outlier-rate", outliers, "--seed", "5", "--out", str(out)],
        capsys,
    )
    assert code == 0
    splitdir = tmp_path / "splits"
    code, _, _ = run(
        ["split", "--input", str(out / "observed.txt"), "--ratios", "70:15:15",
         "--seed", "5", "--out", str(splitdir)],
        capsys,
    )
    assert code == 0
    return out, splitdir


def test_split_writes_parts_and_sidecar(tmp_path, capsys):
    out, splitdir = make_dataset(tmp_path, capsys)
    meta = json.loads((splitdir / "split.json").read_text())
    counts = meta["counts"]
    total = counts["train"] + counts["validation"] + counts["test"]
    lines = (out / "observed.txt").read_text().splitlines()
    assert total == len(lines)
    for name in ("train.txt", "validation.txt", "test.txt"):
        assert (splitdir / name).exists()


def test_split_holds_its_input_and_parts_once(tmp_path, capsys):
    # The input tensor (14 B per record with int16 coordinates), its three parts
    # (14 B together) and the permutation (8 B) are the 36 B budget; the margin
    # covers fixed write and hash buffers. Measured 32.1 B (65.9 B with int64
    # coordinates; 90.1 B while the load copied its arrays and the input stayed
    # alive through the writes).
    dims = (100, 100, 20)
    ii, jj, kk = np.unravel_index(np.arange(dims[0] * dims[1] * dims[2]), dims)
    y = np.random.default_rng(0).uniform(0, 5, ii.size)
    path = tmp_path / "r.txt"
    with path.open("w") as fh:
        write_rows(fh, (ii, jj, kk, y))
    tracemalloc.start()
    try:
        code, stdout, _ = run(["split", "--input", str(path), "--ratios", "70:10:20",
                               "--out", str(tmp_path / "s")], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and stdout == "split 200000 entries -> 140000/20000/40000\n"
    assert peak / ii.size <= 40


def test_train_eval_pipeline(tmp_path, capsys):
    out, splitdir = make_dataset(tmp_path, capsys)
    model_path = tmp_path / "m.model"
    log_path = tmp_path / "log.txt"
    report_path = tmp_path / "report.json"
    code, stdout, _ = run(
        ["train", "--train", str(splitdir / "train.txt"),
         "--val", str(splitdir / "validation.txt"), "--dims", "12x10x6",
         "--loss", "cauchy", "--rank", "2", "--gamma", "1", "--lambda", "0.1",
         "--eta", "1", "--max-epochs", "150", "--patience", "150",
         "--seed", "5", "--model-out", str(model_path),
         "--log-out", str(log_path), "--report-out", str(report_path)],
        capsys,
    )
    assert code == 0
    assert model_path.exists() and (str(model_path) + ".manifest.json")
    report = json.loads(report_path.read_text())
    assert report["epochs_run"] >= 1 and not report["diverged"]
    for line in log_path.read_text().splitlines():
        tokens = line.split()
        assert tokens[0] == "epoch" and tokens[2] == "obj"
        float(tokens[3]), float(tokens[5]), float(tokens[7])

    code, stdout, _ = run(
        ["eval", "--model", str(model_path), "--test", str(splitdir / "test.txt")],
        capsys,
    )
    assert code == 0
    assert stdout.startswith("mae ")
    assert float(stdout.split()[1]) >= 0.0


def test_train_l2_mode_runs(tmp_path, capsys):
    out, splitdir = make_dataset(tmp_path, capsys)
    code, _, _ = run(
        ["train", "--train", str(splitdir / "train.txt"),
         "--val", str(splitdir / "validation.txt"), "--loss", "l2",
         "--rank", "2", "--max-epochs", "20",
         "--model-out", str(tmp_path / "l2.model")],
        capsys,
    )
    assert code == 0


def test_train_eta_flag_validation(tmp_path, capsys):
    out, splitdir = make_dataset(tmp_path, capsys)
    code, _, err = run(
        ["train", "--train", str(splitdir / "train.txt"),
         "--val", str(splitdir / "validation.txt"), "--eta", "3",
         "--model-out", str(tmp_path / "m.model")],
        capsys,
    )
    assert code == 1
    assert "eta" in err


@pytest.mark.parametrize("flag,value", [
    ("--gamma", "inf"), ("--gamma", "nan"), ("--lambda", "inf"),
    ("--lambda", "nan"), ("--min-delta", "inf"), ("--min-delta", "nan"),
])
def test_train_rejects_non_finite_hyperparameters(tmp_path, capsys, flag, value):
    out, splitdir = make_dataset(tmp_path, capsys)
    code, _, err = run(
        ["train", "--train", str(splitdir / "train.txt"),
         "--val", str(splitdir / "validation.txt"), flag, value,
         "--max-epochs", "2", "--model-out", str(tmp_path / "m.model")],
        capsys,
    )
    assert code == 1
    assert flag.strip("-").replace("-", "_") in err
    assert not (tmp_path / "m.model").exists()


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_train_report_is_strict_json_when_no_epoch_completes(tmp_path, capsys):
    data = tmp_path / "big.txt"
    data.write_text("0 0 0 1e200\n1 1 0 1e200\n0 1 0 1\n")  # runaway at epoch 1
    val = tmp_path / "val.txt"
    val.write_text("1 0 0 1\n")
    model = tmp_path / "m.model"
    code, _, _ = run(
        ["train", "--train", str(data), "--val", str(val), "--loss", "l2",
         "--rank", "1", "--dims", "2x2x1", "--model-out", str(model)],
        capsys,
    )
    assert code == 3
    for path in (f"{model}.report.json", f"{model}.manifest.json"):
        with open(path, encoding="utf-8") as fh:
            json.load(fh, parse_constant=_reject_constant)
    with open(f"{model}.report.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["epochs_run"] == 0
    assert summary["best_val_mae"] is None
    assert summary["diverged"] is True


def test_train_determinism_byte_for_byte(tmp_path, capsys):
    out, splitdir = make_dataset(tmp_path, capsys)
    paths = []
    for tag in ("one", "two"):
        mp = tmp_path / f"{tag}.model"
        lp = tmp_path / f"{tag}.log"
        code, _, _ = run(
            ["train", "--train", str(splitdir / "train.txt"),
             "--val", str(splitdir / "validation.txt"), "--rank", "2",
             "--max-epochs", "30", "--patience", "30", "--seed", "9",
             "--model-out", str(mp), "--log-out", str(lp)],
            capsys,
        )
        assert code == 0
        paths.append((mp, lp))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_eval_exact_fit_and_known_error(tmp_path, capsys):
    model_path = tmp_path / "m.model"
    from lftk import FactorModel, save_model

    save_model(
        FactorModel(U=[[1.0, 2.0]], S=[[1.0, 1.0]], T=[[1.0, 0.5]],
                    a=[0.1], b=[0.2], c=[0.3]),
        model_path,
    )
    test_file = tmp_path / "t.txt"
    test_file.write_text("0 0 0 2.6\n")
    code, stdout, _ = run(["eval", "--model", str(model_path), "--test", str(test_file)], capsys)
    assert code == 0
    assert stdout.splitlines()[0] == "mae 0"
    test_file.write_text("0 0 0 3.6\n")
    code, stdout, _ = run(["eval", "--model", str(model_path), "--test", str(test_file)], capsys)
    assert stdout.splitlines()[0] == "mae 1"


def test_eval_dim_mismatch_names_mode(tmp_path, capsys):
    from lftk import FactorModel, save_model

    model_path = tmp_path / "m.model"
    save_model(
        FactorModel(U=[[1.0]], S=[[1.0]], T=[[1.0]], a=[0.0], b=[0.0], c=[0.0]),
        model_path,
    )
    test_file = tmp_path / "t.txt"
    test_file.write_text("0 4 0 1.0\n")
    code, _, err = run(["eval", "--model", str(model_path), "--test", str(test_file)], capsys)
    assert code == 2
    assert "service" in err


def test_eval_mask_flagging_everything_rejected(tmp_path, capsys):
    from lftk import FactorModel, save_model

    model_path = tmp_path / "m.model"
    save_model(
        FactorModel(U=[[1.0]], S=[[1.0]], T=[[1.0]], a=[0.0], b=[0.0], c=[0.0]),
        model_path,
    )
    test_file = tmp_path / "t.txt"
    test_file.write_text("0 0 0 1.0\n")
    mask_file = tmp_path / "mask.txt"
    mask_file.write_text("0 0 0\n")
    code, _, err = run(
        ["eval", "--model", str(model_path), "--test", str(test_file),
         "--mask", str(mask_file)],
        capsys,
    )
    assert code == 2
    assert "every test entry" in err


def test_eval_clean_mae_excludes_flagged(tmp_path, capsys):
    from lftk import FactorModel, save_model

    model_path = tmp_path / "m.model"
    save_model(
        FactorModel(U=[[1.0], [1.0]], S=[[1.0]], T=[[1.0]],
                    a=[0.0, 0.0], b=[0.0], c=[0.0]),
        model_path,
    )
    test_file = tmp_path / "t.txt"
    test_file.write_text("0 0 0 1\n1 0 0 11\n")  # second entry way off
    mask_file = tmp_path / "mask.txt"
    mask_file.write_text("1 0 0\n")
    code, stdout, _ = run(
        ["eval", "--model", str(model_path), "--test", str(test_file),
         "--mask", str(mask_file)],
        capsys,
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "mae 5"
    assert lines[1] == "clean_mae 0"


def test_eval_mask_triples_outside_the_model_flag_nothing(tmp_path, capsys):
    from lftk import FactorModel, save_model

    model_path = tmp_path / "m.model"
    save_model(
        FactorModel(U=[[1.0]], S=[[1.0], [1.0]], T=[[1.0], [1.0]],
                    a=[0.0], b=[0.0, 0.0], c=[0.0, 0.0]),
        model_path,
    )  # dims (1, 2, 2): cell (0, 0, 2) would ravel to 2, the cell (0, 1, 0)
    test_file = tmp_path / "t.txt"
    test_file.write_text("0 0 0 1\n0 1 0 9\n0 1 1 2\n")
    # beyond int64, negative, or past a dim: each is dropped, none overflows
    outside = "99999999999999999999 0 0\n0 0 2\n0 0 -1\n1 0 0\n0 2 -4\n"
    clean = []
    for mask in ("", outside, "0 1 1\n", "0 1 1\n" + outside):
        mask_file = tmp_path / "mask.txt"
        mask_file.write_text(mask)
        code, stdout, _ = run(
            ["eval", "--model", str(model_path), "--test", str(test_file),
             "--mask", str(mask_file)],
            capsys,
        )
        assert code == 0
        clean.append(stdout.splitlines()[1])
    assert clean == ["clean_mae 3", "clean_mae 3", "clean_mae 4", "clean_mae 4"]


def test_eval_mask_works_where_the_raveled_index_would_wrap(tmp_path, capsys, monkeypatch):
    # I*J*K = 2**63: cells are compared by their bytes, not raveled
    dims = (2**21,) * 3
    monkeypatch.setattr("lftk.cli.load_model", lambda path: FactorModel.initialize(dims, 1, 0))
    test_file, mask_file = tmp_path / "t.txt", tmp_path / "mask.txt"
    test_file.write_text("0 0 0 1\n2097151 5 1 2\n1 0 0 3\n")
    mask_file.write_text("2097151 5 1\n0 0 2097152\n")
    code, stdout, err = run(["eval", "--model", "m", "--test", str(test_file),
                             "--mask", str(mask_file)], capsys)
    assert (code, err) == (0, "")
    model = FactorModel.initialize(dims, 1, 0)
    full = load_records(test_file, dims=dims)
    clean = build_tensor(dims, [(0, 0, 0, 1.0), (1, 0, 0, 3.0)])  # (2097151, 5, 1) is flagged
    assert stdout.splitlines() == [f"mae {fmt_real(mae(model, full))}",
                                   f"clean_mae {fmt_real(mae(model, clean))}"]


@pytest.mark.parametrize("flags, message", [
    (["--noise-std", "nan"], "noise_std must be finite and >= 0, got nan"),
    (["--noise-std", "inf"], "noise_std must be finite and >= 0, got inf"),
    (["--outlier-scale", "inf", "--outlier-rate", "0.1"],
     "outlier_scale must be finite and > 1, got inf"),
    (["--outlier-scale", "nan"], "outlier_scale must be finite and > 1, got nan"),
])
def test_synth_rejects_non_finite_noise_and_scale_before_writing(tmp_path, capsys, flags,
                                                                 message):
    out = tmp_path / "d"
    code, _, err = run(["synth", "--dims", "4x4x4", "--rank", "1", "--density", "0.5",
                        *flags, "--out", str(out)], capsys)
    assert (code, err) == (1, f"lftk: error: {message}\n")
    assert not out.exists()

# sha256 of the files the README pipeline writes through the record writer,
# in each record format; recorded when coordinates were formatted by str per value
_README_RECORD_DIGESTS = {
    ("whitespace", 0): {
        "data/observed.txt": "282c30b42c81fe466468bf842f9374727df42f6d22f5561f160f482869180712",
        "data/outliers.txt": "b6a70c23b75dc81285b2dbd980d05422e928d866d293065ef7dc290d2a3f6298",
        "splits/train.txt": "83a9bbed73a0e7e4ae9b7899b14fa2271c528c8a02cff309bceaf977ab4686ce",
        "splits/validation.txt": "197eda951bff87b2eca2d65c8d197b139f3bd151aa2a13cbaf394f284c8d160b",
        "splits/test.txt": "36891b5bc5906f3333204e190b8e333787aa2714f3abcfd6cff73e4c501ad4da",
        "pred.txt": "081657f05a3b97ed0732e67aa17fa17bc05171b61bfff0aa38c5e24ef2c6665c",
    },
    ("comma", 1): {
        "splits/train.txt": "cb0be51773056e7b4f9cfd27cb977cf37ee86c9f82b9741d2240e1627c88567e",
        "splits/validation.txt": "87b25d722bef024925e056dcc434fc1b911b8c2645b3d0491f70aaca7544a21b",
        "splits/test.txt": "6ef65838afccbde3f82a8ce5b56e6c4f6e67c324353022977cebfd89656f3070",
        "pred.txt": "d271e42d6785bab96df2e974bcfc54a80b06acdadfed4300881fac83c928d897",
    },
}


@pytest.mark.parametrize("fmt, base", sorted(_README_RECORD_DIGESTS))
def test_readme_record_files_match_their_pinned_digests(tmp_path, capsys, fmt, base):
    flags = ["--format", fmt, "--index-base", str(base)]
    data, splits = tmp_path / "data", tmp_path / "splits"
    assert run(["synth", "--dims", "30x30x16", "--rank", "4", "--density", "0.3",
                "--noise-std", "0.05", "--outlier-rate", "0.05", "--outlier-scale", "10",
                "--seed", "1", "--out", str(data)], capsys)[0] == 0
    records = data / "observed.txt"
    if fmt == "comma":  # the same records, comma-delimited and shifted to base
        records = tmp_path / "records.csv"
        records.write_text("".join(
            ",".join([str(int(f) + base) for f in fields[:3]] + fields[3:]) + "\n"
            for fields in map(str.split, (data / "observed.txt").read_text().splitlines())))
    assert run(["split", "--input", str(records), "--ratios", "16:4:80", "--seed", "1",
                "--out", str(splits), *flags], capsys)[0] == 0
    model = tmp_path / "cauchy.model"
    assert run(["train", "--train", str(splits / "train.txt"),
                "--val", str(splits / "validation.txt"), "--dims", "30x30x16",
                "--loss", "cauchy", "--rank", "4", "--gamma", "1", "--lambda", "0.1",
                "--eta", "1", "--seed", "1", "--max-epochs", "20", "--model-out", str(model),
                *flags], capsys)[0] == 0
    assert run(["predict", "--model", str(model), "--entries", str(splits / "test.txt"),
                "--out", str(tmp_path / "pred.txt"), *flags], capsys)[0] == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in _README_RECORD_DIGESTS[fmt, base]}
    assert digests == _README_RECORD_DIGESTS[fmt, base]


def test_malformed_input_exit_code_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0 zero 1.0\n")
    code, _, err = run(
        ["split", "--input", str(bad), "--ratios", "16:4:80",
         "--out", str(tmp_path / "s")],
        capsys,
    )
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("command", ["split", "train"])
def test_record_index_beyond_int64_is_an_input_error(tmp_path, capsys, command):
    # inferred dims of 1e20 do not fit int64: one message, no traceback
    big, small = tmp_path / "big.txt", tmp_path / "small.txt"
    big.write_text("99999999999999999999 0 0 1\n")
    small.write_text("0 0 0 1\n")
    argv = (["split", "--input", str(big), "--ratios", "1:1:1", "--out", str(tmp_path / "s")]
            if command == "split" else
            ["train", "--train", str(big), "--val", str(small),
             "--model-out", str(tmp_path / "m")])
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("lftk: input error: ") and err.count("\n") == 1
    assert "2**63" in err


def test_undecodable_record_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0 0 0 1\n1 1 1 \xff\n")
    out = tmp_path / "s"
    code, stdout, err = run(["split", "--input", str(bad), "--ratios", "1:1:1",
                             "--out", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("lftk: input error: ") and err.count("\n") == 1
    assert "can't decode byte 0xff" in err
    assert not out.exists()


@pytest.mark.parametrize("dims", ["100000000000000000000x2x2", "2x9223372036854775808x2"])
def test_dims_flag_beyond_int64_is_a_usage_error(tmp_path, capsys, dims):
    small = tmp_path / "small.txt"
    small.write_text("0 0 0 1\n")
    code, _, err = run(["train", "--train", str(small), "--val", str(small), "--dims", dims,
                        "--model-out", str(tmp_path / "m")], capsys)
    assert code == 1
    assert err == f"lftk: error: dimensions must be positive and below 2**63, got {dims!r}\n"


def test_inferred_dims_widen_to_the_validation_file(tmp_path, capsys):
    # validation reaches user 3, one past the training file's inferred 3x3x2
    train_file, val_file = tmp_path / "train.txt", tmp_path / "val.txt"
    train_file.write_text("".join(f"{i} {j} {k} {1 + 0.1 * (i + 2 * j + 3 * k):g}\n"
                                  for i in range(3) for j in range(3) for k in range(2)
                                  if (i + j + k) % 4))
    val_file.write_text("3 1 0 1.2\n0 0 0 1.05\n2 1 1 1.9\n")
    outputs = []
    for tag, extra in (("inferred", []), ("explicit", ["--dims", "4x3x2"])):
        model = tmp_path / f"{tag}.model"
        code, _, _ = run(["train", "--train", str(train_file), "--val", str(val_file),
                          "--rank", "2", "--max-epochs", "20", "--seed", "4",
                          "--model-out", str(model), *extra], capsys)
        assert code == 0
        manifest = json.loads((tmp_path / f"{tag}.model.manifest.json").read_text())
        assert manifest["parameters"]["dims"] == [4, 3, 2]
        outputs.append([(tmp_path / f"{tag}.model{suffix}").read_bytes()
                        for suffix in ("", ".log", ".report.json")])
    assert outputs[0] == outputs[1]


def test_split_keeps_an_index_far_past_the_others(tmp_path, capsys):
    # a tensor holds only its entries, so a 3e9 index allocates nothing by dims
    records = tmp_path / "records.txt"
    records.write_text("3000000000 0 0 1\n0 0 0 2\n")
    code, _, err = run(["split", "--input", str(records), "--ratios", "1:1:0",
                        "--out", str(tmp_path / "s")], capsys)
    assert code == 0 and err == ""
    parts = "".join((tmp_path / "s" / f"{name}.txt").read_text()
                    for name in ("train", "validation", "test"))
    assert sorted(parts.splitlines()) == ["0 0 0 2", "3000000000 0 0 1"]


def test_train_out_of_memory_is_one_line_exit_1(tmp_path, capsys, monkeypatch):
    # the model for 3e9 users does not fit; stubbed, as a real 112 GiB request
    # can succeed on an overcommitting host and get the process killed
    sized = []

    def no_memory(cls, dims, rank, seed):
        sized.append(dims)
        raise MemoryError(f"Unable to allocate an array with shape ({dims[0]}, {rank})")

    monkeypatch.setattr(FactorModel, "initialize", classmethod(no_memory))
    train_file, val_file = tmp_path / "train.txt", tmp_path / "val.txt"
    train_file.write_text("3000000000 0 0 1\n")
    val_file.write_text("0 0 0 2\n")
    code, out, err = run(["train", "--train", str(train_file), "--val", str(val_file),
                          "--model-out", str(tmp_path / "m.model")], capsys)
    assert sized == [(3_000_000_001, 1, 1)]
    assert code == 1 and out == ""
    assert err == "lftk: error: Unable to allocate an array with shape (3000000001, 5)\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.txt", "val.txt"]


@pytest.mark.parametrize("base", [0, 1])
@pytest.mark.parametrize("dims_flag", [[], ["--dims", "40000x3x2"]])
def test_train_rejects_a_validation_cell_that_is_also_trained_on(tmp_path, capsys, base,
                                                                  dims_flag):
    # two shared cells: the (i, j, k)-first is named as the files write it, its base
    # added past int16; the training file alone reaches the widest index, so inferred
    # dims widen the validation tensor, whose block stays int16
    train, val = tmp_path / "train.txt", tmp_path / "val.txt"
    train.write_text("".join(f"{i + base} {j + base} {k + base} 1\n" for i, j, k in
                             [(39999, 1, 0), (32767, 1, 0), (1, 1, 1), (32767, 0, 0)]))
    val.write_text("".join(f"{i + base} {j + base} {k + base} 1\n" for i, j, k in
                           [(32767, 1, 0), (32767, 0, 0), (0, 2, 1)]))
    model = tmp_path / "m.model"
    code, stdout, err = run(["train", "--train", str(train), "--val", str(val),
                             "--rank", "1", "--max-epochs", "1", "--index-base", str(base),
                             "--model-out", str(model)] + dims_flag, capsys)
    assert (code, stdout) == (2, "")
    assert err == (f"lftk: input error: validation file shares the cell "
                   f"({32767 + base}, {base}, {base}) with the training file\n")
    assert not model.exists() and not (tmp_path / "m.model.log").exists()


def test_train_divergence_exit_code_3(tmp_path, capsys):
    data = tmp_path / "big.txt"
    data.write_text("0 0 0 1e200\n1 1 0 1e200\n0 1 0 1\n")
    val = tmp_path / "val.txt"
    val.write_text("1 0 0 1\n")
    code, _, err = run(
        ["train", "--train", str(data), "--val", str(val), "--loss", "l2",
         "--rank", "1", "--max-epochs", "50", "--dims", "2x2x1",
         "--model-out", str(tmp_path / "d.model")],
        capsys,
    )
    assert code == 3
    assert (tmp_path / "d.model").exists()  # best snapshot still written


@pytest.mark.parametrize("flag,value,name", [
    ("--lambda", "1e308", "lambda"), ("--gamma", "1e-300", "gamma"),
])
def test_train_rejects_hyperparameters_that_overflow(tmp_path, capsys, flag, value, name):
    out, splitdir = make_dataset(tmp_path, capsys)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(
            ["train", "--train", str(splitdir / "train.txt"),
             "--val", str(splitdir / "validation.txt"), flag, value,
             "--max-epochs", "2", "--model-out", str(tmp_path / "m.model")],
            capsys,
        )
    assert code == 1
    assert name in err
    assert not (tmp_path / "m.model").exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("case", ["overflowing lambda", "empty training file"])
def test_rejected_train_leaves_no_log(tmp_path, capsys, case):
    out, splitdir = make_dataset(tmp_path, capsys)
    train_file, extra = splitdir / "train.txt", ["--lambda", "1e308"]
    if case == "empty training file":
        train_file, extra = tmp_path / "empty.txt", ["--dims", "12x10x6"]
        train_file.write_text("# no records\n")
    code, _, err = run(
        ["train", "--train", str(train_file), "--val", str(splitdir / "validation.txt"),
         "--max-epochs", "2", "--model-out", str(tmp_path / "m.model"), *extra],
        capsys,
    )
    assert code == 1 and err.startswith("lftk: error:")
    assert not (tmp_path / "m.model.log").exists()


def test_train_overflow_prints_no_runtime_warning(tmp_path, capsys):
    # the Cauchy weights discount both spikes, but e**2 overflows on the way
    data = tmp_path / "big.txt"
    data.write_text("0 0 0 1e200\n1 1 0 1e200\n0 1 0 1\n")
    val = tmp_path / "val.txt"
    val.write_text("1 0 0 1\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run(
            ["train", "--train", str(data), "--val", str(val), "--rank", "1",
             "--max-epochs", "50", "--dims", "2x2x1",
             "--model-out", str(tmp_path / "d.model")],
            capsys,
        )
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_predict_command(tmp_path, capsys):
    from lftk import FactorModel, save_model

    model_path = tmp_path / "m.model"
    save_model(
        FactorModel(U=[[1.0]], S=[[1.0]], T=[[1.0]], a=[0.0], b=[0.0], c=[0.0]),
        model_path,
    )
    entries = tmp_path / "e.txt"
    entries.write_text("0 0 0 1.0\n")
    out = tmp_path / "pred.txt"
    code, _, _ = run(
        ["predict", "--model", str(model_path), "--entries", str(entries),
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert out.read_text() == "0 0 0 1 1 0\n"


def _unit_model(path):
    from lftk import FactorModel, save_model

    save_model(FactorModel(U=[[1.0]], S=[[1.0]], T=[[1.0]], a=[0.0], b=[0.0], c=[0.0]), path)


def test_predict_writes_coordinates_in_the_input_format(tmp_path, capsys):
    model_path = tmp_path / "m.model"
    _unit_model(model_path)
    entries = tmp_path / "e.csv"
    entries.write_text("1,1,1,2.0\n")
    out = tmp_path / "pred.txt"
    code, _, _ = run(
        ["predict", "--model", str(model_path), "--entries", str(entries),
         "--out", str(out), "--format", "comma", "--index-base", "1"],
        capsys,
    )
    assert code == 0
    assert out.read_text() == "1,1,1,2,1,1\n"


@pytest.mark.parametrize("content,message", [
    ("# no records\n", "no records"),
    ("0 0 1 1.0\n", "time index 1 out of range for dimension 1"),
])
def test_eval_rejects_test_data_the_model_cannot_score(tmp_path, capsys, content, message):
    model_path = tmp_path / "m.model"
    _unit_model(model_path)
    test_file = tmp_path / "t.txt"
    test_file.write_text(content)
    code, stdout, err = run(["eval", "--model", str(model_path), "--test", str(test_file)],
                            capsys)
    assert code == 2
    assert message in err and stdout == ""


@pytest.mark.parametrize("argv,cls", [
    (["train", "--train", "t", "--val", "v", "--model-out", "m"], TrainConfig),
    (["synth", "--dims", "2x2x2", "--rank", "1", "--density", "1", "--out", "o"], SynthSpec),
])
def test_parsed_defaults_are_the_dataclass_defaults(argv, cls):
    args = build_parser().parse_args(argv)
    defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
    # repr also pins the type: 0 and 0.0 would write different manifests
    assert {k: repr(getattr(args, k)) for k in defaults} == {
        k: repr(v) for k, v in defaults.items()
    }


def test_train_divergence_names_group_and_reason(tmp_path, capsys):
    data = tmp_path / "big.txt"
    data.write_text("0 0 0 1e200\n1 1 0 1e200\n0 1 0 1\n")
    val = tmp_path / "val.txt"
    val.write_text("1 0 0 1\n")
    code, _, err = run(
        ["train", "--train", str(data), "--val", str(val), "--loss", "l2",
         "--rank", "1", "--dims", "2x2x1", "--model-out", str(tmp_path / "d.model")],
        capsys,
    )
    assert code == 3
    cause = {"group": "auxiliary user factors", "reason": "magnitude exceeds 1e+12"}
    report = json.loads((tmp_path / "d.model.report.json").read_text())
    assert report["diverged"] is True and report["divergence"] == cause
    assert f"diverged in {cause['group']} ({cause['reason']})" in err


# ------------------------------------------------------------ atomic outputs


def test_refused_report_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "run.report.json"
    _write_json(path, {"best_val_mae": 0.5})
    before = path.read_bytes()
    # json refuses the NaN only after streaming everything before it
    with pytest.raises(ValueError):
        _write_json(path, {"epochs": list(range(5000)), "best_val_mae": math.nan})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["run.report.json"]


def test_output_through_a_symlink_replaces_its_target_and_keeps_the_mode(tmp_path):
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    real.write_text("old\n")
    real.chmod(0o600)
    link.symlink_to(real)
    _write_json(link, {"a": 1})
    assert link.is_symlink()
    assert json.loads(real.read_text()) == {"a": 1}
    assert stat.S_IMODE(real.stat().st_mode) == 0o600
    assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]


def test_unwritable_output_names_the_requested_path(tmp_path):
    missing = tmp_path / "no-such-dir" / "out.json"
    with pytest.raises(FileNotFoundError) as info:
        _write_json(missing, {})
    assert info.value.filename == str(missing)
    with pytest.raises(IsADirectoryError):
        _write_json(tmp_path, {})
    assert os.listdir(tmp_path) == []


def test_output_path_may_be_bytes(tmp_path):
    path = tmp_path / "out.json"
    _write_json(os.fsencode(path), {"a": 1})
    assert json.loads(path.read_text()) == {"a": 1}
    assert os.listdir(tmp_path) == ["out.json"]
