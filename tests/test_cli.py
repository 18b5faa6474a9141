import json
import warnings

import pytest

from lftk.cli import main


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
    val.write_text("0 1 0 1\n")
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


def test_train_divergence_exit_code_3(tmp_path, capsys):
    data = tmp_path / "big.txt"
    data.write_text("0 0 0 1e200\n1 1 0 1e200\n0 1 0 1\n")
    val = tmp_path / "val.txt"
    val.write_text("0 1 0 1\n")
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
    val.write_text("0 1 0 1\n")
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
