"""Command-line toolkit: synth, split, train, eval, predict.

Every command takes all of its inputs from flags (no config files) and
writes a JSON manifest recording the resolved parameters, input digests,
and seed, so batch runs are reproducible. Exit codes: 0 success, 1 usage
error, 2 input format error, 3 numerical divergence.
"""

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from ._util import _open_sink, fmt_real, parse_dims, sha256_file
from .admm import TrainConfig, train
from .dataio import (
    RecordFormat,
    SynthSpec,
    load_outlier_mask,
    load_records,
    synthesize,
    write_outlier_mask,
    write_predictions,
    write_records,
    write_split_metadata,
)
from .errors import DataFormatError
from .evaluation import SplitSpec, mae, split
from .model import LOSS_MODES, load_model, save_model
from .tensor import MODES, SparseTensor

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_DIVERGENCE = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; this toolkit reserves 2 for
    # input format errors, so usage problems exit 1 instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_format_flags(p):
    p.add_argument("--format", choices=("whitespace", "comma"), default="whitespace",
                   help="record delimiter (default whitespace)")
    p.add_argument("--index-base", type=int, choices=(0, 1), default=0,
                   help="index base of record files (default 0)")


def _record_format(args):
    return RecordFormat(delimiter=args.format, index_base=args.index_base)


def _write_manifest(path, command, params, input_paths, seed):
    manifest = {
        "command": command,
        "toolkit_version": __version__,
        "parameters": params,
        "inputs": {str(p): sha256_file(p) for p in input_paths},
        "seed": seed,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(path, manifest)


def _write_json(path, obj):
    # allow_nan=False: Infinity and NaN are not JSON, so refuse to write them
    with _open_sink(path) as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _parse_ratios(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected ratios as M:N:O, got {text!r}")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"expected numeric ratios, got {text!r}") from None
    total = sum(vals)
    if total <= 0:
        raise ValueError(f"ratios must have a positive sum, got {text!r}")
    return tuple(v / total for v in vals)


def cmd_synth(args):
    spec = SynthSpec(
        dims=parse_dims(args.dims),
        rank=args.rank,
        density=args.density,
        noise_std=args.noise_std,
        outlier_rate=args.outlier_rate,
        outlier_scale=args.outlier_scale,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    observed, truth, mask = synthesize(spec)
    write_records(observed, out / "observed.txt")
    save_model(truth, out / "truth.model")
    write_outlier_mask(observed, mask, out / "outliers.txt")
    _write_manifest(
        out / "manifest.json",
        "synth",
        {
            "dims": list(spec.dims),
            "rank": spec.rank,
            "density": spec.density,
            "noise_std": spec.noise_std,
            "outlier_rate": spec.outlier_rate,
            "outlier_scale": spec.outlier_scale,
        },
        [],
        spec.seed,
    )
    print(f"wrote {out / 'observed.txt'} ({observed.n_entries} entries)")
    return EXIT_OK


def cmd_split(args):
    m, n, o = _parse_ratios(args.ratios)
    spec = SplitSpec(m, n, o, seed=args.seed)
    fmt = _record_format(args)
    tensor = load_records(args.input, fmt)
    train_t, val_t, test_t = split(tensor, spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, part in (("train", train_t), ("validation", val_t), ("test", test_t)):
        write_records(part, out / f"{name}.txt", fmt)
    write_split_metadata(out / "split.json", spec, tensor.n_entries)
    _write_manifest(
        out / "manifest.json",
        "split",
        {
            "ratios": [m, n, o],
            "format": args.format,
            "index_base": args.index_base,
            "dims": list(tensor.dims),
        },
        [args.input],
        spec.seed,
    )
    print(f"split {tensor.n_entries} entries -> "
          f"{train_t.n_entries}/{val_t.n_entries}/{test_t.n_entries}")
    return EXIT_OK


def cmd_train(args):
    config = TrainConfig(
        rank=args.rank,
        gamma=args.gamma,
        lam=args.lam,
        eta=args.eta,
        loss=args.loss,
        max_epochs=args.max_epochs,
        patience=args.patience,
        min_delta=args.min_delta,
        seed=args.seed,
    )
    fmt = _record_format(args)
    dims = parse_dims(args.dims) if args.dims else None
    tensor_train = load_records(args.train, fmt, dims)
    tensor_val = load_records(args.val, fmt, dims)
    if dims is None:
        # validation entries may reach indices the training file never hits
        dims = tuple(max(d1, d2) for d1, d2 in zip(tensor_train.dims, tensor_val.dims))
        tensor_train, tensor_val = (
            SparseTensor.from_arrays(dims, *t.idx, t.y)
            for t in (tensor_train, tensor_val)
        )

    log_path = args.log_out or str(args.model_out) + ".log"
    report_path = args.report_out or str(args.model_out) + ".report.json"
    model, report = train(tensor_train, tensor_val, config, log=log_path)

    save_model(model, args.model_out)
    _write_json(report_path, report.summary())
    _write_manifest(
        str(args.model_out) + ".manifest.json",
        "train",
        {
            "loss": config.loss,
            "rank": config.rank,
            "gamma": config.gamma,
            "lambda": config.lam,
            "eta": config.eta,
            "max_epochs": config.max_epochs,
            "patience": config.patience,
            "min_delta": config.min_delta,
            "dims": list(dims),
            "format": args.format,
            "index_base": args.index_base,
        },
        [args.train, args.val],
        config.seed,
    )
    print(f"best epoch {report.best_epoch} val_mae {fmt_real(report.best_val_mae)}")
    if report.diverged:
        print("training diverged; wrote best snapshot so far", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_eval(args):
    model = load_model(args.model)
    fmt = _record_format(args)
    tensor = load_records(args.test, fmt)
    for mode, have, need in zip(MODES, model.dims, tensor.dims):
        if need > have:
            raise DataFormatError(
                f"{mode} dimension {need} in test data exceeds model dimension {have}"
            )
    print(f"mae {fmt_real(mae(model, tensor))}")
    if args.mask:
        flagged = load_outlier_mask(args.mask)
        keep = [p for p, cell in enumerate(zip(*tensor.idx.tolist())) if cell not in flagged]
        if not keep:
            raise DataFormatError("outlier mask flags every test entry; clean MAE undefined")
        clean = tensor.take(keep)
        print(f"clean_mae {fmt_real(mae(model, clean))}")
    return EXIT_OK


def cmd_predict(args):
    model = load_model(args.model)
    fmt = _record_format(args)
    tensor = load_records(args.entries, fmt, model.dims)
    write_predictions(model, tensor, args.out)
    _write_manifest(
        str(args.out) + ".manifest.json",
        "predict",
        {"format": args.format, "index_base": args.index_base},
        [args.model, args.entries],
        None,
    )
    print(f"wrote {args.out} ({tensor.n_entries} predictions)")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="lftk", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"lftk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth",
                       help="generate a synthetic low-rank dataset")
    p.add_argument("--dims", required=True, help="tensor dims as IxJxK")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--noise-std", type=float, default=0.0)
    p.add_argument("--outlier-rate", type=float, default=0.0)
    p.add_argument("--outlier-scale", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split",
                       help="split a record file into train/validation/test")
    p.add_argument("--input", required=True)
    p.add_argument("--ratios", required=True, help="e.g. 16:4:80 or 0.16:0.04:0.8")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    _add_format_flags(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="fit a model")
    p.add_argument("--train", required=True, help="training record file")
    p.add_argument("--val", required=True, help="validation record file")
    p.add_argument("--dims", help="tensor dims as IxJxK (default: inferred)")
    p.add_argument("--loss", choices=LOSS_MODES, default="cauchy")
    p.add_argument("--rank", type=int, default=5)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--max-epochs", type=int, default=1000)
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--min-delta", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model-out", required=True)
    p.add_argument("--log-out", help="per-epoch diagnostic log (default <model-out>.log)")
    p.add_argument("--report-out", help="JSON training report (default <model-out>.report.json)")
    _add_format_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on a test file")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--mask", help="outlier mask file; adds clean_mae over unflagged entries")
    _add_format_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict",
                       help="write predictions for the entries of a record file")
    p.add_argument("--model", required=True)
    p.add_argument("--entries", required=True)
    p.add_argument("--out", required=True)
    _add_format_flags(p)
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # overflow is reported by the divergence check (exit 3), not by numpy
        with np.errstate(all="ignore"):
            return args.func(args)
    except DataFormatError as exc:
        print(f"lftk: input error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (OSError, ValueError, IndexError) as exc:
        print(f"lftk: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
