"""Command-line toolkit: synth, split, train, eval, predict.

Every command takes all of its inputs from flags (no config files) and
writes a JSON manifest recording the resolved parameters, input digests,
and seed, so batch runs are reproducible. Exit codes: 0 success, 1 usage
error, 2 input format error, 3 numerical divergence.
"""

import argparse
import json
import sys
from dataclasses import MISSING, asdict, fields
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
from .tensor import SparseTensor, _cell_keys

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


def _field_defaults(cls):
    return {f.name: f.default for f in fields(cls) if f.default is not MISSING}


def _from_args(cls, args, **resolved):  # one flag per field, same name
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)} | resolved)


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
    spec = _from_args(SynthSpec, args, dims=parse_dims(args.dims))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    observed, truth, mask = synthesize(spec)
    write_records(observed, out / "observed.txt")
    save_model(truth, out / "truth.model")
    write_outlier_mask(observed, mask, out / "outliers.txt")
    _write_manifest(
        out / "manifest.json",
        "synth",
        {k: v for k, v in asdict(spec).items() if k != "seed"},
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
    n_entries, dims = tensor.n_entries, tensor.dims
    parts = list(split(tensor, spec))
    del tensor  # and each part once it is written, before the input is hashed
    counts = [part.n_entries for part in parts]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("train", "validation", "test"):
        write_records(parts.pop(0), out / f"{name}.txt", fmt)
    write_split_metadata(out / "split.json", spec, n_entries)
    _write_manifest(
        out / "manifest.json",
        "split",
        {
            "ratios": [m, n, o],
            "format": args.format,
            "index_base": args.index_base,
            "dims": list(dims),
        },
        [args.input],
        spec.seed,
    )
    print(f"split {n_entries} entries -> " + "/".join(map(str, counts)))
    return EXIT_OK


def cmd_train(args):
    config = _from_args(TrainConfig, args)
    fmt = _record_format(args)
    dims = parse_dims(args.dims) if args.dims else None
    tensor_train = load_records(args.train, fmt, dims)
    tensor_val = load_records(args.val, fmt, dims)
    if dims is None:
        # validation entries may reach indices the training file never hits
        dims = tuple(max(d1, d2) for d1, d2 in zip(tensor_train.dims, tensor_val.dims))
        # checked entries fit the wider dims, and duplicates do not depend on dims
        tensor_train, tensor_val = (SparseTensor(dims, t.idx, t.y, _validated=True)
                                    for t in (tensor_train, tensor_val))
    # a validation cell that is also trained on would flatter the validation MAE;
    # neither tensor holds a duplicate, so each one's keys are unique
    val_keys = _cell_keys(dims, tensor_val.idx)
    shared = np.intersect1d(_cell_keys(dims, tensor_train.idx), val_keys, assume_unique=True)
    if shared.size:  # sorted as the cells are: the (i, j, k)-first, named as filed
        pos = np.flatnonzero(val_keys == shared[0])[0]
        cell = tuple(v + args.index_base for v in tensor_val.idx[:, pos].tolist())
        raise DataFormatError(f"validation file shares the cell {cell} with the training file")
    del val_keys, shared

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
        print("training diverged in {group} ({reason}); wrote best snapshot so far"
              .format(**report.divergence), file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_eval(args):
    model = load_model(args.model)
    tensor = load_records(args.test, _record_format(args), model.dims)
    if not tensor.n_entries:
        raise DataFormatError("no records found in the test file")
    print(f"mae {fmt_real(mae(model, tensor))}")
    if args.mask:
        flagged = _cell_keys(model.dims, load_outlier_mask(args.mask, model.dims).T)
        keep = np.flatnonzero(~np.isin(_cell_keys(model.dims, tensor.idx), flagged))
        if not keep.size:
            raise DataFormatError("outlier mask flags every test entry; clean MAE undefined")
        clean = tensor.take(keep)
        print(f"clean_mae {fmt_real(mae(model, clean))}")
    return EXIT_OK


def cmd_predict(args):
    model = load_model(args.model)
    fmt = _record_format(args)
    tensor = load_records(args.entries, fmt, model.dims)
    write_predictions(model, tensor, args.out, fmt)
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
    p.add_argument("--noise-std", type=float)
    p.add_argument("--outlier-rate", type=float)
    p.add_argument("--outlier-scale", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth, **_field_defaults(SynthSpec))

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
    p.add_argument("--loss", choices=LOSS_MODES)
    p.add_argument("--rank", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--min-delta", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--model-out", required=True)
    p.add_argument("--log-out", help="per-epoch diagnostic log (default <model-out>.log)")
    p.add_argument("--report-out", help="JSON training report (default <model-out>.report.json)")
    _add_format_flags(p)
    p.set_defaults(func=cmd_train, **_field_defaults(TrainConfig))

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
    except (DataFormatError, UnicodeDecodeError) as exc:  # ValueErrors both: this arm first
        print(f"lftk: input error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (OSError, ValueError, IndexError, MemoryError) as exc:
        print(f"lftk: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
