"""Command-line toolkit: synth, split, train, eval, predict.

Every command takes all of its inputs from flags (no config files); synth,
split, train and predict write a JSON manifest of the resolved parameters,
input digests and seed, so batch runs are reproducible. Exit codes: 0
success, 1 usage error, 2 input format error, 3 numerical divergence.
"""

import argparse
import functools
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
    _save_parsed,
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
from .tensor import SparseTensor, _cell_keys, check_dims, repeated_cell

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


# the only fields whose flag and manifest key are not their own name
_KEYS = {"lam": "lambda", "delimiter": "format"}


def _add_fields(p, cls, **extras):
    # one flag per field, named, typed and defaulted by it; extras adds per-field options
    for f in fields(cls):
        kw = {"required": True} if f.default is MISSING else {"default": f.default}
        p.add_argument("--" + _KEYS.get(f.name, f.name).replace("_", "-"), dest=f.name,
                       **{"type": f.type} | kw | extras.get(f.name, {}))


def _add_format_flags(p):
    _add_fields(p, RecordFormat,
                delimiter={"choices": ("whitespace", "comma"),
                           "help": "record delimiter (default whitespace)"},
                index_base={"choices": (0, 1), "help": "index base of record files (default 0)"})


def _from_args(cls, args, **resolved):  # one flag per field, its dest the field name
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)} | resolved)


def _params(obj):  # manifest parameters: every field but the seed, under its key
    return {_KEYS.get(k, k): v for k, v in asdict(obj).items() if k != "seed"}


def _write_manifest(path, command, params, input_paths, seed, digests=None):
    # digests: the sha256 of inputs that load_records has already hashed, by str(path)
    digests = digests or {}
    manifest = {
        "command": command,
        "toolkit_version": __version__,
        "parameters": params,
        "inputs": {str(p): digests.get(str(p)) or sha256_file(p) for p in input_paths},
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
        _params(spec),
        [],
        spec.seed,
    )
    print(f"wrote {out / 'observed.txt'} ({observed.n_entries} entries)")
    return EXIT_OK


def cmd_split(args):
    m, n, o = _parse_ratios(args.ratios)
    spec = SplitSpec(m, n, o, seed=args.seed)
    fmt = _from_args(RecordFormat, args)
    tensor = load_records(args.input, fmt)
    n_entries, dims = tensor.n_entries, tensor.dims
    parts = list(split(tensor, spec))
    del tensor  # and each part once it is written, before the input is hashed
    counts = [part.n_entries for part in parts]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("train", "validation", "test"):  # each with its parsed copy
        write_records(parts[0], out / f"{name}.txt", fmt)
        _save_parsed(parts.pop(0), out / f"{name}.txt", fmt)
    write_split_metadata(out / "split.json", spec, n_entries)
    _write_manifest(
        out / "manifest.json",
        "split",
        {"ratios": [m, n, o]} | _params(fmt) | {"dims": list(dims)},
        [args.input],
        spec.seed,
    )
    print(f"split {n_entries} entries -> " + "/".join(map(str, counts)))
    return EXIT_OK


def cmd_train(args):
    config = _from_args(TrainConfig, args)
    fmt = _from_args(RecordFormat, args)
    dims = check_dims(parse_dims(args.dims)) if args.dims else None
    digests = {}
    tensor_train = load_records(args.train, fmt, dims, _digests=digests)
    tensor_val = load_records(args.val, fmt, dims, _digests=digests)
    for name, t in (("training", tensor_train), ("validation", tensor_val)):
        if not t.n_entries:  # empty with --dims; without, load_records has refused it
            raise DataFormatError(f"no records found in the {name} file")
    if dims is None:
        # validation entries may reach indices the training file never hits
        dims = tuple(max(d1, d2) for d1, d2 in zip(tensor_train.dims, tensor_val.dims))
        # checked entries fit the wider dims, and duplicates do not depend on dims
        tensor_train, tensor_val = (SparseTensor(dims, t.idx, t.y, _validated=True)
                                    for t in (tensor_train, tensor_val))
    # a validation cell that is also trained on would flatter the validation MAE;
    # neither tensor holds a cell twice, so a repeat of the two joined is a shared cell
    cell = repeated_cell(dims, np.concatenate((tensor_train.idx, tensor_val.idx), axis=1),
                         fmt.index_base)
    if cell is not None:
        raise DataFormatError(f"validation file shares the cell {cell} with the training file")

    log_path = args.log_out or str(args.model_out) + ".log"
    report_path = args.report_out or str(args.model_out) + ".report.json"
    model, report = train(tensor_train, tensor_val, config, log=log_path)

    save_model(model, args.model_out)
    _write_json(report_path, report.summary())
    _write_manifest(
        str(args.model_out) + ".manifest.json",
        "train",
        _params(config) | {"dims": list(dims)} | _params(fmt),
        [args.train, args.val],
        config.seed,
        digests,
    )
    print(f"best epoch {report.best_epoch} val_mae {fmt_real(report.best_val_mae)}")
    if report.diverged:
        print("training diverged in {group} ({reason}); wrote best snapshot so far"
              .format(**report.divergence), file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_eval(args):
    model = load_model(args.model)
    tensor = load_records(args.test, _from_args(RecordFormat, args), model.dims)
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
    fmt = _from_args(RecordFormat, args)
    digests = {}
    tensor = load_records(args.entries, fmt, model.dims, _digests=digests)
    write_predictions(model, tensor, args.out, fmt)
    _write_manifest(
        str(args.out) + ".manifest.json",
        "predict",
        _params(fmt),
        [args.model, args.entries],
        None,
        digests,
    )
    print(f"wrote {args.out} ({tensor.n_entries} predictions)")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="lftk", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"lftk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth",
                       help="generate a synthetic low-rank dataset")
    _add_fields(p, SynthSpec, dims={"type": str, "help": "tensor dims as IxJxK"})
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
    _add_fields(p, TrainConfig, loss={"choices": LOSS_MODES})
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


@functools.cache
def _parser():
    # built on the first main() call, not at import, and kept: each parse_args
    # makes a fresh namespace, and the defaults it fills in are immutable
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
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
