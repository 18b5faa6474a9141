"""The benchmark's three workloads, their inputs and their output checks.

Every workload builds its inputs from the run's seed in ``setup`` and then
repeats one timed ``run`` (a "pass") as often as the run length allows.
``inspect`` looks at a pass's outputs after its clock has stopped: it
returns the quality numbers, a fingerprint of every deterministic output
(compared across passes and across runs of the same code and seed), and the
names of the operations whose outputs failed a check.

Why these three:

- small-converge: the README pipeline on 691 training entries. Each epoch
  is about 1.7 ms, so Python and numpy dispatch overhead dominate; it also
  carries the paper's quality claim (cauchy beats l2 on clean entries).
- wsdream-fit: the WS-Dream shape (142 x 4532 x 64) at 5% density, trained
  in memory for a fixed number of epochs. The admm column sweeps over
  1.44M entries dominate; there is no file I/O.
- wsdream-io: the CLI data path on the same shape at 0.5% density with a
  single epoch, so text parsing and writing dominate.
"""

import contextlib
import hashlib
import io
import json
import statistics
from pathlib import Path

import numpy as np

import lftk.admm
import lftk.cli
import lftk.dataio
import lftk.evaluation
import lftk.model
from probe import clock


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def count_lines(path):
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip() and not line.startswith(b"#"))


class Cli:
    """Calls ``lftk.cli.main`` in-process, timing each call.

    Stdout is captured so ``eval`` results can be read back. With a tracer,
    each call is also the top-level span ``cli.<command>``.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.calls = []  # (label, command, exit code, seconds, stdout)

    def __call__(self, label, *argv):
        argv = [str(a) for a in argv]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
            t0 = clock()
            try:
                with span:
                    rc = lftk.cli.main(argv)
            except SystemExit as exc:  # argparse rejects a flag
                rc = exc.code
            seconds = clock() - t0
        self.calls.append((label, argv[0], rc, seconds, out.getvalue()))
        return rc, out.getvalue()

    def seconds(self, command):
        return sum(c[3] for c in self.calls if c[1] == command)


def _eval_values(stdout):
    vals = {}
    for line in stdout.splitlines():
        key, _, val = line.partition(" ")
        if key in ("mae", "clean_mae"):
            vals[key] = float(val)
    return vals


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_model(path):
    model = lftk.model.load_model(path)
    return all(np.isfinite(a).all() and (a.size == 0 or a.min() >= 0) for _, a in model.arrays())


class CliWorkload:
    """A pipeline of ``lftk`` commands over files generated by ``synth``."""

    setup_repeats = 3

    def setup(self, seed, workdir, cli):
        data = workdir / "data"
        rc, _ = cli("synth", "synth", "--dims", self.dims, "--rank", self.synth_rank,
                    "--density", self.density, "--noise-std", 0.05,
                    "--outlier-rate", 0.05, "--outlier-scale", 10,
                    "--seed", seed, "--out", data)
        if rc != 0:
            raise RuntimeError(f"synth exited {rc}")
        return {"seed": seed, "workdir": workdir, "data": data}

    def run(self, ctx, cli):
        """One timed pass; returns its timings."""
        self.pipeline(ctx, cli)
        timings = {f"cmd.{c}_s": cli.seconds(c) for c in ("split", "train", "eval", "predict")}
        timings["train_s"] = timings["cmd.train_s"]
        return timings

    def inspect(self, ctx, cli):
        """Check one pass; ``cli.calls`` holds exactly that pass's calls."""
        failed = {label for label, _, rc, _, _ in cli.calls if rc != 0}
        w = ctx["workdir"]
        splits = w / "splits"
        n_train = count_lines(splits / "train.txt")
        n_test = count_lines(splits / "test.txt")
        quality, fingerprint = {}, {}
        for loss in self.losses:
            model = w / f"{loss}.model"
            label = f"train {loss}"
            if label not in failed:
                summary = _read_json(str(model) + ".report.json")
                fingerprint[label] = [sha256(model), summary["epochs_run"], summary["best_epoch"]]
                quality[f"{loss}.epochs"] = summary["epochs_run"]
                if not _check_model(model):
                    failed.add(label)
            label = f"eval {loss}"
            if label not in failed:
                vals = _eval_values(next(c[4] for c in cli.calls if c[0] == label))
                if set(vals) != {"mae", "clean_mae"}:
                    failed.add(label)
                else:
                    quality[f"{loss}.test_mae"] = vals["mae"]
                    quality[f"{loss}.clean_mae"] = vals["clean_mae"]
                    fingerprint[label] = [vals["mae"], vals["clean_mae"]]
        if "predict" not in failed:
            pred = w / "pred.txt"
            fingerprint["predict"] = sha256(pred)
            if count_lines(pred) != n_test:
                failed.add("predict")
        fingerprint["split"] = [sha256(splits / f) for f in ("train.txt", "validation.txt", "test.txt")]
        return {
            "ops": [c[0] for c in cli.calls],
            "failed": failed,
            "quality": quality,
            "fingerprint": fingerprint,
            "train_entries": n_train,
            "entry_epochs": sum(n_train * quality.get(f"{loss}.epochs", 0) for loss in self.losses),
            # each train call parses its two inputs; parse_ratio's denominator
            "train_input_records": len(self.losses) * (n_train + count_lines(splits / "validation.txt")),
        }


class SmallConverge(CliWorkload):
    name = "small-converge"
    dims, synth_rank, density = "30x30x16", 4, 0.3
    setup_repeats = 5
    losses = ("cauchy", "l2")

    def pipeline(self, ctx, cli):
        w, seed = ctx["workdir"], ctx["seed"]
        data, splits = ctx["data"], w / "splits"
        cli("split", "split", "--input", data / "observed.txt", "--ratios", "16:4:80",
            "--seed", seed, "--out", splits)
        cli("train cauchy", "train", "--train", splits / "train.txt",
            "--val", splits / "validation.txt", "--dims", self.dims, "--loss", "cauchy",
            "--rank", 4, "--gamma", 1, "--lambda", 0.1, "--eta", 1, "--seed", seed,
            "--model-out", w / "cauchy.model")
        cli("train l2", "train", "--train", splits / "train.txt",
            "--val", splits / "validation.txt", "--dims", self.dims, "--loss", "l2",
            "--rank", 4, "--seed", seed, "--model-out", w / "l2.model")
        for loss in self.losses:
            cli(f"eval {loss}", "eval", "--model", w / f"{loss}.model",
                "--test", splits / "test.txt", "--mask", data / "outliers.txt")
        cli("predict", "predict", "--model", w / "cauchy.model",
            "--entries", splits / "test.txt", "--out", w / "pred.txt")

    def inspect(self, ctx, cli):
        check = super().inspect(ctx, cli)
        c, l2 = check["quality"].get("cauchy.clean_mae"), check["quality"].get("l2.clean_mae")
        if c is not None and l2 is not None and not c < l2:
            check["failed"].add("eval cauchy")
        return check


class WsdreamIo(CliWorkload):
    name = "wsdream-io"
    dims, synth_rank, density = "142x4532x64", 5, 0.005
    losses = ("cauchy",)

    def pipeline(self, ctx, cli):
        w, seed = ctx["workdir"], ctx["seed"]
        data, splits = ctx["data"], w / "splits"
        cli("split", "split", "--input", data / "observed.txt", "--ratios", "70:10:20",
            "--seed", seed, "--out", splits)
        # no --dims: dims are inferred, which parses both inputs twice
        cli("train cauchy", "train", "--train", splits / "train.txt",
            "--val", splits / "validation.txt", "--max-epochs", 1, "--seed", seed,
            "--model-out", w / "cauchy.model")
        cli("eval cauchy", "eval", "--model", w / "cauchy.model",
            "--test", splits / "test.txt", "--mask", data / "outliers.txt")
        cli("predict", "predict", "--model", w / "cauchy.model",
            "--entries", splits / "test.txt", "--out", w / "pred.txt")


class WsdreamFit:
    """Library calls only: synthesize and split in memory, then train."""

    name = "wsdream-fit"
    setup_repeats = 3
    epochs = 3
    # the held-out evaluation takes about 0.1 s; its median over repeats
    # is the pass's non_train_s
    eval_repeats = 5

    def setup(self, seed, workdir, cli):
        spec = lftk.dataio.SynthSpec(dims=(142, 4532, 64), rank=5, density=0.05,
                                     noise_std=0.05, outlier_rate=0.05,
                                     outlier_scale=10.0, seed=seed)
        observed, _, mask = lftk.dataio.synthesize(spec)
        train, val, test = lftk.evaluation.split(
            observed, lftk.evaluation.SplitSpec(0.7, 0.1, 0.2, seed=seed))
        dims = observed.dims
        flagged = np.ravel_multi_index((observed.i[mask], observed.j[mask], observed.k[mask]), dims)
        test_cells = np.ravel_multi_index((test.i, test.j, test.k), dims)
        clean = test.take(np.flatnonzero(~np.isin(test_cells, flagged)))
        return {"seed": seed, "train": train, "val": val, "test": test, "clean": clean}

    def run(self, ctx, cli):
        config = lftk.admm.TrainConfig(rank=5, max_epochs=self.epochs,
                                       patience=self.epochs, seed=ctx["seed"])
        t0 = clock()
        model, report = lftk.admm.train(ctx["train"], ctx["val"], config)
        train_s = clock() - t0
        evals = []
        for _ in range(self.eval_repeats):
            t1 = clock()
            test_mae = lftk.evaluation.mae(model, ctx["test"])
            clean_mae = lftk.evaluation.mae(model, ctx["clean"])
            evals.append((clock() - t1, test_mae, clean_mae))
        ctx["last"] = (model, report, evals)
        return {"train_s": train_s, "non_train_s": statistics.median(e[0] for e in evals)}

    def inspect(self, ctx, cli):
        model, report, evals = ctx.pop("last")
        _, test_mae, clean_mae = evals[0]
        failed = set()
        ok = all(np.isfinite(a).all() and a.min() >= 0 for _, a in model.arrays())
        if report.diverged or len(report.epochs) != self.epochs or not ok:
            failed.add("train cauchy")
        if any(e[1:] != evals[0][1:] for e in evals):
            failed.add("eval cauchy")
        digest = hashlib.sha256()
        for _, arr in model.arrays():
            digest.update(arr.tobytes())
        quality = {"cauchy.test_mae": test_mae, "cauchy.clean_mae": clean_mae,
                   "cauchy.epochs": len(report.epochs)}
        fingerprint = {"train cauchy": [digest.hexdigest(), len(report.epochs), report.best_epoch],
                       "eval cauchy": [test_mae, clean_mae]}
        return {
            "ops": ["train cauchy", "eval cauchy"],
            "failed": failed,
            "quality": quality,
            "fingerprint": fingerprint,
            "train_entries": ctx["train"].n_entries,
            "entry_epochs": ctx["train"].n_entries * len(report.epochs),
        }


WORKLOADS = {w.name: w for w in (SmallConverge(), WsdreamFit(), WsdreamIo())}
