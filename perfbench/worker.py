"""Runs one workload in its own process and prints its results as JSON.

Started by ``run.py``, one process per workload, so that ``peak_rss_mb``
(``ru_maxrss`` of this process) belongs to that workload alone; it includes
set-up. Usage:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Load lftk from this checkout's sources, never from an installed copy.
sys.path.insert(0, str(SRC))
import lftk  # noqa: E402

if Path(lftk.__file__).resolve().parent != (SRC / "lftk").resolve():
    raise SystemExit(f"lftk was imported from {lftk.__file__}, not from {SRC}")

import lftk.dataio  # noqa: E402
from lftk.tensor import SparseTensor  # noqa: E402
from probe import Probe, clock  # noqa: E402
from spans import COUNTS, END, ID, NAME, PARENT, PHASE, START, Tracer, durations  # noqa: E402
from workloads import WORKLOADS, Cli  # noqa: E402

STATE_DIR = HERE / "_state"
REFERENCE = HERE / "reference.json"

# Counts that must repeat exactly for the same code and seed.
EXACT_COUNTS = (
    "admm.train_epoch.calls",
    "admm.best_epoch",
    "model.copy.calls",
    "dataio.load_records.records",
    "cli.train.parse_ratio",
    "dataio.bytes_written",
)


def median(values):
    return statistics.median(values) if values else None


def code_digest():
    """Digest of lftk's sources and of the workloads that feed them."""
    h = hashlib.sha256()
    for path in sorted((SRC / "lftk").rglob("*.py")) + [HERE / "workloads.py"]:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def one_pass(wl, ctx, tracer=None):
    """Run one timed pass, then check its outputs with the clock stopped."""
    cli = Cli(tracer)
    phase = tracer.begin_phase() if tracer else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = clock()
        timings = wl.run(ctx, cli)
        wall = clock() - t0
    check = wl.inspect(ctx, cli)
    return {"traced": tracer is not None, "phase": phase, "wall_s": wall,
            "timings": timings, **check}


def set_up(wl, seed, workdir, tracer=None):
    phase = tracer.begin_phase() if tracer else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = clock()
        ctx = wl.setup(seed, workdir, Cli(tracer))
        seconds = clock() - t0
    return ctx, seconds, phase


def reference_failures(workload, seed, quality):
    """Quality numbers against the values recorded for this workload.

    A recorded seed must match within ``rel_tol``; any other seed must fall
    inside the recorded range widened by ``envelope_factor``.
    """
    ref = json.loads(REFERENCE.read_text())
    table = ref["workloads"][workload]
    failed, notes = set(), []
    for key, value in quality.items():
        if key.endswith(".epochs"):
            continue
        label = "eval " + key.split(".")[0]
        if str(seed) in table:
            want = table[str(seed)][key]
            if abs(value - want) > ref["rel_tol"] * abs(want):
                failed.add(label)
                notes.append(f"{key} {value!r} differs from recorded {want!r} for seed {seed}")
        else:
            seen = [row[key] for row in table.values()]
            lo, hi = min(seen) / ref["envelope_factor"], max(seen) * ref["envelope_factor"]
            if not lo <= value <= hi:
                failed.add(label)
                notes.append(f"{key} {value!r} outside [{lo:.4g}, {hi:.4g}]")
    return failed, notes


def layer_metrics(tracer, phase, check):
    """Per-layer numbers for one traced phase (one pass or one set-up)."""
    d = durations(tracer.spans, phase)
    m = {}
    for name, agg in d.items():
        m[f"{name}.s"] = (agg["s"], "s")
        m[f"{name}.calls"] = (agg["calls"], "count")
        if name.startswith("cli."):
            m[f"{name}.self_s"] = (agg["self_s"], "s")
        layer = f"layer.{name.split('.')[0]}.self_s"
        m[layer] = (m.get(layer, (0.0,))[0] + agg["self_s"], "s")

    def count(name, key):
        return d.get(name, {}).get("counts", {}).get(key)

    def micros_per(name, key, label):
        n = count(name, key)
        if n:
            m[label] = (d[name]["s"] / n * 1e6, "us")

    if "admm.train_epoch" in d:
        m["admm.sweep.self_s"] = (d["admm.train_epoch"]["self_s"], "s")
    if "admm.train" in d:
        work = sum(s[COUNTS]["entries"] * s[COUNTS]["epochs"] for s in tracer.spans
                   if s[PHASE] == phase and s[NAME] == "admm.train")
        if work and "admm.train_epoch" in d:
            m["admm.ns_per_entry_epoch"] = (d["admm.train_epoch"]["s"] / work * 1e9, "ns")
        first = min((s for s in tracer.spans if s[PHASE] == phase and s[NAME] == "admm.train"),
                    key=lambda s: s[ID])
        m["admm.best_epoch"] = (first[COUNTS]["best_epoch"], "count")
    for name, key in (("dataio.load_records", "records"),
                      ("dataio.load_outlier_mask", "records"),
                      ("model.predict_entries", "entries")):
        if count(name, key) is not None:
            m[f"{name}.{key}"] = (count(name, key), "count")
    micros_per("dataio.load_records", "records", "dataio.load_records.us_per_record")
    micros_per("dataio.write_records", "records", "dataio.write_records.us_per_record")
    micros_per("dataio.write_predictions", "entries", "dataio.write_predictions.us_per_entry")
    for key in ("bytes_read", "bytes_written"):
        total = sum(agg["counts"].get(key, 0) for n, agg in d.items() if n.startswith("dataio."))
        m[f"dataio.{key}"] = (total, "B")
    if "cli.train" in d and check and check.get("train_input_records"):
        ids = {s[ID] for s in tracer.spans if s[PHASE] == phase and s[NAME] == "cli.train"}
        parsed = sum(s[COUNTS]["records"] for s in tracer.spans
                     if s[NAME] == "dataio.load_records" and s[PARENT] in ids)
        m["cli.train.parse_ratio"] = (parsed / check["train_input_records"], "ratio")
    return m


def bytes_per_entry(wl, ctx):
    """Memory kept by ``SparseTensor.from_arrays`` per entry (tracemalloc)."""
    if "train" in ctx:
        t = ctx["train"]
    else:
        t = lftk.dataio.load_records(ctx["workdir"] / "splits" / "train.txt")
    inputs = (t.i.copy(), t.j.copy(), t.k.copy(), t.y.copy())
    tracemalloc.start()
    try:
        built = SparseTensor.from_arrays(t.dims, *inputs)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return kept / built.n_entries


def tail(values):
    """Highest percentile with at least ten samples beyond it (max below 20)."""
    n = len(values)
    if n < 20:
        return max(values), f"max of {n}"
    q = 1 - 10 / n
    return statistics.quantiles(values, n=1000, method="inclusive")[int(q * 1000) - 1], \
        f"p{q * 100:.1f} of {n}"


def run_phases(wl, seed, seconds, trace, workdir, probe):
    """Set up and pass once, then set up ``setup_repeats`` times, then pass.

    The first set-up and pass come before anything else, so that
    ``peak_rss_mb`` holds one set-up and one pass, what a user's single run
    holds; the probe starts after them, because its samples, taken at random
    points, moved that peak by up to 8%. The set-ups timed for ``setup_s``
    follow, and passes run until ``seconds`` of them have gone by.
    """
    tracer = Tracer() if trace else None
    passes, errors, setups, peak_rss = [], [], [], None
    ctx, _, _ = set_up(wl, seed, workdir)
    start = time.perf_counter()
    try:
        passes.append(one_pass(wl, ctx))
    except Exception as exc:  # a crash inside lftk is a failed operation
        traceback.print_exc()
        errors.append(f"pass 1: {exc!r}")
        return tracer, ctx, setups, passes, errors, peak_rss
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if probe:
        probe.start()
    in_passes = time.perf_counter() - start

    for _ in range(wl.setup_repeats):
        ctx = None
        gc.collect()
        ctx, s, phase = set_up(wl, seed, workdir, tracer)
        setups.append((s, phase))

    start = time.perf_counter() - in_passes
    while True:
        n_traced = sum(p["traced"] for p in passes)
        n_plain = len(passes) - n_traced
        elapsed = time.perf_counter() - start
        out_of_time = elapsed + median([p["wall_s"] for p in passes]) > seconds
        if out_of_time and (not trace or (n_traced >= 2 and n_plain >= 1)):
            break
        # traced runs alternate plain and traced passes, so the overhead
        # compares passes made under the same conditions
        traced = trace and (n_traced < n_plain or out_of_time)
        try:
            passes.append(one_pass(wl, ctx, tracer if traced else None))
        except Exception as exc:
            traceback.print_exc()
            errors.append(f"pass {len(passes) + 1}: {exc!r}")
            break
    return tracer, ctx, setups, passes, errors, peak_rss


def measure(wl, seed, seconds, trace, workdir):
    # Untraced runs sample the host's speed after their first pass and
    # divide all their timings by the run's slowdown; traced runs report
    # raw per-layer times.
    probe = None if trace else Probe()
    try:
        tracer, ctx, setups, passes, errors, peak_rss = run_phases(
            wl, seed, seconds, trace, workdir, probe)
    finally:
        if probe:
            probe.stop()
    if probe and not probe.samples:
        probe.sample(10)  # a run too short for the timer to fire
    slowdown = probe.slowdown() if probe else 1.0

    attempted = sum(len(p["ops"]) for p in passes) + len(errors)
    failed_ops = [set(p["failed"]) for p in passes]
    notes = list(errors)
    first = passes[0] if passes else None
    for p, bad in zip(passes, failed_ops):
        for label, value in p["fingerprint"].items():
            if value != first["fingerprint"].get(label):
                bad.add(label)
                notes.append(f"{label}: output differs from the first pass")
        ref_bad, ref_notes = reference_failures(wl.name, seed, p["quality"])
        bad |= ref_bad
        notes += ref_notes
    for p, bad in zip(passes, failed_ops):
        if bad:
            notes.append(f"failed checks: {sorted(bad)}")

    metrics = {}

    def put(name, values, unit):
        values = [v for v in values if v is not None]
        if values:
            metrics[name] = {"value": median(values), "unit": unit, "n": len(values)}

    def non_train(p):
        return p["timings"].get("non_train_s", p["wall_s"] - p["timings"]["train_s"])

    def throughput(p):
        return p["entry_epochs"] / p["timings"]["train_s"]

    # An untraced run's timings are at the reference machine's speed.
    plain = [p for p in passes if not p["traced"]]
    put("setup_s", [s / slowdown for s, _ in setups], "s")
    put("wall_s", [p["wall_s"] / slowdown for p in plain], "s")
    put("train_throughput", [throughput(p) * slowdown for p in plain], "entry-epochs/s")
    put("non_train_s", [non_train(p) / slowdown for p in plain], "s")
    for key in ("cmd.split_s", "cmd.train_s", "cmd.eval_s", "cmd.predict_s"):
        put(key, [p["timings"][key] / slowdown for p in plain if key in p["timings"]], "s")
    if probe:
        put("raw.setup_s", [s for s, _ in setups], "s")
        put("raw.train_throughput", [throughput(p) for p in plain], "entry-epochs/s")
        put("raw.non_train_s", [non_train(p) for p in plain], "s")
        metrics["machine.slowdown"] = {"value": slowdown, "unit": "ratio",
                                       "n": len(probe.samples)}
    if first:
        for key, value in first["quality"].items():
            if not key.endswith(".epochs"):
                put(key.replace("cauchy.", ""), [value], "value")

    counts, closure = {}, None
    if trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [layer_metrics(tracer, p["phase"], p) for p in traced]
        per_setup = [layer_metrics(tracer, phase, None) for _, phase in setups]
        names = {n for m in per_pass for n in m}
        for name in sorted(names | {n for m in per_setup for n in m}):
            source = per_pass if name in names else per_setup
            unit = next(m[name][1] for m in source if name in m)
            put(name, [m[name][0] for m in source if name in m], unit)
        epochs = [s[END] - s[START] for p in traced for s in tracer.spans
                  if s[PHASE] == p["phase"] and s[NAME] == "admm.train_epoch"]
        if epochs:
            put("admm.train_epoch.p50_s", [median(epochs)], "s")
            value, label = tail(epochs)
            put("admm.train_epoch.tail_s", [value], "s")
            metrics["admm.train_epoch.tail_s"]["label"] = label
            metrics["admm.train_epoch.p50_s"]["n"] = len(epochs)
            metrics["admm.train_epoch.tail_s"]["n"] = len(epochs)
        put("trace.unattributed_s",
            [p["wall_s"] - sum(s[END] - s[START] for s in tracer.spans
                               if s[PHASE] == p["phase"] and s[PARENT] < 0) for p in traced], "s")
        put("trace.wall_s", [p["wall_s"] for p in traced], "s")
        # one traced pass, split exactly into per-layer self times
        mid = sorted(traced, key=lambda p: p["wall_s"])[len(traced) // 2]
        mid_layers = layer_metrics(tracer, mid["phase"], mid)
        closure = {"wall_s": mid["wall_s"],
                   **{n: v for n, (v, _) in mid_layers.items() if n.startswith("layer.")}}
        put("trace.overhead_s", [median([p["wall_s"] for p in traced])
                                 - median([p["wall_s"] for p in plain])], "s")
        put("tensor.bytes_per_entry", [bytes_per_entry(wl, ctx)], "B")
        for name in EXACT_COUNTS:
            seen = {m[name][0] for m in per_pass if name in m}
            if len(seen) > 1:
                notes.append(f"{name} differs between passes: {sorted(seen)}")
                failed_ops[-1].add(name)
            if seen:
                counts[name] = seen.pop()

    if first:
        notes += compare_state(wl.name, seed, first["fingerprint"], counts, failed_ops[0])
    # a failed check counts the operations it names, or one if it names none
    failed = sum(max(len(bad & set(p["ops"])), 1 if bad else 0)
                 for p, bad in zip(passes, failed_ops))
    failed = min(attempted, failed + len(errors))
    put("peak_rss_mb", [peak_rss], "MB")
    put("failed_share", [failed / attempted if attempted else 1.0], "share")
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "correct": bool(passes) and failed == 0 and not notes,
        "attempted": max(attempted, 1),
        "failed": failed,
        "notes": notes,
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "train_entries": first["train_entries"] if first else None,
        "metrics": metrics,
        "closure": closure,
        "plain_passes": [{"wall_s": p["wall_s"], **p["timings"]} for p in plain],
        "probe_samples": probe and probe.samples,
        "spans": tracer.spans if tracer else None,
    }


def compare_state(workload, seed, fingerprint, counts, bad):
    """Compare outputs and exact counts with an earlier run of the same code and seed."""
    path = STATE_DIR / f"{workload}-seed{seed}.json"
    digest = code_digest()
    now = json.loads(json.dumps({"fingerprint": fingerprint, "counts": counts}))
    notes = []
    try:
        old = json.loads(path.read_text())
    except (OSError, ValueError):
        old = None
    if old and old.get("code") == digest:
        for key in ("fingerprint", "counts"):
            for name, value in now[key].items():
                if name in old[key] and old[key][name] != value:
                    bad.add(name)
                    notes.append(f"{name} differs from an earlier run of the same code and seed")
        now = {k: {**old[k], **now[k]} for k in ("fingerprint", "counts")}
    STATE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps({"code": digest, **now}, indent=1))
    return notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    workdir = HERE / "_work" / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = measure(wl, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spans = result.pop("spans")
    if spans is not None:
        out = HERE / "results" / f"{wl.name}-seed{args.seed}.spans.jsonl"
        out.parent.mkdir(exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
        result["spans_file"] = str(out.relative_to(ROOT))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
