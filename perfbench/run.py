"""lftk benchmark: one command that runs, checks and reports a workload.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs in a fresh child process (``worker.py``), one at a time.
The report goes to stdout, and to ``perfbench/results/``; the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics named in ``BENCHMARK.json``: the end-to-end set with ``--trace 0``,
the per-layer set with ``--trace 1``. See ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("small-converge", "wsdream-fit", "wsdream-io")

END_TO_END = ("setup_s", "train_throughput", "non_train_s", "peak_rss_mb")
PER_LAYER = (
    "admm.train.s",
    "admm.train_epoch.p50_s",
    "admm.train_epoch.tail_s",
    "admm.train_epoch.calls",
    "admm.sweep.self_s",
    "admm.project_nonnegative.s",
    "admm.update_multipliers.s",
    "admm.objective.s",
    "admm.max_primal_residual.s",
    "admm.ns_per_entry_epoch",
    "admm.best_epoch",
    "model.predict_entries.s",
    "model.predict_entries.entries",
    "model.copy.calls",
    "model.copy.s",
    "evaluation.mae.s",
    "evaluation.mae.calls",
    "evaluation.split.s",
    "dataio.synthesize.s",
    "tensor.from_arrays.s",
    "tensor.from_arrays.calls",
    "tensor.take.s",
    "tensor.bytes_per_entry",
    "trace.overhead_s",
)
# End-to-end metrics printed in the report, in this order, when measured.
REPORTED = (
    "setup_s", "wall_s", "train_throughput", "non_train_s",
    "cmd.split_s", "cmd.train_s", "cmd.eval_s", "cmd.predict_s",
    "raw.setup_s", "raw.train_throughput", "raw.non_train_s", "machine.slowdown",
    "peak_rss_mb", "test_mae", "clean_mae", "l2.test_mae", "l2.clean_mae", "failed_share",
)
DEADLINE_S = 165


def last_level_cache():
    """(bytes, source) of the largest cache level in sysfs, or lscpu's L3."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (0, 0)
    for index in base.glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        best = max(best, (level, int(size.rstrip("KMG")) * scale))
    if best[1]:
        return best[1], "sysfs"
    try:
        out = subprocess.run(["lscpu", "-B"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        out = ""
    for line in out.splitlines():
        if line.startswith("L3 cache:"):
            return int(line.split()[2]), "lscpu"
    return None, "unknown"


def copy_bandwidth(llc_bytes):
    """numpy copy rate, STREAM-style: 2 x array bytes per copy (read + write)."""
    import numpy as np

    n_bytes = max(4 * (llc_bytes or 0), 256 << 20)
    src = np.ones(n_bytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / statistics.median(times) / 1e9, src.nbytes


def machine_context(llc, llc_source):
    # Runs after the workers: a child inherits its parent's peak RSS at
    # fork, so the parent must stay small while workers start.
    import numpy as np

    gbps, array_bytes = copy_bandwidth(llc)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "llc_source": llc_source,
        "machine.copy_gbps": gbps,
        "copy_array_bytes": array_bytes,
    }


def run_worker(name, args, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        # a fixed hash seed keeps set and dict layouts, and so peak_rss_mb, repeatable
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout,
                              cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {name} did not finish within {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {name} worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def mib(n_bytes):
    return f"{n_bytes / 2**20:.2f}" if n_bytes else "unknown"


def report(llc, res):
    m = res["metrics"]
    print(f"== {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
          f"passes {res['passes']} ({res['traced_passes']} traced)")
    n_train = res["train_entries"] or 0
    print(f"   working set {mib(n_train * 40)} MiB (computed: {n_train} training entries "
          f"x 40 B of coordinates, value and prediction) vs LLC {mib(llc)} MiB")
    names = [n for n in REPORTED if n in m] if not res["trace"] else sorted(m)
    for name in names:
        v = m[name]
        extra = f"  ({v['label']})" if "label" in v else ""
        print(f"   {name:<40} {fmt(v['value']):>14} {v['unit']:<15} n={v['n']}{extra}")
    if res["trace"] and "admm.train.s" in m:
        total = m["admm.train.s"]["value"]
        parts = ["admm.sweep.self_s", "admm.objective.s", "admm.project_nonnegative.s",
                 "admm.update_multipliers.s", "admm.max_primal_residual.s",
                 "evaluation.mae.s", "model.copy.s"]
        shares = ", ".join(f"{p.rsplit('.', 1)[0]} {m[p]['value'] / total:.1%}"
                           for p in parts if p in m)
        print(f"   share of admm.train.s: {shares}")
    if res["closure"]:
        c = dict(res["closure"])
        wall = c.pop("wall_s")
        parts = " + ".join(f"{n[6:-7]} {v:.4f}" for n, v in sorted(c.items()))
        rest = wall - sum(c.values())
        print(f"   median traced pass {wall:.4f} s = self time of {parts} + unattributed {rest:.6f}")
    print(f"   checks: {res['attempted']} operations, {res['failed']} failed; "
          f"correct={res['correct']}")
    for note in res["notes"]:
        print(f"   ! {note}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "lftk" / "__init__.py").is_file():
        print(f"perfbench: no lftk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    llc, llc_source = last_level_cache()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        timeout = DEADLINE_S - (time.monotonic() - start) if args.workload != "all" else DEADLINE_S
        res = run_worker(name, args, timeout)
        if res is None:
            return 1
        report(llc, res)
        results.append(res)
    ctx = machine_context(llc, llc_source)
    print(f"== machine: python {ctx['python']}, numpy {ctx['numpy']}, nproc {ctx['nproc']}, "
          f"LLC {mib(llc)} MiB ({llc_source}), machine.copy_gbps {ctx['machine.copy_gbps']:.2f} "
          f"GB/s (2 arrays of {mib(ctx['copy_array_bytes'])} MiB, median of 5 copies)")
    for res in results:
        out = HERE / "results" / f"{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"machine": ctx, **res}, indent=1))

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for res in results:
        prefix = f"{res['workload']}/" if len(results) > 1 else ""
        missing = [name for name in wanted if name not in res["metrics"]]
        if missing:
            print(f"perfbench: {res['workload']} measured no {missing}", file=sys.stderr)
            return 1
        for name in wanted:
            v = res["metrics"][name]
            metrics[prefix + name] = {"value": v["value"], "unit": v["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
