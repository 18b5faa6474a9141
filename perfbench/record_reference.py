"""Record the quality numbers that later runs are checked against.

    python3 perfbench/record_reference.py --seeds 0-19

Runs one pass of every workload per seed and writes ``reference.json``:
each seed's held-out MAE (cauchy, and l2 where trained). The benchmark
fails a run whose numbers drift more than ``rel_tol`` from a recorded seed,
or, for a seed not recorded, leave the recorded range widened by
``envelope_factor``. Re-record only when a change is meant to alter results.
"""

import argparse
import json
import shutil

import worker
from workloads import WORKLOADS

REL_TOL = 1e-2
ENVELOPE_FACTOR = 2.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 0-19")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    try:
        ref = json.loads(worker.REFERENCE.read_text())
    except FileNotFoundError:
        ref = {"workloads": {}}
    ref["rel_tol"], ref["envelope_factor"] = REL_TOL, ENVELOPE_FACTOR
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        table = ref["workloads"].setdefault(name, {})
        for seed in range(lo, hi + 1):
            workdir = worker.HERE / "_work" / f"reference-{name}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                ctx, _, _ = worker.set_up(wl, seed, workdir)
                p = worker.one_pass(wl, ctx)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if p["failed"]:
                raise SystemExit(f"{name} seed {seed}: failed {sorted(p['failed'])}")
            table[str(seed)] = {k: v for k, v in p["quality"].items() if not k.endswith(".epochs")}
            print(name, seed, table[str(seed)], flush=True)
            worker.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
